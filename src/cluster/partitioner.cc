#include "cluster/partitioner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "index/irtree.h"
#include "index/snapshot.h"

namespace coskq {

namespace {

/// FNV-1a over a whole file (streamed), for the manifest's snapshot-file
/// binding. Returns false on I/O failure.
bool ChecksumFile(const std::string& path, uint64_t* checksum,
                  uint64_t* size) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  uint64_t h = 14695981039346656037ull;
  uint64_t total = 0;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    const size_t n = static_cast<size_t>(in.gcount());
    h = ClusterFnv1a(buf, n, h);
    total += n;
    if (in.eof()) {
      break;
    }
  }
  *checksum = h;
  *size = total;
  return true;
}

std::string ShardFileName(uint32_t shard_id, const char* suffix) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard_%04u%s", shard_id, suffix);
  return name;
}

}  // namespace

StatusOr<StrPartition> StrPartitionDataset(const Dataset& dataset,
                                           uint32_t num_shards) {
  const size_t n = dataset.NumObjects();
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (static_cast<size_t>(num_shards) > n) {
    return Status::InvalidArgument(
        "num_shards (" + std::to_string(num_shards) +
        ") exceeds object count (" + std::to_string(n) + ")");
  }

  // STR pass 1: global x-order (ties by y then id, so the cut is a total
  // order and the partition is deterministic).
  std::vector<ObjectId> by_x(n);
  for (size_t i = 0; i < n; ++i) {
    by_x[i] = static_cast<ObjectId>(i);
  }
  std::sort(by_x.begin(), by_x.end(), [&](ObjectId a, ObjectId b) {
    const Point& pa = dataset.object(a).location;
    const Point& pb = dataset.object(b).location;
    if (pa.x != pb.x) return pa.x < pb.x;
    if (pa.y != pb.y) return pa.y < pb.y;
    return a < b;
  });

  const uint32_t k = num_shards;
  const uint32_t num_columns =
      static_cast<uint32_t>(std::ceil(std::sqrt(static_cast<double>(k))));
  // Shards per column: base + 1 for the first `rem` columns.
  const uint32_t base = k / num_columns;
  const uint32_t rem = k % num_columns;

  StrPartition partition;
  partition.shard_objects.resize(k);
  partition.tiles.resize(k);

  const Rect& mbr = dataset.mbr();
  uint32_t shard = 0;
  uint32_t shards_before = 0;  // Shards in columns left of this one.
  size_t column_begin = 0;     // Offset into by_x.
  for (uint32_t c = 0; c < num_columns; ++c) {
    const uint32_t column_shards = base + (c < rem ? 1 : 0);
    // Objects per column proportional to its shard share, via cumulative
    // rounding — guarantees every column gets at least its shard count when
    // n >= k, so no shard ever ends up empty.
    const size_t column_end =
        (static_cast<size_t>(n) * (shards_before + column_shards)) / k;
    const size_t m = column_end - column_begin;

    // Column tile x-range: from the previous boundary to the first x of the
    // next column (or the dataset MBR edges at the extremes). Tiles are
    // closed, so boundary-coincident objects on either side stay inside
    // their own tile.
    const double x_lo = c == 0
                            ? mbr.min_x
                            : dataset.object(by_x[column_begin]).location.x;
    const double x_hi = c + 1 == num_columns
                            ? mbr.max_x
                            : dataset.object(by_x[column_end]).location.x;

    // STR pass 2: the column in y-order (ties by x then id).
    std::vector<ObjectId> column(by_x.begin() + column_begin,
                                 by_x.begin() + column_end);
    std::sort(column.begin(), column.end(), [&](ObjectId a, ObjectId b) {
      const Point& pa = dataset.object(a).location;
      const Point& pb = dataset.object(b).location;
      if (pa.y != pb.y) return pa.y < pb.y;
      if (pa.x != pb.x) return pa.x < pb.x;
      return a < b;
    });

    size_t run_begin = 0;
    for (uint32_t r = 0; r < column_shards; ++r) {
      const size_t run_end = (m * (r + 1)) / column_shards;
      const double y_lo =
          r == 0 ? mbr.min_y : dataset.object(column[run_begin]).location.y;
      const double y_hi = r + 1 == column_shards
                              ? mbr.max_y
                              : dataset.object(column[run_end]).location.y;
      std::vector<ObjectId>& members = partition.shard_objects[shard];
      members.assign(column.begin() + run_begin, column.begin() + run_end);
      std::sort(members.begin(), members.end());
      partition.tiles[shard] = Rect(x_lo, y_lo, x_hi, y_hi);
      ++shard;
      run_begin = run_end;
    }

    shards_before += column_shards;
    column_begin = column_end;
  }
  return partition;
}

StatusOr<ClusterManifest> BuildShardedCluster(
    const Dataset& dataset, const std::string& out_dir,
    const BuildClusterOptions& options) {
  StatusOr<StrPartition> partition =
      StrPartitionDataset(dataset, options.num_shards);
  if (!partition.ok()) {
    return partition.status();
  }

  ClusterManifest manifest;
  manifest.dataset_checksum = dataset.ContentChecksum();
  manifest.total_objects = dataset.NumObjects();
  manifest.dataset_mbr = dataset.mbr();
  manifest.vocabulary.reserve(dataset.vocabulary().size());
  for (size_t t = 0; t < dataset.vocabulary().size(); ++t) {
    manifest.vocabulary.push_back(
        dataset.vocabulary().TermString(static_cast<TermId>(t)));
  }

  for (uint32_t s = 0; s < options.num_shards; ++s) {
    const std::vector<ObjectId>& members = partition->shard_objects[s];

    // The shard dataset: members in ascending global-id order, keywords
    // re-interned as strings. Ascending order makes the shard-local id
    // space order-isomorphic to the global one — the property the router's
    // bit-identity argument leans on.
    Dataset shard_dataset;
    ShardManifestEntry entry;
    entry.shard_id = s;
    entry.num_objects = members.size();
    entry.tile = partition->tiles[s];
    entry.global_ids.reserve(members.size());
    std::vector<std::string> words;
    for (const ObjectId id : members) {
      const SpatialObject& obj = dataset.object(id);
      words.clear();
      words.reserve(obj.keywords.size());
      for (const TermId t : obj.keywords) {
        words.push_back(dataset.vocabulary().TermString(t));
      }
      shard_dataset.AddObject(obj.location, words);
      entry.mbr.ExpandToInclude(obj.location);
      entry.global_ids.push_back(static_cast<uint32_t>(id));
    }
    for (size_t t = 0; t < shard_dataset.vocabulary().size(); ++t) {
      entry.signature.AddWord(
          shard_dataset.vocabulary().TermString(static_cast<TermId>(t)));
    }
    entry.dataset_checksum = shard_dataset.ContentChecksum();

    entry.dataset_file = ShardFileName(s, ".txt");
    entry.snapshot_file = ShardFileName(s, ".cqix");
    const std::string dataset_path = out_dir + "/" + entry.dataset_file;
    const std::string snapshot_path = out_dir + "/" + entry.snapshot_file;
    COSKQ_RETURN_IF_ERROR(shard_dataset.SaveToFile(dataset_path));

    IrTree::Options tree_options;
    tree_options.max_entries = options.max_entries;
    IrTree tree(&shard_dataset, tree_options);
    COSKQ_RETURN_IF_ERROR(SaveSnapshot(&tree, snapshot_path));
    if (!ChecksumFile(snapshot_path, &entry.snapshot_checksum,
                      &entry.snapshot_bytes)) {
      return Status::IoError("cannot re-read snapshot " + snapshot_path);
    }

    manifest.shards.push_back(std::move(entry));
  }

  COSKQ_RETURN_IF_ERROR(
      manifest.SaveToFile(out_dir + "/" + kManifestFileName));
  return manifest;
}

}  // namespace coskq
