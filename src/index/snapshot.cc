#include "index/snapshot.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "index/frozen_layout.h"
#include "index/residency.h"
#include "util/atomic_file.h"
#include "util/logging.h"

namespace coskq {

namespace internal_index {

/// Friend-of-IrTree bridge: reads the frozen store for saving and builds
/// frozen-only trees from a loaded store.
class SnapshotAccess {
 public:
  static const FrozenStore* store(const IrTree& tree) {
    return tree.frozen_.get();
  }
  static const IrTree::Options& options(const IrTree& tree) {
    return tree.options_;
  }
  static std::unique_ptr<IrTree> MakeFrozenOnly(
      const Dataset* dataset, const IrTree::Options& options,
      std::unique_ptr<FrozenStore> store) {
    return std::unique_ptr<IrTree>(
        new IrTree(dataset, options, std::move(store)));
  }
};

}  // namespace internal_index

namespace {

using internal_index::BodyCounts;
using internal_index::BodyLayout;
using internal_index::FrozenNodeRecord;
using internal_index::FrozenStore;
using internal_index::FrozenView;
using internal_index::SnapshotAccess;

constexpr uint16_t kEndianMarker = 0x0102;

/// On-disk header; memcpy'd verbatim. The layout has no padding (verified
/// below) and the endian marker lets a reader with the opposite byte order
/// reject the file instead of misparsing it. The first 48 bytes are exactly
/// the v1 header; v2 appended `layout` and `reserved` and pads the header
/// region to 4096 bytes so the body starts page-aligned in the file; v3
/// appended the posting-file counts. In v3/v4 `num_terms` counts the node
/// summaries only; in v1/v2 it also counted the object keyword spans.
struct SnapshotHeader {
  uint32_t magic;
  uint16_t version;
  uint16_t endian;
  uint64_t dataset_checksum;
  uint32_t num_objects;
  uint32_t max_entries;
  uint32_t num_nodes;
  uint32_t num_leaf_entries;
  uint32_t num_terms;
  uint32_t height;
  uint64_t body_bytes;
  // --- v2 fields (absent in v1 files; defaulted on read). ---
  /// v2/v3: the legacy node-layout id (see LegacyNodeLayout). v4 has one
  /// body layout and requires 0 here.
  uint32_t layout;
  uint32_t reserved;
  // --- v3 fields (absent in v1/v2 files, whose bodies carry no postings).
  uint32_t num_post_terms;
  uint32_t num_postings;
};
static_assert(sizeof(SnapshotHeader) == 64,
              "snapshot header layout is part of the format");
static_assert(std::is_trivially_copyable<SnapshotHeader>::value,
              "snapshot header must be memcpy-safe");

/// Bytes of the common (v1) header prefix, and the header *region* sizes —
/// the file offset where the body starts — per version.
constexpr size_t kV1HeaderBytes = 48;
constexpr size_t kV2HeaderBytes = 56;
constexpr size_t kV2HeaderRegionBytes = 4096;
constexpr size_t kTrailerBytes = sizeof(uint64_t);

constexpr uint64_t HeaderRegionBytes(uint16_t version) {
  return version == 1 ? kV1HeaderBytes : kV2HeaderRegionBytes;
}

/// Bytes of the header struct a file of `version` carries.
constexpr size_t HeaderBytes(uint16_t version) {
  return version == 1   ? kV1HeaderBytes
         : version == 2 ? kV2HeaderBytes
                        : sizeof(SnapshotHeader);
}

constexpr size_t Align8(size_t n) { return (n + 7) & ~size_t{7}; }

constexpr uint64_t kMax32 = std::numeric_limits<uint32_t>::max();

// ---------------------------------------------------------------------------
// Legacy bodies (v1-v3). Everything that knows their layouts lives here: the
// converter below reads them once and writes the v4 body.

/// Node-region layout of a v2/v3 body, named by the header's `layout` word
/// (v1 bodies are kBfs). kBfs is the v4 node region: the records, then the
/// four MBR lanes, each a flat section. kLevelGrouped tiled the slots into
/// groups of 64, each one 4096-byte page holding its 64 records followed by
/// their four MBR lanes (64 doubles each); the tail group is zero-padded.
enum class LegacyNodeLayout : uint32_t {
  kBfs = 0,
  kLevelGrouped = 1,
};

constexpr uint32_t kGroupSlots = 64;
constexpr size_t kGroupBytes =
    kGroupSlots * sizeof(FrozenNodeRecord) + 4 * kGroupSlots * sizeof(double);
static_assert(kGroupBytes == 4096, "one level-grouped group is one page");

/// Rejects layout ids a v2/v3 header cannot carry (forward files,
/// corruption).
Status CheckLegacyLayoutId(uint32_t layout, const std::string& path) {
  if (layout != static_cast<uint32_t>(LegacyNodeLayout::kBfs) &&
      layout != static_cast<uint32_t>(LegacyNodeLayout::kLevelGrouped)) {
    return Status::InvalidArgument("unknown frozen layout id " +
                                   std::to_string(layout) + ": " + path);
  }
  return Status::OK();
}

/// Section offsets of a v1-v3 body: the node region (per layout), then flat
/// sections — the term arena, the leaf ids, x, y, the per-entry Bloom
/// signatures `leaf_sigs` (8 bytes per entry, read by no v4 query), and a
/// version-specific tail: v3 the posting file (post_begin, post_entries),
/// v1/v2 per-entry keyword spans (begin, count) into a term arena that
/// interleaves, slot by slot, each node's summary and — for leaves — its
/// objects' keyword sets.
struct LegacyBody {
  LegacyNodeLayout layout = LegacyNodeLayout::kBfs;
  uint32_t num_nodes = 0;
  size_t terms_off = 0;
  size_t leaf_ids_off = 0;
  size_t leaf_x_off = 0;
  size_t leaf_y_off = 0;
  size_t tail_begin_off = 0;  // v3: post_begin; v1/v2: span begins
  size_t tail_entries_off = 0;  // v3: post_entries; v1/v2: span counts
  size_t total_bytes = 0;

  static LegacyBody Make(const SnapshotHeader& h) {
    LegacyBody b;
    b.layout = static_cast<LegacyNodeLayout>(h.layout);
    b.num_nodes = h.num_nodes;
    const size_t nodes = h.num_nodes;
    const size_t entries = h.num_leaf_entries;
    size_t off = b.layout == LegacyNodeLayout::kLevelGrouped
                     ? (nodes + kGroupSlots - 1) / kGroupSlots * kGroupBytes
                     : Align8(nodes * sizeof(FrozenNodeRecord)) +
                           4 * Align8(nodes * sizeof(double));
    const auto section = [&off](size_t bytes) {
      const size_t begin = off;
      off += Align8(bytes);
      return begin;
    };
    b.terms_off = section(size_t{h.num_terms} * sizeof(TermId));
    b.leaf_ids_off = section(entries * sizeof(ObjectId));
    b.leaf_x_off = section(entries * sizeof(double));
    b.leaf_y_off = section(entries * sizeof(double));
    section(entries * sizeof(uint64_t));  // leaf_sigs, dropped on load
    if (h.version >= 3) {
      b.tail_begin_off =
          section((size_t{h.num_post_terms} + 1) * sizeof(uint32_t));
      b.tail_entries_off =
          section(size_t{h.num_postings} * sizeof(uint32_t));
    } else {
      b.tail_begin_off = section(entries * sizeof(uint32_t));
      b.tail_entries_off = section(entries * sizeof(uint32_t));
    }
    b.total_bytes = off;
    return b;
  }

  /// Byte offset of slot's record, and of slot's value in MBR lane k
  /// (0..3 = min_x, min_y, max_x, max_y).
  size_t RecordOff(uint32_t slot) const {
    if (layout == LegacyNodeLayout::kLevelGrouped) {
      return size_t{slot / kGroupSlots} * kGroupBytes +
             size_t{slot % kGroupSlots} * sizeof(FrozenNodeRecord);
    }
    return size_t{slot} * sizeof(FrozenNodeRecord);
  }
  size_t LaneOff(int k, uint32_t slot) const {
    if (layout == LegacyNodeLayout::kLevelGrouped) {
      return size_t{slot / kGroupSlots} * kGroupBytes +
             kGroupSlots * sizeof(FrozenNodeRecord) +
             (size_t(k) * kGroupSlots + slot % kGroupSlots) * sizeof(double);
    }
    return Align8(size_t{num_nodes} * sizeof(FrozenNodeRecord)) +
           size_t(k) * Align8(size_t{num_nodes} * sizeof(double)) +
           size_t{slot} * sizeof(double);
  }
};

/// Fills a posting file from per-entry keyword sets: post_begin[t] ..
/// post_begin[t + 1] is the run of leaf-entry indices whose keyword set
/// contains t, ascending. `keywords(e)` returns entry e's sorted keyword
/// set as a (pointer, count) pair; every id must be < num_post_terms. One
/// counting pass, a prefix sum, then one ascending fill pass.
template <typename KeywordsOf>
void FillPostings(uint32_t num_leaf_entries, uint32_t num_post_terms,
                  KeywordsOf keywords, uint32_t* post_begin,
                  uint32_t* post_entries) {
  std::vector<uint32_t> cursor(size_t{num_post_terms} + 1, 0);
  for (uint32_t e = 0; e < num_leaf_entries; ++e) {
    const auto [terms, count] = keywords(e);
    for (size_t i = 0; i < count; ++i) {
      ++cursor[terms[i] + 1];
    }
  }
  for (uint32_t t = 0; t < num_post_terms; ++t) {
    cursor[t + 1] += cursor[t];
  }
  std::copy(cursor.begin(), cursor.end(), post_begin);
  for (uint32_t e = 0; e < num_leaf_entries; ++e) {
    const auto [terms, count] = keywords(e);
    for (size_t i = 0; i < count; ++i) {
      post_entries[cursor[terms[i]]++] = e;
    }
  }
}

/// Rebuilds a v1-v3 body (at `old_body`, already checksum-verified) as a v4
/// body in `store` — byte for byte what Freeze() writes for the same tree:
/// the node records and MBR lanes move to the flat v4 sections, `leaf_sigs`
/// is dropped, and for v1/v2 the node summaries are compacted into the
/// term arena in slot order and the objects' keyword spans are transposed
/// into the posting file. Every v1/v2 span is range-checked before it is
/// read; `vocab_size` bounds the term ids (the file is bound to the dataset
/// by checksum, so every keyword id is one of its terms). v3 term arenas
/// and posting files are copied as they are and validated with the v4 body.
Status ConvertLegacyBody(const SnapshotHeader& header, const uint8_t* old_body,
                         size_t vocab_size, FrozenStore* store) {
  const LegacyBody old = LegacyBody::Make(header);
  const auto* old_terms =
      reinterpret_cast<const TermId*>(old_body + old.terms_off);
  const auto* old_tail_begin =
      reinterpret_cast<const uint32_t*>(old_body + old.tail_begin_off);
  const auto* old_tail_entries =
      reinterpret_cast<const uint32_t*>(old_body + old.tail_entries_off);
  const auto old_rec = [&](uint32_t slot) {
    FrozenNodeRecord rec;
    memcpy(&rec, old_body + old.RecordOff(slot), sizeof(rec));
    return rec;
  };
  const bool spans = header.version < 3;

  BodyCounts counts{header.num_nodes, header.num_leaf_entries,
                    header.num_terms, header.num_post_terms,
                    header.num_postings};
  if (spans) {
    uint64_t summary_terms = 0;
    for (uint32_t slot = 0; slot < header.num_nodes; ++slot) {
      const FrozenNodeRecord rec = old_rec(slot);
      if (uint64_t{rec.term_begin} + rec.term_count > header.num_terms) {
        return Status::Corruption("snapshot term span out of range");
      }
      summary_terms += rec.term_count;
    }
    const uint32_t* span_begin = old_tail_begin;
    const uint32_t* span_count = old_tail_entries;
    uint64_t postings = 0;
    uint64_t post_terms = 0;
    for (uint32_t e = 0; e < header.num_leaf_entries; ++e) {
      if (uint64_t{span_begin[e]} + span_count[e] > header.num_terms) {
        return Status::Corruption("snapshot leaf keyword span out of range");
      }
      postings += span_count[e];
      for (uint32_t i = 0; i < span_count[e]; ++i) {
        const TermId t = old_terms[span_begin[e] + i];
        if (t >= vocab_size) {
          return Status::Corruption("snapshot keyword id out of range");
        }
        post_terms = std::max<uint64_t>(post_terms, uint64_t{t} + 1);
      }
    }
    if (summary_terms > kMax32 || postings > kMax32) {
      return Status::Corruption("snapshot keyword spans overflow");
    }
    counts.num_terms = static_cast<uint32_t>(summary_terms);
    counts.num_post_terms = static_cast<uint32_t>(post_terms);
    counts.num_postings = static_cast<uint32_t>(postings);
  }

  const BodyLayout lay = BodyLayout::Make(counts);
  std::vector<uint8_t> body(lay.total_bytes, 0);
  uint8_t* out = body.data();
  const size_t lane_off[4] = {lay.min_x_off, lay.min_y_off, lay.max_x_off,
                              lay.max_y_off};
  auto* terms = reinterpret_cast<TermId*>(out + lay.terms_off);
  uint32_t next_term = 0;
  for (uint32_t slot = 0; slot < header.num_nodes; ++slot) {
    FrozenNodeRecord rec = old_rec(slot);
    if (spans) {
      std::copy(old_terms + rec.term_begin,
                old_terms + rec.term_begin + rec.term_count,
                terms + next_term);
      rec.term_begin = next_term;
      next_term += rec.term_count;
    }
    memcpy(out + lay.nodes_off + size_t{slot} * sizeof(rec), &rec,
           sizeof(rec));
    for (int k = 0; k < 4; ++k) {
      memcpy(out + lane_off[k] + size_t{slot} * sizeof(double),
             old_body + old.LaneOff(k, slot), sizeof(double));
    }
  }
  const size_t n = header.num_leaf_entries;
  memcpy(out + lay.leaf_ids_off, old_body + old.leaf_ids_off,
         n * sizeof(ObjectId));
  memcpy(out + lay.leaf_x_off, old_body + old.leaf_x_off, n * sizeof(double));
  memcpy(out + lay.leaf_y_off, old_body + old.leaf_y_off, n * sizeof(double));
  auto* post_begin = reinterpret_cast<uint32_t*>(out + lay.post_begin_off);
  auto* post_entries = reinterpret_cast<uint32_t*>(out + lay.post_entries_off);
  if (spans) {
    FillPostings(
        counts.num_leaf_entries, counts.num_post_terms,
        [&](uint32_t e) {
          return std::make_pair(old_terms + old_tail_begin[e],
                                size_t{old_tail_entries[e]});
        },
        post_begin, post_entries);
  } else {
    memcpy(terms, old_terms, size_t{counts.num_terms} * sizeof(TermId));
    memcpy(post_begin, old_tail_begin,
           (size_t{counts.num_post_terms} + 1) * sizeof(uint32_t));
    memcpy(post_entries, old_tail_entries,
           size_t{counts.num_postings} * sizeof(uint32_t));
  }
  store->owned = std::move(body);
  store->BindView(store->owned.data(), counts, header.height);
  return Status::OK();
}

// ---------------------------------------------------------------------------

/// The body size a header's counts imply for its version.
uint64_t ExpectedBodyBytes(const SnapshotHeader& h) {
  if (h.version < kSnapshotVersion) {
    return LegacyBody::Make(h).total_bytes;
  }
  return FrozenStore::BodyBytes(BodyCounts{h.num_nodes, h.num_leaf_entries,
                                           h.num_terms, h.num_post_terms,
                                           h.num_postings});
}

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/// Whole-file checksum (part of the snapshot format): FNV-1a folded over
/// 8-byte words — header and every body section are 8-byte multiples —
/// striped across four independent lanes (word j updates lane j mod 4),
/// with the lanes FNV-combined in Finish(). Four independent multiply
/// chains run ~4x faster than one serial chain, which keeps verification
/// off the critical path of a snapshot load; any single-byte corruption
/// still flips its word, its lane, and therefore the final value. The word
/// position is tracked across Update calls, so checksumming header and
/// body in one call or two yields the same value.
class Checksummer {
 public:
  void Update(const uint8_t* data, size_t len) {
    COSKQ_CHECK_EQ(len % 8, 0u);
    for (size_t i = 0; i < len; i += 8) {
      uint64_t word;
      memcpy(&word, data + i, sizeof(word));
      uint64_t& lane = lanes_[pos_++ & 3];
      lane ^= word;
      lane *= kFnvPrime;
    }
  }

  uint64_t Finish() const {
    uint64_t h = kFnvOffset;
    for (uint64_t lane : lanes_) {
      h ^= lane;
      h *= kFnvPrime;
    }
    return h;
  }

 private:
  uint64_t lanes_[4] = {kFnvOffset, kFnvOffset + 1, kFnvOffset + 2,
                        kFnvOffset + 3};
  size_t pos_ = 0;
};

/// Structural bounds check of a loaded body: every index the traversals
/// will follow must be in range, so a snapshot that passes cannot make a
/// query read out of bounds. Mirrors pass 1 of CheckFrozenInvariants but
/// reports a Status instead of aborting.
Status ValidateStructure(const FrozenView& v, uint32_t num_objects,
                         uint32_t max_entries) {
  if (v.num_nodes == 0) {
    return Status::Corruption("snapshot has no nodes");
  }
  uint64_t expected_child = 1;
  uint64_t expected_leaf_entry = 0;
  std::vector<bool> id_seen(v.num_nodes, false);
  for (uint32_t slot = 0; slot < v.num_nodes; ++slot) {
    const FrozenNodeRecord& node = v.nodes[slot];
    if (node.id >= v.num_nodes || id_seen[node.id]) {
      return Status::Corruption("snapshot node ids are not a permutation");
    }
    id_seen[node.id] = true;
    if (node.entry_count > max_entries) {
      return Status::Corruption("snapshot node exceeds max_entries");
    }
    if (slot != 0 && node.entry_count == 0) {
      return Status::Corruption("snapshot has an empty non-root node");
    }
    if (uint64_t{node.term_begin} + node.term_count > v.num_terms) {
      return Status::Corruption("snapshot term span out of range");
    }
    if (node.is_leaf()) {
      if (node.entry_begin != expected_leaf_entry) {
        return Status::Corruption("snapshot leaf entries not contiguous");
      }
      expected_leaf_entry += node.entry_count;
      if (expected_leaf_entry > v.num_leaf_entries) {
        return Status::Corruption("snapshot leaf entries out of range");
      }
    } else {
      if (node.first_child != expected_child) {
        return Status::Corruption("snapshot child blocks not contiguous");
      }
      expected_child += node.entry_count;
      if (expected_child > v.num_nodes) {
        return Status::Corruption("snapshot child slots out of range");
      }
    }
  }
  if (expected_child != v.num_nodes) {
    return Status::Corruption("snapshot child blocks do not cover all nodes");
  }
  if (expected_leaf_entry != v.num_leaf_entries) {
    return Status::Corruption("snapshot leaf count mismatch");
  }
  for (uint32_t e = 0; e < v.num_leaf_entries; ++e) {
    if (v.leaf_ids[e] >= num_objects) {
      return Status::Corruption("snapshot leaf object id out of range");
    }
  }
  // Posting file: offsets start at 0, never decrease and end at Σ df; every
  // entry names a leaf entry; every run is strictly ascending (the leaf-run
  // binary searches rely on it).
  if (v.post_begin[0] != 0 ||
      v.post_begin[v.num_post_terms] != v.num_postings) {
    return Status::Corruption("snapshot posting offsets do not span Σdf");
  }
  for (uint32_t t = 0; t < v.num_post_terms; ++t) {
    if (v.post_begin[t + 1] < v.post_begin[t] ||
        v.post_begin[t + 1] > v.num_postings) {
      return Status::Corruption("snapshot posting offsets not monotone");
    }
    const auto [first, last] = v.postings(t);
    for (const uint32_t* p = first; p != last; ++p) {
      if (*p >= v.num_leaf_entries) {
        return Status::Corruption("snapshot posting entry out of range");
      }
      if (p != first && p[-1] >= *p) {
        return Status::Corruption("snapshot posting run not ascending");
      }
    }
  }
  return Status::OK();
}

/// RAII file descriptor.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) {
      close(fd);
    }
  }
};

}  // namespace

Status SaveSnapshot(IrTree* tree, const std::string& path) {
  COSKQ_CHECK(tree != nullptr);
  tree->Freeze();
  const FrozenStore* store = SnapshotAccess::store(*tree);
  const FrozenView& v = store->view;
  const uint8_t* body = store->body;
  const uint64_t body_bytes = store->body_bytes;

  SnapshotHeader header{};
  header.magic = kSnapshotMagic;
  header.version = kSnapshotVersion;
  header.endian = kEndianMarker;
  header.dataset_checksum = tree->dataset().ContentChecksum();
  header.num_objects = static_cast<uint32_t>(tree->dataset().NumObjects());
  header.max_entries =
      static_cast<uint32_t>(SnapshotAccess::options(*tree).max_entries);
  header.num_nodes = v.num_nodes;
  header.num_leaf_entries = v.num_leaf_entries;
  header.num_terms = v.num_terms;
  header.height = v.height;
  header.body_bytes = body_bytes;
  header.num_post_terms = v.num_post_terms;
  header.num_postings = v.num_postings;

  // The whole zero-padded header region participates in the checksum, so a
  // flipped padding byte is still caught.
  std::vector<uint8_t> region(kV2HeaderRegionBytes, 0);
  memcpy(region.data(), &header, sizeof(header));

  Checksummer hasher;
  hasher.Update(region.data(), region.size());
  hasher.Update(body, body_bytes);
  const uint64_t checksum = hasher.Finish();

  // Temp file + rename: a process that has the old file mapped keeps its
  // (unlinked) inode instead of seeing it truncated under the mapping.
  return WriteFileAtomically(path, [&](int fd) {
    return WriteFully(fd, region.data(), region.size()) &&
           WriteFully(fd, body, static_cast<size_t>(body_bytes)) &&
           WriteFully(fd, &checksum, kTrailerBytes);
  });
}

namespace {

/// Reads and validates the header and, when `verify_checksum` is set, the
/// whole-file checksum against the trailer (via buffered reads). On success
/// fills `*info` and `*header_out` (either may be null). Does not validate
/// the body structure or any dataset binding. LoadSnapshot passes
/// verify_checksum=false and verifies over the mapped body instead, so the
/// file is read once, not twice.
Status ReadAndCheckFile(const std::string& path, int fd, bool verify_checksum,
                        SnapshotInfo* info, SnapshotHeader* header_out,
                        uint64_t* file_size_out) {
  struct stat st;
  if (fstat(fd, &st) != 0) {
    return Status::IoError("cannot stat: " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < kV1HeaderBytes) {
    return Status::Corruption("snapshot truncated (no full header): " + path);
  }
  // Read the 48-byte v1 prefix first; it carries everything needed to
  // decide how much more header there is.
  SnapshotHeader header{};
  ssize_t n = pread(fd, &header, kV1HeaderBytes, 0);
  if (n != static_cast<ssize_t>(kV1HeaderBytes)) {
    return Status::IoError("cannot read header: " + path);
  }
  if (header.magic != kSnapshotMagic) {
    return Status::Corruption("not a coskq index snapshot (bad magic): " +
                              path);
  }
  if (header.endian != kEndianMarker) {
    return Status::Corruption(
        "snapshot byte order does not match this host: " + path);
  }
  if (header.version < 1 || header.version > kSnapshotVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(header.version) +
        " (expected 1.." + std::to_string(kSnapshotVersion) + "): " + path);
  }
  const uint64_t header_region = HeaderRegionBytes(header.version);
  const size_t header_bytes = HeaderBytes(header.version);
  if (header.version >= 2) {
    if (file_size < header_region) {
      return Status::Corruption("snapshot truncated (no full header): " +
                                path);
    }
    n = pread(fd, reinterpret_cast<uint8_t*>(&header) + kV1HeaderBytes,
              header_bytes - kV1HeaderBytes,
              static_cast<off_t>(kV1HeaderBytes));
    if (n != static_cast<ssize_t>(header_bytes - kV1HeaderBytes)) {
      return Status::IoError("cannot read header: " + path);
    }
    if (header.version < kSnapshotVersion) {
      const Status layout_ok = CheckLegacyLayoutId(header.layout, path);
      if (!layout_ok.ok()) {
        return layout_ok;
      }
    } else if (header.layout != 0) {
      return Status::Corruption("snapshot layout word is not zero: " + path);
    }
  } else {
    header.layout = 0;  // v1 bodies use the bfs node layout.
    header.reserved = 0;
  }
  if (header.version < 3) {
    header.num_post_terms = 0;
    header.num_postings = 0;
  }
  const uint64_t expected_body = ExpectedBodyBytes(header);
  if (header.body_bytes != expected_body) {
    return Status::Corruption("snapshot body size inconsistent with counts: " +
                              path);
  }
  if (file_size != header_region + header.body_bytes + kTrailerBytes) {
    return Status::Corruption("snapshot truncated or oversized: " + path);
  }
  if (verify_checksum) {
    Checksummer hasher;
    std::vector<uint8_t> buf(1 << 20);
    uint64_t off = 0;
    const uint64_t covered = header_region + header.body_bytes;
    while (off < covered) {
      const size_t want =
          static_cast<size_t>(std::min<uint64_t>(buf.size(), covered - off));
      n = pread(fd, buf.data(), want, static_cast<off_t>(off));
      if (n != static_cast<ssize_t>(want)) {
        return Status::IoError("cannot read body: " + path);
      }
      hasher.Update(buf.data(), want);
      off += want;
    }
    uint64_t trailer = 0;
    n = pread(fd, &trailer, kTrailerBytes, static_cast<off_t>(covered));
    if (n != static_cast<ssize_t>(kTrailerBytes)) {
      return Status::IoError("cannot read trailer: " + path);
    }
    if (trailer != hasher.Finish()) {
      return Status::Corruption("snapshot checksum mismatch: " + path);
    }
  }
  if (info != nullptr) {
    info->version = header.version;
    info->dataset_checksum = header.dataset_checksum;
    info->num_objects = header.num_objects;
    info->max_entries = header.max_entries;
    info->num_nodes = header.num_nodes;
    info->num_leaf_entries = header.num_leaf_entries;
    info->num_terms = header.num_terms;
    info->num_post_terms = header.num_post_terms;
    info->num_postings = header.num_postings;
    info->height = header.height;
    info->body_bytes = header.body_bytes;
    info->file_bytes = file_size;
    info->header_bytes = header_region;
  }
  if (header_out != nullptr) {
    *header_out = header;
  }
  if (file_size_out != nullptr) {
    *file_size_out = file_size;
  }
  return Status::OK();
}

}  // namespace

StatusOr<SnapshotInfo> ReadSnapshotInfo(const std::string& path) {
  Fd fd;
  fd.fd = open(path.c_str(), O_RDONLY);
  if (fd.fd < 0) {
    return Status::IoError("cannot open: " + path);
  }
  SnapshotInfo info;
  Status status = ReadAndCheckFile(path, fd.fd, /*verify_checksum=*/true,
                                   &info, nullptr, nullptr);
  if (!status.ok()) {
    return status;
  }
  return info;
}

StatusOr<std::unique_ptr<IrTree>> LoadSnapshot(const Dataset* dataset,
                                               const std::string& path) {
  return LoadSnapshot(dataset, path, SnapshotLoadOptions());
}

StatusOr<std::unique_ptr<IrTree>> LoadSnapshot(
    const Dataset* dataset, const std::string& path,
    const SnapshotLoadOptions& load_options) {
  COSKQ_CHECK(dataset != nullptr);
  const bool cold =
      load_options.cold || load_options.memory_budget_bytes != 0;
  Fd fd;
  fd.fd = open(path.c_str(), O_RDONLY);
  if (fd.fd < 0) {
    return Status::IoError("cannot open: " + path);
  }
  // Cold mode verifies the checksum with streamed reads here — touching the
  // mapping would prefault exactly the pages cold mode exists to avoid.
  // Warm mode defers verification to the (populated) mapping below, so the
  // file is read once, not twice.
  SnapshotHeader header;
  uint64_t file_size = 0;
  Status status = ReadAndCheckFile(path, fd.fd, /*verify_checksum=*/cold,
                                   nullptr, &header, &file_size);
  if (!status.ok()) {
    return status;
  }
  if (header.num_objects != dataset->NumObjects() ||
      header.dataset_checksum != dataset->ContentChecksum()) {
    return Status::InvalidArgument(
        "snapshot was built from a different dataset (checksum mismatch): " +
        path);
  }
  if (header.max_entries < 4) {
    return Status::Corruption("snapshot max_entries out of range: " + path);
  }
  const uint64_t header_region = HeaderRegionBytes(header.version);
  const uint64_t covered = header_region + header.body_bytes;

  auto store = std::make_unique<FrozenStore>();
  const uint8_t* body = nullptr;
  // Prefer a read-only mapping: zero-copy load, pages shared across
  // processes serving the same snapshot. Warm mode prefaults the whole file
  // with MAP_POPULATE (one syscall instead of one fault per page during
  // checksum verification); cold mode maps without it, so pages fault in on
  // demand as traversals touch them.
  int map_flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
  if (!cold) {
    map_flags |= MAP_POPULATE;
  }
#endif
  void* mapped = mmap(nullptr, static_cast<size_t>(file_size), PROT_READ,
                      map_flags, fd.fd, 0);
  if (mapped != MAP_FAILED) {
    store->mapped = mapped;
    store->mapped_size = static_cast<size_t>(file_size);
    const uint8_t* base = static_cast<const uint8_t*>(mapped);
    body = base + header_region;
    if (cold) {
      internal_index::AdviseRandom(body, header.body_bytes);
    } else {
      Checksummer hasher;
      hasher.Update(base, static_cast<size_t>(covered));
      uint64_t trailer = 0;
      memcpy(&trailer, base + covered, kTrailerBytes);
      if (trailer != hasher.Finish()) {
        return Status::Corruption("snapshot checksum mismatch: " + path);
      }
    }
  } else {
    // Fallback for filesystems without mmap: one contiguous read (cold mode
    // degenerates to a fully resident heap body — correct, just not
    // out-of-core).
    store->owned.resize(static_cast<size_t>(header.body_bytes));
    ssize_t n = pread(fd.fd, store->owned.data(), store->owned.size(),
                      static_cast<off_t>(header_region));
    if (n != static_cast<ssize_t>(store->owned.size())) {
      return Status::IoError("cannot read body: " + path);
    }
    if (!cold) {
      // Cold mode already stream-verified above; warm mode verifies here.
      std::vector<uint8_t> region(static_cast<size_t>(header_region));
      n = pread(fd.fd, region.data(), region.size(), 0);
      if (n != static_cast<ssize_t>(region.size())) {
        return Status::IoError("cannot read header: " + path);
      }
      Checksummer hasher;
      hasher.Update(region.data(), region.size());
      hasher.Update(store->owned.data(), store->owned.size());
      uint64_t trailer = 0;
      n = pread(fd.fd, &trailer, kTrailerBytes, static_cast<off_t>(covered));
      if (n != static_cast<ssize_t>(kTrailerBytes)) {
        return Status::IoError("cannot read trailer: " + path);
      }
      if (trailer != hasher.Finish()) {
        return Status::Corruption("snapshot checksum mismatch: " + path);
      }
    }
    body = store->owned.data();
  }
  if (header.version < kSnapshotVersion) {
    // Legacy bodies are rebuilt as an owned v4 body; the file is dropped.
    status = ConvertLegacyBody(header, body, dataset->vocabulary().size(),
                               store.get());
    if (!status.ok()) {
      return status;
    }
    if (store->mapped != nullptr) {
      munmap(store->mapped, store->mapped_size);
      store->mapped = nullptr;
      store->mapped_size = 0;
    }
    body = store->owned.data();
  } else {
    store->BindView(body,
                    BodyCounts{header.num_nodes, header.num_leaf_entries,
                               header.num_terms, header.num_post_terms,
                               header.num_postings},
                    header.height);
  }
  const bool cold_mapped = cold && store->mapped != nullptr;
  if (cold_mapped) {
    store->view.cold = true;
    store->memory_budget_bytes = load_options.memory_budget_bytes;
  }

  status = ValidateStructure(store->view, header.num_objects,
                             header.max_entries);
  if (!status.ok()) {
    return status;
  }

  IrTree::Options options;
  options.max_entries = static_cast<int>(header.max_entries);
  const uint8_t* body_ptr = body;
  const uint64_t body_bytes = store->body_bytes;
  auto tree =
      SnapshotAccess::MakeFrozenOnly(dataset, options, std::move(store));
  if (cold_mapped && load_options.drop_page_cache) {
    // Validation and tree construction touched node records and leaf
    // stripes; undo that warming so the first query batch really starts
    // from disk. madvise drops this process's mapped pages, fadvise asks
    // the kernel to drop the backing page cache. Both best effort.
    internal_index::AdviseDontNeed(body_ptr, static_cast<size_t>(body_bytes));
    (void)internal_index::DropFileCache(path);
  }
  return tree;
}

}  // namespace coskq
