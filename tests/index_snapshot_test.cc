// Snapshot format tests: byte-for-byte round trips, the v1/v2/v3
// cross-version matrix, graceful rejection (a Status, never a crash) of
// truncated / corrupted / wrong-version / unknown-layout / wrong-dataset
// files and of structurally broken posting sections, saving over a mapped
// file, and query bit-identity of snapshot-loaded trees (warm and cold).

#include "index/snapshot.h"

#include <string.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "index/irtree.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

// Format constants mirrored from snapshot.cc on purpose: these tests pin
// the on-disk layout, so they must not share code with the implementation.
constexpr size_t kV1HeaderBytes = 48;
constexpr size_t kV2HeaderBytes = 56;
constexpr size_t kV3HeaderBytes = 64;
constexpr size_t kV2HeaderRegionBytes = 4096;
constexpr size_t kVersionOffset = 4;         // uint16
constexpr size_t kNumNodesOffset = 24;       // uint32
constexpr size_t kNumLeafEntriesOffset = 28; // uint32
constexpr size_t kNumTermsOffset = 32;       // uint32
constexpr size_t kBodyBytesOffset = 40;      // uint64
constexpr size_t kLayoutOffset = 48;         // uint32, v2+
constexpr size_t kNumPostTermsOffset = 56;   // uint32, v3
constexpr size_t kNumPostingsOffset = 60;    // uint32, v3
// FrozenNodeRecord (32 bytes) field offsets.
constexpr size_t kRecordBytes = 32;
constexpr size_t kRecEntryBeginOffset = 8;   // uint32
constexpr size_t kRecEntryCountOffset = 12;  // uint16
constexpr size_t kRecFlagsOffset = 14;       // uint16
constexpr size_t kRecTermBeginOffset = 16;   // uint32
constexpr size_t kRecTermCountOffset = 20;   // uint32

std::string TempPath(const std::string& name) {
  return test::UniqueTempPath(name);
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Independent reimplementation of the snapshot checksum (4-lane word
// FNV-1a), so tests can forge well-formed files without reusing the code
// under test.
uint64_t FileChecksum(const char* data, size_t len) {
  constexpr uint64_t kOffset = 14695981039346656037ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t lanes[4] = {kOffset, kOffset + 1, kOffset + 2, kOffset + 3};
  EXPECT_EQ(len % 8, 0u);
  for (size_t i = 0; i < len; i += 8) {
    uint64_t word;
    memcpy(&word, data + i, sizeof(word));
    uint64_t& lane = lanes[(i / 8) & 3];
    lane ^= word;
    lane *= kPrime;
  }
  uint64_t h = kOffset;
  for (uint64_t lane : lanes) {
    h ^= lane;
    h *= kPrime;
  }
  return h;
}

// Re-signs a forged file: recomputes the trailer checksum over everything
// before it, so a mutation test exercises the check it targets instead of
// tripping the checksum first.
void Resign(std::vector<char>* bytes) {
  ASSERT_GE(bytes->size(), 8u);
  const uint64_t sum = FileChecksum(bytes->data(), bytes->size() - 8);
  memcpy(bytes->data() + bytes->size() - 8, &sum, sizeof(sum));
}

template <typename T>
T ReadAt(const std::vector<char>& bytes, size_t off) {
  T v;
  memcpy(&v, bytes.data() + off, sizeof(v));
  return v;
}

template <typename T>
void WriteAt(std::vector<char>* bytes, size_t off, T v) {
  memcpy(bytes->data() + off, &v, sizeof(v));
}

size_t Align8(size_t n) { return (n + 7) & ~size_t{7}; }

// Byte offsets (inside the body) of the sections every version shares, as
// the format defines them: the node region, then the term arena and the
// leaf-entry id/x/y/sig arrays, each 8-byte aligned. `tail` is where the
// version-specific sections start (v3: postings; v1/v2: keyword spans).
struct CommonSections {
  bool level_grouped = false;
  size_t terms = 0;
  size_t leaf_ids = 0;
  size_t leaf_x = 0;
  size_t leaf_y = 0;
  size_t leaf_sigs = 0;
  size_t tail = 0;

  size_t Record(uint32_t slot) const {
    return level_grouped ? (slot / 64) * 4096 + (slot % 64) * kRecordBytes
                         : slot * kRecordBytes;
  }
};

CommonSections SectionsFor(bool level_grouped, uint32_t nodes,
                           uint32_t entries, uint32_t terms) {
  CommonSections c;
  c.level_grouped = level_grouped;
  size_t off = level_grouped ? (nodes + 63) / 64 * 4096
                             : Align8(nodes * kRecordBytes) +
                                   4 * Align8(size_t{nodes} * 8);
  c.terms = off;
  off += Align8(size_t{terms} * 4);
  c.leaf_ids = off;
  off += Align8(size_t{entries} * 4);
  c.leaf_x = off;
  off += Align8(size_t{entries} * 8);
  c.leaf_y = off;
  off += Align8(size_t{entries} * 8);
  c.leaf_sigs = off;
  off += Align8(size_t{entries} * 8);
  c.tail = off;
  return c;
}

// A parsed v3 file: its header fields and the offsets of the posting
// sections inside the file.
struct V3File {
  uint32_t num_nodes = 0;
  uint32_t num_leaf_entries = 0;
  uint32_t num_terms = 0;
  uint32_t num_post_terms = 0;
  uint32_t num_postings = 0;
  CommonSections sections;
  size_t post_begin = 0;    // file offset of post_begin[0]
  size_t post_entries = 0;  // file offset of post_entries[0]
};

V3File ParseV3(const std::vector<char>& v3) {
  V3File f;
  EXPECT_EQ(ReadAt<uint16_t>(v3, kVersionOffset), 3u);
  f.num_nodes = ReadAt<uint32_t>(v3, kNumNodesOffset);
  f.num_leaf_entries = ReadAt<uint32_t>(v3, kNumLeafEntriesOffset);
  f.num_terms = ReadAt<uint32_t>(v3, kNumTermsOffset);
  f.num_post_terms = ReadAt<uint32_t>(v3, kNumPostTermsOffset);
  f.num_postings = ReadAt<uint32_t>(v3, kNumPostingsOffset);
  f.sections = SectionsFor(ReadAt<uint32_t>(v3, kLayoutOffset) == 1,
                           f.num_nodes, f.num_leaf_entries, f.num_terms);
  f.post_begin = kV2HeaderRegionBytes + f.sections.tail;
  f.post_entries =
      f.post_begin + Align8((size_t{f.num_post_terms} + 1) * 4);
  EXPECT_EQ(f.post_entries + Align8(size_t{f.num_postings} * 4) + 8,
            v3.size());
  return f;
}

// Synthesizes the byte-exact file a pre-v3 build wrote for the same tree
// as the v3 file `v3`: the keyword sets are recovered by transposing the
// posting file, then laid out v1/v2 style — one term arena interleaving,
// slot by slot, each node's summary and its leaf objects' keyword sets,
// addressed by per-entry (begin, count) spans. v1 has the bare 48-byte
// header (bfs only), v2 the 56-byte header padded to 4096 bytes. This pins
// backward compatibility without keeping an old binary around.
std::vector<char> MakeLegacyFile(const std::vector<char>& v3,
                                 uint16_t version) {
  const V3File f = ParseV3(v3);
  const CommonSections& c = f.sections;
  const char* body = v3.data() + kV2HeaderRegionBytes;
  std::vector<std::vector<uint32_t>> keywords(f.num_leaf_entries);
  for (uint32_t t = 0; t < f.num_post_terms; ++t) {
    const uint32_t begin = ReadAt<uint32_t>(v3, f.post_begin + 4 * t);
    const uint32_t end = ReadAt<uint32_t>(v3, f.post_begin + 4 * (t + 1));
    for (uint32_t i = begin; i < end; ++i) {
      keywords[ReadAt<uint32_t>(v3, f.post_entries + 4 * i)].push_back(t);
    }
  }
  std::vector<char> node_region(body, body + c.terms);
  std::vector<uint32_t> arena;
  std::vector<uint32_t> span_begin(f.num_leaf_entries);
  std::vector<uint32_t> span_count(f.num_leaf_entries);
  for (uint32_t slot = 0; slot < f.num_nodes; ++slot) {
    const size_t rec = c.Record(slot);
    const uint32_t term_begin =
        ReadAt<uint32_t>(node_region, rec + kRecTermBeginOffset);
    const uint32_t term_count =
        ReadAt<uint32_t>(node_region, rec + kRecTermCountOffset);
    WriteAt<uint32_t>(&node_region, rec + kRecTermBeginOffset,
                      static_cast<uint32_t>(arena.size()));
    for (uint32_t i = 0; i < term_count; ++i) {
      arena.push_back(ReadAt<uint32_t>(v3, kV2HeaderRegionBytes + c.terms +
                                               4 * (term_begin + i)));
    }
    if ((ReadAt<uint16_t>(node_region, rec + kRecFlagsOffset) & 1) == 0) {
      continue;
    }
    const uint32_t entry_begin =
        ReadAt<uint32_t>(node_region, rec + kRecEntryBeginOffset);
    const uint16_t entry_count =
        ReadAt<uint16_t>(node_region, rec + kRecEntryCountOffset);
    for (uint32_t e = entry_begin; e < entry_begin + entry_count; ++e) {
      span_begin[e] = static_cast<uint32_t>(arena.size());
      span_count[e] = static_cast<uint32_t>(keywords[e].size());
      arena.insert(arena.end(), keywords[e].begin(), keywords[e].end());
    }
  }
  const uint32_t legacy_terms = static_cast<uint32_t>(arena.size());
  const CommonSections lc = SectionsFor(c.level_grouped, f.num_nodes,
                                        f.num_leaf_entries, legacy_terms);
  const size_t spans = Align8(size_t{f.num_leaf_entries} * 4);
  std::vector<char> legacy_body(lc.tail + 2 * spans, '\0');
  memcpy(legacy_body.data(), node_region.data(), node_region.size());
  memcpy(legacy_body.data() + lc.terms, arena.data(), arena.size() * 4);
  memcpy(legacy_body.data() + lc.leaf_ids, body + c.leaf_ids,
         c.tail - c.leaf_ids);
  memcpy(legacy_body.data() + lc.tail, span_begin.data(),
         span_begin.size() * 4);
  memcpy(legacy_body.data() + lc.tail + spans, span_count.data(),
         span_count.size() * 4);

  const size_t region = version == 1 ? kV1HeaderBytes : kV2HeaderRegionBytes;
  std::vector<char> out(region + legacy_body.size() + 8, '\0');
  memcpy(out.data(), v3.data(),
         version == 1 ? kV1HeaderBytes : kV2HeaderBytes);
  WriteAt<uint16_t>(&out, kVersionOffset, version);
  WriteAt<uint32_t>(&out, kNumTermsOffset, legacy_terms);
  WriteAt<uint64_t>(&out, kBodyBytesOffset, legacy_body.size());
  memcpy(out.data() + region, legacy_body.data(), legacy_body.size());
  Resign(&out);
  return out;
}

// Asserts that two trees over `ds` answer keyword-NN (with visit logs) and
// range retrieval (both frozen paths) identically on seeded queries.
void ExpectSameAnswers(const IrTree& want, const IrTree& got,
                       const Dataset& ds, uint64_t seed) {
  Rng rng(seed);
  const TermId vocab = static_cast<TermId>(ds.vocabulary().size());
  for (int trial = 0; trial < 40; ++trial) {
    const Point p{rng.UniformDouble(), rng.UniformDouble()};
    const TermId t = static_cast<TermId>(rng.UniformUint64(vocab));
    double want_d = 0.0;
    double got_d = 0.0;
    std::vector<uint32_t> want_log;
    std::vector<uint32_t> got_log;
    EXPECT_EQ(got.KeywordNn(p, t, &got_d, &got_log),
              want.KeywordNn(p, t, &want_d, &want_log));
    EXPECT_EQ(got_d, want_d);
    EXPECT_EQ(got_log, want_log);

    TermSet terms;
    for (int k = 0; k < 3; ++k) {
      terms.push_back(static_cast<TermId>(rng.UniformUint64(vocab)));
    }
    NormalizeTermSet(&terms);
    const Circle disk(p, rng.UniformDouble() * 0.6);
    std::vector<ObjectId> want_range;
    std::vector<ObjectId> got_range;
    want.RangeRelevant(disk, terms, &want_range);
    got.RangeRelevant(disk, terms, &got_range);
    EXPECT_EQ(got_range, want_range);
  }
}

class SnapshotRoundTripTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p : cleanup_) {
      std::remove(p.c_str());
    }
  }
  std::string Track(const std::string& path) {
    cleanup_.push_back(path);
    return path;
  }
  std::vector<std::string> cleanup_;
};

TEST_F(SnapshotRoundTripTest, SyntheticRoundTripIsByteIdentical) {
  Dataset ds = test::MakeRandomDataset(500, 40, 3.5, 123);
  IrTree tree(&ds);
  const std::string path = Track(TempPath("snap_rt.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, path).ok());

  // Saving the same tree again produces the identical file.
  const std::string path2 = Track(TempPath("snap_rt2.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, path2).ok());
  EXPECT_EQ(ReadAll(path), ReadAll(path2));

  // Loading and re-saving the loaded (frozen-only) tree also round-trips
  // byte-for-byte: the body buffer is the snapshot body.
  auto loaded = LoadSnapshot(&ds, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  (*loaded)->CheckInvariants();
  const std::string path3 = Track(TempPath("snap_rt3.cqix"));
  ASSERT_TRUE(SaveSnapshot(loaded->get(), path3).ok());
  EXPECT_EQ(ReadAll(path), ReadAll(path3));
}

TEST_F(SnapshotRoundTripTest, HotelLikeRoundTripAndQueryIdentity) {
  Rng rng(9);
  Dataset ds = GenerateSynthetic(HotelLikeSpec(0.02), &rng);
  IrTree tree(&ds);
  const std::string path = Track(TempPath("snap_hotel.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, path).ok());

  auto loaded = LoadSnapshot(&ds, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  IrTree& snap = **loaded;
  snap.CheckInvariants();
  EXPECT_TRUE(snap.frozen());
  EXPECT_EQ(snap.size(), tree.size());
  EXPECT_EQ(snap.Height(), tree.Height());
  EXPECT_EQ(snap.NodeCount(), tree.NodeCount());
  EXPECT_EQ(snap.node_id_limit(), tree.node_id_limit());

  // Query bit-identity (including visit logs) against the built tree, which
  // itself runs the frozen fast path after Freeze().
  tree.Freeze();
  Rng qrng(10);
  for (int trial = 0; trial < 40; ++trial) {
    const Point p{qrng.UniformDouble(), qrng.UniformDouble()};
    const TermId t = static_cast<TermId>(qrng.UniformUint64(30));
    double want_d = 0.0;
    double got_d = 0.0;
    std::vector<uint32_t> want_log;
    std::vector<uint32_t> got_log;
    const ObjectId want = tree.KeywordNn(p, t, &want_d, &want_log);
    const ObjectId got = snap.KeywordNn(p, t, &got_d, &got_log);
    EXPECT_EQ(got, want);
    EXPECT_EQ(got_d, want_d);
    EXPECT_EQ(got_log, want_log);
  }
}

TEST_F(SnapshotRoundTripTest, InfoReportsHeaderFields) {
  Dataset ds = test::MakeRandomDataset(300, 30, 3.0, 5);
  IrTree tree(&ds, IrTree::Options{16});
  const std::string path = Track(TempPath("snap_info.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, path).ok());

  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kSnapshotVersion);
  EXPECT_EQ(info->dataset_checksum, ds.ContentChecksum());
  EXPECT_EQ(info->num_objects, 300u);
  EXPECT_EQ(info->max_entries, 16u);
  EXPECT_EQ(info->num_nodes, tree.NodeCount());
  EXPECT_EQ(info->num_leaf_entries, 300u);
  EXPECT_EQ(info->height, static_cast<uint32_t>(tree.Height()));
  EXPECT_EQ(info->layout, FrozenLayout::kBfs);
  EXPECT_EQ(info->header_bytes, kV2HeaderRegionBytes);
  EXPECT_EQ(info->file_bytes, kV2HeaderRegionBytes + info->body_bytes + 8u);
  // The posting file holds one entry per (object, keyword) pair.
  EXPECT_EQ(info->num_postings, ds.TotalKeywordCount());
  EXPECT_GT(info->num_post_terms, 0u);
}

TEST_F(SnapshotRoundTripTest, V1FileLoadsBitIdentically) {
  // Cross-version matrix, v1 column: a synthesized v1 (48-byte header,
  // keyword-span body) snapshot of the same tree must load, answer queries
  // bit-identically to the v3 load (visit logs included), and re-save as
  // the v3 file — the postings derived from its spans are byte for byte
  // the ones Freeze() writes.
  Dataset ds = test::MakeRandomDataset(400, 35, 3.0, 17);
  IrTree tree(&ds);
  const std::string v3_path = Track(TempPath("snap_v3.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, v3_path).ok());
  const std::vector<char> v3 = ReadAll(v3_path);

  const std::string v1_path = Track(TempPath("snap_v1.cqix"));
  WriteAll(v1_path, MakeLegacyFile(v3, 1));

  auto info = ReadSnapshotInfo(v1_path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, 1u);
  EXPECT_EQ(info->layout, FrozenLayout::kBfs);
  EXPECT_EQ(info->header_bytes, kV1HeaderBytes);
  EXPECT_EQ(info->num_postings, 0u);

  auto from_v1 = LoadSnapshot(&ds, v1_path);
  ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
  auto from_v3 = LoadSnapshot(&ds, v3_path);
  ASSERT_TRUE(from_v3.ok()) << from_v3.status().ToString();
  (*from_v1)->CheckInvariants();
  ExpectSameAnswers(**from_v3, **from_v1, ds, 18);

  // Saving the v1-loaded tree writes the current (v3) format with the
  // identical body.
  const std::string resaved = Track(TempPath("snap_v1_resave.cqix"));
  ASSERT_TRUE(SaveSnapshot(from_v1->get(), resaved).ok());
  EXPECT_EQ(ReadAll(resaved), v3);
}

TEST_F(SnapshotRoundTripTest, V2FilesLoadBitIdenticallyInBothLayouts) {
  // v2 column: keyword-span bodies with the 4096-byte header region, in
  // both node layouts. Cold loads of them convert into an owned body too.
  Dataset ds = test::MakeRandomDataset(700, 45, 3.5, 23);
  for (FrozenLayout layout :
       {FrozenLayout::kBfs, FrozenLayout::kLevelGrouped}) {
    IrTree::Options options;
    options.frozen_layout = layout;
    IrTree tree(&ds, options);
    const std::string v3_path = Track(TempPath("snap_v3_both.cqix"));
    ASSERT_TRUE(SaveSnapshot(&tree, v3_path).ok());
    const std::vector<char> v3 = ReadAll(v3_path);
    const std::string v2_path = Track(TempPath("snap_v2_both.cqix"));
    WriteAll(v2_path, MakeLegacyFile(v3, 2));

    auto info = ReadSnapshotInfo(v2_path);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->version, 2u);
    EXPECT_EQ(info->layout, layout);

    SnapshotLoadOptions cold_options;
    cold_options.cold = true;
    for (const SnapshotLoadOptions& load_options :
         {SnapshotLoadOptions(), cold_options}) {
      auto from_v2 = LoadSnapshot(&ds, v2_path, load_options);
      ASSERT_TRUE(from_v2.ok()) << from_v2.status().ToString();
      (*from_v2)->CheckInvariants();
      EXPECT_EQ((*from_v2)->MemoryStats().layout, layout);
      tree.Freeze();
      ExpectSameAnswers(tree, **from_v2, ds, 24);
      const std::string resaved = Track(TempPath("snap_v2_resave.cqix"));
      ASSERT_TRUE(SaveSnapshot(from_v2->get(), resaved).ok());
      EXPECT_EQ(ReadAll(resaved), v3) << FrozenLayoutName(layout);
    }
  }
}

TEST_F(SnapshotRoundTripTest, SaveOverAMappedFileKeepsTheLoadedTreeValid) {
  // SaveSnapshot writes a temp file and renames it over the target, so a
  // tree serving from a mapping of the old file keeps a valid inode: no
  // SIGBUS, and its answers do not change. The new file holds the new tree.
  Dataset ds = test::MakeRandomDataset(600, 40, 3.0, 41);
  IrTree full(&ds);
  const std::string path = Track(TempPath("snap_over.cqix"));
  ASSERT_TRUE(SaveSnapshot(&full, path).ok());
  auto mapped = LoadSnapshot(&ds, path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto reference = LoadSnapshot(&ds, path);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::vector<ObjectId> half;
  for (ObjectId id = 0; id < 300; ++id) {
    half.push_back(id);
  }
  IrTree smaller(&ds, IrTree::Options(), half);
  ASSERT_TRUE(SaveSnapshot(&smaller, path).ok());

  (*mapped)->CheckInvariants();
  EXPECT_EQ((*mapped)->size(), 600u);
  ExpectSameAnswers(**reference, **mapped, ds, 42);
  auto reloaded = LoadSnapshot(&ds, path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)->size(), 300u);
  // No temp file is left next to the target.
  const std::filesystem::path target(path);
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    EXPECT_EQ(entry.path().filename().string().rfind(
                  target.filename().string() + ".tmp.", 0),
              std::string::npos)
        << entry.path();
  }
}

TEST_F(SnapshotRoundTripTest, LevelGroupedRoundTripAndInspect) {
  Dataset ds = test::MakeRandomDataset(600, 40, 3.0, 29);
  IrTree::Options options;
  options.frozen_layout = FrozenLayout::kLevelGrouped;
  IrTree tree(&ds, options);
  const std::string path = Track(TempPath("snap_lg.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, path).ok());

  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->layout, FrozenLayout::kLevelGrouped);

  auto loaded = LoadSnapshot(&ds, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  (*loaded)->CheckInvariants();
  EXPECT_EQ((*loaded)->MemoryStats().layout, FrozenLayout::kLevelGrouped);

  // The loaded tree adopts the file's layout: refreeze keeps it.
  ASSERT_TRUE((*loaded)->Refreeze().ok());
  EXPECT_EQ((*loaded)->MemoryStats().layout, FrozenLayout::kLevelGrouped);
  const std::string resaved = Track(TempPath("snap_lg2.cqix"));
  ASSERT_TRUE(SaveSnapshot(loaded->get(), resaved).ok());
  auto info2 = ReadSnapshotInfo(resaved);
  ASSERT_TRUE(info2.ok());
  EXPECT_EQ(info2->layout, FrozenLayout::kLevelGrouped);
}

TEST_F(SnapshotRoundTripTest, ColdLoadAnswersIdenticallyAndReportsStats) {
  Dataset ds = test::MakeRandomDataset(800, 40, 3.0, 31);
  IrTree tree(&ds);
  const std::string path = Track(TempPath("snap_cold.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, path).ok());

  auto warm = LoadSnapshot(&ds, path);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  SnapshotLoadOptions cold_options;
  cold_options.cold = true;
  cold_options.memory_budget_bytes = 1 << 20;
  cold_options.drop_page_cache = true;
  auto cold = LoadSnapshot(&ds, path, cold_options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  (*cold)->CheckInvariants();

  Rng qrng(32);
  for (int trial = 0; trial < 60; ++trial) {
    const Point p{qrng.UniformDouble(), qrng.UniformDouble()};
    const TermId t = static_cast<TermId>(qrng.UniformUint64(40));
    double dw = 0.0;
    double dc = 0.0;
    std::vector<uint32_t> logw;
    std::vector<uint32_t> logc;
    EXPECT_EQ((*cold)->KeywordNn(p, t, &dc, &logc),
              (*warm)->KeywordNn(p, t, &dw, &logw));
    EXPECT_EQ(dc, dw);
    EXPECT_EQ(logc, logw);
  }

  const IndexMemoryStats stats = (*cold)->MemoryStats();
  EXPECT_TRUE(stats.cold);
  EXPECT_GT(stats.body_bytes, 0u);
  EXPECT_EQ(stats.memory_budget_bytes, cold_options.memory_budget_bytes);
  const IndexMemoryStats warm_stats = (*warm)->MemoryStats();
  EXPECT_FALSE(warm_stats.cold);
  EXPECT_EQ(warm_stats.memory_budget_bytes, 0u);
}

TEST_F(SnapshotRoundTripTest, FrozenOnlyTreeRoutesMutationsIntoDelta) {
  // Regression for the pre-delta behavior where a snapshot-loaded tree
  // (frozen-only, no pointer tree) rejected Insert outright: mutations now
  // land in the delta overlay exactly as on a Freeze()-d built tree.
  Dataset ds = test::MakeRandomDataset(200, 20, 3.0, 3);
  std::vector<ObjectId> base;
  for (ObjectId id = 0; id < 150; ++id) {
    base.push_back(id);
  }
  IrTree tree(&ds, IrTree::Options(), base);
  const std::string path = Track(TempPath("snap_ins.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, path).ok());
  auto loaded = LoadSnapshot(&ds, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  IrTree& snap = **loaded;

  // Re-inserting a live object is still a clean error...
  EXPECT_FALSE(snap.Insert(0).ok());
  EXPECT_TRUE(snap.frozen());
  EXPECT_EQ(snap.delta_size(), 0u);

  // ...but inserting a dataset object the snapshot does not cover routes
  // into the delta and is immediately visible.
  ASSERT_TRUE(snap.Insert(160).ok());
  EXPECT_TRUE(snap.frozen());
  EXPECT_EQ(snap.delta_size(), 1u);
  snap.CheckInvariants();
  const TermSet& kw = ds.object(160).keywords;
  ASSERT_FALSE(kw.empty());
  double d = 0.0;
  EXPECT_EQ(snap.KeywordNn(ds.object(160).location, kw[0], &d), 160u);
  EXPECT_EQ(d, 0.0);

  // Removes tombstone base objects of the loaded frozen body.
  ASSERT_TRUE(snap.Remove(5).ok());
  EXPECT_EQ(snap.size(), 150u);
  const TermSet& kw5 = ds.object(5).keywords;
  ASSERT_FALSE(kw5.empty());
  d = 0.0;
  EXPECT_NE(snap.KeywordNn(ds.object(5).location, kw5[0], &d), 5u);

  // Refreeze folds the delta and rebuilds a full (pointer + frozen) tree.
  ASSERT_TRUE(snap.Refreeze().ok());
  EXPECT_EQ(snap.delta_size(), 0u);
  EXPECT_TRUE(snap.frozen());
  snap.CheckInvariants();
  d = 0.0;
  EXPECT_EQ(snap.KeywordNn(ds.object(160).location, kw[0], &d), 160u);
  EXPECT_EQ(d, 0.0);
  EXPECT_NE(snap.KeywordNn(ds.object(5).location, kw5[0], &d), 5u);
}

class SnapshotRejectionTest : public SnapshotRoundTripTest {
 protected:
  void SetUp() override {
    dataset_ = test::MakeRandomDataset(250, 25, 3.0, 42);
    tree_ = std::make_unique<IrTree>(&dataset_);
    path_ = Track(TempPath("snap_reject.cqix"));
    ASSERT_TRUE(SaveSnapshot(tree_.get(), path_).ok());
    bytes_ = ReadAll(path_);
    ASSERT_GT(bytes_.size(), kV3HeaderBytes);
  }

  /// Writes a mutated copy and expects LoadSnapshot to fail cleanly.
  void ExpectRejected(const std::vector<char>& bytes,
                      const std::string& what) {
    const std::string path = Track(TempPath("snap_mut.cqix"));
    WriteAll(path, bytes);
    auto loaded = LoadSnapshot(&dataset_, path);
    EXPECT_FALSE(loaded.ok()) << what;
  }

  Dataset dataset_;
  std::unique_ptr<IrTree> tree_;
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(SnapshotRejectionTest, TruncationAtEveryHeaderBoundaryFails) {
  // Every prefix of the 64-byte header, the header-region boundary, the
  // posting sections' boundaries, the empty file, and the file missing its
  // trailer must all be rejected with a Status.
  const V3File f = ParseV3(bytes_);
  std::vector<size_t> sizes;
  for (size_t s = 0; s <= kV3HeaderBytes; ++s) {
    sizes.push_back(s);  // Through the header fields, incl. posting counts.
  }
  sizes.push_back(f.post_begin);        // Posting offsets missing.
  sizes.push_back(f.post_begin + 4);    // Offsets cut short.
  sizes.push_back(f.post_entries);      // Posting entries missing.
  sizes.push_back(f.post_entries + 4);  // Entries cut short.
  sizes.push_back(kV2HeaderRegionBytes - 1);  // Padding cut short.
  sizes.push_back(kV2HeaderRegionBytes);      // Header region alone.
  sizes.push_back(kV2HeaderRegionBytes + 8);  // First body bytes only.
  sizes.push_back(bytes_.size() - 1);  // Trailer cut short.
  sizes.push_back(bytes_.size() - 8);  // Trailer missing entirely.
  sizes.push_back(bytes_.size() / 2);  // Body cut mid-way.
  for (size_t s : sizes) {
    std::vector<char> cut(bytes_.begin(), bytes_.begin() + s);
    ExpectRejected(cut, "truncated to " + std::to_string(s) + " bytes");
  }
  // Oversized files are rejected too (exact-size format).
  std::vector<char> padded = bytes_;
  padded.push_back('\0');
  ExpectRejected(padded, "one trailing byte added");
}

TEST_F(SnapshotRejectionTest, V1TruncationAndCorruptionFail) {
  // The rejection sweeps re-run against the synthesized v1 file: the old
  // header format stays guarded, not just loadable.
  const std::vector<char> v1 = MakeLegacyFile(bytes_, 1);
  const std::string ok_path = Track(TempPath("snap_v1_ok.cqix"));
  WriteAll(ok_path, v1);
  auto check = LoadSnapshot(&dataset_, ok_path);
  ASSERT_TRUE(check.ok()) << check.status().ToString();

  std::vector<size_t> sizes;
  for (size_t s = 0; s <= kV1HeaderBytes; s += 7) {
    sizes.push_back(s);
  }
  sizes.push_back(v1.size() - 1);
  sizes.push_back(v1.size() - 8);
  sizes.push_back(v1.size() / 2);
  for (size_t s : sizes) {
    std::vector<char> cut(v1.begin(), v1.begin() + s);
    ExpectRejected(cut, "v1 truncated to " + std::to_string(s) + " bytes");
  }
  for (size_t pos = 0; pos + 8 < v1.size(); pos += 131) {
    std::vector<char> mutated = v1;
    mutated[pos] ^= 0x20;
    if (mutated == v1) {
      continue;
    }
    ExpectRejected(mutated, "v1 bit flip at offset " + std::to_string(pos));
  }
}

TEST_F(SnapshotRejectionTest, BrokenPostingSectionsFailWithStatus) {
  // Structurally broken posting files behind a valid checksum (the file is
  // re-signed) must be rejected by the load-time validation, never reach a
  // query: offsets that do not start at 0, decrease, or do not end at Σ df;
  // entries past the leaf entries; runs out of order or with duplicates.
  const V3File f = ParseV3(bytes_);
  ASSERT_GT(f.num_post_terms, 2u);
  const auto offset = [&](uint32_t t) { return f.post_begin + 4 * t; };
  const auto entry = [&](uint32_t i) { return f.post_entries + 4 * i; };
  // A run of length >= 2 to reorder.
  uint32_t long_run = 0;
  while (ReadAt<uint32_t>(bytes_, offset(long_run + 1)) -
             ReadAt<uint32_t>(bytes_, offset(long_run)) <
         2) {
    ++long_run;
    ASSERT_LT(long_run, f.num_post_terms);
  }
  const uint32_t run_at = ReadAt<uint32_t>(bytes_, offset(long_run));
  struct Mutation {
    std::string what;
    size_t off;
    uint32_t value;
  };
  const std::vector<Mutation> mutations = {
      {"first offset not zero", offset(0), 1},
      {"offset past the end", offset(1), f.num_postings + 1},
      {"offsets decrease", offset(long_run + 1),
       ReadAt<uint32_t>(bytes_, offset(long_run + 2)) + 1},
      {"last offset not Σdf", offset(f.num_post_terms), f.num_postings - 1},
      {"entry past the leaf entries", entry(0), f.num_leaf_entries},
      {"run out of order", entry(run_at),
       ReadAt<uint32_t>(bytes_, entry(run_at + 1)) + 1},
      {"duplicate in a run", entry(run_at + 1),
       ReadAt<uint32_t>(bytes_, entry(run_at))},
  };
  for (const Mutation& m : mutations) {
    std::vector<char> mutated = bytes_;
    WriteAt<uint32_t>(&mutated, m.off, m.value);
    ASSERT_NE(mutated, bytes_) << m.what;
    Resign(&mutated);
    const std::string path = Track(TempPath("snap_badpost.cqix"));
    WriteAll(path, mutated);
    auto loaded = LoadSnapshot(&dataset_, path);
    ASSERT_FALSE(loaded.ok()) << m.what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << m.what << ": " << loaded.status().ToString();
  }
}

TEST_F(SnapshotRejectionTest, LegacySpanCorruptionFailsWithStatus) {
  // v1/v2 bodies are converted on load; a re-signed legacy file whose
  // keyword span leaves the term arena, or names a term the dataset does
  // not have, is rejected before any of it is read.
  std::vector<char> v2 = MakeLegacyFile(bytes_, 2);
  const uint32_t nodes = ReadAt<uint32_t>(v2, kNumNodesOffset);
  const uint32_t entries = ReadAt<uint32_t>(v2, kNumLeafEntriesOffset);
  const uint32_t terms = ReadAt<uint32_t>(v2, kNumTermsOffset);
  const CommonSections c = SectionsFor(false, nodes, entries, terms);
  const size_t span_begin = kV2HeaderRegionBytes + c.tail;
  const size_t span_count = span_begin + Align8(size_t{entries} * 4);
  uint32_t e = 0;  // An entry with a non-empty keyword set.
  while (ReadAt<uint32_t>(v2, span_count + 4 * e) == 0) {
    ++e;
    ASSERT_LT(e, entries);
  }
  std::vector<char> out_of_arena = v2;
  WriteAt<uint32_t>(&out_of_arena, span_begin + 4 * e, terms);
  Resign(&out_of_arena);
  ExpectRejected(out_of_arena, "legacy span past the term arena");
  std::vector<char> bad_term = v2;
  const uint32_t first_term = ReadAt<uint32_t>(v2, span_begin + 4 * e);
  WriteAt<uint32_t>(&bad_term, kV2HeaderRegionBytes + c.terms + 4 * first_term,
                    0xfffffff0u);
  Resign(&bad_term);
  ExpectRejected(bad_term, "legacy keyword id past the vocabulary");
}

TEST_F(SnapshotRejectionTest, UnknownLayoutIdFailsWithStatus) {
  // A future/corrupt layout id must come back as a clean Status even when
  // the checksum is valid (the file is re-signed), never a crash or a
  // misparse.
  for (uint32_t bad : {2u, 7u, 0xffffffffu}) {
    std::vector<char> mutated = bytes_;
    memcpy(mutated.data() + kLayoutOffset, &bad, sizeof(bad));
    Resign(&mutated);
    const std::string path = Track(TempPath("snap_badlayout.cqix"));
    WriteAll(path, mutated);
    auto loaded = LoadSnapshot(&dataset_, path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().ToString().find("layout"), std::string::npos)
        << loaded.status().ToString();
    auto info = ReadSnapshotInfo(path);
    EXPECT_FALSE(info.ok());
  }
}

TEST_F(SnapshotRejectionTest, ColdLoadRejectsCorruptionToo) {
  // Cold mode verifies the checksum by streamed reads (not the mapping);
  // it must reject the same corrupt files the warm path does.
  SnapshotLoadOptions cold_options;
  cold_options.cold = true;
  for (size_t pos : {size_t{8}, kV2HeaderRegionBytes + 16,
                     bytes_.size() - 16}) {
    std::vector<char> mutated = bytes_;
    mutated[pos] ^= 0x04;
    const std::string path = Track(TempPath("snap_coldbad.cqix"));
    WriteAll(path, mutated);
    auto loaded = LoadSnapshot(&dataset_, path, cold_options);
    EXPECT_FALSE(loaded.ok())
        << "cold load accepted flip at " << pos;
  }
}

TEST_F(SnapshotRejectionTest, WrongMagicFails) {
  std::vector<char> mutated = bytes_;
  mutated[0] ^= 0x01;
  ExpectRejected(mutated, "bad magic");
}

TEST_F(SnapshotRejectionTest, WrongVersionFails) {
  std::vector<char> mutated = bytes_;
  mutated[4] = static_cast<char>(kSnapshotVersion + 1);
  ExpectRejected(mutated, "future version");
}

TEST_F(SnapshotRejectionTest, WrongEndianMarkerFails) {
  std::vector<char> mutated = bytes_;
  std::swap(mutated[6], mutated[7]);
  ExpectRejected(mutated, "byte-swapped endian marker");
}

TEST_F(SnapshotRejectionTest, EveryCorruptedByteIsDetected) {
  // Flipping any single bit in header or body breaks the trailer checksum
  // (or an earlier header check); sample positions across the whole file.
  for (size_t pos = 0; pos + 8 < bytes_.size(); pos += 97) {
    std::vector<char> mutated = bytes_;
    mutated[pos] ^= 0x20;
    if (mutated == bytes_) {
      continue;
    }
    ExpectRejected(mutated, "bit flip at offset " + std::to_string(pos));
  }
}

TEST_F(SnapshotRejectionTest, DatasetMismatchFails) {
  // Same shape, different content: the embedded checksum must not match.
  Dataset other = test::MakeRandomDataset(250, 25, 3.0, 43);
  ASSERT_NE(other.ContentChecksum(), dataset_.ContentChecksum());
  auto loaded = LoadSnapshot(&other, path_);
  EXPECT_FALSE(loaded.ok());

  // Different object count as well.
  Dataset smaller = test::MakeRandomDataset(100, 25, 3.0, 42);
  auto loaded2 = LoadSnapshot(&smaller, path_);
  EXPECT_FALSE(loaded2.ok());
}

TEST_F(SnapshotRejectionTest, MissingFileFails) {
  auto loaded = LoadSnapshot(&dataset_, TempPath("snap_nonexistent.cqix"));
  EXPECT_FALSE(loaded.ok());
  auto info = ReadSnapshotInfo(TempPath("snap_nonexistent.cqix"));
  EXPECT_FALSE(info.ok());
}

}  // namespace
}  // namespace coskq
