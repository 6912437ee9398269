// Snapshot format tests: byte-for-byte round trips, the v1-v4
// cross-version matrix (v2/v3 in both legacy node layouts), graceful
// rejection (a Status, never a crash) of truncated / corrupted /
// wrong-version / unknown-layout / wrong-dataset files and of structurally
// broken posting sections, saving over a mapped file, and query
// bit-identity of snapshot-loaded trees (warm and cold).

#include "index/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "index/irtree.h"
#include "snapshot_forge.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

using namespace snapshot_forge;

std::string TempPath(const std::string& name) {
  return test::UniqueTempPath(name);
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

  /// A forged legacy file of `tree` must load warm and cold (both convert
  /// into an owned body), pass the invariants, answer like `tree`, and
  /// re-save byte-identical to the tree's v4 file `v4`.
  void ExpectLegacyFileLoads(const Dataset& ds, IrTree& tree,
                             const std::vector<char>& v4,
                             const std::vector<char>& legacy,
                             uint16_t version, uint64_t seed) {
    const std::string path = Track(TempPath("snap_legacy.cqix"));
    WriteAll(path, legacy);
    auto info = ReadSnapshotInfo(path);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->version, version);
    SnapshotLoadOptions cold_options;
    cold_options.cold = true;
    tree.Freeze();
    for (const SnapshotLoadOptions& load_options :
         {SnapshotLoadOptions(), cold_options}) {
      auto loaded = LoadSnapshot(&ds, path, load_options);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      (*loaded)->CheckInvariants();
      EXPECT_FALSE((*loaded)->MemoryStats().cold);
      ExpectSameAnswers(tree, **loaded, ds, seed);
      const std::string resaved = Track(TempPath("snap_resave.cqix"));
      ASSERT_TRUE(SaveSnapshot(loaded->get(), resaved).ok());
      EXPECT_EQ(ReadAll(resaved), v4);
    }
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
  EXPECT_EQ(info->header_bytes, kHeaderRegionBytes);
  EXPECT_EQ(info->file_bytes, kHeaderRegionBytes + info->body_bytes + 8u);
  // The posting file holds one entry per (object, keyword) pair.
  EXPECT_EQ(info->num_postings, ds.TotalKeywordCount());
  EXPECT_GT(info->num_post_terms, 0u);
  // The body is exactly the v4 sections (ParseV4 checks the file size).
  ParseV4(ReadAll(path));
}

TEST_F(SnapshotRoundTripTest, V1FileLoadsBitIdentically) {
  // Cross-version matrix, v1 column: a synthesized v1 (48-byte header,
  // keyword-span body) snapshot of the same tree must load, answer queries
  // bit-identically to the v4 load (visit logs included), and re-save as
  // the v4 file — the postings derived from its spans are byte for byte
  // the ones Freeze() writes.
  Dataset ds = test::MakeRandomDataset(400, 35, 3.0, 17);
  IrTree tree(&ds);
  const std::string v4_path = Track(TempPath("snap_v4.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, v4_path).ok());
  const std::vector<char> v4 = ReadAll(v4_path);

  const std::string v1_path = Track(TempPath("snap_v1.cqix"));
  WriteAll(v1_path, MakeLegacyFile(MakeV3File(v4, false), 1));

  auto info = ReadSnapshotInfo(v1_path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, 1u);
  EXPECT_EQ(info->header_bytes, kV1HeaderBytes);
  EXPECT_EQ(info->num_postings, 0u);

  auto from_v1 = LoadSnapshot(&ds, v1_path);
  ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
  auto from_v4 = LoadSnapshot(&ds, v4_path);
  ASSERT_TRUE(from_v4.ok()) << from_v4.status().ToString();
  (*from_v1)->CheckInvariants();
  ExpectSameAnswers(**from_v4, **from_v1, ds, 18);

  // Saving the v1-loaded tree writes the current (v4) format with the
  // identical body.
  const std::string resaved = Track(TempPath("snap_v1_resave.cqix"));
  ASSERT_TRUE(SaveSnapshot(from_v1->get(), resaved).ok());
  EXPECT_EQ(ReadAll(resaved), v4);
}

TEST_F(SnapshotRoundTripTest, V2FilesLoadBitIdenticallyInBothLayouts) {
  // v2 column: keyword-span bodies with the 4096-byte header region, in
  // both legacy node layouts.
  Dataset ds = test::MakeRandomDataset(700, 45, 3.5, 23);
  IrTree tree(&ds);
  const std::string v4_path = Track(TempPath("snap_v4.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, v4_path).ok());
  const std::vector<char> v4 = ReadAll(v4_path);
  for (const bool level_grouped : {false, true}) {
    SCOPED_TRACE(level_grouped ? "level-grouped" : "bfs");
    ExpectLegacyFileLoads(ds, tree, v4,
                          MakeLegacyFile(MakeV3File(v4, level_grouped), 2), 2,
                          24);
  }
}

TEST_F(SnapshotRoundTripTest, V3FilesLoadBitIdenticallyInBothLayouts) {
  // v3 column: posting-file bodies that still carry the per-entry Bloom
  // signatures, in both legacy node layouts.
  Dataset ds = test::MakeRandomDataset(700, 45, 3.5, 25);
  IrTree tree(&ds, IrTree::Options{12});
  const std::string v4_path = Track(TempPath("snap_v4.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, v4_path).ok());
  const std::vector<char> v4 = ReadAll(v4_path);
  for (const bool level_grouped : {false, true}) {
    SCOPED_TRACE(level_grouped ? "level-grouped" : "bfs");
    ExpectLegacyFileLoads(ds, tree, v4, MakeV3File(v4, level_grouped), 3, 26);
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
  // A level-grouped v3 file (the page-local node layout v4 dropped)
  // inspects as v3, loads, refreezes after a mutation, and saves as v4.
  Dataset ds = test::MakeRandomDataset(600, 40, 3.0, 29);
  std::vector<ObjectId> base;
  for (ObjectId id = 0; id < 590; ++id) {
    base.push_back(id);
  }
  IrTree tree(&ds, IrTree::Options(), base);
  const std::string v4_path = Track(TempPath("snap_v4.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, v4_path).ok());
  const std::vector<char> v3 = MakeV3File(ReadAll(v4_path), true);
  const std::string path = Track(TempPath("snap_lg.cqix"));
  WriteAll(path, v3);

  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, 3u);
  EXPECT_EQ(info->header_bytes, kHeaderRegionBytes);
  EXPECT_EQ(info->file_bytes, v3.size());

  auto loaded = LoadSnapshot(&ds, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  (*loaded)->CheckInvariants();
  ASSERT_TRUE((*loaded)->Insert(595).ok());
  ASSERT_TRUE((*loaded)->Refreeze().ok());
  (*loaded)->CheckInvariants();
  const std::string resaved = Track(TempPath("snap_lg2.cqix"));
  ASSERT_TRUE(SaveSnapshot(loaded->get(), resaved).ok());
  auto info2 = ReadSnapshotInfo(resaved);
  ASSERT_TRUE(info2.ok());
  EXPECT_EQ(info2->version, kSnapshotVersion);

  // Same bytes as a v4 snapshot built from scratch over the same live set.
  base.push_back(595);
  IrTree fresh(&ds, IrTree::Options(), base);
  const std::string fresh_path = Track(TempPath("snap_fresh.cqix"));
  ASSERT_TRUE(SaveSnapshot(&fresh, fresh_path).ok());
  EXPECT_EQ(ReadAll(resaved), ReadAll(fresh_path));
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
    ASSERT_GT(bytes_.size(), kHeaderBytes);
  }

  /// Writes a mutated copy and expects LoadSnapshot to fail cleanly.
  void ExpectRejected(const std::vector<char>& bytes,
                      const std::string& what) {
    const std::string path = Track(TempPath("snap_mut.cqix"));
    WriteAll(path, bytes);
    auto loaded = LoadSnapshot(&dataset_, path);
    EXPECT_FALSE(loaded.ok()) << what;
  }

  /// Truncation and sampled bit-flip sweeps over a legacy file, which must
  /// itself load: the old formats stay guarded, not just loadable.
  void SweepLegacyFile(const std::vector<char>& file, size_t header_bytes,
                       const std::string& what) {
    const std::string ok_path = Track(TempPath("snap_legacy_ok.cqix"));
    WriteAll(ok_path, file);
    auto check = LoadSnapshot(&dataset_, ok_path);
    ASSERT_TRUE(check.ok()) << what << ": " << check.status().ToString();

    std::vector<size_t> sizes;
    for (size_t s = 0; s <= header_bytes; s += 7) {
      sizes.push_back(s);
    }
    sizes.push_back(file.size() - 1);
    sizes.push_back(file.size() - 8);
    sizes.push_back(file.size() / 2);
    for (size_t s : sizes) {
      std::vector<char> cut(file.begin(), file.begin() + s);
      ExpectRejected(cut, what + " truncated to " + std::to_string(s));
    }
    for (size_t pos = 0; pos + 8 < file.size(); pos += 131) {
      std::vector<char> mutated = file;
      mutated[pos] ^= 0x20;
      ExpectRejected(mutated, what + " bit flip at " + std::to_string(pos));
    }
  }

  Dataset dataset_;
  std::unique_ptr<IrTree> tree_;
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(SnapshotRejectionTest, TruncationAtEveryHeaderBoundaryFails) {
  // Every prefix of the 64-byte header, the header-region boundary, every
  // v4 body section's boundary, and the file missing its trailer must all
  // be rejected with a Status.
  const V4File f = ParseV4(bytes_);
  std::vector<size_t> sizes;
  for (size_t s = 0; s <= kHeaderBytes; ++s) {
    sizes.push_back(s);  // Through the header fields, incl. posting counts.
  }
  for (size_t start : f.body.Starts()) {
    sizes.push_back(kHeaderRegionBytes + start);      // Section missing.
    sizes.push_back(kHeaderRegionBytes + start + 4);  // Section cut short.
  }
  sizes.push_back(kHeaderRegionBytes - 1);  // Padding cut short.
  sizes.push_back(kHeaderRegionBytes + f.body.end);  // Trailer missing.
  sizes.push_back(bytes_.size() - 1);  // Trailer cut short.
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
  SweepLegacyFile(MakeLegacyFile(MakeV3File(bytes_, false), 1),
                  kV1HeaderBytes, "v1");
}

TEST_F(SnapshotRejectionTest, V3TruncationAndCorruptionFail) {
  SweepLegacyFile(MakeV3File(bytes_, false), kHeaderBytes, "v3 bfs");
  SweepLegacyFile(MakeV3File(bytes_, true), kHeaderBytes, "v3 level-grouped");
}

TEST_F(SnapshotRejectionTest, BrokenPostingSectionsFailWithStatus) {
  // Structurally broken posting files behind a valid checksum (the file is
  // re-signed) must be rejected by the load-time validation, never reach a
  // query: offsets that do not start at 0, decrease, or do not end at Σ df;
  // entries past the leaf entries; runs out of order or with duplicates.
  const V4File f = ParseV4(bytes_);
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
  std::vector<char> v2 = MakeLegacyFile(MakeV3File(bytes_, false), 2);
  const uint32_t nodes = ReadAt<uint32_t>(v2, kNumNodesOffset);
  const uint32_t entries = ReadAt<uint32_t>(v2, kNumLeafEntriesOffset);
  const uint32_t terms = ReadAt<uint32_t>(v2, kNumTermsOffset);
  const LegacySections c = SectionsFor(false, nodes, entries, terms);
  const size_t span_begin = kHeaderRegionBytes + c.tail;
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
  WriteAt<uint32_t>(&bad_term, kHeaderRegionBytes + c.terms + 4 * first_term,
                    0xfffffff0u);
  Resign(&bad_term);
  ExpectRejected(bad_term, "legacy keyword id past the vocabulary");
}

TEST_F(SnapshotRejectionTest, UnknownLayoutIdFailsWithStatus) {
  // The layout word must come back as a clean Status even when the checksum
  // is valid (the file is re-signed), never a crash or a misparse: v2/v3
  // files name one of the two legacy node layouts (anything else is an
  // unknown id), and v4 requires the word to be zero.
  const auto expect_rejected = [&](std::vector<char> file, uint32_t layout,
                                   StatusCode code, const std::string& what) {
    WriteAt<uint32_t>(&file, kLayoutOffset, layout);
    Resign(&file);
    const std::string path = Track(TempPath("snap_badlayout.cqix"));
    WriteAll(path, file);
    auto loaded = LoadSnapshot(&dataset_, path);
    ASSERT_FALSE(loaded.ok()) << what << " layout " << layout;
    EXPECT_EQ(loaded.status().code(), code) << loaded.status().ToString();
    EXPECT_NE(loaded.status().ToString().find("layout"), std::string::npos)
        << loaded.status().ToString();
    auto info = ReadSnapshotInfo(path);
    EXPECT_FALSE(info.ok()) << what << " layout " << layout;
  };
  for (uint32_t bad : {1u, 2u, 7u, 0xffffffffu}) {
    expect_rejected(bytes_, bad, StatusCode::kCorruption, "v4");
  }
  const std::vector<char> v3 = MakeV3File(bytes_, false);
  const std::vector<char> v2 = MakeLegacyFile(v3, 2);
  for (uint32_t bad : {2u, 7u, 0xffffffffu}) {
    expect_rejected(v3, bad, StatusCode::kInvalidArgument, "v3");
    expect_rejected(v2, bad, StatusCode::kInvalidArgument, "v2");
  }
}

TEST_F(SnapshotRejectionTest, ColdLoadRejectsCorruptionToo) {
  // Cold mode verifies the checksum by streamed reads (not the mapping);
  // it must reject the same corrupt files the warm path does.
  SnapshotLoadOptions cold_options;
  cold_options.cold = true;
  for (size_t pos : {size_t{8}, kHeaderRegionBytes + 16,
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
  // (or an earlier header check); sample positions across the whole file,
  // plus the first byte of every v4 body section.
  std::vector<size_t> positions;
  for (size_t pos = 0; pos + 8 < bytes_.size(); pos += 97) {
    positions.push_back(pos);
  }
  const V4File f = ParseV4(bytes_);
  for (size_t start : f.body.Starts()) {
    if (start < f.body.end) {
      positions.push_back(kHeaderRegionBytes + start);
    }
  }
  for (size_t pos : positions) {
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
