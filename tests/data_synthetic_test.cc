#include "data/synthetic.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "data/augment.h"
#include "data/query_gen.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

TEST(SyntheticTest, MatchesSpecSizes) {
  SyntheticSpec spec;
  spec.num_objects = 2000;
  spec.vocab_size = 200;
  spec.avg_keywords_per_object = 5.0;
  Rng rng(1);
  Dataset ds = GenerateSynthetic(spec, &rng);
  EXPECT_EQ(ds.NumObjects(), 2000u);
  EXPECT_EQ(ds.vocabulary().size(), 200u);
  // Mean keyword count within 15% of the target.
  EXPECT_NEAR(ds.AverageKeywordsPerObject(), 5.0, 0.75);
}

TEST(SyntheticTest, LocationsInUnitSquare) {
  SyntheticSpec spec;
  spec.num_objects = 500;
  Rng rng(2);
  Dataset ds = GenerateSynthetic(spec, &rng);
  for (const SpatialObject& obj : ds.objects()) {
    EXPECT_GE(obj.location.x, 0.0);
    EXPECT_LE(obj.location.x, 1.0);
    EXPECT_GE(obj.location.y, 0.0);
    EXPECT_LE(obj.location.y, 1.0);
  }
}

TEST(SyntheticTest, DeterministicForSeed) {
  SyntheticSpec spec;
  spec.num_objects = 100;
  Rng r1(7);
  Rng r2(7);
  Dataset a = GenerateSynthetic(spec, &r1);
  Dataset b = GenerateSynthetic(spec, &r2);
  ASSERT_EQ(a.NumObjects(), b.NumObjects());
  for (size_t i = 0; i < a.NumObjects(); ++i) {
    EXPECT_EQ(a.object(i).location, b.object(i).location);
    EXPECT_EQ(a.object(i).keywords, b.object(i).keywords);
  }
}

TEST(SyntheticTest, ZipfSkewsFrequencies) {
  SyntheticSpec spec;
  spec.num_objects = 3000;
  spec.vocab_size = 300;
  spec.zipf_theta = 1.0;
  Rng rng(3);
  Dataset ds = GenerateSynthetic(spec, &rng);
  // Term 0 (rank 0) should be far more frequent than term 250.
  EXPECT_GT(ds.TermFrequency(0), 5 * std::max(1u, ds.TermFrequency(250)));
}

TEST(SyntheticTest, PresetsScale) {
  SyntheticSpec hotel = HotelLikeSpec(0.01);
  EXPECT_NEAR(static_cast<double>(hotel.num_objects), 207.9, 10.0);
  SyntheticSpec gn = GnLikeSpec(0.001);
  EXPECT_NEAR(static_cast<double>(gn.num_objects), 1868.8, 10.0);
  SyntheticSpec web = WebLikeSpec(0.001);
  EXPECT_GT(web.num_objects, 100u);
  EXPECT_EQ(hotel.name, "Hotel");
  EXPECT_EQ(gn.name, "GN");
  EXPECT_EQ(web.name, "Web");
}

TEST(AugmentTest, AverageKeywordsReachesTarget) {
  SyntheticSpec spec;
  spec.num_objects = 400;
  spec.vocab_size = 400;
  spec.avg_keywords_per_object = 4.0;
  Rng rng(4);
  Dataset ds = GenerateSynthetic(spec, &rng);
  const double before = ds.AverageKeywordsPerObject();
  AugmentAverageKeywords(&ds, 8.0, &rng);
  EXPECT_GE(ds.AverageKeywordsPerObject(), 8.0 * 0.98);
  EXPECT_GT(ds.AverageKeywordsPerObject(), before);
}

TEST(AugmentTest, ToSizePreservesDistribution) {
  SyntheticSpec spec;
  spec.num_objects = 200;
  Rng rng(5);
  Dataset ds = GenerateSynthetic(spec, &rng);
  const Rect mbr_before = ds.mbr();
  AugmentToSize(&ds, 500, &rng);
  EXPECT_EQ(ds.NumObjects(), 500u);
  // New locations are copies of existing ones: the MBR cannot grow.
  EXPECT_EQ(ds.mbr(), mbr_before);
}

TEST(AugmentTest, StreamedFileMatchesMaterializedAugmentByteForByte) {
  // The streaming writer must produce exactly the bytes of the in-memory
  // grow-then-save path when started from the same base dataset and rng
  // state: the scalability bench relies on this equivalence to generate
  // paper-scale files in bounded memory.
  SyntheticSpec spec;
  spec.num_objects = 150;
  spec.vocab_size = 120;

  Rng gen_rng(7);
  Dataset grown = GenerateSynthetic(spec, &gen_rng);
  Rng aug_rng(8);
  AugmentToSize(&grown, 600, &aug_rng);
  const std::string want_path = test::UniqueTempPath("aug_want.txt");
  ASSERT_TRUE(grown.SaveToFile(want_path).ok());

  Rng gen_rng2(7);
  const Dataset base = GenerateSynthetic(spec, &gen_rng2);
  Rng aug_rng2(8);
  const std::string got_path = test::UniqueTempPath("aug_got.txt");
  ASSERT_TRUE(StreamAugmentedToFile(base, 600, &aug_rng2, got_path).ok());

  const auto read_all = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string want = read_all(want_path);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(read_all(got_path), want);
  std::remove(want_path.c_str());
  std::remove(got_path.c_str());

  // A target at or below the base size degenerates to a plain save.
  Rng aug_rng3(9);
  const std::string same_path = test::UniqueTempPath("aug_same.txt");
  ASSERT_TRUE(StreamAugmentedToFile(base, 100, &aug_rng3, same_path).ok());
  const std::string base_path = test::UniqueTempPath("aug_base.txt");
  ASSERT_TRUE(base.SaveToFile(base_path).ok());
  EXPECT_EQ(read_all(same_path), read_all(base_path));
  std::remove(same_path.c_str());
  std::remove(base_path.c_str());
}

TEST(QueryGenTest, KeywordsComeFromFrequentBand) {
  SyntheticSpec spec;
  spec.num_objects = 2000;
  spec.vocab_size = 500;
  spec.zipf_theta = 1.0;
  Rng rng(6);
  Dataset ds = GenerateSynthetic(spec, &rng);
  QueryGenerator gen(&ds);
  const auto ranked = ds.TermsByFrequencyDesc();
  const size_t band_end = static_cast<size_t>(0.4 * ranked.size());
  for (int trial = 0; trial < 30; ++trial) {
    const CoskqQuery q = gen.Generate(6, &rng);
    EXPECT_EQ(q.keywords.size(), 6u);
    for (TermId t : q.keywords) {
      const auto it = std::find(ranked.begin(), ranked.end(), t);
      ASSERT_NE(it, ranked.end());
      EXPECT_LT(static_cast<size_t>(it - ranked.begin()), band_end + 1);
    }
    EXPECT_TRUE(ds.mbr().Contains(q.location));
  }
}

TEST(QueryGenTest, RespectsCustomBand) {
  SyntheticSpec spec;
  spec.num_objects = 1000;
  spec.vocab_size = 100;
  Rng rng(7);
  Dataset ds = GenerateSynthetic(spec, &rng);
  QueryGenerator::Options options;
  options.percentile_lo = 0.5;
  options.percentile_hi = 1.0;
  QueryGenerator gen(&ds, options);
  EXPECT_LE(gen.BandSize(), ds.TermsByFrequencyDesc().size() / 2 + 1);
}

TEST(QueryGenTest, RequestMoreKeywordsThanBand) {
  Dataset ds;
  ds.AddObject(Point{0, 0}, {"a", "b"});
  QueryGenerator gen(&ds);
  Rng rng(8);
  const CoskqQuery q = gen.Generate(10, &rng);
  EXPECT_LE(q.keywords.size(), 2u);
  EXPECT_GE(q.keywords.size(), 1u);
}

}  // namespace
}  // namespace coskq
