#include "data/dataset.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "test_util.h"

namespace coskq {
namespace {

TEST(VocabularyTest, InternAndLookup) {
  Vocabulary vocab;
  const TermId a = vocab.GetOrAdd("cafe");
  const TermId b = vocab.GetOrAdd("museum");
  EXPECT_NE(a, b);
  EXPECT_EQ(vocab.GetOrAdd("cafe"), a);
  EXPECT_EQ(vocab.Find("cafe"), a);
  EXPECT_EQ(vocab.Find("missing"), Vocabulary::kInvalidTermId);
  EXPECT_EQ(vocab.TermString(a), "cafe");
  EXPECT_EQ(vocab.size(), 2u);
}

TEST(DatasetTest, AddObjectTracksStatistics) {
  Dataset ds;
  ds.AddObject(Point{0, 0}, {"cafe", "wifi"});
  ds.AddObject(Point{2, 3}, {"cafe"});
  EXPECT_EQ(ds.NumObjects(), 2u);
  EXPECT_EQ(ds.TotalKeywordCount(), 3u);
  EXPECT_DOUBLE_EQ(ds.AverageKeywordsPerObject(), 1.5);
  EXPECT_EQ(ds.TermFrequency(ds.vocabulary().Find("cafe")), 2u);
  EXPECT_EQ(ds.TermFrequency(ds.vocabulary().Find("wifi")), 1u);
  EXPECT_EQ(ds.mbr(), Rect(0, 0, 2, 3));
}

TEST(DatasetTest, DuplicateKeywordsDeduplicated) {
  Dataset ds;
  const ObjectId id = ds.AddObject(Point{0, 0}, {"a", "a", "b"});
  EXPECT_EQ(ds.object(id).keywords.size(), 2u);
  EXPECT_EQ(ds.TotalKeywordCount(), 2u);
}

TEST(DatasetTest, TermsByFrequencyDesc) {
  Dataset ds;
  ds.AddObject(Point{0, 0}, {"rare", "common"});
  ds.AddObject(Point{1, 0}, {"common"});
  ds.AddObject(Point{2, 0}, {"common", "mid"});
  ds.AddObject(Point{3, 0}, {"mid"});
  const auto ranked = ds.TermsByFrequencyDesc();
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ds.vocabulary().TermString(ranked[0]), "common");
  EXPECT_EQ(ds.vocabulary().TermString(ranked[1]), "mid");
  EXPECT_EQ(ds.vocabulary().TermString(ranked[2]), "rare");
}

TEST(DatasetTest, ReplaceKeywordsUpdatesStats) {
  Dataset ds;
  const ObjectId id = ds.AddObject(Point{0, 0}, {"a", "b"});
  const TermId c = ds.mutable_vocabulary().GetOrAdd("c");
  ds.ReplaceKeywords(id, TermSet{c});
  EXPECT_EQ(ds.TotalKeywordCount(), 1u);
  EXPECT_EQ(ds.TermFrequency(ds.vocabulary().Find("a")), 0u);
  EXPECT_EQ(ds.TermFrequency(c), 1u);
}

TEST(DatasetTest, ParseFromString) {
  const std::string text =
      "# comment line\n"
      "0.5 0.25 cafe wifi\n"
      "\n"
      "1.0 2.0 museum\n";
  auto ds = Dataset::ParseFromString(text);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->NumObjects(), 2u);
  EXPECT_EQ(ds->object(0).location, (Point{0.5, 0.25}));
  EXPECT_EQ(ds->object(1).keywords.size(), 1u);
}

TEST(DatasetTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Dataset::ParseFromString("justoneword\n").ok());
  EXPECT_FALSE(Dataset::ParseFromString("abc def cafe\n").ok());
  EXPECT_EQ(Dataset::ParseFromString("1.0\n").status().code(),
            StatusCode::kCorruption);
}

// strtod accepts "nan"/"inf" spellings, so the loader must reject them
// explicitly — a non-finite coordinate would poison every distance.
TEST(DatasetTest, ParseRejectsNonFiniteCoordinates) {
  for (const char* line : {"nan 1.0 cafe\n", "1.0 inf cafe\n",
                           "-inf 0.0 cafe\n", "0.0 NaN cafe\n"}) {
    auto result = Dataset::ParseFromString(line);
    ASSERT_FALSE(result.ok()) << line;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption) << line;
    EXPECT_NE(result.status().ToString().find("non-finite"),
              std::string::npos)
        << line;
  }
}

// Regression: a malformed row in a file must be reported with the file name
// and the 1-based line number of the offending row (comments and blank
// lines count toward the numbering; they are how the file is edited).
TEST(DatasetTest, LoadReportsFileAndLineOfCorruptRow) {
  const std::string path = test::UniqueTempPath("coskq_corrupt.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# header comment\n", f);
    std::fputs("0.5 0.25 cafe wifi\n", f);
    std::fputs("\n", f);
    std::fputs("3.5 oops museum\n", f);  // Line 4: malformed y.
    std::fclose(f);
  }
  auto result = Dataset::LoadFromFile(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find(":4"), std::string::npos) << message;
  std::remove(path.c_str());
}

TEST(DatasetTest, ObjectWithNoKeywordsAllowed) {
  auto ds = Dataset::ParseFromString("1.0 2.0\n");
  ASSERT_TRUE(ds.ok());
  EXPECT_TRUE(ds->object(0).keywords.empty());
}

TEST(DatasetTest, SaveLoadRoundTrip) {
  Dataset ds;
  ds.AddObject(Point{0.125, 0.25}, {"cafe", "wifi"});
  ds.AddObject(Point{3.5, -1.75}, {"museum"});
  const std::string path = test::UniqueTempPath("coskq_roundtrip.txt");
  ASSERT_TRUE(ds.SaveToFile(path).ok());
  auto loaded = Dataset::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->NumObjects(), 2u);
  EXPECT_EQ(loaded->object(0).location, ds.object(0).location);
  EXPECT_EQ(loaded->object(1).location, ds.object(1).location);
  EXPECT_EQ(loaded->TotalKeywordCount(), ds.TotalKeywordCount());
  std::remove(path.c_str());
}

TEST(DatasetTest, LoadMissingFileFails) {
  auto result = Dataset::LoadFromFile("/nonexistent/coskq.txt");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(DatasetTest, CloneIsDeepAndIndependent) {
  Dataset ds;
  ds.AddObject(Point{0, 0}, {"a"});
  Dataset copy = ds.Clone();
  copy.AddObject(Point{1, 1}, {"b"});
  EXPECT_EQ(ds.NumObjects(), 1u);
  EXPECT_EQ(copy.NumObjects(), 2u);
}

}  // namespace
}  // namespace coskq
