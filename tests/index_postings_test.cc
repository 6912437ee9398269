// Range retrieval from the frozen body's term-major posting file
// (DESIGN.md §14). Over seeds 0-49 and both frozen layouts, every
// RangeRelevant call — unmasked and masked — must return exactly the tree
// walk's output, in the same order (asking for a visit log forces the tree
// walk), and the brute-force answer as a set; before any mutation it must
// also equal a never-frozen pointer tree's output in order. The query mix
// covers delta inserts and tombstones, queries with more than 64 keywords
// (the unmasked entry), terms absent from the base, and empty and
// whole-MBR disks, and it must exercise both planner branches. The
// posting-fed KeywordMatches harvest (the server's RELEVANT verb) must equal
// a brute-force scan with the same masks and id order.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "geo/circle.h"
#include "index/irtree.h"
#include "index/search_scratch.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

constexpr size_t kNumObjects = 600;
constexpr size_t kBaseObjects = 480;
// Wider than 64 so queries past the mask width exist.
constexpr size_t kVocab = 90;

struct RangeQuery {
  Circle circle;
  TermSet terms;
};

class PostingsDiffTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, FrozenLayout>> {
 protected:
  void SetUp() override {
    seed_ = std::get<0>(GetParam());
    options_.frozen_layout = std::get<1>(GetParam());
    dataset_ = test::MakeRandomDataset(kNumObjects, kVocab, 3.0, seed_ + 100);
    for (ObjectId id = 0; id < kBaseObjects; ++id) {
      live_.insert(id);
    }
    const std::vector<ObjectId> base(live_.begin(), live_.end());
    tree_ = std::make_unique<IrTree>(&dataset_, options_, base);
    tree_->Freeze();
    pointer_ = std::make_unique<IrTree>(&dataset_, options_, base);
  }

  /// Inserts 60 objects outside the base and removes 40 base objects.
  void Mutate(Rng* rng) {
    for (ObjectId id = kBaseObjects; id < kBaseObjects + 60; ++id) {
      ASSERT_TRUE(tree_->Insert(id).ok());
      live_.insert(id);
    }
    for (int removed = 0; removed < 40;) {
      const ObjectId id =
          static_cast<ObjectId>(rng->UniformUint64(kBaseObjects));
      if (live_.erase(id) > 0) {
        ASSERT_TRUE(tree_->Remove(id).ok());
        ++removed;
      }
    }
    ASSERT_GT(tree_->delta_size(), 0u);
  }

  TermSet RandomTerms(Rng* rng, size_t count, TermId lo, TermId hi) {
    TermSet terms;
    for (size_t i = 0; i < count; ++i) {
      terms.push_back(lo + static_cast<TermId>(rng->UniformUint64(hi - lo)));
    }
    NormalizeTermSet(&terms);
    return terms;
  }

  /// The query mix: selective calls the planner sends to the postings,
  /// dense calls it sends to the tree, wide (> 64 keyword) calls, terms
  /// absent from the base, and degenerate disks.
  std::vector<RangeQuery> Queries(Rng* rng) {
    std::vector<RangeQuery> queries;
    const auto point = [rng] {
      return Point{rng->UniformDouble(), rng->UniformDouble()};
    };
    for (int i = 0; i < 12; ++i) {
      // Large disk, rare terms: few postings against many in-disk entries.
      queries.push_back({Circle(point(), 0.3 + rng->UniformDouble()),
                         RandomTerms(rng, 1 + rng->UniformUint64(3), 60,
                                     kVocab)});
      // Small disk, frequent terms: many postings, few in-disk entries.
      queries.push_back({Circle(point(), 0.01 + 0.1 * rng->UniformDouble()),
                         RandomTerms(rng, 1 + rng->UniformUint64(4), 0, 8)});
    }
    for (int i = 0; i < 4; ++i) {
      queries.push_back({Circle(point(), 1.5 * rng->UniformDouble()),
                         RandomTerms(rng, 75, 0, kVocab)});
    }
    // Ids past every keyword of the dataset, alone and mixed in.
    queries.push_back({Circle(point(), 2.0), TermSet{kVocab + 3, 5000}});
    TermSet mixed = RandomTerms(rng, 3, 50, kVocab);
    mixed.push_back(kVocab + 7);
    queries.push_back({Circle(point(), 0.8), mixed});
    // Empty disks: zero radius, and a disk outside the MBR.
    queries.push_back({Circle(point(), 0.0), RandomTerms(rng, 3, 0, kVocab)});
    queries.push_back({Circle(Point{5.0, 5.0}, 0.5), TermSet{0, 1, 70}});
    // A live object's own location at zero radius.
    const ObjectId hit = *live_.begin();
    queries.push_back({Circle(dataset_.object(hit).location, 0.0),
                       dataset_.object(hit).keywords});
    // Whole-MBR disks.
    queries.push_back({Circle(Point{0.5, 0.5}, 2.0),
                       RandomTerms(rng, 2, 60, kVocab)});
    queries.push_back({Circle(Point{0.5, 0.5}, 2.0),
                       RandomTerms(rng, 5, 0, kVocab)});
    return queries;
  }

  std::vector<ObjectId> BruteForce(const RangeQuery& q) const {
    std::vector<ObjectId> out;
    for (ObjectId id : live_) {
      const SpatialObject& obj = dataset_.object(id);
      if (q.circle.Contains(obj.location) && obj.ContainsAnyOf(q.terms)) {
        out.push_back(id);
      }
    }
    return out;
  }

  /// Checks every query: planner output == tree walk == brute force (and ==
  /// the pointer tree while it still mirrors the live set), unmasked and
  /// masked.
  void CheckQueries(const std::vector<RangeQuery>& queries,
                    bool pointer_is_current) {
    SearchScratch scratch;
    for (size_t i = 0; i < queries.size(); ++i) {
      const RangeQuery& q = queries[i];
      SCOPED_TRACE(testing::Message() << "query " << i << " "
                                      << q.circle.ToString()
                                      << " |terms|=" << q.terms.size());
      std::vector<uint32_t> log;
      std::vector<ObjectId> tree_walk;
      tree_->RangeRelevant(q.circle, q.terms, &tree_walk, &log);
      std::vector<ObjectId> planned;
      tree_->RangeRelevant(q.circle, q.terms, &planned);
      EXPECT_EQ(planned, tree_walk);
      std::vector<ObjectId> sorted = planned;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, BruteForce(q));
      if (pointer_is_current) {
        std::vector<ObjectId> pointer;
        pointer_->RangeRelevant(q.circle, q.terms, &pointer);
        EXPECT_EQ(planned, pointer);
      }

      // Masked entry: a query scratch warmed by NnSet (the solver flow) so
      // the masked frozen scan runs; over 64 keywords it falls back to the
      // unmasked scan.
      scratch.BeginQuery(q.circle.center, q.terms, tree_->node_id_limit(),
                         dataset_.NumObjects());
      tree_->NnSet(q.circle.center, q.terms, nullptr, &scratch);
      std::vector<ObjectId> masked;
      tree_->RangeRelevant(q.circle, q.terms, &masked, &scratch);
      EXPECT_EQ(masked, tree_walk);
      std::vector<uint32_t> masked_log;
      scratch.set_visit_log(&masked_log);
      std::vector<ObjectId> masked_walk;
      tree_->RangeRelevant(q.circle, q.terms, &masked_walk, &scratch);
      scratch.set_visit_log(nullptr);
      EXPECT_EQ(masked_walk, tree_walk);
      scratch.FinishQuery();
    }
  }

  uint64_t seed_ = 0;
  IrTree::Options options_;
  Dataset dataset_;
  std::set<ObjectId> live_;
  std::unique_ptr<IrTree> tree_;
  std::unique_ptr<IrTree> pointer_;
};

TEST_P(PostingsDiffTest, PostingPathEqualsTreeWalkAndBruteForce) {
  Rng rng(seed_ * 7919 + 1);
  const RangeRetrievalStats before = tree_->range_stats();
  CheckQueries(Queries(&rng), /*pointer_is_current=*/true);
  Mutate(&rng);
  CheckQueries(Queries(&rng), /*pointer_is_current=*/false);
  // Both planner branches ran on unlogged calls (logged calls always walk).
  const RangeRetrievalStats after = tree_->range_stats();
  EXPECT_GT(after.posting_calls, before.posting_calls);
  EXPECT_GT(after.tree_calls, before.tree_calls);
  tree_->CheckInvariants();
}

TEST_P(PostingsDiffTest, KeywordMatchesEqualBruteForce) {
  Rng rng(seed_ * 104729 + 3);
  const auto check = [&](const IrTree& index) {
    for (int trial = 0; trial < 8; ++trial) {
      // Request positions are mask bits; some terms are absent from the
      // dataset altogether.
      std::vector<std::pair<TermId, int>> bits;
      const int n = 1 + static_cast<int>(rng.UniformUint64(6));
      for (int b = 0; b < n; ++b) {
        const TermId t = static_cast<TermId>(rng.UniformUint64(kVocab + 10));
        bits.emplace_back(t, b * 9 % 64);
      }
      std::vector<IrTree::KeywordMatch> want;
      for (ObjectId id : live_) {
        const SpatialObject& obj = dataset_.object(id);
        uint64_t mask = 0;
        for (const auto& [t, bit] : bits) {
          if (obj.ContainsTerm(t)) {
            mask |= uint64_t{1} << bit;
          }
        }
        if (mask != 0) {
          want.push_back(IrTree::KeywordMatch{id, obj.location, mask});
        }
      }
      std::vector<IrTree::KeywordMatch> got;
      index.KeywordMatches(bits, &got);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id);
        EXPECT_EQ(got[i].location, want[i].location);
        EXPECT_EQ(got[i].mask, want[i].mask);
      }
    }
  };
  check(*tree_);
  check(*pointer_);  // Never frozen: the leaf-walk fallback.
  Mutate(&rng);
  check(*tree_);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PostingsDiffTest,
    ::testing::Combine(::testing::Range<uint64_t>(0, 50),
                       ::testing::Values(FrozenLayout::kBfs,
                                         FrozenLayout::kLevelGrouped)),
    [](const ::testing::TestParamInfo<PostingsDiffTest::ParamType>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             (std::get<1>(info.param) == FrozenLayout::kBfs ? "bfs" : "lg");
    });

TEST(PostingsCountersTest, CountersReportThePathAndTheEntriesExamined) {
  Dataset ds = test::MakeRandomDataset(500, 60, 3.0, 77);
  IrTree tree(&ds);
  tree.Freeze();
  EXPECT_EQ(tree.range_stats().posting_calls, 0u);
  EXPECT_EQ(tree.range_stats().tree_calls, 0u);

  // A whole-MBR disk with the rarest present term reads its postings: the
  // entries examined are exactly its document frequency.
  std::vector<uint32_t> df(60, 0);
  for (ObjectId id = 0; id < ds.NumObjects(); ++id) {
    for (TermId t : ds.object(id).keywords) {
      ++df[t];
    }
  }
  TermId rare = 0;
  for (TermId t = 0; t < df.size(); ++t) {
    if (df[t] > 0 && (df[rare] == 0 || df[t] < df[rare])) {
      rare = t;
    }
  }
  std::vector<ObjectId> out;
  tree.RangeRelevant(Circle(Point{0.5, 0.5}, 2.0), TermSet{rare}, &out);
  EXPECT_EQ(out.size(), df[rare]);
  RangeRetrievalStats stats = tree.range_stats();
  EXPECT_EQ(stats.posting_calls, 1u);
  EXPECT_EQ(stats.posting_entries, df[rare]);
  EXPECT_EQ(stats.tree_calls, 0u);

  // A logged call walks the tree and counts the entries of the leaves it
  // reached: at least the matches, at most the base.
  std::vector<uint32_t> log;
  out.clear();
  tree.RangeRelevant(Circle(Point{0.5, 0.5}, 2.0), TermSet{rare}, &out, &log);
  stats = tree.range_stats();
  EXPECT_EQ(stats.posting_calls, 1u);
  EXPECT_EQ(stats.tree_calls, 1u);
  EXPECT_GE(stats.tree_entries, df[rare]);
  EXPECT_LE(stats.tree_entries, ds.NumObjects());
  EXPECT_FALSE(log.empty());
}

}  // namespace
}  // namespace coskq
