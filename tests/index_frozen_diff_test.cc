// Differential suite for the frozen flat IR-tree, over seeds 0-49: every
// query path (KeywordNn, NnSet, RangeRelevant, RelevantStream — baseline and
// masked) and every registry solver must be *bit-identical* between the
// pointer tree and the frozen representation, down to node-visit logs and
// distance-memo counters. This enforces the frozen layout's core contract:
// Freeze() changes the memory layout, never the traversal.
//
// Since the frozen traversals dispatch through the SIMD kernel table
// (kernels.h), every frozen-side check runs once per supported kernel
// (scalar always, plus avx2 where the hardware has it) via
// ForEachKernel — the pointer-side expectation is computed once and each
// kernel must reproduce it exactly.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/solvers.h"
#include "geo/circle.h"
#include "index/irtree.h"
#include "index/kernels.h"
#include "index/search_scratch.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

/// Runs `fn` once per supported kernel table with that table forced
/// process-wide, then restores the previous selection. Frozen traversals
/// read the active table, so this is how the differential checks cover the
/// scalar and AVX2 code paths on one machine.
template <typename Fn>
void ForEachKernel(Fn&& fn) {
  using internal_index::ActiveKernelName;
  using internal_index::SelectKernels;
  using internal_index::SupportedKernelNames;
  const std::string before = ActiveKernelName();
  for (const std::string& kernel : SupportedKernelNames()) {
    ASSERT_TRUE(SelectKernels(kernel).ok()) << kernel;
    SCOPED_TRACE("kernel=" + kernel);
    fn();
  }
  ASSERT_TRUE(SelectKernels(before).ok());
}

const char* const kSolverNames[] = {
    "maxsum-exact",      "dia-exact",        "maxsum-appro",
    "dia-appro",         "cao-exact-maxsum", "cao-exact-dia",
    "cao-appro1-maxsum", "cao-appro1-dia",   "cao-appro2-maxsum",
    "cao-appro2-dia",
};

class FrozenDiffTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    const uint64_t seed = GetParam();
    dataset_ = test::MakeRandomDataset(150, 25, 3.0, seed + 1);
    tree_ = std::make_unique<IrTree>(&dataset_);
    tree_->Freeze();
    ASSERT_TRUE(tree_->frozen());
    context_ = CoskqContext{&dataset_, tree_.get()};
    for (int i = 0; i < 3; ++i) {
      queries_.push_back(
          test::MakeRandomQuery(dataset_, 3 + i, seed * 1000 + i));
    }
  }

  Dataset dataset_;
  std::unique_ptr<IrTree> tree_;
  CoskqContext context_;
  std::vector<CoskqQuery> queries_;
};

TEST_P(FrozenDiffTest, FreezeIsIdempotentAndPassesInvariants) {
  tree_->CheckInvariants();  // Cross-checks frozen arrays vs pointer tree.
  tree_->Freeze();
  tree_->CheckInvariants();
}

TEST_P(FrozenDiffTest, KeywordNnVisitSequencesIdentical) {
  Rng rng(GetParam() + 11);
  for (int trial = 0; trial < 20; ++trial) {
    const Point p{rng.UniformDouble(), rng.UniformDouble()};
    const TermId t = static_cast<TermId>(rng.UniformUint64(25));

    tree_->set_frozen_enabled(false);
    double want_d = 0.0;
    std::vector<uint32_t> want_log;
    const ObjectId want = tree_->KeywordNn(p, t, &want_d, &want_log);

    tree_->set_frozen_enabled(true);
    ForEachKernel([&] {
      double got_d = 0.0;
      std::vector<uint32_t> got_log;
      const ObjectId got = tree_->KeywordNn(p, t, &got_d, &got_log);

      EXPECT_EQ(got, want);
      EXPECT_EQ(got_d, want_d);  // Bit-identical, no tolerance.
      EXPECT_EQ(got_log, want_log) << "KeywordNn expansion order diverged";
    });
  }
}

TEST_P(FrozenDiffTest, MaskedNnSetVisitSequencesIdentical) {
  SearchScratch scratch;
  for (const CoskqQuery& q : queries_) {
    std::vector<uint32_t> want_log;
    std::vector<ObjectId> want;
    TermSet want_missing;

    tree_->set_frozen_enabled(false);
    scratch.BeginQuery(q.location, q.keywords, tree_->node_id_limit(),
                       dataset_.NumObjects());
    scratch.set_visit_log(&want_log);
    want = tree_->NnSet(q.location, q.keywords, &want_missing, &scratch);
    scratch.set_visit_log(nullptr);
    scratch.FinishQuery();

    tree_->set_frozen_enabled(true);
    ForEachKernel([&] {
      std::vector<uint32_t> got_log;
      std::vector<ObjectId> got;
      TermSet got_missing;
      scratch.BeginQuery(q.location, q.keywords, tree_->node_id_limit(),
                         dataset_.NumObjects());
      scratch.set_visit_log(&got_log);
      got = tree_->NnSet(q.location, q.keywords, &got_missing, &scratch);
      scratch.set_visit_log(nullptr);
      scratch.FinishQuery();

      EXPECT_EQ(got, want);
      EXPECT_EQ(got_missing, want_missing);
      EXPECT_EQ(got_log, want_log) << "masked NnSet expansion diverged";
    });
  }
}

TEST_P(FrozenDiffTest, RangeRelevantVisitSequencesIdentical) {
  SearchScratch scratch;
  Rng rng(GetParam() + 77);
  for (const CoskqQuery& q : queries_) {
    const double radius = 0.1 + 0.4 * rng.UniformDouble();
    const Circle circle(q.location, radius);

    // Baseline (unmasked) with visit logs.
    tree_->set_frozen_enabled(false);
    std::vector<ObjectId> want_out;
    std::vector<uint32_t> want_log;
    tree_->RangeRelevant(circle, q.keywords, &want_out, &want_log);

    tree_->set_frozen_enabled(true);
    ForEachKernel([&] {
      std::vector<ObjectId> got_out;
      std::vector<uint32_t> got_log;
      tree_->RangeRelevant(circle, q.keywords, &got_out, &got_log);

      EXPECT_EQ(got_out, want_out);
      EXPECT_EQ(got_log, want_log) << "RangeRelevant expansion diverged";
    });

    // Masked with visit logs through the scratch.
    tree_->set_frozen_enabled(false);
    scratch.BeginQuery(q.location, q.keywords, tree_->node_id_limit(),
                       dataset_.NumObjects());
    std::vector<ObjectId> want_mout;
    std::vector<uint32_t> want_mlog;
    scratch.set_visit_log(&want_mlog);
    tree_->RangeRelevant(circle, q.keywords, &want_mout, &scratch);
    scratch.set_visit_log(nullptr);
    scratch.FinishQuery();

    tree_->set_frozen_enabled(true);
    ForEachKernel([&] {
      scratch.BeginQuery(q.location, q.keywords, tree_->node_id_limit(),
                         dataset_.NumObjects());
      std::vector<ObjectId> got_mout;
      std::vector<uint32_t> got_mlog;
      scratch.set_visit_log(&got_mlog);
      tree_->RangeRelevant(circle, q.keywords, &got_mout, &scratch);
      scratch.set_visit_log(nullptr);
      scratch.FinishQuery();

      EXPECT_EQ(got_mout, want_mout);
      EXPECT_EQ(got_mlog, want_mlog) << "masked RangeRelevant diverged";
    });
  }
}

TEST_P(FrozenDiffTest, RelevantStreamDrainsIdentically) {
  SearchScratch scratch;
  for (const CoskqQuery& q : queries_) {
    // Unmasked streams.
    std::vector<std::pair<ObjectId, double>> want;
    tree_->set_frozen_enabled(false);
    {
      IrTree::RelevantStream stream(tree_.get(), q.location, q.keywords);
      while (auto next = stream.Next()) {
        want.push_back(*next);
      }
    }
    tree_->set_frozen_enabled(true);
    ForEachKernel([&] {
      std::vector<std::pair<ObjectId, double>> got;
      IrTree::RelevantStream stream(tree_.get(), q.location, q.keywords);
      while (auto next = stream.Next()) {
        got.push_back(*next);
      }
      EXPECT_EQ(got, want) << "RelevantStream order/content diverged";
    });

    // Masked streams (scratch caches shared within each drain).
    want.clear();
    tree_->set_frozen_enabled(false);
    scratch.BeginQuery(q.location, q.keywords, tree_->node_id_limit(),
                       dataset_.NumObjects());
    {
      IrTree::RelevantStream stream(tree_.get(), q.location, q.keywords,
                                    &scratch);
      while (auto next = stream.Next()) {
        want.push_back(*next);
      }
    }
    scratch.FinishQuery();
    tree_->set_frozen_enabled(true);
    ForEachKernel([&] {
      std::vector<std::pair<ObjectId, double>> got;
      scratch.BeginQuery(q.location, q.keywords, tree_->node_id_limit(),
                         dataset_.NumObjects());
      {
        IrTree::RelevantStream stream(tree_.get(), q.location, q.keywords,
                                      &scratch);
        while (auto next = stream.Next()) {
          got.push_back(*next);
        }
      }
      scratch.FinishQuery();
      EXPECT_EQ(got, want) << "masked RelevantStream diverged";
    });
  }
}

TEST_P(FrozenDiffTest, EverySolverBitIdenticalFrozenVsPointer) {
  for (const bool use_masks : {false, true}) {
    SolverOptions options;
    options.use_query_masks = use_masks;
    for (const char* name : kSolverNames) {
      auto solver = MakeSolver(name, context_, options);
      ASSERT_NE(solver, nullptr) << name;
      for (size_t i = 0; i < queries_.size(); ++i) {
        SCOPED_TRACE(std::string(name) + (use_masks ? " masked" : " baseline") +
                     " query " + std::to_string(i));
        tree_->set_frozen_enabled(false);
        const CoskqResult want = solver->Solve(queries_[i]);
        tree_->set_frozen_enabled(true);
        ForEachKernel([&] {
          const CoskqResult got = solver->Solve(queries_[i]);
          EXPECT_EQ(got.feasible, want.feasible);
          EXPECT_EQ(got.set, want.set);
          EXPECT_EQ(got.cost, want.cost);  // Bit-identical, no tolerance.
          EXPECT_EQ(got.stats.candidates, want.stats.candidates);
          EXPECT_EQ(got.stats.sets_evaluated, want.stats.sets_evaluated);
          EXPECT_EQ(got.stats.pairs_examined, want.stats.pairs_examined);
          // The distance memo is shared logic: frozen paths must consult it
          // exactly as often as the pointer paths do.
          EXPECT_EQ(got.stats.dist_cache_hits, want.stats.dist_cache_hits);
          EXPECT_EQ(got.stats.dist_cache_misses,
                    want.stats.dist_cache_misses);
        });
      }
    }
  }
}

TEST(FrozenInsertTest, InsertLandsInDeltaAndQueriesStayCorrect) {
  // Since the live-update layer (DESIGN.md §13), mutating a frozen tree
  // never invalidates the frozen view: the mutation lands in the delta
  // overlay, re-inserting a live object is a clean error, and queries keep
  // the frozen fast path while observing the delta.
  Dataset ds = test::MakeRandomDataset(200, 20, 3.0, 7);
  std::vector<ObjectId> base;
  for (ObjectId id = 0; id < 180; ++id) {
    base.push_back(id);
  }
  IrTree tree(&ds, IrTree::Options(), base);
  tree.Freeze();
  ASSERT_TRUE(tree.frozen());

  // Re-inserting a live object is rejected; the frozen view survives.
  EXPECT_FALSE(tree.Insert(0).ok());
  EXPECT_TRUE(tree.frozen());
  EXPECT_EQ(tree.delta_size(), 0u);
  tree.CheckInvariants();

  // Inserting a not-yet-live object goes to the delta and is immediately
  // visible at its exact location.
  ASSERT_TRUE(tree.Insert(190).ok());
  EXPECT_TRUE(tree.frozen());
  EXPECT_EQ(tree.delta_size(), 1u);
  tree.CheckInvariants();
  double d = 0.0;
  const TermSet& kw = ds.object(190).keywords;
  ASSERT_FALSE(kw.empty());
  const ObjectId nn = tree.KeywordNn(ds.object(190).location, kw[0], &d);
  EXPECT_EQ(nn, 190u);
  EXPECT_EQ(d, 0.0);

  // Re-freezing folds the delta into a fresh frozen body.
  tree.Freeze();
  EXPECT_TRUE(tree.frozen());
  EXPECT_EQ(tree.delta_size(), 0u);
  EXPECT_EQ(tree.size(), 181u);
  tree.CheckInvariants();
  d = 0.0;
  EXPECT_EQ(tree.KeywordNn(ds.object(190).location, kw[0], &d), 190u);
  EXPECT_EQ(d, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrozenDiffTest,
                         ::testing::Range<uint64_t>(0, 50));

}  // namespace
}  // namespace coskq
