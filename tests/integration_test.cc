// End-to-end integration tests: dataset generation -> persistence ->
// indexing -> query processing across all solvers, plus the evaluation's
// dataset derivations.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "core/solvers.h"
#include "data/augment.h"
#include "data/query_gen.h"
#include "data/synthetic.h"
#include "index/irtree.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

TEST(IntegrationTest, FullPipelineRoundTrip) {
  // Generate -> save -> load -> index -> query; loaded dataset must answer
  // identically to the in-memory one.
  Rng rng(9001);
  SyntheticSpec spec;
  spec.num_objects = 800;
  spec.vocab_size = 120;
  spec.avg_keywords_per_object = 4.0;
  Dataset original = GenerateSynthetic(spec, &rng);

  const std::string path = test::UniqueTempPath("coskq_integration.txt");
  ASSERT_TRUE(original.SaveToFile(path).ok());
  StatusOr<Dataset> loaded_or = Dataset::LoadFromFile(path);
  ASSERT_TRUE(loaded_or.ok());
  Dataset loaded = std::move(loaded_or).value();
  std::remove(path.c_str());
  ASSERT_EQ(loaded.NumObjects(), original.NumObjects());

  IrTree index_a(&original);
  IrTree index_b(&loaded);
  CoskqContext ctx_a{&original, &index_a};
  CoskqContext ctx_b{&loaded, &index_b};

  QueryGenerator gen(&original);
  Rng qrng(9002);
  for (int trial = 0; trial < 10; ++trial) {
    CoskqQuery q = gen.Generate(4, &qrng);
    // Term ids can differ between the two datasets (interning order), so
    // translate through the keyword strings.
    CoskqQuery q_b = q;
    q_b.keywords.clear();
    for (TermId t : q.keywords) {
      const TermId mapped =
          loaded.vocabulary().Find(original.vocabulary().TermString(t));
      ASSERT_NE(mapped, Vocabulary::kInvalidTermId);
      q_b.keywords.push_back(mapped);
    }
    NormalizeTermSet(&q_b.keywords);
    auto solver_a = MakeSolver("maxsum-exact", ctx_a);
    auto solver_b = MakeSolver("maxsum-exact", ctx_b);
    const CoskqResult ra = solver_a->Solve(q);
    const CoskqResult rb = solver_b->Solve(q_b);
    ASSERT_EQ(ra.feasible, rb.feasible);
    if (ra.feasible) {
      EXPECT_NEAR(ra.cost, rb.cost, 1e-9);
    }
  }
}

TEST(IntegrationTest, ExactSolversAgreeOnMediumDataset) {
  // Larger-scale agreement check without the brute-force oracle: the two
  // independent exact implementations must agree on every query.
  Dataset ds = test::MakeRandomDataset(5000, 300, 4.0, 9010);
  IrTree tree(&ds);
  CoskqContext ctx{&ds, &tree};
  for (CostType type : {CostType::kMaxSum, CostType::kDia}) {
    auto owner = MakeSolver(
        type == CostType::kMaxSum ? "maxsum-exact" : "dia-exact", ctx);
    auto cao = MakeSolver(
        type == CostType::kMaxSum ? "cao-exact-maxsum" : "cao-exact-dia",
        ctx);
    QueryGenerator gen(&ds);
    Rng rng(9011);
    for (int trial = 0; trial < 12; ++trial) {
      const CoskqQuery q = gen.Generate(5, &rng);
      const CoskqResult a = owner->Solve(q);
      const CoskqResult b = cao->Solve(q);
      ASSERT_EQ(a.feasible, b.feasible);
      if (a.feasible) {
        EXPECT_NEAR(a.cost, b.cost, 1e-9) << CostTypeName(type);
      }
    }
  }
}

TEST(IntegrationTest, DerivedDatasetsStillAnswerCorrectly) {
  // The evaluation's two dataset derivations (keyword augmentation and
  // scaling) must preserve solver agreement.
  Dataset base = test::MakeRandomDataset(600, 80, 3.0, 9020);
  Rng rng(9021);

  Dataset heavier = base.Clone();
  AugmentAverageKeywords(&heavier, 8.0, &rng);
  Dataset larger = base.Clone();
  AugmentToSize(&larger, 1500, &rng);

  for (Dataset* ds : {&heavier, &larger}) {
    IrTree tree(ds);
    CoskqContext ctx{ds, &tree};
    tree.CheckInvariants();
    auto exact = MakeSolver("dia-exact", ctx);
    auto oracle = MakeSolver("brute-force-dia", ctx);
    QueryGenerator gen(ds);
    for (int trial = 0; trial < 5; ++trial) {
      const CoskqQuery q = gen.Generate(3, &rng);
      const CoskqResult a = exact->Solve(q);
      const CoskqResult b = oracle->Solve(q);
      ASSERT_EQ(a.feasible, b.feasible);
      if (a.feasible) {
        EXPECT_NEAR(a.cost, b.cost, 1e-9);
      }
    }
  }
}

TEST(IntegrationTest, PaperWorkloadSmoke) {
  // A miniature end-to-end run of the paper's workload recipe: Hotel-like
  // dataset, percentile-band queries, all five evaluation algorithms.
  Rng rng(9030);
  Dataset ds = GenerateSynthetic(HotelLikeSpec(0.05), &rng);
  IrTree tree(&ds);
  CoskqContext ctx{&ds, &tree};
  QueryGenerator gen(&ds);
  const char* names[] = {"maxsum-exact", "cao-exact-maxsum", "maxsum-appro",
                         "cao-appro1-maxsum", "cao-appro2-maxsum"};
  for (int trial = 0; trial < 5; ++trial) {
    const CoskqQuery q = gen.Generate(6, &rng);
    double exact_cost = -1.0;
    for (const char* name : names) {
      auto solver = MakeSolver(name, ctx);
      const CoskqResult result = solver->Solve(q);
      ASSERT_TRUE(result.feasible) << name;
      EXPECT_TRUE(SetCoversKeywords(ds, q.keywords, result.set)) << name;
      if (exact_cost < 0.0) {
        exact_cost = result.cost;
      } else {
        EXPECT_GE(result.cost, exact_cost - 1e-12) << name;
      }
    }
  }
}

}  // namespace
}  // namespace coskq
