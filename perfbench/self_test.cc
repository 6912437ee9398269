// Self-test of the correctness checks: each check must accept the right
// answer and reject a wrong one. The answers are real ones from the
// program's solvers on a small GN-like corpus; the wrong ones are derived
// from them (one object dropped, cost off by one ulp, appro above its ratio
// bound, a stale answer after a MUTATE, a routed answer from another set).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "data/query_gen.h"
#include "data/synthetic.h"
#include "engine/batch_engine.h"
#include "index/irtree.h"
#include "layers.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(const char* what, bool passed_when_right, bool failed_when_wrong) {
  const bool ok = passed_when_right && failed_when_wrong;
  std::printf("%-58s %s\n", what, ok ? "ok" : "NOT DETECTED");
  if (!ok) ++g_failures;
}

std::vector<coskq::CoskqResult> Solve(const coskq::CoskqContext& context,
                                      const char* solver,
                                      const std::vector<coskq::CoskqQuery>& q) {
  coskq::BatchOptions options;
  options.solver_name = solver;
  options.num_threads = 1;
  return coskq::BatchEngine(context, options).Run(q).results;
}

}  // namespace

int RunSelfTest() {
  coskq::Rng rng(42);
  coskq::Dataset dataset =
      coskq::GenerateSynthetic(coskq::GnLikeSpec(0.005), &rng);
  coskq::IrTree tree(&dataset);
  tree.Freeze();
  const coskq::CoskqContext context{&dataset, &tree};
  const coskq::QueryGenerator gen(&dataset);
  std::vector<coskq::CoskqQuery> queries;
  for (int i = 0; i < 20; ++i) queries.push_back(gen.Generate(3, &rng));
  const ObjectTable table(dataset);

  for (coskq::CostType cost : {coskq::CostType::kMaxSum, coskq::CostType::kDia}) {
    const bool maxsum = cost == coskq::CostType::kMaxSum;
    const auto exact = Solve(context, maxsum ? "maxsum-exact" : "dia-exact",
                             queries);
    const auto cao = Solve(context, maxsum ? "cao-exact-maxsum" : "cao-exact-dia",
                           queries);
    const auto appro = Solve(context, maxsum ? "maxsum-appro" : "dia-appro",
                             queries);
    bool right_answer = true, dropped = true, ulp = true, lower = true;
    bool same_cost = true, ulp_cost = true, ratio_right = true, ratio = true;
    bool routed_right = true, routed = true;
    for (size_t i = 0; i < queries.size(); ++i) {
      const coskq::CoskqQuery& q = queries[i];
      const double qx = q.location.x;
      const double qy = q.location.y;
      const Answer a = ToAnswer(exact[i]);
      right_answer &= CheckAnswer(table, cost, qx, qy, q.keywords, a).empty();
      Answer drop = a;
      drop.set.pop_back();
      drop.cost = table.Cost(cost, qx, qy, drop.set);  // a consistent cost
      dropped &= !CheckAnswer(table, cost, qx, qy, q.keywords, drop).empty();
      Answer off = a;
      off.cost = std::nextafter(a.cost, INFINITY);
      ulp &= !CheckAnswer(table, cost, qx, qy, q.keywords, off).empty();
      lower &= CheckLowerBound(table.LowerBound(qx, qy, q.keywords), a.cost)
                   .empty() &&
               !CheckLowerBound(a.cost, std::nextafter(a.cost, 0.0)).empty();
      same_cost &= CheckSameCost(a.cost, cao[i].cost).empty();
      ulp_cost &= !CheckSameCost(off.cost, cao[i].cost).empty();
      ratio_right &= CheckApproBound(cost, appro[i].cost, a.cost).empty();
      ratio &= !CheckApproBound(
                    cost, coskq::ApproRatioBound(cost) * a.cost * 1.001,
                    a.cost)
                    .empty();
      const Answer other = ToAnswer(exact[(i + 1) % queries.size()]);
      routed_right &= CheckSameAnswer(a, ToAnswer(exact[i])).empty();
      routed &= !CheckSameAnswer(a, other).empty() || a.set == other.set;
    }
    const std::string c = maxsum ? " (MaxSum)" : " (Dia)";
    Expect(("set with one object dropped" + c).c_str(), right_answer, dropped);
    Expect(("reported cost off by one ulp" + c).c_str(), right_answer, ulp);
    Expect(("cost below the keyword-NN lower bound" + c).c_str(), true, lower);
    Expect(("exact cost one ulp off the Cao optimum" + c).c_str(), same_cost,
           ulp_cost);
    Expect(("approximate cost above its ratio bound" + c).c_str(), ratio_right,
           ratio);
    Expect(("routed answer from a different set" + c).c_str(), routed_right,
           routed);
  }

  // Stale answers after a MUTATE. An object removed by an acknowledged
  // MUTATE before the query was sent must not be in the answer; and the
  // answer to a query asked right after an insert at its point, carrying
  // its keywords, is the new object at cost 0 (the pre-insert answer is
  // stale).
  const coskq::CoskqQuery& q = queries[0];
  const Answer before = ToAnswer(Solve(context, "maxsum-appro", {q})[0]);
  const uint32_t removed = before.set.front();
  Expect("answer holding an object removed before the query",
         CheckNotStale(before, [](uint32_t) { return false; }).empty(),
         !CheckNotStale(before, [&](uint32_t id) { return id == removed; })
              .empty());
  Answer fresh;
  fresh.feasible = true;
  fresh.set = {static_cast<uint32_t>(dataset.NumObjects())};
  fresh.cost = 0.0;
  Expect("pre-insert answer after an insert at the query point",
         CheckInsertVisible(fresh, fresh.set[0]).empty(),
         !CheckInsertVisible(before, fresh.set[0]).empty());
  Expect("server counts that disagree with the client's",
         CheckCountsEqual("a", 7, "b", 7).empty(),
         !CheckCountsEqual("a", 7, "b", 8).empty());

  std::printf("self-test: %s\n", g_failures == 0 ? "all wrong answers caught"
                                                 : "some wrong answers missed");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
