// Workload batch-gn: the paper's offline evaluation through BatchEngine.
//
// The four paper solvers answer fixed, seeded query sets in whole rounds
// until the run time is spent: maxsum-appro and dia-appro over
// |q.psi| in {3, 6, 9, 12, 15}, maxsum-exact and dia-exact over
// |q.psi| in {3, 4}. Two worker threads, no deadline. Every answer of every
// round is checked; the Cao et al. exact baselines give the independent
// optimum outside the timed rounds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "checks.h"
#include "data/query_gen.h"
#include "engine/batch_engine.h"
#include "index/irtree.h"
#include "layers.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kThreads = 2;
constexpr size_t kApproSizes[] = {3, 6, 9, 12, 15};
constexpr size_t kExactSizes[] = {3, 4};
constexpr size_t kQueriesPerSize = 200;

struct SolverSpec {
  const char* name;
  const char* reference;  // independent exact solver of the same cost
  coskq::CostType cost;
  bool exact;
};

constexpr SolverSpec kSolvers[] = {
    {"maxsum-appro", "cao-exact-maxsum", coskq::CostType::kMaxSum, false},
    {"dia-appro", "cao-exact-dia", coskq::CostType::kDia, false},
    {"maxsum-exact", "cao-exact-maxsum", coskq::CostType::kMaxSum, true},
    {"dia-exact", "cao-exact-dia", coskq::CostType::kDia, true},
};

struct QuerySet {
  std::vector<coskq::CoskqQuery> queries;
  std::vector<size_t> sizes;       // |q.psi| per query
  std::vector<double> lower_bound;  // keyword-NN bound per query
};

/// What one solver did over all timed rounds of one phase.
struct SolverTally {
  std::vector<double> solve_ms;
  std::map<size_t, std::vector<double>> solve_ms_by_size;
  double wall_ms = 0.0;
  uint64_t solves = 0;
  // Work counters of one round (they repeat exactly round to round).
  uint64_t pairs = 0;
  uint64_t candidates = 0;
  uint64_t sets = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
};

struct Phase {
  std::vector<SolverTally> tallies{std::size(kSolvers)};
  std::vector<double> appro_solve_ms;
  std::vector<double> appro_round_qps;  // approximate solves/s per round
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

class BatchGn {
 public:
  BatchGn(const RunArgs& args, RunOutcome* out) : args_(args), out_(out) {}

  void Run() {
    const Clock::time_point t0 = Clock::now();
    dataset_ = MakeGnDataset(args_.seed);
    const Clock::time_point t1 = Clock::now();
    tree_ = std::make_unique<coskq::IrTree>(&dataset_);
    tree_->Freeze();
    const Clock::time_point t2 = Clock::now();
    const double setup_s = SecondsSince(g_process_start);
    const double generate_ms = MillisBetween(t0, t1);
    const double build_ms = MillisBetween(t1, t2);

    MakeQueries();
    PrepareReferences();
    const coskq::CoskqContext context{&dataset_, tree_.get()};
    for (const SolverSpec& spec : kSolvers) {
      coskq::BatchOptions options;
      options.solver_name = spec.name;
      options.num_threads = kThreads;
      engines_.push_back(std::make_unique<coskq::BatchEngine>(context, options));
    }
    // Warm-up: one untimed pass of the approximate sets brings the index
    // and the allocator to their steady state.
    Tracer off(false);
    Phase warm;
    RunRound(/*only_appro=*/true, &off, 0, &warm);
    const uint64_t ready_rss = PeakRssBytes();

    Report& r = out_->report;
    if (!args_.trace) {
      Phase timed = RunPhase(args_.seconds, &off);
      out_->attempted = timed.attempted;
      out_->failed = timed.failed;
      r.Add("setup_s", setup_s, "s");
      r.Add("query_p50_ms", Percentile(timed.appro_solve_ms, 0.5), "ms");
      r.Add("index_bytes",
            static_cast<double>(tree_->MemoryStats().body_bytes), "bytes");
      r.Add("peak_rss_bytes", static_cast<double>(ready_rss), "bytes");
      return;
    }

    // Traced mode: half the time untraced, half traced; the difference in
    // median solve time is the tracing overhead.
    Phase plain = RunPhase(args_.seconds / 2, &off);
    Tracer tracer(true);
    Phase traced = RunPhase(args_.seconds / 2, &tracer);
    out_->attempted = plain.attempted + traced.attempted;
    out_->failed = plain.failed + traced.failed;
    ReplayIndexCalls(*tree_, appro_.queries, &tracer, &r);
    tracer.Record("data.generate", t0, t1, -1, 0);
    tracer.Record("index.build", t1, t2, -1, 0);
    r.Add("data.generate_ms", generate_ms, "ms");
    r.Add("index.build_ms", build_ms, "ms");
    ReportLayers(traced);
    r.Add("load.query_p99_ms", Percentile(traced.appro_solve_ms, 0.99), "ms");
    r.Add("load.saturated_qps", Median(traced.appro_round_qps), "1/s");
    const double p50_plain = Percentile(plain.appro_solve_ms, 0.5);
    const double p50_traced = Percentile(traced.appro_solve_ms, 0.5);
    r.Add("trace.overhead_pct", 100.0 * (p50_traced / p50_plain - 1.0), "%");
    FinishTrace(tracer, args_, &r);
  }

 private:
  void MakeQueries() {
    coskq::Rng rng(args_.seed * 1000003ull + 7);
    const coskq::QueryGenerator gen(&dataset_);
    for (size_t k : kApproSizes) {
      for (size_t i = 0; i < kQueriesPerSize; ++i) {
        appro_.queries.push_back(gen.Generate(k, &rng));
        appro_.sizes.push_back(k);
      }
    }
    // The exact sets start with the |q.psi| = 3 approximate queries, so the
    // approximation ratio is checked against a known optimum on those.
    for (size_t k : kExactSizes) {
      for (size_t i = 0; i < kQueriesPerSize; ++i) {
        exact_.queries.push_back(k == kApproSizes[0] ? appro_.queries[i]
                                                     : gen.Generate(k, &rng));
        exact_.sizes.push_back(k);
      }
    }
  }

  void PrepareReferences() {
    table_ = std::make_unique<ObjectTable>(dataset_);
    for (QuerySet* set : {&appro_, &exact_}) {
      for (const coskq::CoskqQuery& q : set->queries) {
        set->lower_bound.push_back(table_->LowerBound(
            q.location.x, q.location.y,
            std::vector<uint32_t>(q.keywords.begin(), q.keywords.end())));
      }
    }
    const coskq::CoskqContext context{&dataset_, tree_.get()};
    for (const char* cao : {"cao-exact-maxsum", "cao-exact-dia"}) {
      coskq::BatchOptions options;
      options.solver_name = cao;
      options.num_threads = kThreads;
      const coskq::BatchOutcome outcome =
          coskq::BatchEngine(context, options).Run(exact_.queries);
      std::vector<double>& costs = reference_cost_[cao];
      for (size_t i = 0; i < exact_.queries.size(); ++i) {
        out_->checks.Expect(
            std::string(cao) + " reference",
            outcome.status.ok() && outcome.executed[i] != 0
                ? CheckAnswer(*table_, CostOf(cao), exact_.queries[i].location.x,
                              exact_.queries[i].location.y,
                              exact_.queries[i].keywords,
                              ToAnswer(outcome.results[i]))
                : "reference solve failed");
        costs.push_back(outcome.results[i].cost);
      }
    }
  }

  static coskq::CostType CostOf(const std::string& solver) {
    return solver.find("dia") != std::string::npos ? coskq::CostType::kDia
                                                   : coskq::CostType::kMaxSum;
  }

  Phase RunPhase(double seconds, Tracer* tracer) {
    Phase phase;
    const Clock::time_point start = Clock::now();
    uint64_t round = 0;
    do {
      RunRound(/*only_appro=*/false, tracer, round++, &phase);
    } while (SecondsSince(start) < seconds);
    return phase;
  }

  void RunRound(bool only_appro, Tracer* tracer, uint64_t round,
                Phase* phase) {
    double round_appro_ms = 0.0;
    size_t round_appro_solves = 0;
    for (size_t s = 0; s < std::size(kSolvers); ++s) {
      const SolverSpec& spec = kSolvers[s];
      if (only_appro && spec.exact) {
        continue;
      }
      const QuerySet& set = spec.exact ? exact_ : appro_;
      const Clock::time_point t0 = Clock::now();
      const coskq::BatchOutcome outcome = engines_[s]->Run(set.queries);
      const Clock::time_point t1 = Clock::now();
      const int64_t span = tracer->Record("engine.run", t0, t1, -1,
                                          round * std::size(kSolvers) + s);
      SolverTally& tally = phase->tallies[s];
      tally.wall_ms += MillisBetween(t0, t1);
      if (!spec.exact) {
        round_appro_ms += MillisBetween(t0, t1);
        round_appro_solves += set.queries.size();
      }
      tally.pairs = tally.candidates = tally.sets = 0;
      tally.memo_hits = tally.memo_misses = 0;
      phase->attempted += set.queries.size();
      if (!outcome.status.ok()) {
        phase->failed += set.queries.size();
        out_->checks.Expect(spec.name, "batch failed: " +
                                           outcome.status.ToString());
        continue;
      }
      for (size_t i = 0; i < set.queries.size(); ++i) {
        const coskq::CoskqResult& result = outcome.results[i];
        const coskq::SolveStats& st = result.stats;
        // The engine does not expose when each solve started; its span
        // carries the solver's own elapsed time, anchored at the batch start.
        tracer->Record("core.solve", t0,
                       t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    st.elapsed_ms)),
                       span, i);
        tally.solve_ms.push_back(st.elapsed_ms);
        tally.solve_ms_by_size[set.sizes[i]].push_back(st.elapsed_ms);
        if (!spec.exact) phase->appro_solve_ms.push_back(st.elapsed_ms);
        ++tally.solves;
        tally.pairs += st.pairs_examined;
        tally.candidates += st.candidates;
        tally.sets += st.sets_evaluated;
        tally.memo_hits += st.dist_cache_hits;
        tally.memo_misses += st.dist_cache_misses;
        CheckResult(spec, set, i, result);
      }
    }
    if (round_appro_ms > 0) {
      phase->appro_round_qps.push_back(1e3 * round_appro_solves /
                                       round_appro_ms);
    }
  }

  void CheckResult(const SolverSpec& spec, const QuerySet& set, size_t i,
                   const coskq::CoskqResult& result) {
    const coskq::CoskqQuery& q = set.queries[i];
    const Answer answer = ToAnswer(result);
    CheckLog& log = out_->checks;
    log.Expect(spec.name, CheckAnswer(*table_, spec.cost, q.location.x,
                                      q.location.y, q.keywords, answer));
    log.Expect(spec.name, CheckLowerBound(set.lower_bound[i], answer.cost));
    const std::vector<double>& ref = reference_cost_.at(spec.reference);
    if (spec.exact) {
      log.Expect(spec.name, CheckSameCost(answer.cost, ref[i]));
    } else if (i < kQueriesPerSize) {
      // The first block of the approximate set is the exact set's first.
      log.Expect(spec.name, CheckApproBound(spec.cost, answer.cost, ref[i]));
    }
  }

  double ApproQps(const Phase& phase) const {
    double wall = 0.0;
    uint64_t solves = 0;
    for (size_t s = 0; s < std::size(kSolvers); ++s) {
      if (!kSolvers[s].exact) {
        wall += phase.tallies[s].wall_ms;
        solves += phase.tallies[s].solves;
      }
    }
    return wall > 0 ? 1e3 * static_cast<double>(solves) / wall : 0.0;
  }

  void ReportLayers(const Phase& phase) {
    Report& r = out_->report;
    std::vector<double> exact_ms;
    std::vector<double> appro_ms;
    double exact_wall = 0.0;
    uint64_t exact_solves = 0;
    double solve_total = 0.0;
    double wall_total = 0.0;
    uint64_t memo_hits = 0;
    uint64_t memo_misses = 0;
    for (size_t s = 0; s < std::size(kSolvers); ++s) {
      const SolverSpec& spec = kSolvers[s];
      const SolverTally& t = phase.tallies[s];
      for (const auto& [k, samples] : t.solve_ms_by_size) {
        r.Add(std::string("core.solve_ms.") + spec.name + ".k" +
                  std::to_string(k),
              Median(samples), "ms");
      }
      r.Add(std::string("core.pairs_examined.") + spec.name,
            static_cast<double>(t.pairs), "count");
      r.Add(std::string("core.candidates.") + spec.name,
            static_cast<double>(t.candidates), "count");
      r.Add(std::string("core.sets_evaluated.") + spec.name,
            static_cast<double>(t.sets), "count");
      std::vector<double>& bucket = spec.exact ? exact_ms : appro_ms;
      bucket.insert(bucket.end(), t.solve_ms.begin(), t.solve_ms.end());
      if (spec.exact) {
        exact_wall += t.wall_ms;
        exact_solves += t.solves;
      }
      for (double ms : t.solve_ms) solve_total += ms;
      wall_total += t.wall_ms;
      memo_hits += t.memo_hits;
      memo_misses += t.memo_misses;
    }
    r.Add("core.dist_memo_hit_ratio",
          memo_hits + memo_misses > 0
              ? static_cast<double>(memo_hits) /
                    static_cast<double>(memo_hits + memo_misses)
              : 0.0,
          "ratio");
    r.Add("engine.parallel_efficiency", solve_total / (kThreads * wall_total),
          "ratio");
    r.Add("engine.exact_qps",
          exact_wall > 0 ? 1e3 * static_cast<double>(exact_solves) / exact_wall
                         : 0.0,
          "1/s");
    r.Add("engine.exact_p50_ms", Median(exact_ms), "ms");
    r.Add("engine.appro_qps", ApproQps(phase), "1/s");
    r.Add("engine.appro_p50_ms", Median(appro_ms), "ms");
  }

  const RunArgs& args_;
  RunOutcome* out_;
  coskq::Dataset dataset_;
  std::unique_ptr<coskq::IrTree> tree_;
  std::unique_ptr<ObjectTable> table_;
  QuerySet appro_;
  QuerySet exact_;
  std::map<std::string, std::vector<double>> reference_cost_;
  std::vector<std::unique_ptr<coskq::BatchEngine>> engines_;
};

}  // namespace

void RunBatchGn(const RunArgs& args, RunOutcome* out) {
  BatchGn(args, out).Run();
}

}  // namespace perfbench
