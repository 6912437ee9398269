#include "layers.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "geo/circle.h"

namespace perfbench {

void ReplayIndexCalls(const coskq::IrTree& tree,
                      const std::vector<coskq::CoskqQuery>& queries,
                      Tracer* tracer, Report* report) {
  std::vector<double> keyword_nn_us;
  std::vector<double> nnset_us;
  std::vector<double> range_us;
  std::vector<coskq::ObjectId> out;
  for (size_t i = 0; i < queries.size(); ++i) {
    const coskq::CoskqQuery& q = queries[i];
    for (coskq::TermId t : q.keywords) {
      double distance = 0.0;
      const Clock::time_point t0 = Clock::now();
      tree.KeywordNn(q.location, t, &distance);
      const Clock::time_point t1 = Clock::now();
      keyword_nn_us.push_back(MillisBetween(t0, t1) * 1e3);
      tracer->Record("index.keyword_nn", t0, t1, -1, i);
    }
    const Clock::time_point t0 = Clock::now();
    const std::vector<coskq::ObjectId> nn =
        tree.NnSet(q.location, q.keywords, nullptr);
    const Clock::time_point t1 = Clock::now();
    nnset_us.push_back(MillisBetween(t0, t1) * 1e3);
    tracer->Record("index.nnset", t0, t1, -1, i);
    double radius = 0.0;
    for (coskq::ObjectId id : nn) {
      radius = std::max(radius, coskq::Distance(
                                    q.location,
                                    tree.dataset().object(id).location));
    }
    out.clear();
    const Clock::time_point t2 = Clock::now();
    tree.RangeRelevant(coskq::Circle(q.location, radius), q.keywords, &out);
    const Clock::time_point t3 = Clock::now();
    range_us.push_back(MillisBetween(t2, t3) * 1e3);
    tracer->Record("index.range_relevant", t2, t3, -1, i);
  }
  report->Add("index.nnset_us", Median(nnset_us), "us");
  report->Add("index.range_relevant_us", Median(range_us), "us");
  report->Add("index.keyword_nn_us", Median(keyword_nn_us), "us");
}

coskq::QueryRequest ToRequest(const coskq::Dataset& dataset,
                              const coskq::CoskqQuery& query,
                              coskq::SolverKind solver, coskq::CostType cost) {
  coskq::QueryRequest request;
  request.x = query.location.x;
  request.y = query.location.y;
  request.cost_type = cost;
  request.solver = solver;
  for (coskq::TermId t : query.keywords) {
    request.keywords.push_back(dataset.vocabulary().TermString(t));
  }
  return request;
}

Answer ToAnswer(const coskq::CoskqResult& result) {
  Answer a;
  a.feasible = result.feasible;
  a.set.assign(result.set.begin(), result.set.end());
  a.cost = result.cost;
  return a;
}

Answer ToAnswer(const coskq::QueryResult& result) {
  Answer a;
  a.feasible = result.outcome != coskq::QueryOutcome::kInfeasible;
  a.set = result.set;
  a.cost = result.cost;
  return a;
}

double CodecMicros(const std::vector<coskq::QueryRequest>& requests,
                   const std::vector<coskq::QueryResult>& results) {
  std::vector<double> us;
  const size_t n = std::min(requests.size(), results.size());
  us.reserve(n);
  coskq::QueryResult decoded;
  for (size_t i = 0; i < n; ++i) {
    const std::string reply = coskq::EncodeQueryResult(results[i]);
    const Clock::time_point t0 = Clock::now();
    const std::string wire = coskq::EncodeQueryRequest(requests[i]);
    const bool ok = coskq::DecodeQueryResult(reply, &decoded);
    const Clock::time_point t1 = Clock::now();
    if (!ok || wire.empty()) {
      std::fprintf(stderr, "FATAL: codec round trip failed\n");
      std::exit(1);
    }
    us.push_back(MillisBetween(t0, t1) * 1e3);
  }
  return Median(us);
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"setup_s", "s"},
      {"query_p50_ms", "ms"},
      {"index_bytes", "bytes"},
      {"peak_rss_bytes", "bytes"},
  };
  return metrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>>* metrics = [] {
    auto* m = new std::vector<std::pair<std::string, std::string>>{
        {"data.generate_ms", "ms"},
        {"index.build_ms", "ms"},
        {"index.snapshot_load_ms", "ms"},
        {"index.nnset_us", "us"},
        {"index.range_relevant_us", "us"},
        {"index.keyword_nn_us", "us"},
        {"index.delta_entries", "count"},
        {"index.refreezes", "count"},
        {"index.epoch", "count"},
    };
    for (const char* solver :
         {"maxsum-exact", "dia-exact", "maxsum-appro", "dia-appro"}) {
      const bool exact = std::string(solver).find("exact") != std::string::npos;
      for (int k : exact ? std::vector<int>{3, 4}
                         : std::vector<int>{3, 6, 9, 12, 15}) {
        m->push_back({std::string("core.solve_ms.") + solver + ".k" +
                          std::to_string(k),
                      "ms"});
      }
    }
    for (const char* counter : {"pairs_examined", "candidates",
                                "sets_evaluated"}) {
      for (const char* solver :
           {"maxsum-exact", "dia-exact", "maxsum-appro", "dia-appro"}) {
        m->push_back({std::string("core.") + counter + "." + solver, "count"});
      }
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"core.dist_memo_hit_ratio", "ratio"},
        {"engine.parallel_efficiency", "ratio"},
        {"engine.exact_qps", "1/s"},
        {"engine.exact_p50_ms", "ms"},
        {"engine.appro_qps", "1/s"},
        {"engine.appro_p50_ms", "ms"},
        {"cache.hit_ratio", "ratio"},
        {"cache.invalidations", "count"},
        {"cache.evictions", "count"},
        {"cache.lookup_us", "us"},
        {"cache.insert_us", "us"},
        {"server.ping_rtt_us", "us"},
        {"server.overhead_ms", "ms"},
        {"server.codec_us", "us"},
        {"server.shed", "count"},
        {"server.mutate_p50_ms", "ms"},
        {"load.late_ms", "ms"},
        {"load.query_p99_ms", "ms"},
        {"load.saturated_qps", "1/s"},
        {"cluster.harvest_rtt_us", "us"},
        {"cluster.fanout_per_query", "count"},
        {"cluster.pruned_kw", "count"},
        {"cluster.pruned_dist", "count"},
        {"cluster.probes", "count"},
        {"cluster.route_over_single", "ratio"},
        {"self_ms.data", "ms"},
        {"self_ms.index", "ms"},
        {"self_ms.core", "ms"},
        {"self_ms.engine", "ms"},
        {"self_ms.cache", "ms"},
        {"self_ms.server", "ms"},
        {"self_ms.cluster", "ms"},
        {"self_ms.load", "ms"},
        {"trace.spans", "count"},
        {"trace.overhead_pct", "%"},
    };
    m->insert(m->end(), rest.begin(), rest.end());
    return m;
  }();
  return *metrics;
}

}  // namespace perfbench
