// Workload route-3shard: BuildShardedCluster cuts the corpus into 3 STR
// shards; each is loaded back with LoadSnapshot into its own in-process
// CoskqServer (1 worker) behind a ClusterRouter without result cache.
//
// The stream is distinct, uniformly drawn queries (the paper's generator:
// uniform location, keywords from the top 40% of the vocabulary), so the
// cache could never hit and nothing is written. One query in
// kExactEvery uses an owner-driven exact solver at |q.psi| = 2, so the
// probe and the distance-owner MINDIST prune run; the rest are approximate
// with |q.psi| cycling over 3..6, both cost types. Phase 1 is an open loop
// at a fixed rate below capacity; phase 2 a closed loop.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "checks.h"
#include "cluster/partitioner.h"
#include "cluster/router.h"
#include "data/query_gen.h"
#include "engine/batch_engine.h"
#include "index/irtree.h"
#include "index/snapshot.h"
#include "layers.h"
#include "load.h"
#include "server/client.h"
#include "server/server.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint32_t kShards = 3;
constexpr double kOpenRate = 300.0;
constexpr int kOpenConnections = 3;
constexpr int kClosedConnections = 3;
constexpr size_t kExactEvery = 20;
constexpr size_t kWarmupQueries = 100;

[[noreturn]] void Fatal(const std::string& what, const coskq::Status& s) {
  std::fprintf(stderr, "FATAL: %s: %s\n", what.c_str(), s.ToString().c_str());
  std::exit(1);
}

class Route3Shard {
 public:
  Route3Shard(const RunArgs& args, RunOutcome* out) : args_(args), out_(out) {}

  ~Route3Shard() {
    if (router_ != nullptr) {
      router_->Shutdown();
      router_->Wait();
    }
    for (auto& server : shard_servers_) {
      server->Shutdown();
      server->Wait();
    }
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  void Run() {
    Tracer tracer(args_.trace);
    const Clock::time_point t0 = Clock::now();
    dataset_ = MakeGnDataset(args_.seed);
    const Clock::time_point t1 = Clock::now();
    dir_ = args_.scratch_dir + "/route-3shard-" + std::to_string(getpid());
    std::filesystem::create_directories(dir_);
    coskq::BuildClusterOptions build;
    build.num_shards = kShards;
    coskq::StatusOr<coskq::ClusterManifest> manifest =
        coskq::BuildShardedCluster(dataset_, dir_, build);
    if (!manifest.ok()) Fatal("BuildShardedCluster", manifest.status());
    const Clock::time_point t2 = Clock::now();
    double load_ms = 0.0;
    double data_load_ms = 0.0;
    coskq::RouterOptions router_options;
    for (const coskq::ShardManifestEntry& shard : manifest->shards) {
      const Clock::time_point a = Clock::now();
      coskq::StatusOr<coskq::Dataset> ds =
          coskq::Dataset::LoadFromFile(dir_ + "/" + shard.dataset_file);
      if (!ds.ok()) Fatal("shard dataset", ds.status());
      shard_datasets_.push_back(
          std::make_unique<coskq::Dataset>(std::move(*ds)));
      const Clock::time_point b = Clock::now();
      coskq::StatusOr<std::unique_ptr<coskq::IrTree>> tree = coskq::LoadSnapshot(
          shard_datasets_.back().get(), dir_ + "/" + shard.snapshot_file);
      if (!tree.ok()) Fatal("LoadSnapshot", tree.status());
      const Clock::time_point c = Clock::now();
      tracer.Record("data.load", a, b, -1, shard.shard_id);
      tracer.Record("index.snapshot_load", b, c, -1, shard.shard_id);
      data_load_ms += MillisBetween(a, b);
      load_ms += MillisBetween(b, c);
      index_bytes_ += (*tree)->MemoryStats().body_bytes;
      shard_trees_.push_back(std::move(*tree));
      coskq::ServerOptions options;
      options.num_workers = 1;
      options.index_from_snapshot = true;
      shard_servers_.push_back(std::make_unique<coskq::CoskqServer>(
          coskq::CoskqContext{shard_datasets_.back().get(),
                              shard_trees_.back().get()},
          options));
      const coskq::Status started = shard_servers_.back()->Start();
      if (!started.ok()) Fatal("shard server", started);
      router_options.shards.push_back(
          coskq::ShardAddress{"127.0.0.1", shard_servers_.back()->port()});
    }
    router_options.client_options.connect_timeout_ms = 5000;
    router_options.client_options.io_timeout_ms = 60000;
    router_ = std::make_unique<coskq::ClusterRouter>(*manifest, router_options);
    const coskq::Status started = router_->Start();
    if (!started.ok()) Fatal("router", started);
    const double setup_s = SecondsSince(g_process_start);

    MakeStream();
    Tracer off(false);
    RunOpen(kWarmupQueries, &off);
    const uint64_t ready_rss = PeakRssBytes();
    const coskq::StatsReply before = RouterStats();
    LoadResult plain;
    if (args_.trace) {
      plain = RunOpen(static_cast<size_t>(args_.seconds / 4 * kOpenRate), &off);
    }
    LoadResult open = RunOpen(
        static_cast<size_t>(args_.seconds / (args_.trace ? 4 : 2) * kOpenRate),
        args_.trace ? &tracer : &off);
    LoadResult closed = RunClosed(args_.seconds / 2);
    const coskq::StatsReply after = RouterStats();
    const uint64_t answered = plain.answered + open.answered + closed.answered;
    out_->attempted = answered + plain.failed + open.failed + closed.failed;
    out_->failed = plain.failed + open.failed + closed.failed;

    // Accounting: every routed query fans out to every shard, each slot
    // either harvested or pruned by one of the two mechanisms.
    const uint64_t slots = (after.shards_harvested - before.shards_harvested) +
                           (after.shards_pruned_keyword -
                            before.shards_pruned_keyword) +
                           (after.shards_pruned_distance -
                            before.shards_pruned_distance);
    out_->checks.Expect("prune accounting",
                        CheckCountsEqual("harvested + pruned slots", slots,
                                         "shards x routed queries",
                                         kShards * answered));
    CheckAgainstSingleIndex({&plain, &open, &closed});

    Report& r = out_->report;
    if (!args_.trace) {
      r.Add("setup_s", setup_s, "s");
      r.Add("query_p50_ms", Percentile(open.latency_ms, 0.5), "ms");
      r.Add("index_bytes", static_cast<double>(index_bytes_), "bytes");
      r.Add("peak_rss_bytes", static_cast<double>(ready_rss), "bytes");
      return;
    }
    tracer.Record("data.generate", t0, t1, -1, 0);
    tracer.Record("cluster.build", t1, t2, -1, 0);
    r.Add("data.generate_ms", MillisBetween(t0, t1) + data_load_ms, "ms");
    r.Add("index.snapshot_load_ms", load_ms, "ms");
    const double routed = static_cast<double>(answered);
    r.Add("cluster.fanout_per_query",
          static_cast<double>(after.shards_harvested - before.shards_harvested) /
              routed,
          "count");
    r.Add("cluster.pruned_kw",
          static_cast<double>(after.shards_pruned_keyword -
                              before.shards_pruned_keyword),
          "count");
    r.Add("cluster.pruned_dist",
          static_cast<double>(after.shards_pruned_distance -
                              before.shards_pruned_distance),
          "count");
    r.Add("cluster.probes",
          static_cast<double>(after.probe_queries - before.probe_queries),
          "count");
    r.Add("load.late_ms", Percentile(open.late_ms, 0.99), "ms");
    r.Add("load.query_p99_ms", Percentile(open.latency_ms, 0.99), "ms");
    r.Add("load.saturated_qps", MedianWindowRate(closed), "1/s");
    r.Add("server.shed", static_cast<double>(open.shed + closed.shed), "count");
    std::vector<coskq::QueryRequest> answered_requests;
    for (size_t i : open.request_index) answered_requests.push_back(requests_[i]);
    r.Add("server.codec_us", CodecMicros(answered_requests, open.results), "us");
    r.Add("server.ping_rtt_us", PingMicros(), "us");
    r.Add("cluster.harvest_rtt_us", HarvestMicros(&tracer), "us");
    RouteOverSingle(&tracer, &r);
    std::vector<coskq::CoskqQuery> sample(queries_.begin(),
                                          queries_.begin() + 500);
    ReplayIndexCalls(*single_tree_, sample, &tracer, &r);
    r.Add("trace.overhead_pct",
          100.0 * (Percentile(open.latency_ms, 0.5) /
                       Percentile(plain.latency_ms, 0.5) -
                   1.0),
          "%");
    FinishTrace(tracer, args_, &r);
  }

 private:
  void MakeStream() {
    coskq::Rng rng(args_.seed * 15485863ull + 9);
    const coskq::QueryGenerator gen(&dataset_);
    const size_t total = kWarmupQueries +
                         static_cast<size_t>(args_.seconds * kOpenRate) +
                         20000;
    for (size_t i = 0; i < total; ++i) {
      const bool exact = i % kExactEvery == kExactEvery - 1;
      const size_t k = exact ? 2 : 3 + i % 4;
      const coskq::CostType cost =
          (i / 2) % 2 == 0 ? coskq::CostType::kMaxSum : coskq::CostType::kDia;
      queries_.push_back(gen.Generate(k, &rng));
      costs_.push_back(cost);
      kinds_.push_back(exact ? coskq::SolverKind::kExact
                             : coskq::SolverKind::kAppro);
      requests_.push_back(ToRequest(dataset_, queries_.back(), kinds_.back(),
                                    cost));
    }
  }

  LoadResult RunOpen(size_t count, Tracer* tracer) {
    const size_t begin = cursor_;
    const size_t end = std::min(requests_.size(), begin + count);
    cursor_ = end;
    std::vector<coskq::QueryRequest> slots(requests_.begin() + begin,
                                           requests_.begin() + end);
    LoadResult result =
        RunOpenLoop(router_->port(), slots, std::vector<uint8_t>(slots.size()),
                    [](size_t) {}, kOpenRate, kOpenConnections, tracer);
    for (size_t& i : result.request_index) i += begin;
    return result;
  }

  /// The closed loop continues through the not yet used queries.
  LoadResult RunClosed(double seconds) {
    std::vector<coskq::QueryRequest> rest(requests_.begin() + cursor_,
                                          requests_.end());
    LoadResult result =
        RunClosedLoop(router_->port(), rest, kClosedConnections, seconds);
    for (size_t& i : result.request_index) i += cursor_;
    return result;
  }

  void BuildSingleIndex() {
    if (single_tree_ == nullptr) {
      single_tree_ = std::make_unique<coskq::IrTree>(&dataset_);
      single_tree_->Freeze();
      table_ = std::make_unique<ObjectTable>(dataset_);
    }
  }

  /// Every routed answer equals, in set and cost, an in-process solve over
  /// one unsharded index of the whole dataset, and passes the answer check.
  void CheckAgainstSingleIndex(const std::vector<const LoadResult*>& runs) {
    BuildSingleIndex();
    std::vector<size_t> indices;
    std::vector<const coskq::QueryResult*> served;
    for (const LoadResult* run : runs) {
      for (size_t j = 0; j < run->results.size(); ++j) {
        indices.push_back(run->request_index[j]);
        served.push_back(&run->results[j]);
      }
    }
    const coskq::CoskqContext context{&dataset_, single_tree_.get()};
    for (coskq::SolverKind kind :
         {coskq::SolverKind::kAppro, coskq::SolverKind::kExact}) {
      for (coskq::CostType cost :
           {coskq::CostType::kMaxSum, coskq::CostType::kDia}) {
        std::vector<size_t> which;
        std::vector<coskq::CoskqQuery> queries;
        for (size_t j = 0; j < indices.size(); ++j) {
          if (kinds_[indices[j]] == kind && costs_[indices[j]] == cost) {
            which.push_back(j);
            queries.push_back(queries_[indices[j]]);
          }
        }
        coskq::BatchOptions options;
        options.solver_name = coskq::SolverRegistryName(kind, cost);
        options.num_threads = 4;
        const coskq::BatchOutcome direct =
            coskq::BatchEngine(context, options).Run(queries);
        for (size_t m = 0; m < which.size(); ++m) {
          const size_t j = which[m];
          const coskq::CoskqQuery& q = queries_[indices[j]];
          const Answer answer = ToAnswer(*served[j]);
          out_->checks.Expect("routed answer",
                              CheckAnswer(*table_, cost, q.location.x,
                                          q.location.y, q.keywords, answer));
          out_->checks.Expect(
              "routed vs single index",
              CheckSameAnswer(answer, ToAnswer(direct.results[m])));
        }
      }
    }
  }

  coskq::StatsReply RouterStats() {
    coskq::CoskqClient client;
    if (!client.Connect("127.0.0.1", router_->port()).ok()) {
      Fatal("stats connect", coskq::Status::IoError("connect"));
    }
    coskq::StatusOr<coskq::StatsReply> stats = client.Stats();
    if (!stats.ok()) Fatal("router STATS", stats.status());
    return *stats;
  }

  double PingMicros() {
    coskq::CoskqClient client;
    std::vector<double> us;
    if (!client.Connect("127.0.0.1", router_->port()).ok()) return 0.0;
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point t0 = Clock::now();
      if (!client.Ping().ok()) return 0.0;
      us.push_back(MillisBetween(t0, Clock::now()) * 1e3);
    }
    return Median(us);
  }

  /// RELEVANT round trips against each shard directly.
  double HarvestMicros(Tracer* tracer) {
    std::vector<double> us;
    for (const auto& server : shard_servers_) {
      coskq::CoskqClient client;
      if (!client.Connect("127.0.0.1", server->port()).ok()) return 0.0;
      for (size_t i = 0; i < 200; ++i) {
        coskq::RelevantRequest request;
        request.keywords = requests_[i].keywords;
        const Clock::time_point t0 = Clock::now();
        coskq::StatusOr<std::vector<coskq::RelevantEntry>> entries =
            client.Relevant(request);
        const Clock::time_point t1 = Clock::now();
        if (!entries.ok()) return 0.0;
        tracer->Record("cluster.harvest", t0, t1, -1, i);
        us.push_back(MillisBetween(t0, t1) * 1e3);
      }
    }
    return Median(us);
  }

  /// Routed p50 over a single server's p50 on the same sequential stream.
  void RouteOverSingle(Tracer* tracer, Report* r) {
    coskq::ServerOptions options;
    options.num_workers = 1;
    coskq::CoskqServer single(
        coskq::CoskqContext{&dataset_, single_tree_.get()}, options);
    if (!single.Start().ok()) return;
    coskq::CoskqClient to_single;
    coskq::CoskqClient to_router;
    if (!to_single.Connect("127.0.0.1", single.port()).ok() ||
        !to_router.Connect("127.0.0.1", router_->port()).ok()) {
      return;
    }
    std::vector<double> routed_ms;
    std::vector<double> single_ms;
    std::vector<double> overhead_ms;
    for (size_t i = 0; i < 300; ++i) {
      const Clock::time_point t0 = Clock::now();
      coskq::StatusOr<coskq::QueryReply> a = to_router.Query(requests_[i]);
      const Clock::time_point t1 = Clock::now();
      coskq::StatusOr<coskq::QueryReply> b = to_single.Query(requests_[i]);
      const Clock::time_point t2 = Clock::now();
      if (!a.ok() || !b.ok()) continue;
      tracer->Record("cluster.route", t0, t1, -1, i);
      tracer->Record("server.query", t1, t2, -1, i);
      routed_ms.push_back(MillisBetween(t0, t1));
      single_ms.push_back(MillisBetween(t1, t2));
      overhead_ms.push_back(MillisBetween(t1, t2) - b->result.solve_ms);
    }
    r->Add("cluster.route_over_single", Median(routed_ms) / Median(single_ms),
           "ratio");
    r->Add("server.overhead_ms", Median(overhead_ms), "ms");
    to_single.Close();
    single.Shutdown();
    single.Wait();
  }

  const RunArgs& args_;
  RunOutcome* out_;
  std::string dir_;
  coskq::Dataset dataset_;
  std::vector<std::unique_ptr<coskq::Dataset>> shard_datasets_;
  std::vector<std::unique_ptr<coskq::IrTree>> shard_trees_;
  std::vector<std::unique_ptr<coskq::CoskqServer>> shard_servers_;
  std::unique_ptr<coskq::ClusterRouter> router_;
  uint64_t index_bytes_ = 0;
  std::unique_ptr<coskq::IrTree> single_tree_;
  std::unique_ptr<ObjectTable> table_;
  std::vector<coskq::CoskqQuery> queries_;
  std::vector<coskq::CostType> costs_;
  std::vector<coskq::SolverKind> kinds_;
  std::vector<coskq::QueryRequest> requests_;
  size_t cursor_ = 0;
};

}  // namespace

void RunRoute3Shard(const RunArgs& args, RunOutcome* out) {
  Route3Shard(args, out).Run();
}

}  // namespace perfbench
