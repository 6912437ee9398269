// Workload serve-skewed-rw: one in-process CoskqServer (2 workers, 64 MB
// result cache, MUTATE enabled, low refreeze threshold) under skewed
// read-write traffic from this process.
//
// Reads come from a pool of (location, keyword set) tuples: keywords drawn
// by Zipf(1.0) over the frequency-ranked vocabulary, half the locations
// around 4 hotspots, and each request picks its tuple by Zipf(1.0), so
// exact tuples recur as in production traffic. Approximate solvers, both
// cost types. One slot in kMutateEvery of the open-loop schedule is a
// MUTATE (inserts and removes alternate). Phase 1 is an open loop at a
// fixed rate below capacity; phase 2 a closed loop of kClosedConnections
// blocking readers.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cache/result_cache.h"
#include "checks.h"
#include "engine/batch_engine.h"
#include "index/irtree.h"
#include "layers.h"
#include "load.h"
#include "server/client.h"
#include "server/server.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kWorkers = 2;
constexpr size_t kPoolSize = 256;
constexpr size_t kKeywordsPerTuple = 4;
constexpr size_t kHotspots = 4;
constexpr double kHotspotFraction = 0.5;
constexpr double kHotspotRadius = 0.02;  // share of the MBR's larger side
constexpr double kOpenRate = 100.0;      // offered requests per second
constexpr size_t kMutateEvery = 1000;    // 0.1% of the open-loop slots
constexpr int kOpenConnections = 2;
constexpr int kClosedConnections = 2;
constexpr size_t kRefreezeThreshold = 4;
constexpr size_t kFinalChecks = 64;
constexpr size_t kWarmupSlots = 100;

class ServeSkewedRw {
 public:
  ServeSkewedRw(const RunArgs& args, RunOutcome* out) : args_(args), out_(out) {}

  void Run() {
    const Clock::time_point t0 = Clock::now();
    dataset_ = MakeGnDataset(args_.seed);
    const Clock::time_point t1 = Clock::now();
    table_ = std::make_unique<ObjectTable>(dataset_);
    base_objects_ = dataset_.NumObjects();
    dataset_.EnableConcurrentAppends(1 << 16);
    const Clock::time_point t2 = Clock::now();
    tree_ = std::make_unique<coskq::IrTree>(&dataset_);
    tree_->Freeze();
    const Clock::time_point t3 = Clock::now();
    coskq::ServerOptions options;
    options.num_workers = kWorkers;
    options.result_cache_mb = 64;
    options.enable_mutations = true;
    options.mutable_dataset = &dataset_;
    options.mutable_index = tree_.get();
    options.refreeze_threshold = kRefreezeThreshold;
    server_ = std::make_unique<coskq::CoskqServer>(
        coskq::CoskqContext{&dataset_, tree_.get()}, options);
    if (!server_->Start().ok()) {
      std::fprintf(stderr, "FATAL: server start failed\n");
      std::exit(1);
    }
    const double setup_s = SecondsSince(g_process_start);
    const uint64_t index_bytes = tree_->MemoryStats().body_bytes;

    MakeStream();
    if (!mutator_.Connect("127.0.0.1", server_->port()).ok()) {
      std::fprintf(stderr, "FATAL: connect failed\n");
      std::exit(1);
    }
    // Warm-up: the first stretch of the schedule, untimed and unchecked
    // beyond the answer checks, fills the cache and the workers' scratch.
    Tracer off(false);
    RunOpen(kWarmupSlots, &off, nullptr);
    const uint64_t ready_rss = PeakRssBytes();

    const double open_s = args_.seconds * 3 / 4;
    const coskq::StatsReply before = Stats();
    Tracer tracer(args_.trace);
    Tracer* open_tracer = args_.trace ? &tracer : &off;
    LoadResult plain;
    if (args_.trace) {
      // Untraced reference stretch for the tracing overhead.
      plain = RunOpen(static_cast<size_t>(open_s / 2 * kOpenRate), &off,
                      nullptr);
    }
    std::vector<double> mutate_ms;
    LoadResult open = RunOpen(
        static_cast<size_t>((args_.trace ? open_s / 2 : open_s) * kOpenRate),
        open_tracer, &mutate_ms);
    LoadResult closed = RunClosed(args_.seconds - open_s);
    const coskq::StatsReply after = Stats();

    const uint64_t answered = plain.answered + open.answered + closed.answered;
    out_->failed =
        plain.failed + open.failed + closed.failed + mutation_failures_;
    out_->attempted = answered + out_->failed + mutate_ms.size();
    CheckCounts(before, after, answered);
    PostRunChecks();
    std::fprintf(stderr,
                 "open loop: %zu answered, p50 %.3f p90 %.3f p99 %.3f max "
                 "%.3f ms, late p99 %.3f ms, %zu mutations; closed loop: "
                 "%llu answered in %.1f s\n",
                 open.latency_ms.size(), Percentile(open.latency_ms, 0.5),
                 Percentile(open.latency_ms, 0.9),
                 Percentile(open.latency_ms, 0.99),
                 Percentile(open.latency_ms, 1.0),
                 Percentile(open.late_ms, 0.99), mutate_ms.size(),
                 static_cast<unsigned long long>(closed.answered),
                 closed.seconds);

    Report& r = out_->report;
    if (!args_.trace) {
      r.Add("setup_s", setup_s, "s");
      r.Add("query_p50_ms", Percentile(open.latency_ms, 0.5), "ms");
      r.Add("index_bytes", static_cast<double>(index_bytes), "bytes");
      r.Add("peak_rss_bytes", static_cast<double>(ready_rss), "bytes");
      StopServer();
      return;
    }
    tracer.Record("data.generate", t0, t1, -1, 0);
    tracer.Record("index.build", t2, t3, -1, 0);
    r.Add("data.generate_ms", MillisBetween(t0, t1), "ms");
    r.Add("index.build_ms", MillisBetween(t2, t3), "ms");
    r.Add("index.delta_entries", static_cast<double>(tree_->delta_size()),
          "count");
    r.Add("index.refreezes", static_cast<double>(tree_->refreezes_completed()),
          "count");
    r.Add("index.epoch", static_cast<double>(tree_->epoch()), "count");
    const uint64_t hits = after.cache_hits - before.cache_hits;
    const uint64_t misses = after.cache_misses - before.cache_misses;
    r.Add("cache.hit_ratio",
          hits + misses ? static_cast<double>(hits) / (hits + misses) : 0.0,
          "ratio");
    r.Add("cache.invalidations",
          static_cast<double>(after.cache_invalidations -
                              before.cache_invalidations),
          "count");
    r.Add("cache.evictions",
          static_cast<double>(after.cache_evictions - before.cache_evictions),
          "count");
    ReplayCache(&tracer, &r);
    r.Add("server.ping_rtt_us", PingMicros(), "us");
    r.Add("server.overhead_ms", ServerOverheadMs(), "ms");
    r.Add("server.codec_us", CodecMicros(RequestsOf(open), open.results),
          "us");
    r.Add("server.shed", static_cast<double>(open.shed + closed.shed), "count");
    r.Add("server.mutate_p50_ms", Median(mutate_ms), "ms");
    r.Add("load.late_ms", Percentile(open.late_ms, 0.99), "ms");
    r.Add("load.query_p99_ms", Percentile(open.latency_ms, 0.99), "ms");
    r.Add("load.saturated_qps", MedianWindowRate(closed), "1/s");
    std::vector<coskq::CoskqQuery> pool_queries;
    for (const Tuple& t : pool_) pool_queries.push_back(t.query);
    ReplayIndexCalls(*tree_, pool_queries, &tracer, &r);
    r.Add("trace.overhead_pct",
          100.0 * (Percentile(open.latency_ms, 0.5) /
                       Percentile(plain.latency_ms, 0.5) -
                   1.0),
          "%");
    StopServer();
    FinishTrace(tracer, args_, &r);
  }

 private:
  struct Tuple {
    coskq::CoskqQuery query;
    coskq::CostType cost;
    coskq::QueryRequest request;
  };

  void MakeStream() {
    coskq::Rng rng(args_.seed * 7919ull + 3);
    const coskq::Rect mbr = dataset_.mbr();
    const double extent =
        std::max(mbr.max_x - mbr.min_x, mbr.max_y - mbr.min_y);
    coskq::Point centers[kHotspots];
    for (coskq::Point& c : centers) {
      c.x = rng.UniformDouble(mbr.min_x, mbr.max_x);
      c.y = rng.UniformDouble(mbr.min_y, mbr.max_y);
    }
    ranked_ = dataset_.TermsByFrequencyDesc();
    const coskq::ZipfSampler term_zipf(ranked_.size(), 1.0);
    for (size_t s = 0; s < kPoolSize; ++s) {
      Tuple t;
      if (rng.UniformDouble() < kHotspotFraction) {
        const coskq::Point& c = centers[s % kHotspots];
        const double r = kHotspotRadius * extent;
        t.query.location.x = std::clamp(c.x + rng.UniformDouble(-r, r),
                                        mbr.min_x, mbr.max_x);
        t.query.location.y = std::clamp(c.y + rng.UniformDouble(-r, r),
                                        mbr.min_y, mbr.max_y);
      } else {
        t.query.location.x = rng.UniformDouble(mbr.min_x, mbr.max_x);
        t.query.location.y = rng.UniformDouble(mbr.min_y, mbr.max_y);
      }
      while (t.query.keywords.size() < kKeywordsPerTuple) {
        const coskq::TermId term = ranked_[term_zipf.Sample(&rng)];
        if (!coskq::TermSetContains(t.query.keywords, term)) {
          t.query.keywords.push_back(term);
          std::sort(t.query.keywords.begin(), t.query.keywords.end());
        }
      }
      t.cost = s % 2 == 0 ? coskq::CostType::kMaxSum : coskq::CostType::kDia;
      t.request = ToRequest(dataset_, t.query, coskq::SolverKind::kAppro,
                            t.cost);
      pool_.push_back(std::move(t));
    }
    // Enough schedule for the warm-up, both open-loop stretches and the
    // closed loop (which cycles through it).
    const size_t total =
        kWarmupSlots + static_cast<size_t>(args_.seconds * kOpenRate) + 1;
    const coskq::ZipfSampler pick(kPoolSize, 1.0);
    for (size_t i = 0; i < total; ++i) {
      const size_t p = pick.Sample(&rng);
      stream_tuple_.push_back(p);
      requests_.push_back(pool_[p].request);
    }
    mutation_rng_ = std::make_unique<coskq::Rng>(args_.seed * 104729ull + 5);
  }

  /// Runs the next `count` slots of the schedule as an open loop.
  LoadResult RunOpen(size_t count, Tracer* tracer,
                     std::vector<double>* mutate_ms) {
    const size_t begin = cursor_;
    const size_t end = std::min(requests_.size(), begin + count);
    cursor_ = end;
    std::vector<coskq::QueryRequest> slots(requests_.begin() + begin,
                                           requests_.begin() + end);
    std::vector<uint8_t> side(slots.size(), 0);
    for (size_t i = 0; i < slots.size(); ++i) {
      side[i] = (begin + i) % kMutateEvery == kMutateEvery - 1;
    }
    LoadResult result = RunOpenLoop(
        server_->port(), slots, side,
        [&](size_t) {
          const Clock::time_point due = Clock::now();
          const double ms = Mutate(due);
          if (mutate_ms != nullptr && ms >= 0) mutate_ms->push_back(ms);
        },
        kOpenRate, kOpenConnections, tracer);
    CheckServed(result, begin);
    return result;
  }

  /// Applies the next MUTATE; returns its latency, or -1 if it failed.
  double Mutate(Clock::time_point due) {
    coskq::MutateRequest m;
    const bool insert = live_inserts_.size() < 4 || mutations_applied_ % 2 == 0;
    if (insert) {
      m.op = coskq::MutateRequest::Op::kInsert;
      const coskq::Rect mbr = dataset_.mbr();
      m.x = mutation_rng_->UniformDouble(mbr.min_x, mbr.max_x);
      m.y = mutation_rng_->UniformDouble(mbr.min_y, mbr.max_y);
      std::vector<uint32_t> terms;
      while (terms.size() < 3) {
        const coskq::TermId t =
            ranked_[mutation_rng_->UniformUint64(ranked_.size() / 10)];
        if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
          terms.push_back(t);
        }
      }
      for (uint32_t t : terms) {
        m.keywords.push_back(dataset_.vocabulary().TermString(t));
      }
      return ApplyMutation(m, due, terms);
    }
    m.op = coskq::MutateRequest::Op::kRemove;
    m.object_id = live_inserts_.front();
    return ApplyMutation(m, due, {});
  }

  double ApplyMutation(const coskq::MutateRequest& m, Clock::time_point due,
                       const std::vector<uint32_t>& terms) {
    coskq::StatusOr<coskq::MutateReply> reply = mutator_.Mutate(m);
    const Clock::time_point acked = Clock::now();
    if (!reply.ok()) {
      out_->checks.Expect("mutate", "MUTATE failed: " +
                                        reply.status().ToString());
      ++mutation_failures_;
      return -1.0;
    }
    ++mutations_applied_;
    if (m.op == coskq::MutateRequest::Op::kInsert) {
      const uint32_t id = table_->Add(m.x, m.y, terms);
      out_->checks.Expect("mutate", CheckCountsEqual(
                                        "acknowledged id", reply->object_id,
                                        "next object id", id));
      live_inserts_.push_back(reply->object_id);
      last_inserted_ = reply->object_id;
    } else {
      removed_at_[m.object_id] = acked;
      live_inserts_.erase(std::find(live_inserts_.begin(), live_inserts_.end(),
                                    m.object_id));
    }
    return MillisBetween(due, acked);
  }

  /// The closed loop replays the open-loop requests sent since the last
  /// MUTATE (all answered after it, so all cached) and measures the hit
  /// path at saturation.
  LoadResult RunClosed(double seconds) {
    size_t from = cursor_;
    while (from > 0 && (from - 1) % kMutateEvery != kMutateEvery - 1) {
      --from;
    }
    std::vector<coskq::QueryRequest> stream(requests_.begin() + from,
                                            requests_.begin() + cursor_);
    LoadResult result = RunClosedLoop(server_->port(), stream,
                                      kClosedConnections, seconds);
    CheckServed(result, from);
    return result;
  }

  /// Every answer covers its tuple, carries its recomputed cost and holds
  /// no object removed before the query was sent.
  void CheckServed(const LoadResult& result, size_t offset) {
    for (size_t j = 0; j < result.results.size(); ++j) {
      const Tuple& t = pool_[stream_tuple_[offset + result.request_index[j]]];
      const Answer answer = ToAnswer(result.results[j]);
      CheckLog& log = out_->checks;
      log.Expect("served answer",
                 CheckAnswer(*table_, t.cost, t.query.location.x,
                             t.query.location.y, t.query.keywords, answer));
      const Clock::time_point sent = result.sent[j];
      log.Expect("served answer", CheckNotStale(answer, [&](uint32_t id) {
                   auto it = removed_at_.find(id);
                   return it != removed_at_.end() && it->second < sent;
                 }));
    }
  }

  /// Server-side counts against the client's own.
  void CheckCounts(const coskq::StatsReply& before,
                   const coskq::StatsReply& after, uint64_t answered) {
    out_->checks.Expect(
        "stats", CheckCountsEqual(
                     "cache hits + misses",
                     (after.cache_hits - before.cache_hits) +
                         (after.cache_misses - before.cache_misses),
                     "queries answered to the client", answered));
    out_->checks.Expect(
        "stats", CheckCountsEqual(
                     "server queries executed",
                     after.queries_executed - before.queries_executed,
                     "queries answered to the client", answered));
  }

  /// Freshness after an insert at a query point, then equality of served
  /// answers with direct solves over an index built from scratch on the
  /// final live set.
  void PostRunChecks() {
    coskq::CoskqClient client;
    if (!client.Connect("127.0.0.1", server_->port()).ok()) {
      out_->checks.Expect("post-run", "connect failed");
      return;
    }
    for (size_t p = 0; p < 3; ++p) {
      const Tuple& t = pool_[p];
      coskq::MutateRequest m;
      m.op = coskq::MutateRequest::Op::kInsert;
      m.x = t.query.location.x;
      m.y = t.query.location.y;
      m.keywords = t.request.keywords;
      ApplyMutation(m, Clock::now(),
                    std::vector<uint32_t>(t.query.keywords.begin(),
                                          t.query.keywords.end()));
      coskq::StatusOr<coskq::QueryReply> reply = client.Query(t.request);
      out_->checks.Expect(
          "insert freshness",
          reply.ok() && reply->kind == coskq::QueryReply::Kind::kResult
              ? CheckInsertVisible(ToAnswer(reply->result),
                                   last_inserted_)
              : "query failed");
    }

    // Reference: the base objects plus every acknowledged insert, in id
    // order, indexed from scratch over the live ids only.
    coskq::Dataset reference = MakeGnDataset(args_.seed);
    std::vector<coskq::ObjectId> live;
    for (size_t id = 0; id < table_->size(); ++id) {
      if (id >= base_objects_) {
        reference.AddObjectWithTerms(
            coskq::Point{table_->x(static_cast<uint32_t>(id)),
                         table_->y(static_cast<uint32_t>(id))},
            table_->keywords(static_cast<uint32_t>(id)));
      }
      if (removed_at_.count(static_cast<uint32_t>(id)) == 0) {
        live.push_back(static_cast<coskq::ObjectId>(id));
      }
    }
    coskq::IrTree fresh(&reference, coskq::IrTree::Options(), live);
    fresh.Freeze();
    const coskq::CoskqContext context{&reference, &fresh};
    for (coskq::CostType cost :
         {coskq::CostType::kMaxSum, coskq::CostType::kDia}) {
      std::vector<coskq::CoskqQuery> queries;
      std::vector<const Tuple*> tuples;
      for (size_t p = 0; p < kFinalChecks; ++p) {
        if (pool_[p].cost == cost) {
          queries.push_back(pool_[p].query);
          tuples.push_back(&pool_[p]);
        }
      }
      coskq::BatchOptions options;
      options.solver_name = coskq::SolverRegistryName(
          coskq::SolverKind::kAppro, cost);
      options.num_threads = kWorkers;
      const coskq::BatchOutcome direct =
          coskq::BatchEngine(context, options).Run(queries);
      for (size_t i = 0; i < queries.size(); ++i) {
        coskq::StatusOr<coskq::QueryReply> reply =
            client.Query(tuples[i]->request);
        out_->checks.Expect(
            "final live set",
            reply.ok() && reply->kind == coskq::QueryReply::Kind::kResult
                ? CheckSameAnswer(ToAnswer(reply->result),
                                  ToAnswer(direct.results[i]))
                : "query failed");
      }
    }
  }

  coskq::StatsReply Stats() {
    coskq::StatusOr<coskq::StatsReply> stats = mutator_.Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "FATAL: STATS failed\n");
      std::exit(1);
    }
    return *stats;
  }

  std::vector<coskq::QueryRequest> RequestsOf(const LoadResult& result) const {
    std::vector<coskq::QueryRequest> out;
    for (size_t i : result.request_index) out.push_back(requests_[i]);
    return out;
  }

  /// Replays the stream's cache keys through a standalone ResultCache with
  /// the same budget, stamping each MUTATE slot as one more mutation.
  void ReplayCache(Tracer* tracer, Report* r) {
    coskq::ResultCache::Options options;
    options.budget_bytes = 64u << 20;
    coskq::ResultCache cache(options);
    std::vector<double> lookup_us;
    std::vector<double> insert_us;
    uint64_t mutations = 0;
    coskq::CachedAnswer answer;
    answer.set = {1, 2, 3, 4};
    for (size_t i = 0; i < cursor_; ++i) {
      if (i % kMutateEvery == kMutateEvery - 1) {
        ++mutations;
        continue;
      }
      const coskq::QueryRequest& q = requests_[i];
      const Tuple& t = pool_[stream_tuple_[i]];
      coskq::ResultCacheKey key;
      key.cell = coskq::ResultCache::CellOf(q.x, q.y, options.cell_bits);
      key.keywords.assign(t.query.keywords.begin(), t.query.keywords.end());
      key.solver = static_cast<uint8_t>(q.solver);
      key.cost_type = static_cast<uint8_t>(q.cost_type);
      key.x = q.x;
      key.y = q.y;
      const Clock::time_point t0 = Clock::now();
      const bool hit = cache.Lookup(key, 0, mutations, &answer);
      const Clock::time_point t1 = Clock::now();
      lookup_us.push_back(MillisBetween(t0, t1) * 1e3);
      tracer->Record("cache.lookup", t0, t1, -1, i);
      if (!hit) {
        const Clock::time_point t2 = Clock::now();
        cache.Insert(key, 0, mutations, answer);
        const Clock::time_point t3 = Clock::now();
        insert_us.push_back(MillisBetween(t2, t3) * 1e3);
        tracer->Record("cache.insert", t2, t3, -1, i);
      }
    }
    r->Add("cache.lookup_us", Median(lookup_us), "us");
    r->Add("cache.insert_us", Median(insert_us), "us");
  }

  double PingMicros() {
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point t0 = Clock::now();
      if (!mutator_.Ping().ok()) return 0.0;
      us.push_back(MillisBetween(t0, Clock::now()) * 1e3);
    }
    return Median(us);
  }

  /// Served latency minus a direct in-process solve, on fresh uniform
  /// queries the cache cannot answer.
  double ServerOverheadMs() {
    coskq::Rng rng(args_.seed * 31ull + 11);
    const coskq::Rect mbr = dataset_.mbr();
    coskq::BatchOptions options;
    options.num_threads = 1;
    const coskq::BatchEngine direct(
        coskq::CoskqContext{&dataset_, tree_.get()}, options);
    std::vector<double> diff;
    for (int i = 0; i < 100; ++i) {
      coskq::CoskqQuery q = pool_[static_cast<size_t>(i)].query;
      q.location.x = rng.UniformDouble(mbr.min_x, mbr.max_x);
      q.location.y = rng.UniformDouble(mbr.min_y, mbr.max_y);
      const coskq::QueryRequest request = ToRequest(
          dataset_, q, coskq::SolverKind::kAppro, coskq::CostType::kMaxSum);
      const Clock::time_point t0 = Clock::now();
      coskq::StatusOr<coskq::QueryReply> reply = mutator_.Query(request);
      const double served = MillisBetween(t0, Clock::now());
      const Clock::time_point t1 = Clock::now();
      direct.Run({q});
      const double solved = MillisBetween(t1, Clock::now());
      if (reply.ok()) diff.push_back(served - solved);
    }
    return Median(diff);
  }

  void StopServer() {
    mutator_.Close();
    server_->Shutdown();
    server_->Wait();
  }

  const RunArgs& args_;
  RunOutcome* out_;
  coskq::Dataset dataset_;
  size_t base_objects_ = 0;
  std::unique_ptr<coskq::IrTree> tree_;
  std::unique_ptr<ObjectTable> table_;
  std::unique_ptr<coskq::CoskqServer> server_;
  coskq::CoskqClient mutator_;
  std::vector<coskq::TermId> ranked_;
  std::vector<Tuple> pool_;
  std::vector<size_t> stream_tuple_;
  std::vector<coskq::QueryRequest> requests_;
  size_t cursor_ = 0;
  std::unique_ptr<coskq::Rng> mutation_rng_;
  uint64_t mutations_applied_ = 0;
  uint64_t mutation_failures_ = 0;
  uint32_t last_inserted_ = 0;
  std::vector<uint32_t> live_inserts_;
  std::map<uint32_t, Clock::time_point> removed_at_;
};

}  // namespace

void RunServeSkewedRw(const RunArgs& args, RunOutcome* out) {
  ServeSkewedRw(args, out).Run();
}

}  // namespace perfbench
