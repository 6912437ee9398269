#ifndef COSKQ_SERVER_SERVER_H_
#define COSKQ_SERVER_SERVER_H_

#include <stdint.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/result_cache.h"
#include "core/solver.h"
#include "data/query.h"
#include "server/codec.h"
#include "server/protocol.h"
#include "util/stats.h"
#include "util/status.h"

namespace coskq {

/// Configuration of a CoskqServer.
struct ServerOptions {
  /// Listen address. The default binds loopback only; the service speaks an
  /// unauthenticated binary protocol, so exposing it beyond localhost is a
  /// deployment decision, not a default.
  std::string host = "127.0.0.1";
  /// Listen port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Solver worker threads; 0 picks hardware_concurrency. Each worker runs
  /// one query at a time through the BatchEngine execution path.
  int num_workers = 0;
  /// Bound of the admission queue (requests waiting for a worker, excluding
  /// the ones being solved). A QUERY arriving with the queue full is shed
  /// with an OVERLOADED response instead of stalling the event loop.
  size_t queue_capacity = 64;
  /// Retry-after hint carried by OVERLOADED responses.
  uint32_t retry_after_ms = 50;
  /// Connections beyond this are accepted and immediately closed, bounding
  /// event-loop state under a connection flood.
  size_t max_connections = 1024;
  /// Per-request deadline cap: a request asking for more is clamped. 0 = no
  /// cap. Protects the worker pool from effectively-unbounded exact solves.
  double max_deadline_ms = 0.0;
  /// Hot-path switch forwarded to BatchOptions::use_query_masks.
  bool use_query_masks = true;
  /// Test/bench hook: every worker sleeps this long before solving, making
  /// queue overflow and drain timing deterministic in the loopback tests and
  /// saturation demos. 0 (the default) in production.
  double test_solve_delay_ms = 0.0;

  // Index provenance, reported verbatim through the STATS verb (the server
  // receives a ready-made context, so the host process that built or loaded
  // the index records how it did so here).
  /// True when the IR-tree was loaded from a snapshot rather than built.
  bool index_from_snapshot = false;
  /// Wall time of that build or load, in milliseconds.
  double index_prepare_ms = 0.0;
  /// Node count of the serving IR-tree (IrTree::NodeCount()).
  uint64_t index_nodes = 0;
  /// Dataset content checksum the index is bound to.
  uint64_t index_checksum = 0;

  // Live updates (protocol v3). When `enable_mutations` is true the host
  // process must also supply mutable (non-const) handles to the dataset and
  // index the context was built over; MUTATE frames are applied through
  // these on the event-loop thread (the sole mutator), so queries racing a
  // mutation observe either the old or the new index view, never a torn one.
  /// Mutable handle to the dataset behind context.dataset. Required when
  /// enable_mutations is true.
  Dataset* mutable_dataset = nullptr;
  /// Mutable handle to the index behind context.index. Required when
  /// enable_mutations is true.
  IrTree* mutable_index = nullptr;
  /// Accept MUTATE frames. When false they are answered with an
  /// Unimplemented error and the index stays read-only.
  bool enable_mutations = false;
  /// Launch a background refreeze once the pending delta reaches this many
  /// mutations. 0 disables automatic refreezes.
  size_t refreeze_threshold = 4096;
  /// Upper bound on live inserts accepted over the server's lifetime (the
  /// dataset's object array is pre-sized once at Start; see
  /// Dataset::EnableConcurrentAppends). Inserts beyond it are rejected with
  /// an OutOfRange error.
  size_t mutation_capacity = 1 << 16;

  // Result cache (protocol v6; DESIGN.md §16). Answers repeated queries
  // without re-solving; entries are invalidated by epoch/mutation stamps,
  // so cached answers stay consistent with acked MUTATEs.
  /// Byte budget of the result cache in MiB. 0 disables caching. The
  /// COSKQ_RESULT_CACHE=off environment variable force-disables it
  /// regardless (see ResultCache::ForceDisabledByEnv).
  size_t result_cache_mb = 0;
  /// Location-quantization granularity: mantissa bits kept per coordinate
  /// when forming the cache cell (see ResultCache::CellOf).
  int cache_cell_bits = 12;
};

/// Point-in-time server statistics (the STATS verb serves the same snapshot
/// over the wire; see StatsReply for field meanings).
using ServerStatsSnapshot = StatsReply;

/// A single-threaded epoll TCP front end serving CoSKQ queries from a
/// bounded worker pool over one immutable CoskqContext.
///
/// Threading model:
///  * one event-loop thread owns the listen socket, every connection, all
///    reads/writes, and the frame codecs — connection state is never shared;
///  * `num_workers` solver threads pop admitted queries from the bounded
///    queue, run them through the BatchEngine execution path (propagating
///    the per-request deadline into BatchOptions::deadline_ms), and hand the
///    encoded response back to the loop via a completion queue + eventfd;
///  * PING and STATS never enter the admission queue — the loop answers them
///    inline, so liveness probes keep working while the pool is saturated.
///
/// Backpressure: the admission queue is the only buffer between the socket
/// and the solvers. When it is full the server sheds the request with an
/// OVERLOADED response carrying a retry-after hint; it never blocks the
/// accept loop and never buffers unbounded work.
///
/// Shutdown: Shutdown() (or SIGTERM via InstallSignalHandlers) triggers a
/// graceful drain — stop accepting, answer everything already admitted,
/// flush write buffers, then close. Wait() blocks until the drain finishes.
class CoskqServer {
 public:
  /// The context must outlive the server (same contract as BatchEngine).
  CoskqServer(const CoskqContext& context, const ServerOptions& options);
  ~CoskqServer();

  CoskqServer(const CoskqServer&) = delete;
  CoskqServer& operator=(const CoskqServer&) = delete;

  /// Binds, listens, and spawns the event loop and worker threads. Returns
  /// a non-OK status if the socket could not be set up (port in use, ...).
  Status Start();

  /// The bound port (resolves port 0 after Start).
  uint16_t port() const { return port_; }

  /// True between a successful Start and the end of a drain.
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Requests a graceful drain and returns immediately; pair with Wait().
  /// Idempotent and thread-safe.
  void Shutdown();

  /// Async-signal-safe drain request (only writes to an eventfd); this is
  /// what the SIGTERM handler calls.
  void RequestShutdownFromSignal();

  /// Blocks until the event loop and every worker have exited. Safe to call
  /// from multiple threads; returns immediately if never started.
  void Wait();

  /// Snapshot of the server counters and latency distribution.
  ServerStatsSnapshot stats() const;

  /// Installs SIGTERM/SIGINT handlers that drain `server` gracefully. At
  /// most one server per process can own the handlers; passing nullptr
  /// uninstalls. (The CLI `serve` command uses this; tests drive Shutdown
  /// directly or raise SIGTERM after installing.)
  static void InstallSignalHandlers(CoskqServer* server);

 private:
  using Clock = std::chrono::steady_clock;

  /// One admitted request on its way to a worker: a QUERY solve or a
  /// RELEVANT candidate harvest (protocol v5; the scatter half of the
  /// cluster router's scatter-gather).
  struct Job {
    enum class Kind { kQuery, kRelevant };
    Kind kind = Kind::kQuery;
    uint64_t conn_id = 0;
    uint32_t request_id = 0;
    // kQuery fields.
    CoskqQuery query;
    std::string solver_name;
    double deadline_ms = 0.0;
    // kRelevant field: keywords in the requester's mask-bit order.
    std::vector<std::string> relevant_keywords;
    Clock::time_point arrival;
    // Result-cache insert state (kQuery only; cache_key.keywords empty when
    // caching is off for this request). The stamps were read on the
    // event-loop thread *before* admission — i.e. before the solve — so a
    // mutation landing mid-solve leaves the entry with an already-stale
    // stamp instead of masquerading as fresh.
    ResultCacheKey cache_key;
    bool cacheable = false;
    uint64_t cache_epoch = 0;
    uint64_t cache_mutations = 0;
  };

  /// An encoded response frame on its way back to the loop.
  struct Completion {
    uint64_t conn_id = 0;
    std::string frame;
    /// Service latency (arrival to completion) to record; < 0 = none.
    double latency_ms = -1.0;
    /// Which aggregate counter the outcome bumps.
    enum class Kind { kExecuted, kTruncated, kInfeasible, kError } kind =
        Kind::kExecuted;
  };

  /// Per-connection state; owned and touched only by the event-loop thread.
  struct Connection {
    int fd = -1;
    FrameReader reader;
    std::string write_buffer;
    size_t write_offset = 0;
    /// Queries admitted on behalf of this connection and not yet answered.
    size_t in_flight = 0;
    /// Close once the write buffer drains (protocol error or server drain).
    bool close_after_flush = false;
    bool wants_write = false;
  };

  void LoopMain();
  void WorkerMain();

  void AcceptAll();
  void HandleReadable(uint64_t conn_id);
  void HandleWritable(uint64_t conn_id);
  void DispatchFrame(uint64_t conn_id, const Frame& frame);
  void HandleQuery(uint64_t conn_id, const Frame& frame);
  /// Admits a RELEVANT harvest through the same bounded queue as queries.
  void HandleRelevant(uint64_t conn_id, const Frame& frame);
  /// Worker-side harvest: every live object whose keyword set intersects
  /// the request keywords, read from the index's posting file
  /// (IrTree::KeywordMatches) and streamed as chunked RELEVANT_REPLY frames.
  std::string RunRelevant(const Job& job);
  /// Applies one MUTATE frame inline on the event-loop thread (the sole
  /// mutator) and acks only after the index update is visible, so a QUERY
  /// issued after the reply observes the mutation.
  void HandleMutate(uint64_t conn_id, const Frame& frame);
  void DrainCompletions();
  void SendFrame(uint64_t conn_id, Verb verb, uint32_t request_id,
                 const std::string& payload);
  void FlushWrites(uint64_t conn_id);
  void UpdateEpollInterest(Connection* conn, uint64_t conn_id);
  void CloseConnection(uint64_t conn_id);
  void BeginDrainIfRequested();
  bool DrainComplete() const;
  void RecordCompletionLocked(const Completion& c);

  CoskqContext context_;
  ServerOptions options_;
  int resolved_workers_ = 1;
  uint16_t port_ = 0;

  /// Result cache; null when disabled (options or environment). Thread-safe
  /// internally (per-shard leaf mutexes), shared by the event loop (lookups)
  /// and the workers (inserts).
  std::unique_ptr<ResultCache> result_cache_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: completions ready or shutdown requested.

  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_requested_{false};
  bool draining_ = false;  // Loop-thread state.

  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  /// Serializes concurrent Wait() calls (thread::join is not).
  std::mutex wait_mutex_;

  // Admission queue: bounded; closed on drain once empty. Mutable so the
  // const stats()/DrainComplete() readers can take the lock.
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool queue_closed_ = false;

  // Completion queue: workers -> loop.
  mutable std::mutex completions_mutex_;
  std::deque<Completion> completions_;

  // Connections: loop-thread only. Keyed by a generation id, not the fd, so
  // a completion for a closed connection can never hit a recycled fd. Ids
  // start above the reserved listen/wake epoll tags (reset in Start).
  uint64_t next_conn_id_ = 2;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;

  // Counters + latency window, shared between loop and workers.
  mutable std::mutex stats_mutex_;
  uint64_t connections_accepted_ = 0;
  uint64_t queries_received_ = 0;
  uint64_t queries_executed_ = 0;
  uint64_t queries_shed_ = 0;
  uint64_t queries_truncated_ = 0;
  uint64_t queries_infeasible_ = 0;
  uint64_t queries_errored_ = 0;
  uint64_t queries_active_ = 0;  // Admitted, not yet answered.
  /// Mirror of connections_.size() readable off the loop thread.
  uint64_t connections_active_count_ = 0;
  RunningStat latency_ms_;
  /// Ring of the most recent service latencies for the percentile snapshot.
  std::vector<double> latency_window_;
  size_t latency_window_pos_ = 0;
  Clock::time_point start_time_;
};

}  // namespace coskq

#endif  // COSKQ_SERVER_SERVER_H_
