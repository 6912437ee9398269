// End-to-end loopback tests for the query service: a real CoskqServer on an
// ephemeral localhost port, driven through the blocking CoskqClient.
//
//  * differential — wire round-trips must be bit-identical to running the
//    same queries through BatchEngine directly, across >= 50 seeded queries
//    and both cost functions;
//  * admission control — a saturated worker pool sheds with OVERLOADED
//    while PING and STATS keep answering inline;
//  * error paths — unknown keywords, invalid deadlines, malformed payloads,
//    and corrupt streams each produce their documented in-band response;
//  * shutdown — a graceful drain (programmatic and SIGTERM) answers every
//    admitted query before closing.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/solvers.h"
#include "engine/batch_engine.h"
#include "index/irtree.h"
#include "index/snapshot.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

/// Minimal blocking socket for the wire-level tests that need to send bytes
/// the well-behaved CoskqClient cannot produce (torn payloads, garbage).
class RawSocket {
 public:
  ~RawSocket() {
    if (fd_ >= 0) {
      close(fd_);
    }
  }

  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      return false;
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool WriteAll(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = write(fd_, bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) {
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadFrame(Frame* out) {
    char buf[4096];
    while (true) {
      if (reader_.Pop(out) == FrameReader::Next::kFrame) {
        return true;
      }
      const ssize_t n = read(fd_, buf, sizeof(buf));
      if (n <= 0) {
        return false;
      }
      reader_.Append(buf, static_cast<size_t>(n));
    }
  }

  /// True iff the next read observes EOF (possibly after buffered bytes).
  bool ReadEof() {
    char buf[4096];
    while (true) {
      const ssize_t n = read(fd_, buf, sizeof(buf));
      if (n == 0) {
        return true;
      }
      if (n < 0) {
        return false;
      }
    }
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

class ServerLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = test::MakeRandomDataset(400, 30, 3.0, 20130622);
    index_ = std::make_unique<IrTree>(&dataset_);
    context_ = CoskqContext{&dataset_, index_.get()};
  }

  /// Starts a server with `options` (port forced ephemeral) and connects a
  /// client to it.
  void StartAndConnect(ServerOptions options) {
    options.port = 0;
    server_ = std::make_unique<CoskqServer>(context_, options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }

  /// A wire request and its in-process twin for the same seeded query.
  struct QueryPair {
    QueryRequest request;
    CoskqQuery query;
  };

  QueryPair MakePair(CostType cost, SolverKind solver, size_t num_keywords,
                     Rng* rng) const {
    QueryPair pair;
    QueryGenerator gen(&dataset_);
    pair.query = gen.Generate(num_keywords, rng);
    pair.request.x = pair.query.location.x;
    pair.request.y = pair.query.location.y;
    pair.request.cost_type = cost;
    pair.request.solver = solver;
    for (TermId t : pair.query.keywords) {
      pair.request.keywords.push_back(dataset_.vocabulary().TermString(t));
    }
    return pair;
  }

  Dataset dataset_;
  std::unique_ptr<IrTree> index_;
  CoskqContext context_;
  std::unique_ptr<CoskqServer> server_;
  CoskqClient client_;
};

TEST_F(ServerLoopbackTest, PingAndStats) {
  StartAndConnect(ServerOptions{});
  EXPECT_TRUE(client_.Ping().ok());
  StatusOr<StatsReply> stats = client_.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->queries_received, 0u);
  EXPECT_GE(stats->connections_accepted, 1u);
  EXPECT_GE(stats->uptime_s, 0.0);
}

// The acceptance bar: >= 50 seeded queries, both cost types, every wire
// answer bit-identical to the direct BatchEngine run of the same query.
TEST_F(ServerLoopbackTest, WireAnswersMatchBatchEngineBitForBit) {
  StartAndConnect(ServerOptions{});
  Rng rng(42);
  size_t checked = 0;
  for (CostType cost : {CostType::kMaxSum, CostType::kDia}) {
    std::vector<QueryPair> pairs;
    for (int i = 0; i < 30; ++i) {
      pairs.push_back(MakePair(cost, SolverKind::kAppro, 2 + i % 4, &rng));
    }

    BatchOptions batch_options;
    batch_options.solver_name =
        SolverRegistryName(SolverKind::kAppro, cost);
    batch_options.num_threads = 1;
    std::vector<CoskqQuery> queries;
    for (const QueryPair& p : pairs) {
      queries.push_back(p.query);
    }
    const BatchOutcome direct =
        BatchEngine(context_, batch_options).Run(queries);
    ASSERT_TRUE(direct.status.ok());

    for (size_t i = 0; i < pairs.size(); ++i) {
      StatusOr<QueryReply> reply = client_.Query(pairs[i].request);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      ASSERT_EQ(reply->kind, QueryReply::Kind::kResult) << "query " << i;
      const CoskqResult& want = direct.results[i];
      EXPECT_EQ(reply->result.outcome == QueryOutcome::kInfeasible,
                !want.feasible)
          << "query " << i;
      EXPECT_EQ(reply->result.set, want.set) << "query " << i;
      EXPECT_EQ(reply->result.cost, want.cost) << "query " << i;
      ++checked;
    }
  }
  EXPECT_GE(checked, 50u);
  const ServerStatsSnapshot stats = server_->stats();
  EXPECT_EQ(stats.queries_received, checked);
  EXPECT_EQ(stats.queries_executed, checked);
  EXPECT_EQ(stats.queries_shed, 0u);
}

TEST_F(ServerLoopbackTest, ExactSolverOverTheWire) {
  StartAndConnect(ServerOptions{});
  Rng rng(7);
  for (int i = 0; i < 5; ++i) {
    QueryPair pair = MakePair(CostType::kMaxSum, SolverKind::kExact, 3, &rng);
    BatchOptions batch_options;
    batch_options.solver_name =
        SolverRegistryName(SolverKind::kExact, CostType::kMaxSum);
    batch_options.num_threads = 1;
    const BatchOutcome direct =
        BatchEngine(context_, batch_options).Run({pair.query});
    ASSERT_TRUE(direct.status.ok());
    StatusOr<QueryReply> reply = client_.Query(pair.request);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->kind, QueryReply::Kind::kResult);
    EXPECT_EQ(reply->result.set, direct.results[0].set);
    EXPECT_EQ(reply->result.cost, direct.results[0].cost);
  }
}

TEST_F(ServerLoopbackTest, UnknownKeywordIsInfeasibleInline) {
  StartAndConnect(ServerOptions{});
  QueryRequest request;
  request.x = 0.5;
  request.y = 0.5;
  request.keywords = {"no-such-word-anywhere"};
  StatusOr<QueryReply> reply = client_.Query(request);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->kind, QueryReply::Kind::kResult);
  EXPECT_EQ(reply->result.outcome, QueryOutcome::kInfeasible);
  EXPECT_TRUE(reply->result.set.empty());
  // Answered inline: never entered the worker pool.
  EXPECT_EQ(server_->stats().queries_executed, 0u);
  EXPECT_EQ(server_->stats().queries_infeasible, 1u);
}

TEST_F(ServerLoopbackTest, EmptyKeywordListIsAnError) {
  StartAndConnect(ServerOptions{});
  QueryRequest request;
  request.x = 0.5;
  request.y = 0.5;
  StatusOr<QueryReply> reply = client_.Query(request);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->kind, QueryReply::Kind::kError);
  EXPECT_EQ(reply->error.code, StatusCode::kInvalidArgument);
}

// A negative wire deadline flows into BatchOptions::deadline_ms and must
// come back as the engine's InvalidArgument, not crash or hang.
TEST_F(ServerLoopbackTest, NegativeDeadlineIsAnErrorReply) {
  StartAndConnect(ServerOptions{});
  Rng rng(3);
  QueryPair pair = MakePair(CostType::kMaxSum, SolverKind::kAppro, 3, &rng);
  pair.request.deadline_ms = -5.0;
  StatusOr<QueryReply> reply = client_.Query(pair.request);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->kind, QueryReply::Kind::kError);
  EXPECT_EQ(reply->error.code, StatusCode::kInvalidArgument);
  EXPECT_NE(reply->error.message.find("deadline"), std::string::npos);
  // The connection survives an error reply.
  EXPECT_TRUE(client_.Ping().ok());
}

TEST_F(ServerLoopbackTest, DeadlineCapIsClamped) {
  ServerOptions options;
  options.max_deadline_ms = 10.0;
  StartAndConnect(options);
  Rng rng(5);
  // A request asking for a day still gets a RESULT (clamped, not rejected).
  QueryPair pair = MakePair(CostType::kMaxSum, SolverKind::kAppro, 3, &rng);
  pair.request.deadline_ms = 86400.0 * 1000.0;
  StatusOr<QueryReply> reply = client_.Query(pair.request);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->kind, QueryReply::Kind::kResult);
}

// A syntactically valid frame whose QUERY payload does not decode must be
// answered with an ERROR reply on the same request id, connection kept.
TEST_F(ServerLoopbackTest, MalformedQueryPayloadIsAnErrorReply) {
  StartAndConnect(ServerOptions{});
  QueryRequest request;
  request.keywords = {"a"};
  const std::string payload = EncodeQueryRequest(request);
  const std::string frame = EncodeFrame(
      Verb::kQuery, 77, payload.substr(0, payload.size() - 1));
  RawSocket raw;
  ASSERT_TRUE(raw.Connect(server_->port()));
  ASSERT_TRUE(raw.WriteAll(frame));
  Frame reply;
  ASSERT_TRUE(raw.ReadFrame(&reply));
  EXPECT_EQ(reply.verb, Verb::kError);
  EXPECT_EQ(reply.request_id, 77u);
  ErrorReply error;
  ASSERT_TRUE(DecodeErrorReply(reply.payload, &error));
  EXPECT_EQ(error.code, StatusCode::kInvalidArgument);
  // The connection survives: framing is intact, only the payload was bad.
  const std::string ping = EncodeFrame(Verb::kPing, 78, "");
  ASSERT_TRUE(raw.WriteAll(ping));
  ASSERT_TRUE(raw.ReadFrame(&reply));
  EXPECT_EQ(reply.verb, Verb::kPong);
}

// Garbage bytes destroy framing: the server answers one ERROR frame and
// closes the connection.
TEST_F(ServerLoopbackTest, CorruptStreamGetsErrorThenClose) {
  StartAndConnect(ServerOptions{});
  RawSocket raw;
  ASSERT_TRUE(raw.Connect(server_->port()));
  ASSERT_TRUE(raw.WriteAll("GET / HTTP/1.1\r\n\r\n"));
  Frame reply;
  ASSERT_TRUE(raw.ReadFrame(&reply));
  EXPECT_EQ(reply.verb, Verb::kError);
  ErrorReply error;
  ASSERT_TRUE(DecodeErrorReply(reply.payload, &error));
  EXPECT_EQ(error.code, StatusCode::kCorruption);
  EXPECT_TRUE(raw.ReadEof());
}

// Saturation: one worker, tiny queue, slow solves. Pipelined queries beyond
// (in-flight + queue) must shed OVERLOADED, and the connection must keep
// answering PING/STATS inline throughout.
TEST_F(ServerLoopbackTest, SaturationShedsWithOverloaded) {
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  options.test_solve_delay_ms = 100.0;
  StartAndConnect(options);

  Rng rng(11);
  constexpr int kPipelined = 10;
  std::vector<uint32_t> ids;
  for (int i = 0; i < kPipelined; ++i) {
    QueryPair pair = MakePair(CostType::kMaxSum, SolverKind::kAppro, 3, &rng);
    StatusOr<uint32_t> id = client_.SendQuery(pair.request);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  // Liveness while saturated: PING and STATS are answered inline ahead of
  // the queued solves. The PONG overtaking the pipelined RESULTs is exactly
  // the documented out-of-order behavior.
  std::map<uint32_t, QueryReply> replies;
  bool ping_answered = false;
  bool stats_answered = false;
  {
    CoskqClient prober;
    ASSERT_TRUE(prober.Connect("127.0.0.1", server_->port()).ok());
    ping_answered = prober.Ping().ok();
    StatusOr<StatsReply> stats = prober.Stats();
    stats_answered = stats.ok();
    if (stats.ok()) {
      EXPECT_GT(stats->queries_shed + stats->queue_depth +
                    stats->queries_active,
                0u);
    }
  }
  EXPECT_TRUE(ping_answered);
  EXPECT_TRUE(stats_answered);

  for (int i = 0; i < kPipelined; ++i) {
    StatusOr<Frame> frame = client_.ReceiveFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    StatusOr<QueryReply> reply = CoskqClient::ParseQueryReply(*frame);
    ASSERT_TRUE(reply.ok());
    replies.emplace(frame->request_id, *reply);
  }
  ASSERT_EQ(replies.size(), static_cast<size_t>(kPipelined));

  size_t results = 0;
  size_t overloaded = 0;
  for (const auto& [id, reply] : replies) {
    if (reply.kind == QueryReply::Kind::kResult) {
      ++results;
    } else if (reply.kind == QueryReply::Kind::kOverloaded) {
      ++overloaded;
      EXPECT_GT(reply.overloaded.retry_after_ms, 0u);
    }
  }
  // Capacity is 1 in-flight + 2 queued. The dispatch/pop race moves the
  // exact count by one in either direction (the worker may or may not have
  // popped the first query before the queue-full check), but most of the
  // burst must have been shed.
  EXPECT_GE(results, 2u);
  EXPECT_LE(results, 4u);
  EXPECT_EQ(results + overloaded, static_cast<size_t>(kPipelined));
  EXPECT_GE(overloaded, 6u);

  const ServerStatsSnapshot stats = server_->stats();
  EXPECT_EQ(stats.queries_shed, overloaded);
  EXPECT_EQ(stats.queries_executed, results);
}

// Graceful drain: every admitted query is answered before the connection
// closes; the listener stops accepting immediately.
TEST_F(ServerLoopbackTest, ShutdownDrainsAdmittedWork) {
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 16;
  options.test_solve_delay_ms = 20.0;
  StartAndConnect(options);

  Rng rng(13);
  constexpr int kPipelined = 5;
  for (int i = 0; i < kPipelined; ++i) {
    QueryPair pair = MakePair(CostType::kMaxSum, SolverKind::kAppro, 3, &rng);
    ASSERT_TRUE(client_.SendQuery(pair.request).ok());
  }
  // Wait until the server has dispatched all five (the queue holds 16, so
  // "received" means "admitted") — otherwise Shutdown can race ahead of the
  // reads and legitimately reject them all as draining.
  while (server_->stats().queries_received <
         static_cast<uint64_t>(kPipelined)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->Shutdown();

  // Every admitted query is still answered...
  size_t results = 0;
  for (int i = 0; i < kPipelined; ++i) {
    StatusOr<Frame> frame = client_.ReceiveFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    StatusOr<QueryReply> reply = CoskqClient::ParseQueryReply(*frame);
    ASSERT_TRUE(reply.ok());
    if (reply->kind == QueryReply::Kind::kResult) {
      ++results;
    }
  }
  EXPECT_EQ(results, static_cast<size_t>(kPipelined));
  // ... and then the server closes the connection and exits.
  StatusOr<Frame> eof = client_.ReceiveFrame();
  EXPECT_FALSE(eof.ok());
  server_->Wait();
  EXPECT_FALSE(server_->running());

  // New connections are refused after the drain.
  CoskqClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server_->port()).ok());
}

TEST_F(ServerLoopbackTest, SigtermDrainsGracefully) {
  StartAndConnect(ServerOptions{});
  CoskqServer::InstallSignalHandlers(server_.get());
  Rng rng(17);
  QueryPair pair = MakePair(CostType::kMaxSum, SolverKind::kAppro, 3, &rng);
  StatusOr<QueryReply> reply = client_.Query(pair.request);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->kind, QueryReply::Kind::kResult);

  std::raise(SIGTERM);
  server_->Wait();
  EXPECT_FALSE(server_->running());
  EXPECT_EQ(server_->stats().queries_executed, 1u);
  CoskqServer::InstallSignalHandlers(nullptr);
}

// The STATS verb carries index provenance end to end: the fields the CLI
// fills into ServerOptions must come back over the wire unchanged.
TEST_F(ServerLoopbackTest, StatsReportIndexProvenance) {
  ServerOptions options;
  options.index_from_snapshot = true;
  options.index_prepare_ms = 12.5;
  options.index_nodes = index_->NodeCount();
  options.index_checksum = dataset_.ContentChecksum();
  StartAndConnect(options);
  StatusOr<StatsReply> stats = client_.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->index_from_snapshot, 1u);
  EXPECT_EQ(stats->index_prepare_ms, 12.5);
  EXPECT_EQ(stats->index_nodes, index_->NodeCount());
  EXPECT_EQ(stats->index_checksum, dataset_.ContentChecksum());

  // The default (built in-process) reports built provenance.
  server_->Shutdown();
  server_->Wait();
  client_.Close();
  StartAndConnect(ServerOptions{});
  stats = client_.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->index_from_snapshot, 0u);
}

// Serving from a snapshot-loaded (frozen-only) tree must be bit-identical
// to serving from the tree built in-process: same sets, same costs, across
// seeded queries and both cost functions.
TEST_F(ServerLoopbackTest, SnapshotServedAnswersAreBitIdentical) {
  const std::string path =
      test::UniqueTempPath("coskq_loopback_snapshot.cqix");
  ASSERT_TRUE(SaveSnapshot(index_.get(), path).ok());
  StatusOr<std::unique_ptr<IrTree>> loaded = LoadSnapshot(&dataset_, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  CoskqContext snapshot_context{&dataset_, loaded->get()};

  ServerOptions options;
  options.port = 0;
  options.index_from_snapshot = true;
  CoskqServer snapshot_server(snapshot_context, options);
  ASSERT_TRUE(snapshot_server.Start().ok());
  CoskqClient snapshot_client;
  ASSERT_TRUE(
      snapshot_client.Connect("127.0.0.1", snapshot_server.port()).ok());

  StartAndConnect(ServerOptions{});  // The built-tree reference server.

  Rng rng(20130623);
  size_t checked = 0;
  for (CostType cost : {CostType::kMaxSum, CostType::kDia}) {
    for (int i = 0; i < 15; ++i) {
      QueryPair pair = MakePair(cost, SolverKind::kAppro, 2 + i % 4, &rng);
      StatusOr<QueryReply> built = client_.Query(pair.request);
      StatusOr<QueryReply> snap = snapshot_client.Query(pair.request);
      ASSERT_TRUE(built.ok());
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      ASSERT_EQ(built->kind, QueryReply::Kind::kResult);
      ASSERT_EQ(snap->kind, QueryReply::Kind::kResult);
      EXPECT_EQ(snap->result.outcome, built->result.outcome) << "query " << i;
      EXPECT_EQ(snap->result.set, built->result.set) << "query " << i;
      EXPECT_EQ(snap->result.cost, built->result.cost) << "query " << i;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 30u);

  StatusOr<StatsReply> stats = snapshot_client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->index_from_snapshot, 1u);
  EXPECT_EQ(stats->queries_executed, checked);

  snapshot_client.Close();
  snapshot_server.Shutdown();
  snapshot_server.Wait();
  std::remove(path.c_str());
}

TEST_F(ServerLoopbackTest, StatsCountersAddUp) {
  StartAndConnect(ServerOptions{});
  Rng rng(19);
  for (int i = 0; i < 8; ++i) {
    QueryPair pair = MakePair(CostType::kDia, SolverKind::kAppro, 3, &rng);
    StatusOr<QueryReply> reply = client_.Query(pair.request);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->kind, QueryReply::Kind::kResult);
  }
  StatusOr<StatsReply> stats = client_.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->queries_received, 8u);
  EXPECT_EQ(stats->queries_executed, 8u);
  EXPECT_EQ(stats->queries_active, 0u);
  EXPECT_EQ(stats->queue_depth, 0u);
  EXPECT_GT(stats->mean_ms, 0.0);
  EXPECT_GE(stats->p99_ms, stats->p50_ms);
}

}  // namespace
}  // namespace coskq
