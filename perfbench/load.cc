#include "load.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "server/client.h"

namespace perfbench {
namespace {

coskq::ClientOptions LoadClientOptions() {
  coskq::ClientOptions options;
  options.connect_timeout_ms = 5000;
  options.io_timeout_ms = 60000;
  options.max_connect_attempts = 3;
  return options;
}

Clock::duration FromMillis(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

constexpr std::chrono::microseconds kSpin(150);

struct PipelinedConn {
  coskq::CoskqClient client;
  std::mutex mutex;  // guards sends and `pending`
  std::unordered_map<uint32_t, size_t> pending;  // request id -> slot
  std::atomic<size_t> expected{0};
};

}  // namespace

LoadResult RunOpenLoop(uint16_t port,
                       const std::vector<coskq::QueryRequest>& requests,
                       const std::vector<uint8_t>& is_side_op,
                       const std::function<void(size_t)>& side_op, double rate,
                       int connections, Tracer* tracer) {
  const size_t n = requests.size();
  LoadResult out;
  // Per slot until the end, then compacted to the answered slots.
  std::vector<double> latency_ms(n, -1.0);
  std::vector<Clock::time_point> sent(n);
  std::vector<coskq::QueryResult> results(n);
  std::vector<double> late_ms(n, 0.0);
  std::vector<Clock::time_point> due(n);

  std::vector<std::unique_ptr<PipelinedConn>> conns;
  for (int c = 0; c < connections; ++c) {
    auto conn = std::make_unique<PipelinedConn>();
    if (!conn->client.Connect("127.0.0.1", port, LoadClientOptions()).ok()) {
      std::fprintf(stderr, "load: connect failed\n");
      out.failed = n;
      return out;
    }
    conns.push_back(std::move(conn));
  }
  std::vector<int> conn_of(n, -1);
  for (size_t i = 0, q = 0; i < n; ++i) {
    if (!is_side_op[i]) {
      conn_of[i] = static_cast<int>(q++ % conns.size());
      ++conns[static_cast<size_t>(conn_of[i])]->expected;
    }
  }

  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> receivers;
  for (auto& owned : conns) {
    PipelinedConn* conn = owned.get();
    receivers.emplace_back([&, conn] {
      for (size_t got = 0; got < conn->expected;) {
        coskq::StatusOr<coskq::Frame> frame = conn->client.ReceiveFrame();
        if (!frame.ok()) {
          std::fprintf(stderr, "load: receive: %s\n",
                       frame.status().ToString().c_str());
          failed.fetch_add(conn->expected - got);
          return;
        }
        size_t slot = 0;
        {
          std::lock_guard<std::mutex> lock(conn->mutex);
          auto it = conn->pending.find(frame->request_id);
          if (it == conn->pending.end()) {
            std::fprintf(stderr, "load: unexpected reply id %u\n",
                         frame->request_id);
            failed.fetch_add(conn->expected - got);
            return;
          }
          slot = it->second;
          conn->pending.erase(it);
        }
        const Clock::time_point t0 = Clock::now();
        coskq::StatusOr<coskq::QueryReply> reply =
            coskq::CoskqClient::ParseQueryReply(*frame);
        const Clock::time_point t1 = Clock::now();
        if (reply.ok() && reply->kind == coskq::QueryReply::Kind::kOverloaded) {
          shed.fetch_add(1);
          std::this_thread::sleep_for(
              FromMillis(reply->overloaded.retry_after_ms));
          std::lock_guard<std::mutex> lock(conn->mutex);
          coskq::StatusOr<uint32_t> id =
              conn->client.SendQuery(requests[slot]);
          if (id.ok()) {
            conn->pending[*id] = slot;
            continue;
          }
        } else if (reply.ok() &&
                   reply->kind == coskq::QueryReply::Kind::kResult) {
          latency_ms[slot] = MillisBetween(due[slot], t1);
          results[slot] = std::move(reply->result);
          const int64_t parent =
              tracer->Record("server.query", due[slot], t1, -1, slot);
          tracer->Record("load.late", due[slot], sent[slot], parent, slot);
          tracer->Record("server.codec", t0, t1, parent, slot);
          answered.fetch_add(1);
          ++got;
          continue;
        }
        failed.fetch_add(1);
        ++got;
      }
    });
  }

  const Clock::time_point start = Clock::now() + FromMillis(5.0);
  for (size_t i = 0; i < n; ++i) {
    due[i] = AfterSeconds(start, static_cast<double>(i) / rate);
    // Sleep to just short of the due time, then spin: waking from a sleep
    // costs a varying tens of microseconds, which would otherwise show up
    // as lateness in every request.
    std::this_thread::sleep_until(due[i] - kSpin);
    while (Clock::now() < due[i]) {
    }
    if (is_side_op[i]) {
      side_op(i);
      continue;
    }
    PipelinedConn* conn = conns[static_cast<size_t>(conn_of[i])].get();
    std::lock_guard<std::mutex> lock(conn->mutex);
    sent[i] = Clock::now();
    late_ms[i] = MillisBetween(due[i], sent[i]);
    coskq::StatusOr<uint32_t> id = conn->client.SendQuery(requests[i]);
    if (!id.ok()) {
      std::fprintf(stderr, "load: send: %s\n", id.status().ToString().c_str());
      failed.fetch_add(1);
      --conn->expected;  // never answered; the receiver stops one earlier
      continue;
    }
    conn->pending[*id] = i;
  }
  for (std::thread& t : receivers) {
    t.join();
  }
  out.seconds = SecondsSince(start);
  out.answered = answered.load();
  out.shed = shed.load();
  out.failed = failed.load();
  for (size_t i = 0; i < n; ++i) {
    if (!is_side_op[i] && latency_ms[i] >= 0.0) {
      out.request_index.push_back(i);
      out.latency_ms.push_back(latency_ms[i]);
      out.sent.push_back(sent[i]);
      out.results.push_back(std::move(results[i]));
      out.late_ms.push_back(late_ms[i]);
    }
  }
  return out;
}

LoadResult RunClosedLoop(uint16_t port,
                         const std::vector<coskq::QueryRequest>& requests,
                         int connections, double seconds) {
  struct Lane {
    std::vector<size_t> index;
    std::vector<double> latency_ms;
    std::vector<Clock::time_point> sent;
    std::vector<coskq::QueryResult> results;
    uint64_t shed = 0;
    uint64_t failed = 0;
  };
  std::vector<Lane> lanes(static_cast<size_t>(connections));
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop = AfterSeconds(start, seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Lane& lane = lanes[static_cast<size_t>(c)];
      coskq::CoskqClient client;
      if (!client.Connect("127.0.0.1", port, LoadClientOptions()).ok()) {
        ++lane.failed;
        return;
      }
      size_t i = static_cast<size_t>(c);
      while (Clock::now() < stop) {
        const size_t r = i % requests.size();
        const Clock::time_point t0 = Clock::now();
        coskq::StatusOr<coskq::QueryReply> reply = client.Query(requests[r]);
        const Clock::time_point t1 = Clock::now();
        if (reply.ok() && reply->kind == coskq::QueryReply::Kind::kOverloaded) {
          ++lane.shed;
          std::this_thread::sleep_for(
              FromMillis(reply->overloaded.retry_after_ms));
          continue;
        }
        if (!reply.ok() || reply->kind != coskq::QueryReply::Kind::kResult) {
          ++lane.failed;
          if (!reply.ok()) return;
        } else {
          lane.index.push_back(r);
          lane.latency_ms.push_back(MillisBetween(t0, t1));
          lane.sent.push_back(t0);
          lane.results.push_back(std::move(reply->result));
        }
        i += static_cast<size_t>(connections);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  LoadResult out;
  out.seconds = SecondsSince(start);
  for (Lane& lane : lanes) {
    out.request_index.insert(out.request_index.end(), lane.index.begin(),
                             lane.index.end());
    out.latency_ms.insert(out.latency_ms.end(), lane.latency_ms.begin(),
                          lane.latency_ms.end());
    out.sent.insert(out.sent.end(), lane.sent.begin(), lane.sent.end());
    for (coskq::QueryResult& r : lane.results) {
      out.results.push_back(std::move(r));
    }
    out.answered += lane.index.size();
    out.shed += lane.shed;
    out.failed += lane.failed;
  }
  return out;
}

double MedianWindowRate(const LoadResult& result) {
  if (result.sent.empty()) {
    return 0.0;
  }
  Clock::time_point start = result.sent.front();
  for (const Clock::time_point& t : result.sent) start = std::min(start, t);
  const size_t windows = static_cast<size_t>(result.seconds);
  std::vector<double> counts(std::max<size_t>(windows, 1), 0.0);
  for (size_t j = 0; j < result.sent.size(); ++j) {
    const double done_s =
        (MillisBetween(start, result.sent[j]) + result.latency_ms[j]) / 1e3;
    const size_t w = static_cast<size_t>(done_s);
    if (w < counts.size()) counts[w] += 1.0;
  }
  return Median(counts);
}

}  // namespace perfbench
