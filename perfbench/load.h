// The single-process load generator of the served workloads: an open loop
// that sends on a fixed schedule over pipelined connections, and a closed
// loop of blocking clients.
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <stdint.h>

#include <functional>
#include <vector>

#include "bench_util.h"
#include "server/protocol.h"

namespace perfbench {

/// One entry per answered request: which request it was, its latency, when
/// it was (last) sent and the answer.
struct LoadResult {
  std::vector<size_t> request_index;
  std::vector<double> latency_ms;  // open loop: from when it was due
  std::vector<Clock::time_point> sent;
  std::vector<coskq::QueryResult> results;
  std::vector<double> late_ms;  // open loop: send time minus due time
  uint64_t answered = 0;
  uint64_t shed = 0;    // OVERLOADED replies (the request is sent again)
  uint64_t failed = 0;  // transport errors or error replies
  double seconds = 0.0;
};

/// Sends requests[i] at start + i / rate over `connections` pipelined
/// connections (round robin), re-sending a request the server sheds after
/// its retry-after. A slot with is_side_op[i] set is not sent; instead
/// side_op(i) runs on the sending thread at its due time (MUTATEs). Spans:
/// "server.query" per request with "load.late" and "server.codec" children.
LoadResult RunOpenLoop(uint16_t port,
                       const std::vector<coskq::QueryRequest>& requests,
                       const std::vector<uint8_t>& is_side_op,
                       const std::function<void(size_t)>& side_op, double rate,
                       int connections, Tracer* tracer);

/// `connections` blocking clients, each sending its next request as soon as
/// the previous answer arrives, for `seconds`. Client c sends requests
/// c, c + connections, ... cycling through the list.
LoadResult RunClosedLoop(uint16_t port,
                         const std::vector<coskq::QueryRequest>& requests,
                         int connections, double seconds);

/// Answers per second in the median one-second window of a closed loop
/// (whole windows only), so a few slow requests near the end of a window do
/// not set the figure.
double MedianWindowRate(const LoadResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
