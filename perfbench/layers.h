// Per-layer measurements shared by the workloads: each times a public call
// of one layer from outside it.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "bench_util.h"
#include "checks.h"
#include "core/solver.h"
#include "data/query.h"
#include "index/irtree.h"
#include "server/protocol.h"

namespace perfbench {

/// Replays each query's keyword-NN, N(q) and range calls through `tree`
/// and reports the median microseconds per call as index.keyword_nn_us,
/// index.nnset_us and index.range_relevant_us. The range is the disk around
/// q through the farthest member of N(q), the first disk the owner-driven
/// solvers search.
void ReplayIndexCalls(const coskq::IrTree& tree,
                      const std::vector<coskq::CoskqQuery>& queries,
                      Tracer* tracer, Report* report);

/// The wire form of a query.
coskq::QueryRequest ToRequest(const coskq::Dataset& dataset,
                              const coskq::CoskqQuery& query,
                              coskq::SolverKind solver, coskq::CostType cost);

/// A BatchEngine result or a wire result as a checkable answer.
Answer ToAnswer(const coskq::CoskqResult& result);
Answer ToAnswer(const coskq::QueryResult& result);

/// Median microseconds of EncodeQueryRequest + DecodeQueryResult over the
/// given request/result pairs (server.codec_us).
double CodecMicros(const std::vector<coskq::QueryRequest>& requests,
                   const std::vector<coskq::QueryResult>& results);

/// Every end-to-end metric (name, unit), in report order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

/// Every per-layer metric (name, unit), in report order. A traced run prints
/// all of them on every workload, 0 where a layer does no work there.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
