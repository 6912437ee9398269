// The three workloads of the end-to-end benchmark. Each builds its inputs
// from the run seed, measures for the requested time, checks every answer
// it receives and fills in the run's report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <stdint.h>

#include "bench_util.h"

namespace perfbench {

struct RunOutcome {
  Report report;
  CheckLog checks;
  /// Operations attempted and failed during the measured phases.
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// The paper's offline experiment through BatchEngine (exact + approximate).
void RunBatchGn(const RunArgs& args, RunOutcome* out);
/// One cached, mutable CoskqServer under Zipf + hotspot read-write traffic.
void RunServeSkewedRw(const RunArgs& args, RunOutcome* out);
/// A 3-shard cluster behind a ClusterRouter under distinct uniform queries.
void RunRoute3Shard(const RunArgs& args, RunOutcome* out);

/// Feeds every correctness check a wrong answer; returns 0 iff each check
/// rejects its wrong answer and accepts the right one.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
