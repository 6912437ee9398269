// coskq_perfbench: the end-to-end benchmark driver.
//
//   coskq_perfbench --workload <batch-gn|serve-skewed-rw|route-3shard>
//                   --seed N --seconds S --trace <0|1>
//                   [--scratch DIR] [--out DIR]
//   coskq_perfbench --self-test
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Usually started through run.py, which builds it first.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "layers.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: coskq_perfbench --workload "
               "<batch-gn|serve-skewed-rw|route-3shard> --seed N "
               "--seconds S --trace <0|1> [--scratch DIR] [--out DIR]\n"
               "       coskq_perfbench --self-test\n",
               why);
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.scratch_dir = ".bench_build/perfbench-scratch";
  args.out_dir = "perfbench/out";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      return perfbench::RunSelfTest();
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &args.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &number) || number == 0 || number > 3600) {
        return Usage("bad --seconds");
      }
      args.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseUint(value, &number) || number > 1) {
        return Usage("bad --trace");
      }
      args.trace = number == 1;
      have_trace = true;
    } else if (flag == "--scratch") {
      args.scratch_dir = value;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  void (*run)(const perfbench::RunArgs&, perfbench::RunOutcome*) = nullptr;
  if (args.workload == "batch-gn") {
    run = perfbench::RunBatchGn;
  } else if (args.workload == "serve-skewed-rw") {
    run = perfbench::RunServeSkewedRw;
  } else if (args.workload == "route-3shard") {
    run = perfbench::RunRoute3Shard;
  } else {
    return Usage("unknown --workload");
  }
  if (args.trace && mkdir(args.out_dir.c_str(), 0755) != 0 &&
      errno != EEXIST) {
    return Usage(("cannot create " + args.out_dir).c_str());
  }

  perfbench::RunOutcome outcome;
  run(args, &outcome);
  const perfbench::Report::Schema& e2e = perfbench::EndToEndMetrics();
  const perfbench::Report::Schema& layers = perfbench::PerLayerMetrics();
  const std::vector<std::string> problems = outcome.report.Conform(
      args.trace ? layers : e2e, args.trace ? e2e : layers,
      /*fill_missing=*/args.trace);
  if (!problems.empty()) {
    for (const std::string& p : problems) {
      std::fprintf(stderr, "FATAL: metric schema: %s\n", p.c_str());
    }
    return 1;
  }
  std::fprintf(stderr, "checks: %llu run, %llu failed\n",
               static_cast<unsigned long long>(outcome.checks.checks()),
               static_cast<unsigned long long>(outcome.checks.failures()));
  std::printf("%s\n", outcome.report
                          .ToJson(outcome.checks.ok(), outcome.attempted,
                                  outcome.failed)
                          .c_str());
  std::fflush(stdout);
  return 0;
}
