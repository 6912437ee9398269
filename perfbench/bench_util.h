// Shared plumbing of the end-to-end benchmark driver: clocks, order
// statistics, the metric report, the in-memory span tracer and the seeded
// GN-like dataset every workload starts from.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <stdint.h>

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Captured first thing in main(): set-up time counts from here.
extern Clock::time_point g_process_start;

double MillisBetween(Clock::time_point a, Clock::time_point b);
double SecondsSince(Clock::time_point t);
Clock::time_point AfterSeconds(Clock::time_point t, double seconds);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Peak resident set of this process, from getrusage.
uint64_t PeakRssBytes();

/// Command-line arguments every workload receives.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (shard files); removed at exit.
  std::string scratch_dir;
  /// Directory the span trace of a traced run is written to.
  std::string out_dir;
};

/// The metrics of one run, in insertion order, printed as the last line of
/// standard output together with the operation counts and the verdict of
/// the correctness checks.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string ToJson(bool correct, uint64_t attempted, uint64_t failed) const;

  /// Keeps exactly the metrics of `schema` (name, unit), in its order.
  /// Metrics of the schema the run did not measure read 0 when
  /// `fill_missing`, and are returned as missing otherwise. Metrics of
  /// `other` are dropped; any other name is returned as unlisted.
  using Schema = std::vector<std::pair<std::string, std::string>>;
  std::vector<std::string> Conform(const Schema& schema, const Schema& other,
                                   bool fill_missing);

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Accumulates correctness-check outcomes; every failure is logged to
/// standard error (the first few in full) and makes the run incorrect.
class CheckLog {
 public:
  /// `failure` is empty when the check passed.
  void Expect(const std::string& what, const std::string& failure);
  bool ok() const;
  uint64_t checks() const;
  uint64_t failures() const;

 private:
  mutable std::mutex mutex_;
  uint64_t checks_ = 0;
  uint64_t failures_ = 0;
};

/// Spans recorded by the benchmark around its calls into the program's
/// layers: name ("<layer>.<call>"), start, end, parent span and request id.
/// Kept in memory and written out once the run ends. Disabled tracers
/// record nothing and return -1.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished interval; returns its span index (or -1).
  int64_t Record(const char* name, Clock::time_point start,
                 Clock::time_point end, int64_t parent, uint64_t request_id);

  /// Self time per layer in milliseconds: each span's duration minus the
  /// part its children cover, summed by the layer prefix of the name.
  std::map<std::string, double> SelfMillisByLayer() const;

  /// Writes one JSON object per span (times in microseconds since start).
  bool WriteJsonLines(const std::string& path) const;

  size_t size() const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int64_t parent;
    uint64_t request_id;
  };
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// The GN-like corpus every workload runs on (scale 0.1: 186,882 objects,
/// 22,240 words), generated deterministically from the run seed.
coskq::Dataset MakeGnDataset(uint64_t seed);

/// Adds the per-layer self times and the span count to a traced report and
/// writes the spans next to the run's other outputs.
void FinishTrace(const Tracer& tracer, const RunArgs& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
