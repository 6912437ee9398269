#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "data/synthetic.h"
#include "util/random.h"

namespace perfbench {

Clock::time_point g_process_start = Clock::now();

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

Clock::time_point AfterSeconds(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(n, std::max<size_t>(rank, 1)) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return values[rank];
}

uint64_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024u;  // ru_maxrss is KiB
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back(Entry{name, value, unit});
}

std::string Report::ToJson(bool correct, uint64_t attempted,
                           uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) {
      out += ", ";
    }
    out += "\"" + entries_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::vector<std::string> Report::Conform(const Schema& schema,
                                        const Schema& other,
                                        bool fill_missing) {
  std::vector<std::string> problems;
  std::vector<Entry> kept;
  for (const auto& [name, unit] : schema) {
    bool found = false;
    for (const Entry& e : entries_) {
      if (e.name == name) {
        kept.push_back(Entry{name, e.value, unit});
        found = true;
        break;
      }
    }
    if (!found) {
      if (!fill_missing) {
        problems.push_back("missing " + name);
      }
      kept.push_back(Entry{name, 0.0, unit});
    }
  }
  for (const Entry& e : entries_) {
    bool known = false;
    for (const Schema* list : {&schema, &other}) {
      for (const auto& [name, unit] : *list) {
        known = known || name == e.name;
      }
    }
    if (!known) {
      problems.push_back("unlisted " + e.name);
    }
  }
  entries_ = std::move(kept);
  return problems;
}

void CheckLog::Expect(const std::string& what, const std::string& failure) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++checks_;
  if (failure.empty()) {
    return;
  }
  ++failures_;
  if (failures_ <= 20) {
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", what.c_str(),
                 failure.c_str());
  }
}

bool CheckLog::ok() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_ == 0 && checks_ > 0;
}

uint64_t CheckLog::checks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return checks_;
}

uint64_t CheckLog::failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

int64_t Tracer::Record(const char* name, Clock::time_point start,
                       Clock::time_point end, int64_t parent,
                       uint64_t request_id) {
  if (!enabled_) {
    return -1;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, end, parent, request_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfMillisByLayer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<size_t>(span.parent)] +=
          MillisBetween(span.start, span.end);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spans_[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    // Children of one parent may run concurrently (batch workers), so
    // their sum can exceed the parent; a layer never has negative self time.
    self[layer] += std::max(
        0.0, MillisBetween(spans_[i].start, spans_[i].end) - child_ms[i]);
  }
  return self;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const Clock::time_point base = g_process_start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"parent\": %lld, \"request\": %llu}\n",
                  i, s.name, MillisBetween(base, s.start) * 1e3,
                  MillisBetween(base, s.end) * 1e3,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request_id));
    out << line;
  }
  return static_cast<bool>(out);
}

void FinishTrace(const Tracer& tracer, const RunArgs& args, Report* report) {
  for (const auto& [layer, ms] : tracer.SelfMillisByLayer()) {
    report->Add("self_ms." + layer, ms, "ms");
  }
  report->Add("trace.spans", static_cast<double>(tracer.size()), "count");
  const std::string path = args.out_dir + "/trace-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".jsonl";
  if (!tracer.WriteJsonLines(path)) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
}

coskq::Dataset MakeGnDataset(uint64_t seed) {
  coskq::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  return coskq::GenerateSynthetic(coskq::GnLikeSpec(0.1), &rng);
}

}  // namespace perfbench
