// S1/S2 — SIMD kernel layer A/B benchmark (see DESIGN.md §12).
//
// S1 micro-benchmarks the kernel table directly: the batched squared-MINDIST
// child scan, run per supported kernel (scalar / sse2 / avx2) over
// synthetic SoA stripes sized to stay in L1, with calibrated >=250 ms timing
// rounds like bench_irtree_layout. The headline acceptance number is the
// avx2-vs-scalar child-scan speedup.
//
// S2 replays end-to-end solver batches on the hotel-like and web-like
// workloads through the frozen fast path with each kernel table forced in
// turn — same tree, same queries, only the kernel dispatch differs — and
// requires bit-identical batch results across kernels (any divergence
// aborts).
//
// Every cell reports best-of-rounds and median-of-rounds so the committed
// BENCH_simd.json carries a variance hint; tools/bench_compare.py gates on
// the median twins.
//
// Writes BENCH_simd.json for tools/bench_compare.py.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchlib/bench_config.h"
#include "benchlib/harness.h"
#include "benchlib/json_writer.h"
#include "benchlib/table.h"
#include "engine/batch_engine.h"
#include "index/frozen_layout.h"
#include "index/irtree.h"
#include "index/kernels.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace coskq {
namespace {

using internal_index::FrozenNodeRecord;
using internal_index::KernelOps;
using internal_index::KernelsForName;
using internal_index::SelectKernels;
using internal_index::SupportedKernelNames;

constexpr size_t kTimingRounds = 5;

/// Synthetic child stripe: 512 MBRs (SoA columns ~16 KiB + output 4 KiB,
/// comfortably L1-resident so the micro measures instruction throughput,
/// not memory bandwidth) plus matching AoS records for the fused scan.
constexpr uint32_t kMicroMbrs = 512;

struct MicroData {
  std::vector<double> min_x, min_y, max_x, max_y;
  std::vector<FrozenNodeRecord> nodes;
};

MicroData MakeMicroData(uint64_t seed) {
  MicroData d;
  Rng rng(seed);
  for (uint32_t i = 0; i < kMicroMbrs; ++i) {
    const double x0 = rng.UniformDouble(), x1 = rng.UniformDouble();
    const double y0 = rng.UniformDouble(), y1 = rng.UniformDouble();
    d.min_x.push_back(std::min(x0, x1));
    d.min_y.push_back(std::min(y0, y1));
    d.max_x.push_back(std::max(x0, x1));
    d.max_y.push_back(std::max(y0, y1));
    FrozenNodeRecord rec{};
    rec.sig = rng.UniformUint64(~uint64_t{0});
    d.nodes.push_back(rec);
  }
  return d;
}

struct MicroCell {
  std::string op;
  std::string kernel;
  double best_ms_per_op = 0.0;
  double median_ms_per_op = 0.0;
  double speedup = 0.0;         // scalar best / kernel best
  double median_speedup = 0.0;  // scalar median / kernel median
};

/// Calibrates repeats so one timed round spends >=250 ms in `op`, then runs
/// kTimingRounds rounds, returning per-op samples. `op` must be opaque
/// enough (kernel calls through function pointers are) that repeats are not
/// hoisted.
template <typename Op>
RoundSamples TimeRounds(Op&& op) {
  WallTimer timer;
  timer.Restart();
  op();
  const double warm_ms = std::max(1e-6, timer.ElapsedMillis());
  const size_t repeats = static_cast<size_t>(
      std::min(4e7, std::max(1.0, std::ceil(250.0 / warm_ms))));
  RoundSamples samples;
  for (size_t round = 0; round < kTimingRounds; ++round) {
    timer.Restart();
    for (size_t r = 0; r < repeats; ++r) {
      op();
    }
    samples.Add(timer.ElapsedMillis() / static_cast<double>(repeats));
  }
  return samples;
}

/// One op == one kernel pass over the whole kMicroMbrs stripe.
std::vector<MicroCell> RunChildScanMicro(const MicroData& d) {
  std::vector<double> out(kMicroMbrs);
  std::vector<double> want(kMicroMbrs);
  const KernelOps* scalar = nullptr;
  if (!KernelsForName("scalar", &scalar).ok()) {
    std::abort();
  }
  scalar->child_squared_distances(d.min_x.data(), d.min_y.data(),
                                  d.max_x.data(), d.max_y.data(), kMicroMbrs,
                                  0.5, 0.5, want.data());

  std::vector<MicroCell> cells;
  for (const std::string& name : SupportedKernelNames()) {
    const KernelOps* ops = nullptr;
    if (!KernelsForName(name, &ops).ok()) {
      continue;
    }
    // In-bench bit-identity spot check before timing anything.
    ops->child_squared_distances(d.min_x.data(), d.min_y.data(),
                                 d.max_x.data(), d.max_y.data(), kMicroMbrs,
                                 0.5, 0.5, out.data());
    if (out != want) {
      std::fprintf(stderr, "FATAL: %s child scan diverged from scalar\n",
                   name.c_str());
      std::exit(1);
    }
    const RoundSamples samples = TimeRounds([&] {
      ops->child_squared_distances(d.min_x.data(), d.min_y.data(),
                                   d.max_x.data(), d.max_y.data(), kMicroMbrs,
                                   0.5, 0.5, out.data());
    });
    MicroCell cell;
    cell.op = "child_scan";
    cell.kernel = name;
    cell.best_ms_per_op = samples.best();
    cell.median_ms_per_op = samples.median();
    cells.push_back(cell);
  }
  return cells;
}

void FillSpeedups(std::vector<MicroCell>* cells) {
  double scalar_best = 0.0, scalar_median = 0.0;
  for (const MicroCell& c : *cells) {
    if (c.kernel == "scalar") {
      scalar_best = c.best_ms_per_op;
      scalar_median = c.median_ms_per_op;
    }
  }
  for (MicroCell& c : *cells) {
    c.speedup = c.best_ms_per_op > 0.0 ? scalar_best / c.best_ms_per_op : 0.0;
    c.median_speedup =
        c.median_ms_per_op > 0.0 ? scalar_median / c.median_ms_per_op : 0.0;
  }
}

struct SolverKernelCell {
  std::string dataset;
  std::string solver;
  std::string kernel;
  double wall_ms = 0.0;         // best-of-rounds
  double wall_median_ms = 0.0;  // median-of-rounds
  double speedup = 0.0;
  double median_speedup = 0.0;
  bool identical = false;
};

/// Frozen solver batch with every kernel table forced in turn, interleaved
/// rounds (one scheduler hiccup penalizes one round of one kernel, not a
/// whole kernel). Results must be bit-identical across kernels.
std::vector<SolverKernelCell> RunSolverKernels(
    const BenchWorkload& w, const std::string& solver,
    const std::vector<CoskqQuery>& queries) {
  BatchOptions options;
  options.solver_name = solver;
  options.num_threads = 1;
  options.use_query_masks = true;
  BatchEngine engine(w.context(), options);
  w.index->set_frozen_enabled(true);

  const std::vector<std::string> kernels = SupportedKernelNames();

  // Warm-up under scalar calibrates the shared repeat count.
  if (!SelectKernels("scalar").ok()) {
    std::abort();
  }
  BatchOutcome reference = engine.Run(queries);
  const double warm_wall = std::max(0.01, reference.stats.wall_ms);
  const size_t repeats = static_cast<size_t>(
      std::min(1000.0, std::max(1.0, std::ceil(250.0 / warm_wall))));

  std::vector<RoundSamples> samples(kernels.size());
  std::vector<bool> identical(kernels.size(), true);
  WallTimer timer;
  for (size_t round = 0; round < kTimingRounds; ++round) {
    for (size_t k = 0; k < kernels.size(); ++k) {
      if (!SelectKernels(kernels[k]).ok()) {
        std::abort();
      }
      timer.Restart();
      BatchOutcome o;
      for (size_t r = 0; r < repeats; ++r) {
        o = engine.Run(queries);
      }
      samples[k].Add(timer.ElapsedMillis() / static_cast<double>(repeats));
      bool same = o.results.size() == reference.results.size();
      for (size_t i = 0; same && i < o.results.size(); ++i) {
        same = o.results[i].feasible == reference.results[i].feasible &&
               o.results[i].set == reference.results[i].set &&
               o.results[i].cost == reference.results[i].cost;
      }
      identical[k] = identical[k] && same;
    }
  }
  if (!SelectKernels("auto").ok()) {
    std::abort();
  }

  std::vector<SolverKernelCell> cells;
  for (size_t k = 0; k < kernels.size(); ++k) {
    SolverKernelCell cell;
    cell.dataset = w.name;
    cell.solver = solver;
    cell.kernel = kernels[k];
    cell.wall_ms = samples[k].best();
    cell.wall_median_ms = samples[k].median();
    cell.speedup =
        cell.wall_ms > 0.0 ? samples[0].best() / cell.wall_ms : 0.0;
    cell.median_speedup = cell.wall_median_ms > 0.0
                              ? samples[0].median() / cell.wall_median_ms
                              : 0.0;
    cell.identical = identical[k];
    if (!cell.identical) {
      std::fprintf(stderr, "FATAL: %s batch diverged under kernel %s\n",
                   solver.c_str(), kernels[k].c_str());
      std::exit(1);
    }
    cells.push_back(cell);
  }
  return cells;
}

void EmitMicroCells(JsonWriter* json, TablePrinter* table,
                    const std::vector<MicroCell>& cells) {
  for (const MicroCell& c : cells) {
    table->AddRow({c.op, c.kernel, FormatMillis(c.best_ms_per_op),
                   FormatMillis(c.median_ms_per_op),
                   FormatDouble(c.speedup, 2) + "x",
                   FormatDouble(c.median_speedup, 2) + "x"});
    json->BeginObject();
    json->Key("op").Value(c.op);
    json->Key("kernel").Value(c.kernel);
    json->Key("scan_ms_per_op").Value(c.best_ms_per_op);
    json->Key("scan_median_ms_per_op").Value(c.median_ms_per_op);
    json->Key("speedup").Value(c.speedup);
    json->Key("median_speedup").Value(c.median_speedup);
    json->EndObject();
  }
}

void Run() {
  const BenchConfig config = BenchConfig::FromEnv();
  std::printf("== S1/S2: SIMD kernel layer, scalar vs sse2 vs avx2 ==\n");
  std::printf("config: %s\n", config.ToString().c_str());
  std::printf("kernels:");
  for (const std::string& name : SupportedKernelNames()) {
    std::printf(" %s", name.c_str());
  }
  std::printf(" (active: %s)\n\n", internal_index::ActiveKernelName());

  JsonWriter json;
  json.BeginObject();
  json.Key("experiment").Value("bench_simd");
  json.Key("scale").Value(config.scale);
  json.Key("queries").Value(config.queries);
  json.Key("seed").Value(config.seed);
  json.Key("kernels").BeginArray();
  for (const std::string& name : SupportedKernelNames()) {
    json.Value(name);
  }
  json.EndArray();

  std::printf("== S1: kernel micro-benchmarks (%u-entry stripes) ==\n",
              kMicroMbrs);
  const MicroData data = MakeMicroData(config.seed);
  TablePrinter micro({"Op", "Kernel", "Best/op", "Median/op", "Speedup",
                      "Median speedup"});
  std::vector<MicroCell> child = RunChildScanMicro(data);
  FillSpeedups(&child);
  json.Key("micro").BeginArray();
  TablePrinter* table = &micro;
  EmitMicroCells(&json, table, child);
  json.EndArray();
  micro.Print();
  for (const MicroCell& c : child) {
    if (c.kernel == "avx2") {
      std::printf("\navx2 child-scan speedup vs scalar: %.2fx (median %.2fx)\n",
                  c.speedup, c.median_speedup);
    }
  }

  std::printf("\n== S2: frozen solver batches per kernel ==\n");
  BenchWorkload hotel = MakeHotelWorkload(config);
  BenchWorkload web = MakeWebWorkload(config);
  hotel.index->Freeze();
  web.index->Freeze();
  TablePrinter e2e({"Dataset", "Solver", "Kernel", "Best wall", "Median wall",
                    "Speedup", "Median speedup", "Identical"});
  json.Key("solvers").BeginArray();
  double log_speedup_sum = 0.0;
  size_t accelerated_cells = 0;
  for (BenchWorkload* wp : {&hotel, &web}) {
    const std::vector<CoskqQuery> queries = MakeQueries(*wp, 6, config);
    for (const char* solver : {"maxsum-appro", "dia-appro"}) {
      const std::vector<SolverKernelCell> cells =
          RunSolverKernels(*wp, solver, queries);
      for (const SolverKernelCell& cell : cells) {
        e2e.AddRow({cell.dataset, cell.solver, cell.kernel,
                    FormatMillis(cell.wall_ms),
                    FormatMillis(cell.wall_median_ms),
                    FormatDouble(cell.speedup, 2) + "x",
                    FormatDouble(cell.median_speedup, 2) + "x",
                    cell.identical ? "yes" : "NO"});
        json.BeginObject();
        json.Key("dataset").Value(cell.dataset);
        json.Key("solver").Value(cell.solver);
        json.Key("kernel").Value(cell.kernel);
        json.Key("wall_ms").Value(cell.wall_ms);
        json.Key("wall_median_ms").Value(cell.wall_median_ms);
        json.Key("speedup").Value(cell.speedup);
        json.Key("median_speedup").Value(cell.median_speedup);
        json.Key("identical").Value(cell.identical);
        json.EndObject();
        if (cell.kernel != "scalar" && cell.speedup > 0.0) {
          log_speedup_sum += std::log(cell.speedup);
          ++accelerated_cells;
        }
      }
    }
  }
  json.EndArray();
  e2e.Print();
  const double geomean =
      accelerated_cells > 0
          ? std::exp(log_speedup_sum / static_cast<double>(accelerated_cells))
          : 0.0;
  std::printf("\ngeomean end-to-end kernel speedup vs scalar: %.2fx\n",
              geomean);
  json.Key("geomean_speedup").Value(geomean);
  json.EndObject();

  const std::string path = "BENCH_simd.json";
  const Status status = WriteTextFile(path, json.TakeString());
  if (status.ok()) {
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
  }
}

}  // namespace
}  // namespace coskq

int main() {
  coskq::Run();
  return 0;
}
