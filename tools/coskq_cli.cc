// coskq_cli — command-line front end for the library.
//
// Subcommands:
//   generate <preset|objects> <out.txt> [--scale S] [--seed N]
//            [--augment-to N]
//       Writes a synthetic dataset ("hotel"/"gn"/"web" presets at the given
//       scale, or a plain object count) in the text format. --augment-to
//       grows the generated base to N objects the way the paper's
//       scalability experiment grows GN (location and keyword donors drawn
//       from the base), stream-written so memory stays bounded by the base
//       size even at 10M objects.
//   query <dataset.txt> <solver> <x> <y> <kw> [kw...]
//       Loads a dataset, builds the IR-tree, runs one query, prints the set.
//   batch <dataset.txt> <solver> <queries> <keywords>
//         [--threads N] [--seed S] [--deadline-ms D] [--no-masks]
//         [--index-snapshot PATH] [--cold] [--memory-budget BYTES]
//         [--drop-page-cache]
//       Generates a random query batch the paper's way and executes it on
//       the parallel BatchEngine (N worker threads; 0 or omitted = all
//       hardware threads), printing the aggregate latency stats (p50/p95/
//       p99), throughput, and the distance-memo hit counters. --no-masks
//       runs the pre-mask baseline hot path (A/B comparison). With
//       --index-snapshot, --cold maps the snapshot out-of-core (pages fault
//       in on demand), --memory-budget caps the body's resident bytes
//       (implies --cold), --drop-page-cache evicts the file cache first so
//       the run starts from disk; the residency/page-fault counters are
//       printed after the batch, followed by the range-retrieval counters
//       (calls answered from the posting file vs the tree walk).
//   serve <dataset.txt> [--port P] [--workers N] [--queue-cap Q]
//         [--max-deadline-ms D] [--port-file PATH] [--index-snapshot PATH]
//         [--enable-mutations] [--refreeze-threshold T]
//         [--mutation-capacity C]
//       Loads the dataset, builds the IR-tree (or mmap-loads a prebuilt
//       snapshot; see `index build`), and serves the CoSKQ wire protocol
//       (QUERY/STATS/PING, plus MUTATE with --enable-mutations) on
//       127.0.0.1:P (P = 0 binds an ephemeral port; --port-file writes the
//       bound port for scripts). Live mutations go into the index's delta
//       and a background refreeze folds them into a fresh frozen body once
//       the delta reaches T pending entries (--refreeze-threshold, 0 = never;
//       --mutation-capacity caps lifetime inserts). Drains gracefully on
//       SIGTERM/SIGINT and prints the final stats.
//   index build <dataset.txt> <out.cqix> [--max-entries M]
//         [--layout <bfs|level-grouped>]
//       Builds the IR-tree once and writes the frozen flat representation
//       as a versioned snapshot, so `batch`/`serve --index-snapshot` can
//       skip the build on every start. --layout level-grouped emits the
//       page-local body layout (fewest pages per parent expansion; the
//       right choice for cold/out-of-core serving).
//   index inspect <snapshot.cqix>
//       Validates a snapshot (header, checksum) and prints its fields,
//       including the body layout and a per-section byte/page breakdown.
//   shard build <dataset.txt> <outdir> [--shards K] [--max-entries M]
//         [--layout <bfs|level-grouped>]
//       STR-partitions the dataset into K spatial shards, writes each
//       shard's dataset file and frozen index snapshot into <outdir>, and
//       writes the versioned cluster manifest (cluster.cqmf) binding them
//       together (per-shard MBRs, keyword Bloom signatures, id maps,
//       checksums). Each shard is then served by a plain `serve` process.
//   route <manifest.cqmf> --shard HOST:PORT [--shard HOST:PORT ...]
//         [--port P] [--port-file PATH] [--no-distance-prune]
//         [--connect-timeout-ms T] [--io-timeout-ms T] [--connect-retries N]
//       Serves the wire protocol as a scatter-gather router over the shard
//       servers (one --shard per manifest shard, in shard-id order; a bare
//       port means 127.0.0.1). Answers are bit-identical to a single server
//       over the whole dataset; shards that cannot contribute are pruned by
//       keyword signature and, for exact solvers, by the distance-owner
//       MINDIST bound. Drains gracefully on SIGTERM/SIGINT and prints the
//       final routing stats.
//   solvers
//       Lists the solver registry names.
//
// Examples:
//   coskq_cli generate hotel /tmp/hotel.txt --scale 1
//   coskq_cli query /tmp/hotel.txt maxsum-exact 0.4 0.6 t1 t5 t9
//   coskq_cli batch /tmp/hotel.txt maxsum-appro 500 6 --threads 8
//   coskq_cli index build /tmp/hotel.txt /tmp/hotel.cqix
//   coskq_cli serve /tmp/hotel.txt --port 7311 --index-snapshot /tmp/hotel.cqix
//   coskq_cli shard build /tmp/hotel.txt /tmp/cluster --shards 4
//   coskq_cli route /tmp/cluster/cluster.cqmf --port 7310 --shard 7311
//       --shard 7312 --shard 7313 --shard 7314

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/manifest.h"
#include "cluster/partitioner.h"
#include "cluster/router.h"
#include "core/solvers.h"
#include "data/augment.h"
#include "data/dataset.h"
#include "data/query_gen.h"
#include "data/synthetic.h"
#include "engine/batch_engine.h"
#include "index/frozen_layout.h"
#include "index/irtree.h"
#include "index/snapshot.h"
#include "server/client.h"
#include "server/server.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace coskq {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  coskq_cli generate <hotel|gn|web|COUNT> <out.txt> "
               "[--scale S] [--seed N] [--augment-to N]\n"
               "  coskq_cli query <dataset.txt> <solver> <x> <y> <kw...>\n"
               "  coskq_cli batch <dataset.txt> <solver> <queries> "
               "<keywords>\n"
               "            [--threads N] [--seed S] [--deadline-ms D] "
               "[--no-masks]\n"
               "            [--index-snapshot PATH] [--cold] "
               "[--memory-budget BYTES] [--drop-page-cache]\n"
               "  coskq_cli serve <dataset.txt> [--port P] [--workers N] "
               "[--queue-cap Q]\n"
               "            [--max-deadline-ms D] [--port-file PATH] "
               "[--index-snapshot PATH]\n"
               "            [--enable-mutations] [--refreeze-threshold T] "
               "[--mutation-capacity C]\n"
               "            [--result-cache-mb MB] [--cache-cell-bits B]\n"
               "  coskq_cli index build <dataset.txt> <out.cqix> "
               "[--max-entries M] [--layout <bfs|level-grouped>]\n"
               "  coskq_cli index inspect <snapshot.cqix>\n"
               "  coskq_cli shard build <dataset.txt> <outdir> [--shards K]\n"
               "            [--max-entries M] [--layout <bfs|level-grouped>]\n"
               "  coskq_cli route <manifest.cqmf> --shard HOST:PORT "
               "[--shard HOST:PORT ...]\n"
               "            [--port P] [--port-file PATH] "
               "[--no-distance-prune]\n"
               "            [--connect-timeout-ms T] [--io-timeout-ms T] "
               "[--connect-retries N]\n"
               "            [--result-cache-mb MB] [--cache-cell-bits B]\n"
               "  coskq_cli stats <host> <port>\n"
               "  coskq_cli solvers\n");
  return 2;
}

// Writes "<port>\n" to `path` atomically (temp file + rename) so a watcher
// polling the path never observes a partially written file.
bool WritePortFileAtomic(const std::string& path, uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool wrote = std::fprintf(f, "%u\n", port) > 0;
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote || !flushed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

int RunGenerate(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    return Usage();
  }
  double scale = 0.01;
  uint64_t seed = 1;
  uint64_t augment_to = 0;
  for (size_t i = 2; i + 1 < args.size(); i += 2) {
    if (args[i] == "--scale") {
      ParseDouble(args[i + 1], &scale);
    } else if (args[i] == "--seed") {
      ParseUint64(args[i + 1], &seed);
    } else if (args[i] == "--augment-to") {
      if (!ParseUint64(args[i + 1], &augment_to)) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  SyntheticSpec spec;
  if (args[0] == "hotel") {
    spec = HotelLikeSpec(scale);
  } else if (args[0] == "gn") {
    spec = GnLikeSpec(scale);
  } else if (args[0] == "web") {
    spec = WebLikeSpec(scale);
  } else {
    uint64_t count = 0;
    if (!ParseUint64(args[0], &count) || count == 0) {
      return Usage();
    }
    spec.num_objects = count;
    spec.vocab_size = std::max<size_t>(50, count / 10);
  }
  Rng rng(seed);
  const Dataset dataset = GenerateSynthetic(spec, &rng);
  Status status;
  size_t written = dataset.NumObjects();
  if (augment_to > dataset.NumObjects()) {
    status = StreamAugmentedToFile(dataset, augment_to, &rng, args[1]);
    written = augment_to;
  } else {
    status = dataset.SaveToFile(args[1]);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::string base_note;
  if (augment_to > dataset.NumObjects()) {
    base_note = ", base " + FormatWithCommas(dataset.NumObjects());
  }
  std::printf("wrote %s objects (%s unique words%s) to %s\n",
              FormatWithCommas(written).c_str(),
              FormatWithCommas(dataset.vocabulary().size()).c_str(),
              base_note.c_str(), args[1].c_str());
  return 0;
}

int RunQuery(const std::vector<std::string>& args) {
  if (args.size() < 5) {
    return Usage();
  }
  StatusOr<Dataset> loaded = Dataset::LoadFromFile(args[0]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  Dataset dataset = std::move(loaded).value();
  WallTimer build_timer;
  IrTree index(&dataset);
  CoskqContext context{&dataset, &index};
  std::printf("loaded %s objects, IR-tree built in %.1f ms\n",
              FormatWithCommas(dataset.NumObjects()).c_str(),
              build_timer.ElapsedMillis());

  auto solver = MakeSolver(args[1], context);
  if (solver == nullptr) {
    std::fprintf(stderr, "unknown solver '%s'; try 'coskq_cli solvers'\n",
                 args[1].c_str());
    return 1;
  }
  CoskqQuery query;
  if (!ParseDouble(args[2], &query.location.x) ||
      !ParseDouble(args[3], &query.location.y)) {
    return Usage();
  }
  for (size_t i = 4; i < args.size(); ++i) {
    const TermId t = dataset.vocabulary().Find(args[i]);
    if (t == Vocabulary::kInvalidTermId) {
      std::fprintf(stderr, "keyword '%s' does not occur in the dataset\n",
                   args[i].c_str());
      return 1;
    }
    query.keywords.push_back(t);
  }
  NormalizeTermSet(&query.keywords);

  const CoskqResult result = solver->Solve(query);
  if (!result.feasible) {
    std::printf("infeasible: some keyword matches no object\n");
    return 0;
  }
  std::printf("%s: cost %.6f in %.2f ms (%llu candidates)\n",
              solver->name().c_str(), result.cost, result.stats.elapsed_ms,
              static_cast<unsigned long long>(result.stats.candidates));
  for (ObjectId id : result.set) {
    const SpatialObject& obj = dataset.object(id);
    std::printf("  #%u (%.6f, %.6f)", obj.id, obj.location.x,
                obj.location.y);
    for (TermId t : obj.keywords) {
      std::printf(" %s", dataset.vocabulary().TermString(t).c_str());
    }
    std::printf("\n");
  }
  return 0;
}

/// Builds the IR-tree in-process (then freezes it) or loads it from a
/// snapshot when `snapshot_path` is non-empty (honouring `load_options` —
/// cold/out-of-core mapping, memory budget). Prints the prepare timing and
/// reports it (plus provenance) through the out-parameters.
std::unique_ptr<IrTree> PrepareIndex(const Dataset& dataset,
                                     const std::string& snapshot_path,
                                     const SnapshotLoadOptions& load_options,
                                     double* prepare_ms, bool* from_snapshot) {
  WallTimer timer;
  std::unique_ptr<IrTree> index;
  if (snapshot_path.empty()) {
    index = std::make_unique<IrTree>(&dataset);
    index->Freeze();
    *from_snapshot = false;
  } else {
    StatusOr<std::unique_ptr<IrTree>> loaded =
        LoadSnapshot(&dataset, snapshot_path, load_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   loaded.status().ToString().c_str());
      return nullptr;
    }
    index = std::move(loaded).value();
    *from_snapshot = true;
  }
  *prepare_ms = timer.ElapsedMillis();
  std::printf("loaded %s objects, IR-tree %s in %.1f ms\n",
              FormatWithCommas(dataset.NumObjects()).c_str(),
              *from_snapshot ? "snapshot-loaded" : "built", *prepare_ms);
  return index;
}

/// Prints the out-of-core counters after a batch (what the CI smoke greps
/// for: page-fault counters must be present on budget-capped runs).
void PrintMemoryStats(const IrTree& index) {
  const IndexMemoryStats mem = index.MemoryStats();
  std::printf(
      "index memory: layout=%s %s body=%s resident=%s major_faults=%llu "
      "minor_faults=%llu",
      FrozenLayoutName(mem.layout), mem.cold ? "cold" : "warm",
      FormatWithCommas(mem.body_bytes).c_str(),
      FormatWithCommas(mem.body_resident_bytes).c_str(),
      static_cast<unsigned long long>(mem.major_faults),
      static_cast<unsigned long long>(mem.minor_faults));
  if (mem.memory_budget_bytes > 0) {
    std::printf(" budget=%s trims=%llu",
                FormatWithCommas(mem.memory_budget_bytes).c_str(),
                static_cast<unsigned long long>(mem.budget_trims));
  }
  std::printf("\n");
}

/// Prints how the frozen body answered range retrievals (posting file vs
/// tree walk) and the entries each examined.
void PrintRangeStats(const IrTree& index) {
  const RangeRetrievalStats range = index.range_stats();
  const auto per_call = [](uint64_t entries, uint64_t calls) {
    return calls == 0 ? 0.0
                      : static_cast<double>(entries) /
                            static_cast<double>(calls);
  };
  std::printf(
      "range retrieval: postings calls=%llu entries=%llu (%.1f/call) "
      "tree calls=%llu entries=%llu (%.1f/call)\n",
      static_cast<unsigned long long>(range.posting_calls),
      static_cast<unsigned long long>(range.posting_entries),
      per_call(range.posting_entries, range.posting_calls),
      static_cast<unsigned long long>(range.tree_calls),
      static_cast<unsigned long long>(range.tree_entries),
      per_call(range.tree_entries, range.tree_calls));
}

int RunBatch(const std::vector<std::string>& args) {
  if (args.size() < 4) {
    return Usage();
  }
  uint64_t num_queries = 0;
  uint64_t num_keywords = 0;
  if (!ParseUint64(args[2], &num_queries) || num_queries == 0 ||
      !ParseUint64(args[3], &num_keywords) || num_keywords == 0) {
    return Usage();
  }
  uint64_t seed = 1;
  uint64_t threads = 0;
  double deadline_ms = 0.0;
  bool use_query_masks = true;
  std::string snapshot_path;
  SnapshotLoadOptions load_options;
  for (size_t i = 4; i < args.size();) {
    if (args[i] == "--no-masks") {
      use_query_masks = false;
      ++i;
      continue;
    }
    if (args[i] == "--cold") {
      load_options.cold = true;
      ++i;
      continue;
    }
    if (args[i] == "--drop-page-cache") {
      load_options.drop_page_cache = true;
      ++i;
      continue;
    }
    if (i + 1 >= args.size()) {
      return Usage();
    }
    if (args[i] == "--threads") {
      if (!ParseUint64(args[i + 1], &threads)) {
        return Usage();
      }
    } else if (args[i] == "--seed") {
      if (!ParseUint64(args[i + 1], &seed)) {
        return Usage();
      }
    } else if (args[i] == "--deadline-ms") {
      if (!ParseDouble(args[i + 1], &deadline_ms)) {
        return Usage();
      }
    } else if (args[i] == "--index-snapshot") {
      snapshot_path = args[i + 1];
    } else if (args[i] == "--memory-budget") {
      if (!ParseUint64(args[i + 1], &load_options.memory_budget_bytes)) {
        return Usage();
      }
    } else {
      return Usage();
    }
    i += 2;
  }
  if ((load_options.cold || load_options.memory_budget_bytes != 0 ||
       load_options.drop_page_cache) &&
      snapshot_path.empty()) {
    std::fprintf(stderr,
                 "--cold/--memory-budget/--drop-page-cache require "
                 "--index-snapshot\n");
    return Usage();
  }

  StatusOr<Dataset> loaded = Dataset::LoadFromFile(args[0]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  Dataset dataset = std::move(loaded).value();
  double prepare_ms = 0.0;
  bool from_snapshot = false;
  std::unique_ptr<IrTree> index = PrepareIndex(
      dataset, snapshot_path, load_options, &prepare_ms, &from_snapshot);
  if (index == nullptr) {
    return 1;
  }
  CoskqContext context{&dataset, index.get()};

  QueryGenerator gen(&dataset);
  Rng rng(seed);
  std::vector<CoskqQuery> queries;
  queries.reserve(num_queries);
  for (uint64_t i = 0; i < num_queries; ++i) {
    queries.push_back(gen.Generate(num_keywords, &rng));
  }

  BatchOptions options;
  options.solver_name = args[1];
  options.num_threads = static_cast<int>(threads);
  options.deadline_ms = deadline_ms;
  options.use_query_masks = use_query_masks;
  BatchEngine engine(context, options);
  const BatchOutcome outcome = engine.Run(queries);
  if (!outcome.status.ok()) {
    std::fprintf(stderr, "error: %s\n", outcome.status.ToString().c_str());
    return 1;
  }
  std::printf("%s x %llu queries (|q.psi|=%llu, seed %llu)\n",
              args[1].c_str(),
              static_cast<unsigned long long>(num_queries),
              static_cast<unsigned long long>(num_keywords),
              static_cast<unsigned long long>(seed));
  std::printf("%s\n", outcome.stats.ToString().c_str());
  PrintMemoryStats(*index);
  PrintRangeStats(*index);
  return 0;
}

int RunServe(const std::vector<std::string>& args) {
  if (args.empty()) {
    return Usage();
  }
  ServerOptions options;
  options.num_workers = 0;  // All hardware threads by default.
  std::string port_file;
  std::string snapshot_path;
  for (size_t i = 1; i < args.size();) {
    if (args[i] == "--enable-mutations") {
      options.enable_mutations = true;
      ++i;
      continue;
    }
    if (i + 1 >= args.size()) {
      return Usage();
    }
    uint64_t value = 0;
    if (args[i] == "--port") {
      if (!ParseUint64(args[i + 1], &value) || value > 65535) {
        return Usage();
      }
      options.port = static_cast<uint16_t>(value);
    } else if (args[i] == "--workers") {
      if (!ParseUint64(args[i + 1], &value)) {
        return Usage();
      }
      options.num_workers = static_cast<int>(value);
    } else if (args[i] == "--queue-cap") {
      if (!ParseUint64(args[i + 1], &value) || value == 0) {
        return Usage();
      }
      options.queue_capacity = value;
    } else if (args[i] == "--max-deadline-ms") {
      if (!ParseDouble(args[i + 1], &options.max_deadline_ms)) {
        return Usage();
      }
    } else if (args[i] == "--port-file") {
      port_file = args[i + 1];
    } else if (args[i] == "--index-snapshot") {
      snapshot_path = args[i + 1];
    } else if (args[i] == "--refreeze-threshold") {
      if (!ParseUint64(args[i + 1], &value)) {
        return Usage();
      }
      options.refreeze_threshold = value;
    } else if (args[i] == "--mutation-capacity") {
      if (!ParseUint64(args[i + 1], &value) || value == 0) {
        return Usage();
      }
      options.mutation_capacity = value;
    } else if (args[i] == "--result-cache-mb") {
      if (!ParseUint64(args[i + 1], &value)) {
        return Usage();
      }
      options.result_cache_mb = value;
    } else if (args[i] == "--cache-cell-bits") {
      if (!ParseUint64(args[i + 1], &value) || value > 52) {
        return Usage();
      }
      options.cache_cell_bits = static_cast<int>(value);
    } else {
      return Usage();
    }
    i += 2;
  }

  StatusOr<Dataset> loaded = Dataset::LoadFromFile(args[0]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  Dataset dataset = std::move(loaded).value();
  double prepare_ms = 0.0;
  bool from_snapshot = false;
  std::unique_ptr<IrTree> index =
      PrepareIndex(dataset, snapshot_path, SnapshotLoadOptions(),
                   &prepare_ms, &from_snapshot);
  if (index == nullptr) {
    return 1;
  }
  CoskqContext context{&dataset, index.get()};
  options.index_from_snapshot = from_snapshot;
  options.index_prepare_ms = prepare_ms;
  options.index_nodes = index->NodeCount();
  // Checksum before enabling mutations: the digest names the base corpus the
  // index was built over (live appends deliberately do not change it).
  options.index_checksum = dataset.ContentChecksum();
  if (options.enable_mutations) {
    options.mutable_dataset = &dataset;
    options.mutable_index = index.get();
  }

  CoskqServer server(context, options);
  const Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  CoskqServer::InstallSignalHandlers(&server);
  if (!port_file.empty() && !WritePortFileAtomic(port_file, server.port())) {
    std::fprintf(stderr, "warning: could not write port file %s\n",
                 port_file.c_str());
  }
  std::printf("serving on %s:%u (workers=%d queue=%zu); SIGTERM drains\n",
              options.host.c_str(), server.port(), options.num_workers,
              options.queue_capacity);
  std::fflush(stdout);
  server.Wait();
  std::printf("drained: %s\n", server.stats().ToString().c_str());
  return 0;
}

int RunIndexBuild(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    return Usage();
  }
  IrTree::Options tree_options;
  for (size_t i = 2; i + 1 < args.size(); i += 2) {
    if (args[i] == "--max-entries") {
      uint64_t value = 0;
      if (!ParseUint64(args[i + 1], &value) || value < 4 || value > 65535) {
        return Usage();
      }
      tree_options.max_entries = static_cast<int>(value);
    } else if (args[i] == "--layout") {
      if (!FrozenLayoutFromName(args[i + 1], &tree_options.frozen_layout)) {
        std::fprintf(stderr, "unknown layout '%s' (bfs, level-grouped)\n",
                     args[i + 1].c_str());
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  StatusOr<Dataset> loaded = Dataset::LoadFromFile(args[0]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  Dataset dataset = std::move(loaded).value();
  WallTimer build_timer;
  IrTree index(&dataset, tree_options);
  index.Freeze();
  const double build_ms = build_timer.ElapsedMillis();
  WallTimer save_timer;
  const Status status = SaveSnapshot(&index, args[1]);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  auto info = ReadSnapshotInfo(args[1]);
  if (!info.ok()) {
    std::fprintf(stderr, "error: %s\n", info.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "built IR-tree over %s objects in %.1f ms; wrote %s bytes to %s "
      "in %.1f ms (%s nodes, height %u, layout %s)\n",
      FormatWithCommas(dataset.NumObjects()).c_str(), build_ms,
      FormatWithCommas(info->file_bytes).c_str(), args[1].c_str(),
      save_timer.ElapsedMillis(), FormatWithCommas(info->num_nodes).c_str(),
      info->height, FrozenLayoutName(info->layout));
  return 0;
}

int RunIndexInspect(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    return Usage();
  }
  WallTimer timer;
  auto info = ReadSnapshotInfo(args[0]);
  if (!info.ok()) {
    std::fprintf(stderr, "error: %s\n", info.status().ToString().c_str());
    return 1;
  }
  std::printf("snapshot %s (validated in %.1f ms)\n", args[0].c_str(),
              timer.ElapsedMillis());
  std::printf("  version          %u\n", info->version);
  std::printf("  dataset checksum %016llx\n",
              static_cast<unsigned long long>(info->dataset_checksum));
  std::printf("  objects          %s\n",
              FormatWithCommas(info->num_objects).c_str());
  std::printf("  max entries      %u\n", info->max_entries);
  std::printf("  nodes            %s\n",
              FormatWithCommas(info->num_nodes).c_str());
  std::printf("  leaf entries     %s\n",
              FormatWithCommas(info->num_leaf_entries).c_str());
  std::printf("  term arena       %s ids\n",
              FormatWithCommas(info->num_terms).c_str());
  std::printf("  posting lists    %s (%s entries)\n",
              FormatWithCommas(info->num_post_terms).c_str(),
              FormatWithCommas(info->num_postings).c_str());
  std::printf("  height           %u\n", info->height);
  std::printf("  layout           %s\n", FrozenLayoutName(info->layout));
  std::printf("  header bytes     %s\n",
              FormatWithCommas(info->header_bytes).c_str());
  constexpr uint64_t kPage = 4096;
  const auto pages = [](uint64_t bytes) { return (bytes + kPage - 1) / kPage; };
  std::printf("  body bytes       %s (%s pages)\n",
              FormatWithCommas(info->body_bytes).c_str(),
              FormatWithCommas(pages(info->body_bytes)).c_str());
  std::printf("  file bytes       %s\n",
              FormatWithCommas(info->file_bytes).c_str());

  if (info->version < kSnapshotVersion) {
    // v1/v2 bodies hold per-object keyword spans; loading converts them.
    std::printf("  body sections: v%u keyword-span body (converted to the "
                "v%u posting layout on load)\n",
                info->version, kSnapshotVersion);
    return 0;
  }
  // Per-section breakdown, recomputed from the header counts exactly as the
  // loader lays the body out.
  using internal_index::BodyLayout;
  const BodyLayout lay = BodyLayout::Make(
      info->layout,
      internal_index::BodyCounts{info->num_nodes, info->num_leaf_entries,
                                 info->num_terms, info->num_post_terms,
                                 info->num_postings});
  const auto section = [&](const char* name, uint64_t begin, uint64_t end) {
    std::printf("    %-15s %12s bytes %8s pages\n", name,
                FormatWithCommas(end - begin).c_str(),
                FormatWithCommas(pages(end - begin)).c_str());
  };
  std::printf("  body sections (%s node region):\n",
              info->layout == FrozenLayout::kLevelGrouped
                  ? "page-group interleaved"
                  : "per-lane");
  section("node region", 0, lay.node_region_bytes);
  section("term arena", lay.terms_off, lay.leaf_ids_off);
  section("leaf ids", lay.leaf_ids_off, lay.leaf_x_off);
  section("leaf x", lay.leaf_x_off, lay.leaf_y_off);
  section("leaf y", lay.leaf_y_off, lay.leaf_sigs_off);
  section("leaf sigs", lay.leaf_sigs_off, lay.post_begin_off);
  section("post begin", lay.post_begin_off, lay.post_entries_off);
  section("post entries", lay.post_entries_off, lay.total_bytes);
  return 0;
}

int RunShardBuild(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    return Usage();
  }
  BuildClusterOptions options;
  for (size_t i = 2; i + 1 < args.size(); i += 2) {
    if (args[i] == "--shards") {
      uint64_t value = 0;
      if (!ParseUint64(args[i + 1], &value) || value == 0 || value > 65536) {
        return Usage();
      }
      options.num_shards = static_cast<uint32_t>(value);
    } else if (args[i] == "--max-entries") {
      uint64_t value = 0;
      if (!ParseUint64(args[i + 1], &value) || value < 4 || value > 65535) {
        return Usage();
      }
      options.max_entries = static_cast<int>(value);
    } else if (args[i] == "--layout") {
      if (!FrozenLayoutFromName(args[i + 1], &options.layout)) {
        std::fprintf(stderr, "unknown layout '%s' (bfs, level-grouped)\n",
                     args[i + 1].c_str());
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  StatusOr<Dataset> loaded = Dataset::LoadFromFile(args[0]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const Dataset dataset = std::move(loaded).value();
  mkdir(args[1].c_str(), 0755);  // best-effort; BuildShardedCluster reports
  WallTimer timer;
  StatusOr<ClusterManifest> built =
      BuildShardedCluster(dataset, args[1], options);
  if (!built.ok()) {
    std::fprintf(stderr, "error: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const ClusterManifest& manifest = built.value();
  std::printf(
      "sharded %s objects into %u shards in %.1f ms (manifest %s/%s, "
      "checksum %016llx)\n",
      FormatWithCommas(manifest.total_objects).c_str(), options.num_shards,
      timer.ElapsedMillis(), args[1].c_str(), kManifestFileName,
      static_cast<unsigned long long>(manifest.file_checksum));
  for (const ShardManifestEntry& shard : manifest.shards) {
    std::printf(
        "  shard %u: %s objects, mbr [%.6g,%.6g]x[%.6g,%.6g], %s (%s bytes)\n",
        shard.shard_id, FormatWithCommas(shard.num_objects).c_str(),
        shard.mbr.min_x, shard.mbr.max_x, shard.mbr.min_y, shard.mbr.max_y,
        shard.snapshot_file.c_str(),
        FormatWithCommas(shard.snapshot_bytes).c_str());
  }
  return 0;
}

// "HOST:PORT" or bare "PORT" (host defaults to loopback).
bool ParseShardAddress(const std::string& spec, ShardAddress* out) {
  ShardAddress addr;
  std::string port_text = spec;
  const size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    if (colon == 0 || colon + 1 == spec.size()) {
      return false;
    }
    addr.host = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
  }
  uint64_t port = 0;
  if (!ParseUint64(port_text, &port) || port == 0 || port > 65535) {
    return false;
  }
  addr.port = static_cast<uint16_t>(port);
  *out = addr;
  return true;
}

int RunRoute(const std::vector<std::string>& args) {
  if (args.empty()) {
    return Usage();
  }
  RouterOptions options;
  std::string port_file;
  size_t i = 1;
  while (i < args.size()) {
    if (args[i] == "--no-distance-prune") {
      options.enable_distance_prune = false;
      ++i;
      continue;
    }
    if (i + 1 >= args.size()) {
      return Usage();
    }
    uint64_t value = 0;
    if (args[i] == "--shard") {
      ShardAddress addr;
      if (!ParseShardAddress(args[i + 1], &addr)) {
        std::fprintf(stderr, "bad --shard '%s' (want HOST:PORT or PORT)\n",
                     args[i + 1].c_str());
        return Usage();
      }
      options.shards.push_back(addr);
    } else if (args[i] == "--port") {
      if (!ParseUint64(args[i + 1], &value) || value > 65535) {
        return Usage();
      }
      options.port = static_cast<uint16_t>(value);
    } else if (args[i] == "--port-file") {
      port_file = args[i + 1];
    } else if (args[i] == "--connect-timeout-ms") {
      if (!ParseUint64(args[i + 1], &value)) {
        return Usage();
      }
      options.client_options.connect_timeout_ms = static_cast<int>(value);
    } else if (args[i] == "--io-timeout-ms") {
      if (!ParseUint64(args[i + 1], &value)) {
        return Usage();
      }
      options.client_options.io_timeout_ms = static_cast<int>(value);
    } else if (args[i] == "--connect-retries") {
      if (!ParseUint64(args[i + 1], &value) || value == 0) {
        return Usage();
      }
      options.client_options.max_connect_attempts = static_cast<int>(value);
    } else if (args[i] == "--result-cache-mb") {
      if (!ParseUint64(args[i + 1], &value)) {
        return Usage();
      }
      options.result_cache_mb = value;
    } else if (args[i] == "--cache-cell-bits") {
      if (!ParseUint64(args[i + 1], &value) || value > 52) {
        return Usage();
      }
      options.cache_cell_bits = static_cast<int>(value);
    } else {
      return Usage();
    }
    i += 2;
  }

  StatusOr<ClusterManifest> loaded = ClusterManifest::LoadFromFile(args[0]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const ClusterManifest manifest = std::move(loaded).value();
  if (options.shards.size() != manifest.shards.size()) {
    std::fprintf(stderr,
                 "error: manifest has %zu shards but %zu --shard flags given\n",
                 manifest.shards.size(), options.shards.size());
    return 1;
  }

  ClusterRouter router(manifest, options);
  const Status status = router.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  ClusterRouter::InstallSignalHandlers(&router);
  if (!port_file.empty() && !WritePortFileAtomic(port_file, router.port())) {
    std::fprintf(stderr, "warning: could not write port file %s\n",
                 port_file.c_str());
  }
  std::printf(
      "routing on %s:%u over %zu shards (%s objects, manifest %016llx); "
      "SIGTERM drains\n",
      options.host.c_str(), router.port(), manifest.shards.size(),
      FormatWithCommas(manifest.total_objects).c_str(),
      static_cast<unsigned long long>(manifest.file_checksum));
  std::fflush(stdout);
  router.Wait();
  std::printf("drained: %s\n", router.stats().ToString().c_str());
  return 0;
}

/// `coskq_cli stats HOST PORT`: one STATS round trip against a running
/// server or router, rendered through StatsReply::ToString — the v6 cache
/// block (hits/misses/evictions/invalidations/hit rate/resident bytes)
/// included when the target has a result cache.
int RunStats(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    return Usage();
  }
  uint64_t port = 0;
  if (!ParseUint64(args[1], &port) || port == 0 || port > 65535) {
    return Usage();
  }
  CoskqClient client;
  const Status connected =
      client.Connect(args[0], static_cast<uint16_t>(port));
  if (!connected.ok()) {
    std::fprintf(stderr, "error: %s\n", connected.ToString().c_str());
    return 1;
  }
  StatusOr<StatsReply> stats = client.Stats();
  if (!stats.ok()) {
    std::fprintf(stderr, "error: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", stats->ToString().c_str());
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "generate") {
    return RunGenerate(args);
  }
  if (command == "query") {
    return RunQuery(args);
  }
  if (command == "batch") {
    return RunBatch(args);
  }
  if (command == "serve") {
    return RunServe(args);
  }
  if (command == "index") {
    if (args.empty()) {
      return Usage();
    }
    const std::string sub = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (sub == "build") {
      return RunIndexBuild(rest);
    }
    if (sub == "inspect") {
      return RunIndexInspect(rest);
    }
    return Usage();
  }
  if (command == "shard") {
    if (args.empty() || args[0] != "build") {
      return Usage();
    }
    return RunShardBuild(std::vector<std::string>(args.begin() + 1,
                                                  args.end()));
  }
  if (command == "route") {
    return RunRoute(args);
  }
  if (command == "stats") {
    return RunStats(args);
  }
  if (command == "solvers") {
    for (const std::string& name : AvailableSolverNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  return Usage();
}

}  // namespace
}  // namespace coskq

int main(int argc, char** argv) { return coskq::Run(argc, argv); }
