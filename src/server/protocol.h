#ifndef COSKQ_SERVER_PROTOCOL_H_
#define COSKQ_SERVER_PROTOCOL_H_

#include <stdint.h>

#include <string>
#include <vector>

#include "core/cost.h"
#include "util/status.h"

namespace coskq {

/// The CoSKQ wire protocol: length-prefixed binary frames over TCP, all
/// integers and doubles little-endian.
///
/// Frame layout (header is kFrameHeaderBytes, payload follows immediately):
///
///   offset  size  field
///   0       2     magic       0x4351 ("QC" on the wire)
///   2       1     version     kProtocolVersion
///   3       1     verb        Verb enumerator
///   4       4     request_id  echoed verbatim in the response frame
///   8       4     payload_len bytes after the header, <= kMaxPayloadBytes
///
/// A connection carries independent request/response pairs matched by
/// request_id; the server answers QUERY frames out of order with respect to
/// PING/STATS (which never enter the admission queue), so clients that
/// pipeline must match on request_id, not arrival order.

inline constexpr uint16_t kProtocolMagic = 0x4351;
/// Version 2 extended StatsReply with index-provenance fields (snapshot vs
/// rebuild, prepare time, node count, dataset checksum). Version 3 added the
/// MUTATE verb (live index updates) and the live-update StatsReply fields
/// (index epoch, delta size, mutation/refreeze counters). Version 4 added
/// the out-of-core StatsReply fields (frozen body layout, cold mapping,
/// residency/budget counters, page faults). Version 5 added the cluster
/// layer: the RELEVANT verb (per-shard candidate harvest, chunked replies)
/// and the router StatsReply fields (shard manifest identity, fan-out and
/// prune counters, per-shard latency). Version 6 added the result-cache
/// StatsReply tail (hit/miss/evict/invalidate counters, resident and budget
/// bytes, entry count) behind the shard-stats array.
inline constexpr uint8_t kProtocolVersion = 6;
inline constexpr size_t kFrameHeaderBytes = 12;
/// Upper bound on a frame payload. A QUERY is a handful of keywords and a
/// RESULT a handful of object ids, so 1 MiB is generous; anything larger is
/// a corrupt or hostile stream and is rejected before buffering.
inline constexpr size_t kMaxPayloadBytes = 1u << 20;

/// Frame verbs. Requests are 1..15, responses 17..31 so a stray response
/// fed to the server (or vice versa) is caught at dispatch.
enum class Verb : uint8_t {
  kQuery = 1,
  kStats = 2,
  kPing = 3,
  kMutate = 4,
  kRelevant = 5,
  kResult = 17,
  kStatsReply = 18,
  kPong = 19,
  kOverloaded = 20,
  kError = 21,
  kMutateReply = 22,
  kRelevantReply = 23,
};

/// True iff `v` holds a defined Verb enumerator.
bool IsKnownVerb(uint8_t v);

/// One decoded frame: the header fields plus the raw payload bytes.
struct Frame {
  Verb verb = Verb::kPing;
  uint32_t request_id = 0;
  std::string payload;
};

/// Encodes a complete frame (header + payload) ready to write to a socket.
std::string EncodeFrame(Verb verb, uint32_t request_id,
                        const std::string& payload);

/// As EncodeFrame, but stamps an explicit version byte. Used by the server
/// to answer a version-mismatched client in the client's own version, so the
/// peer can decode the error instead of discarding the frame.
std::string EncodeFrameWithVersion(uint8_t version, Verb verb,
                                   uint32_t request_id,
                                   const std::string& payload);

/// Solver families selectable over the wire. Combined with the CostType a
/// family names one registry solver (see SolverRegistryName).
enum class SolverKind : uint8_t {
  kExact = 0,
  kAppro = 1,
  kCaoExact = 2,
  kCaoAppro1 = 3,
  kCaoAppro2 = 4,
  kBruteForce = 5,
};

/// Maps (kind, cost) to the MakeSolver registry name, e.g.
/// (kAppro, kMaxSum) -> "maxsum-appro". Returns an empty string for an
/// out-of-range kind byte.
std::string SolverRegistryName(SolverKind kind, CostType cost);

/// QUERY payload: the query location and keywords (as strings — the server
/// owns the vocabulary interning), the solver selection, and the per-request
/// deadline propagated into BatchOptions::deadline_ms (0 = none).
struct QueryRequest {
  double x = 0.0;
  double y = 0.0;
  CostType cost_type = CostType::kMaxSum;
  SolverKind solver = SolverKind::kAppro;
  double deadline_ms = 0.0;
  std::vector<std::string> keywords;
};

/// MUTATE payload (protocol v3): one live index update. Inserts carry a
/// location and string keywords (which must already exist in the server's
/// vocabulary — the vocabulary is the trust boundary: anonymous writers may
/// place objects, not grow the term space); removes carry the object id.
struct MutateRequest {
  enum class Op : uint8_t { kInsert = 0, kRemove = 1 };
  Op op = Op::kInsert;
  // kInsert fields.
  double x = 0.0;
  double y = 0.0;
  std::vector<std::string> keywords;
  // kRemove field.
  uint32_t object_id = 0;
};

/// MUTATE_REPLY payload. The reply is sent only after the mutation is
/// applied to the index, so a QUERY issued after receiving it observes the
/// update (acked-write freshness).
struct MutateReply {
  /// Id of the inserted object, or the removed id echoed back.
  uint32_t object_id = 0;
  /// Pending delta mutations after this one (what the refreeze threshold
  /// watches).
  uint64_t delta_size = 0;
  /// Index epoch at reply time (bumped by every background refreeze swap).
  uint64_t epoch = 0;
};

/// Keyword-position masks in a RELEVANT reply are a single uint64, so a
/// harvest request carries at most this many keywords. (Far above any paper
/// query; the router splits a wider canonical keyword set into multiple
/// RELEVANT harvests of this size and ORs the per-chunk masks, so QUERY
/// itself has no keyword limit beyond the u16 wire count.)
inline constexpr size_t kMaxRelevantKeywords = 64;

/// RELEVANT payload (protocol v5): asks a shard server for every object
/// whose keyword set intersects `keywords`. This is the router's candidate
/// harvest — the scatter half of scatter-gather. Keywords are strings (the
/// shard owns its own interning); a keyword unknown to the shard simply
/// matches nothing, it is not an error (shards hold vocabulary subsets).
/// The keyword order is the mask-bit order of the reply entries, so the
/// router sends them in a canonical order (ascending global term id).
struct RelevantRequest {
  std::vector<std::string> keywords;
};

/// One harvested object in a RELEVANT_REPLY chunk.
struct RelevantEntry {
  /// Shard-local object id (the router maps it to a global id through the
  /// manifest).
  uint32_t object_id = 0;
  double x = 0.0;
  double y = 0.0;
  /// Bit i set iff the object contains keywords[i] of the request.
  uint64_t keyword_mask = 0;
};

/// RELEVANT_REPLY payload. A harvest larger than one frame is streamed as
/// multiple chunks with the same request id; every chunk but the last sets
/// `more`. Entries are in ascending object-id order across the whole stream.
struct RelevantReply {
  uint8_t more = 0;
  std::vector<RelevantEntry> objects;
};

/// Entries per RELEVANT_REPLY chunk: 8192 entries x 28 bytes is ~229 KiB,
/// comfortably under kMaxPayloadBytes while keeping chunk count low.
inline constexpr size_t kRelevantChunkEntries = 8192;

/// Solver outcome reported in a RESULT payload.
enum class QueryOutcome : uint8_t {
  /// Solved to completion.
  kExecuted = 0,
  /// The per-request deadline fired; the reply carries the incumbent.
  kDeadlineTruncated = 1,
  /// Some query keyword matches no object; the set is empty, cost +inf.
  kInfeasible = 2,
};

/// RESULT payload.
struct QueryResult {
  QueryOutcome outcome = QueryOutcome::kExecuted;
  double cost = 0.0;
  /// Server-side solve time (solver-reported elapsed_ms).
  double solve_ms = 0.0;
  std::vector<uint32_t> set;
};

/// OVERLOADED payload: the admission queue was full. The client should back
/// off for ~retry_after_ms before retrying; queue_depth is informational.
struct OverloadedReply {
  uint32_t retry_after_ms = 0;
  uint32_t queue_depth = 0;
};

/// ERROR payload: a Status the server could not express as a RESULT
/// (malformed request payload, unknown solver, invalid deadline, draining).
struct ErrorReply {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

/// STATS payload: a point-in-time snapshot of the server counters and the
/// service-latency distribution (arrival to response enqueue) over the most
/// recent window.
struct StatsReply {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t queries_received = 0;
  uint64_t queries_executed = 0;
  uint64_t queries_shed = 0;
  uint64_t queries_truncated = 0;
  uint64_t queries_infeasible = 0;
  uint64_t queries_errored = 0;
  uint64_t queries_active = 0;
  uint64_t queue_depth = 0;
  double uptime_s = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;

  // Index provenance (filled from ServerOptions by the host process): how
  // the IR-tree this server answers from came to be.
  /// 1 if the index was loaded from a snapshot file, 0 if built in-process.
  uint8_t index_from_snapshot = 0;
  /// Wall time of that build or load, in milliseconds.
  double index_prepare_ms = 0.0;
  /// Node count of the serving IR-tree.
  uint64_t index_nodes = 0;
  /// Dataset content checksum the index is bound to (the same digest a
  /// snapshot embeds; see Dataset::ContentChecksum).
  uint64_t index_checksum = 0;

  // Live-update counters (protocol v3; zero when mutations are disabled).
  /// Index epoch: number of completed refreeze swaps observed by queries.
  uint64_t index_epoch = 0;
  /// Pending delta mutations (inserts + tombstones) right now.
  uint64_t delta_size = 0;
  /// Total mutations applied since startup.
  uint64_t mutations_applied = 0;
  /// Total background refreezes completed since startup.
  uint64_t refreezes_completed = 0;

  // Out-of-core counters (protocol v4; see IndexMemoryStats). Zero for
  // warm in-memory serving.
  /// Former frozen-layout id: servers with one body layout always send 0;
  /// older servers may send 1.
  uint8_t index_layout = 0;
  /// 1 when the snapshot mapping is cold (pages fault in on demand).
  uint8_t index_cold = 0;
  /// Frozen body size and its resident subset, in bytes.
  uint64_t body_bytes = 0;
  uint64_t body_resident_bytes = 0;
  /// Memory budget (0 = uncapped) and trim count (see MaybeEnforceBudget).
  uint64_t memory_budget_bytes = 0;
  uint64_t budget_trims = 0;
  /// Cumulative process page faults (getrusage): major faults are the disk
  /// reads cold serving is judged by.
  uint64_t major_faults = 0;
  uint64_t minor_faults = 0;

  // Cluster routing (protocol v5; all-zero on a plain shard/single server).
  /// Per-shard observability reported by a router.
  struct ShardStats {
    uint32_t shard_id = 0;
    /// RELEVANT harvests sent to this shard.
    uint64_t fanout = 0;
    /// Harvest round-trip latency percentiles over the recent window.
    double p50_ms = 0.0;
    double p95_ms = 0.0;
  };
  /// 1 when this STATS comes from a scatter-gather router.
  uint8_t is_router = 0;
  /// Shard count of the serving manifest.
  uint32_t cluster_shards = 0;
  /// Manifest identity: the manifest file's own content checksum plus the
  /// full-dataset checksum and object count it was cut from — enough for a
  /// client to pin exactly which partition it is talking to.
  uint64_t manifest_checksum = 0;
  uint64_t cluster_dataset_checksum = 0;
  uint64_t cluster_objects = 0;
  /// Total RELEVANT harvests actually sent (post-pruning fan-out).
  uint64_t shards_harvested = 0;
  /// Shards skipped because no query keyword hit their Bloom signature.
  uint64_t shards_pruned_keyword = 0;
  /// Shards skipped by the distance-owner lower bound (MINDIST > best-cost
  /// upper bound from the probe query).
  uint64_t shards_pruned_distance = 0;
  /// Upper-bound probe queries sent to the most-promising shard.
  uint64_t probe_queries = 0;
  std::vector<ShardStats> shard_stats;

  // Result cache (protocol v6; encoded after the shard_stats array). All
  // zero when no cache is configured.
  /// 1 when a result cache is wired in front of this server/router.
  uint8_t cache_enabled = 0;
  /// Lookup outcomes since startup. Misses include invalidation misses; an
  /// invalidation additionally counts an entry dropped for a stale epoch or
  /// mutation stamp.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// LRU entries dropped to stay under the byte budget.
  uint64_t cache_evictions = 0;
  uint64_t cache_invalidations = 0;
  /// Current approximate occupancy, the configured ceiling, and the live
  /// entry count.
  uint64_t cache_resident_bytes = 0;
  uint64_t cache_budget_bytes = 0;
  uint64_t cache_entries = 0;

  /// One-line human rendering for logs and the load generator.
  std::string ToString() const;
};

/// Upper bound on StatsReply::shard_stats, enforced by encoder and decoder
/// alike (a router serving more shards than this is not a deployment this
/// protocol targets; the encoder truncates to the first kMaxShardStats
/// entries). Sized so the worst-case STATS payload — the fixed fields plus
/// 28 bytes per entry — stays under kMaxPayloadBytes (static_assert next to
/// EncodeStatsReply), and so a hostile length cannot force a huge
/// allocation.
inline constexpr size_t kMaxShardStats = 32768;

/// Payload encoders. Deterministic byte-for-byte for identical inputs.
std::string EncodeQueryRequest(const QueryRequest& request);
std::string EncodeQueryResult(const QueryResult& result);
std::string EncodeOverloadedReply(const OverloadedReply& reply);
std::string EncodeErrorReply(const ErrorReply& reply);
std::string EncodeStatsReply(const StatsReply& reply);
std::string EncodeMutateRequest(const MutateRequest& request);
std::string EncodeMutateReply(const MutateReply& reply);
std::string EncodeRelevantRequest(const RelevantRequest& request);
std::string EncodeRelevantReply(const RelevantReply& reply);

/// Payload decoders: false on truncated, oversized, or otherwise malformed
/// payloads (never aborts — wire bytes are untrusted input).
bool DecodeQueryRequest(const std::string& payload, QueryRequest* out);
bool DecodeQueryResult(const std::string& payload, QueryResult* out);
bool DecodeOverloadedReply(const std::string& payload, OverloadedReply* out);
bool DecodeErrorReply(const std::string& payload, ErrorReply* out);
bool DecodeStatsReply(const std::string& payload, StatsReply* out);
bool DecodeMutateRequest(const std::string& payload, MutateRequest* out);
bool DecodeMutateReply(const std::string& payload, MutateReply* out);
bool DecodeRelevantRequest(const std::string& payload, RelevantRequest* out);
bool DecodeRelevantReply(const std::string& payload, RelevantReply* out);

}  // namespace coskq

#endif  // COSKQ_SERVER_PROTOCOL_H_
