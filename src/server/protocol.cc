#include "server/protocol.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util/string_util.h"

namespace coskq {

namespace {

/// Appends fixed-width little-endian integers / IEEE doubles to a string.
/// The protocol is explicit-byte-order on the wire, so encode/decode never
/// depend on host endianness or struct layout.
class WireWriter {
 public:
  explicit WireWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutLe(v, 2); }
  void PutU32(uint32_t v) { PutLe(v, 4); }
  void PutU64(uint64_t v) { PutLe(v, 8); }
  void PutDouble(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  void PutString(const std::string& s) {
    PutU16(static_cast<uint16_t>(s.size()));
    out_->append(s);
  }

 private:
  void PutLe(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out_->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string* out_;
};

/// Bounds-checked little-endian reads over an untrusted payload. Every
/// getter returns false once the payload is exhausted; decoders propagate
/// that instead of reading past the end.
class WireReader {
 public:
  explicit WireReader(const std::string& data) : data_(data) {}

  bool GetU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) {
      return false;
    }
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool GetU16(uint16_t* v) {
    uint64_t raw = 0;
    if (!GetLe(&raw, 2)) {
      return false;
    }
    *v = static_cast<uint16_t>(raw);
    return true;
  }
  bool GetU32(uint32_t* v) {
    uint64_t raw = 0;
    if (!GetLe(&raw, 4)) {
      return false;
    }
    *v = static_cast<uint32_t>(raw);
    return true;
  }
  bool GetU64(uint64_t* v) { return GetLe(v, 8); }
  bool GetDouble(double* v) {
    uint64_t bits = 0;
    if (!GetU64(&bits)) {
      return false;
    }
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool GetString(std::string* s) {
    uint16_t len = 0;
    if (!GetU16(&len) || pos_ + len > data_.size()) {
      return false;
    }
    s->assign(data_, pos_, len);
    pos_ += len;
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  bool GetLe(uint64_t* v, int bytes) {
    if (pos_ + static_cast<size_t>(bytes) > data_.size()) {
      return false;
    }
    uint64_t raw = 0;
    for (int i = 0; i < bytes; ++i) {
      raw |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += bytes;
    *v = raw;
    return true;
  }

  const std::string& data_;
  size_t pos_ = 0;
};

}  // namespace

bool IsKnownVerb(uint8_t v) {
  switch (static_cast<Verb>(v)) {
    case Verb::kQuery:
    case Verb::kStats:
    case Verb::kPing:
    case Verb::kMutate:
    case Verb::kRelevant:
    case Verb::kResult:
    case Verb::kStatsReply:
    case Verb::kPong:
    case Verb::kOverloaded:
    case Verb::kError:
    case Verb::kMutateReply:
    case Verb::kRelevantReply:
      return true;
  }
  return false;
}

std::string EncodeFrame(Verb verb, uint32_t request_id,
                        const std::string& payload) {
  return EncodeFrameWithVersion(kProtocolVersion, verb, request_id, payload);
}

std::string EncodeFrameWithVersion(uint8_t version, Verb verb,
                                   uint32_t request_id,
                                   const std::string& payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  WireWriter w(&frame);
  w.PutU16(kProtocolMagic);
  w.PutU8(version);
  w.PutU8(static_cast<uint8_t>(verb));
  w.PutU32(request_id);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  return frame;
}

std::string SolverRegistryName(SolverKind kind, CostType cost) {
  const bool maxsum = cost == CostType::kMaxSum;
  switch (kind) {
    case SolverKind::kExact:
      return maxsum ? "maxsum-exact" : "dia-exact";
    case SolverKind::kAppro:
      return maxsum ? "maxsum-appro" : "dia-appro";
    case SolverKind::kCaoExact:
      return maxsum ? "cao-exact-maxsum" : "cao-exact-dia";
    case SolverKind::kCaoAppro1:
      return maxsum ? "cao-appro1-maxsum" : "cao-appro1-dia";
    case SolverKind::kCaoAppro2:
      return maxsum ? "cao-appro2-maxsum" : "cao-appro2-dia";
    case SolverKind::kBruteForce:
      return maxsum ? "brute-force-maxsum" : "brute-force-dia";
  }
  return "";
}

std::string EncodeQueryRequest(const QueryRequest& request) {
  std::string payload;
  WireWriter w(&payload);
  w.PutDouble(request.x);
  w.PutDouble(request.y);
  w.PutU8(static_cast<uint8_t>(request.cost_type));
  w.PutU8(static_cast<uint8_t>(request.solver));
  w.PutDouble(request.deadline_ms);
  w.PutU16(static_cast<uint16_t>(request.keywords.size()));
  for (const std::string& kw : request.keywords) {
    w.PutString(kw);
  }
  return payload;
}

bool DecodeQueryRequest(const std::string& payload, QueryRequest* out) {
  WireReader r(payload);
  uint8_t cost = 0;
  uint8_t solver = 0;
  uint16_t num_keywords = 0;
  if (!r.GetDouble(&out->x) || !r.GetDouble(&out->y) || !r.GetU8(&cost) ||
      !r.GetU8(&solver) || !r.GetDouble(&out->deadline_ms) ||
      !r.GetU16(&num_keywords)) {
    return false;
  }
  if (cost > static_cast<uint8_t>(CostType::kDia)) {
    return false;
  }
  out->cost_type = static_cast<CostType>(cost);
  out->solver = static_cast<SolverKind>(solver);
  if (SolverRegistryName(out->solver, out->cost_type).empty()) {
    return false;
  }
  out->keywords.clear();
  out->keywords.reserve(num_keywords);
  for (uint16_t i = 0; i < num_keywords; ++i) {
    std::string kw;
    if (!r.GetString(&kw)) {
      return false;
    }
    out->keywords.push_back(std::move(kw));
  }
  return r.AtEnd();
}

std::string EncodeQueryResult(const QueryResult& result) {
  std::string payload;
  WireWriter w(&payload);
  w.PutU8(static_cast<uint8_t>(result.outcome));
  w.PutDouble(result.cost);
  w.PutDouble(result.solve_ms);
  w.PutU32(static_cast<uint32_t>(result.set.size()));
  for (uint32_t id : result.set) {
    w.PutU32(id);
  }
  return payload;
}

bool DecodeQueryResult(const std::string& payload, QueryResult* out) {
  WireReader r(payload);
  uint8_t outcome = 0;
  uint32_t count = 0;
  if (!r.GetU8(&outcome) ||
      outcome > static_cast<uint8_t>(QueryOutcome::kInfeasible) ||
      !r.GetDouble(&out->cost) || !r.GetDouble(&out->solve_ms) ||
      !r.GetU32(&count)) {
    return false;
  }
  out->outcome = static_cast<QueryOutcome>(outcome);
  out->set.clear();
  out->set.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t id = 0;
    if (!r.GetU32(&id)) {
      return false;
    }
    out->set.push_back(id);
  }
  return r.AtEnd();
}

std::string EncodeOverloadedReply(const OverloadedReply& reply) {
  std::string payload;
  WireWriter w(&payload);
  w.PutU32(reply.retry_after_ms);
  w.PutU32(reply.queue_depth);
  return payload;
}

bool DecodeOverloadedReply(const std::string& payload, OverloadedReply* out) {
  WireReader r(payload);
  return r.GetU32(&out->retry_after_ms) && r.GetU32(&out->queue_depth) &&
         r.AtEnd();
}

std::string EncodeErrorReply(const ErrorReply& reply) {
  std::string payload;
  WireWriter w(&payload);
  w.PutU16(static_cast<uint16_t>(reply.code));
  w.PutString(reply.message);
  return payload;
}

bool DecodeErrorReply(const std::string& payload, ErrorReply* out) {
  WireReader r(payload);
  uint16_t code = 0;
  if (!r.GetU16(&code) || !r.GetString(&out->message) || !r.AtEnd()) {
    return false;
  }
  if (code > static_cast<uint16_t>(StatusCode::kInternal)) {
    return false;
  }
  out->code = static_cast<StatusCode>(code);
  return true;
}

std::string EncodeMutateRequest(const MutateRequest& request) {
  std::string payload;
  WireWriter w(&payload);
  w.PutU8(static_cast<uint8_t>(request.op));
  if (request.op == MutateRequest::Op::kInsert) {
    w.PutDouble(request.x);
    w.PutDouble(request.y);
    w.PutU16(static_cast<uint16_t>(request.keywords.size()));
    for (const std::string& kw : request.keywords) {
      w.PutString(kw);
    }
  } else {
    w.PutU32(request.object_id);
  }
  return payload;
}

bool DecodeMutateRequest(const std::string& payload, MutateRequest* out) {
  WireReader r(payload);
  uint8_t op = 0;
  if (!r.GetU8(&op) || op > static_cast<uint8_t>(MutateRequest::Op::kRemove)) {
    return false;
  }
  out->op = static_cast<MutateRequest::Op>(op);
  if (out->op == MutateRequest::Op::kInsert) {
    uint16_t num_keywords = 0;
    if (!r.GetDouble(&out->x) || !r.GetDouble(&out->y) ||
        !r.GetU16(&num_keywords)) {
      return false;
    }
    out->keywords.clear();
    out->keywords.reserve(num_keywords);
    for (uint16_t i = 0; i < num_keywords; ++i) {
      std::string kw;
      if (!r.GetString(&kw)) {
        return false;
      }
      out->keywords.push_back(std::move(kw));
    }
  } else {
    if (!r.GetU32(&out->object_id)) {
      return false;
    }
  }
  return r.AtEnd();
}

std::string EncodeMutateReply(const MutateReply& reply) {
  std::string payload;
  WireWriter w(&payload);
  w.PutU32(reply.object_id);
  w.PutU64(reply.delta_size);
  w.PutU64(reply.epoch);
  return payload;
}

bool DecodeMutateReply(const std::string& payload, MutateReply* out) {
  WireReader r(payload);
  return r.GetU32(&out->object_id) && r.GetU64(&out->delta_size) &&
         r.GetU64(&out->epoch) && r.AtEnd();
}

std::string EncodeRelevantRequest(const RelevantRequest& request) {
  std::string payload;
  WireWriter w(&payload);
  w.PutU16(static_cast<uint16_t>(request.keywords.size()));
  for (const std::string& kw : request.keywords) {
    w.PutString(kw);
  }
  return payload;
}

bool DecodeRelevantRequest(const std::string& payload, RelevantRequest* out) {
  WireReader r(payload);
  uint16_t num_keywords = 0;
  if (!r.GetU16(&num_keywords) || num_keywords == 0 ||
      num_keywords > kMaxRelevantKeywords) {
    return false;
  }
  out->keywords.clear();
  out->keywords.reserve(num_keywords);
  for (uint16_t i = 0; i < num_keywords; ++i) {
    std::string kw;
    if (!r.GetString(&kw)) {
      return false;
    }
    out->keywords.push_back(std::move(kw));
  }
  return r.AtEnd();
}

std::string EncodeRelevantReply(const RelevantReply& reply) {
  std::string payload;
  WireWriter w(&payload);
  w.PutU8(reply.more);
  w.PutU32(static_cast<uint32_t>(reply.objects.size()));
  for (const RelevantEntry& e : reply.objects) {
    w.PutU32(e.object_id);
    w.PutDouble(e.x);
    w.PutDouble(e.y);
    w.PutU64(e.keyword_mask);
  }
  return payload;
}

bool DecodeRelevantReply(const std::string& payload, RelevantReply* out) {
  WireReader r(payload);
  uint32_t count = 0;
  if (!r.GetU8(&out->more) || out->more > 1 || !r.GetU32(&count)) {
    return false;
  }
  // Each entry is 28 payload bytes, so `count` is bounded by the frame cap;
  // checking before the reserve keeps a hostile length from over-allocating.
  constexpr size_t kEntryBytes = 28;
  if (count > kMaxPayloadBytes / kEntryBytes) {
    return false;
  }
  out->objects.clear();
  out->objects.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    RelevantEntry e;
    if (!r.GetU32(&e.object_id) || !r.GetDouble(&e.x) || !r.GetDouble(&e.y) ||
        !r.GetU64(&e.keyword_mask)) {
      return false;
    }
    out->objects.push_back(e);
  }
  return r.AtEnd();
}

std::string EncodeStatsReply(const StatsReply& reply) {
  std::string payload;
  WireWriter w(&payload);
  w.PutU64(reply.connections_accepted);
  w.PutU64(reply.connections_active);
  w.PutU64(reply.queries_received);
  w.PutU64(reply.queries_executed);
  w.PutU64(reply.queries_shed);
  w.PutU64(reply.queries_truncated);
  w.PutU64(reply.queries_infeasible);
  w.PutU64(reply.queries_errored);
  w.PutU64(reply.queries_active);
  w.PutU64(reply.queue_depth);
  w.PutDouble(reply.uptime_s);
  w.PutDouble(reply.mean_ms);
  w.PutDouble(reply.p50_ms);
  w.PutDouble(reply.p95_ms);
  w.PutDouble(reply.p99_ms);
  w.PutU8(reply.index_from_snapshot);
  w.PutDouble(reply.index_prepare_ms);
  w.PutU64(reply.index_nodes);
  w.PutU64(reply.index_checksum);
  w.PutU64(reply.index_epoch);
  w.PutU64(reply.delta_size);
  w.PutU64(reply.mutations_applied);
  w.PutU64(reply.refreezes_completed);
  w.PutU8(reply.index_layout);
  w.PutU8(reply.index_cold);
  w.PutU64(reply.body_bytes);
  w.PutU64(reply.body_resident_bytes);
  w.PutU64(reply.memory_budget_bytes);
  w.PutU64(reply.budget_trims);
  w.PutU64(reply.major_faults);
  w.PutU64(reply.minor_faults);
  w.PutU8(reply.is_router);
  w.PutU32(reply.cluster_shards);
  w.PutU64(reply.manifest_checksum);
  w.PutU64(reply.cluster_dataset_checksum);
  w.PutU64(reply.cluster_objects);
  w.PutU64(reply.shards_harvested);
  w.PutU64(reply.shards_pruned_keyword);
  w.PutU64(reply.shards_pruned_distance);
  w.PutU64(reply.probe_queries);
  // The fixed fields are 349 bytes (292 ahead of the shard array plus the
  // 57-byte v6 cache tail behind it) and each entry 28; the cap keeps the
  // worst-case STATS payload inside one frame, so the encoder can never
  // emit what a peer would reject as oversized. Past the cap the trailing
  // shards' windows are dropped (the aggregate counters above still cover
  // them).
  static_assert(292 + 57 + kMaxShardStats * 28 <= kMaxPayloadBytes,
                "worst-case STATS payload must fit one frame");
  const size_t num_shards =
      std::min(reply.shard_stats.size(), kMaxShardStats);
  w.PutU32(static_cast<uint32_t>(num_shards));
  for (size_t i = 0; i < num_shards; ++i) {
    const StatsReply::ShardStats& s = reply.shard_stats[i];
    w.PutU32(s.shard_id);
    w.PutU64(s.fanout);
    w.PutDouble(s.p50_ms);
    w.PutDouble(s.p95_ms);
  }
  // v6 result-cache tail.
  w.PutU8(reply.cache_enabled);
  w.PutU64(reply.cache_hits);
  w.PutU64(reply.cache_misses);
  w.PutU64(reply.cache_evictions);
  w.PutU64(reply.cache_invalidations);
  w.PutU64(reply.cache_resident_bytes);
  w.PutU64(reply.cache_budget_bytes);
  w.PutU64(reply.cache_entries);
  return payload;
}

bool DecodeStatsReply(const std::string& payload, StatsReply* out) {
  WireReader r(payload);
  uint32_t num_shards = 0;
  const bool fixed_ok =
      r.GetU64(&out->connections_accepted) &&
      r.GetU64(&out->connections_active) &&
      r.GetU64(&out->queries_received) &&
      r.GetU64(&out->queries_executed) && r.GetU64(&out->queries_shed) &&
      r.GetU64(&out->queries_truncated) &&
      r.GetU64(&out->queries_infeasible) &&
      r.GetU64(&out->queries_errored) && r.GetU64(&out->queries_active) &&
      r.GetU64(&out->queue_depth) && r.GetDouble(&out->uptime_s) &&
      r.GetDouble(&out->mean_ms) && r.GetDouble(&out->p50_ms) &&
      r.GetDouble(&out->p95_ms) && r.GetDouble(&out->p99_ms) &&
      r.GetU8(&out->index_from_snapshot) && out->index_from_snapshot <= 1 &&
      r.GetDouble(&out->index_prepare_ms) && r.GetU64(&out->index_nodes) &&
      r.GetU64(&out->index_checksum) && r.GetU64(&out->index_epoch) &&
      r.GetU64(&out->delta_size) && r.GetU64(&out->mutations_applied) &&
      r.GetU64(&out->refreezes_completed) && r.GetU8(&out->index_layout) &&
      out->index_layout <= 1 && r.GetU8(&out->index_cold) &&
      out->index_cold <= 1 && r.GetU64(&out->body_bytes) &&
      r.GetU64(&out->body_resident_bytes) &&
      r.GetU64(&out->memory_budget_bytes) && r.GetU64(&out->budget_trims) &&
      r.GetU64(&out->major_faults) && r.GetU64(&out->minor_faults) &&
      r.GetU8(&out->is_router) && out->is_router <= 1 &&
      r.GetU32(&out->cluster_shards) && r.GetU64(&out->manifest_checksum) &&
      r.GetU64(&out->cluster_dataset_checksum) &&
      r.GetU64(&out->cluster_objects) && r.GetU64(&out->shards_harvested) &&
      r.GetU64(&out->shards_pruned_keyword) &&
      r.GetU64(&out->shards_pruned_distance) &&
      r.GetU64(&out->probe_queries) && r.GetU32(&num_shards);
  if (!fixed_ok || num_shards > kMaxShardStats) {
    return false;
  }
  out->shard_stats.clear();
  out->shard_stats.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    StatsReply::ShardStats s;
    if (!r.GetU32(&s.shard_id) || !r.GetU64(&s.fanout) ||
        !r.GetDouble(&s.p50_ms) || !r.GetDouble(&s.p95_ms)) {
      return false;
    }
    out->shard_stats.push_back(s);
  }
  const bool cache_ok =
      r.GetU8(&out->cache_enabled) && out->cache_enabled <= 1 &&
      r.GetU64(&out->cache_hits) && r.GetU64(&out->cache_misses) &&
      r.GetU64(&out->cache_evictions) &&
      r.GetU64(&out->cache_invalidations) &&
      r.GetU64(&out->cache_resident_bytes) &&
      r.GetU64(&out->cache_budget_bytes) && r.GetU64(&out->cache_entries);
  return cache_ok && r.AtEnd();
}

std::string StatsReply::ToString() const {
  std::string s = "accepted=" + std::to_string(connections_accepted) +
                  " conns=" + std::to_string(connections_active) +
                  " received=" + std::to_string(queries_received) +
                  " executed=" + std::to_string(queries_executed) +
                  " shed=" + std::to_string(queries_shed) +
                  " active=" + std::to_string(queries_active) +
                  " queued=" + std::to_string(queue_depth) +
                  " latency{avg=" + FormatMillis(mean_ms) +
                  " p50=" + FormatMillis(p50_ms) +
                  " p95=" + FormatMillis(p95_ms) +
                  " p99=" + FormatMillis(p99_ms) + "}";
  if (queries_truncated > 0) {
    s += " truncated=" + std::to_string(queries_truncated);
  }
  if (queries_infeasible > 0) {
    s += " infeasible=" + std::to_string(queries_infeasible);
  }
  if (queries_errored > 0) {
    s += " errors=" + std::to_string(queries_errored);
  }
  s += std::string(" index{") +
       (index_from_snapshot != 0 ? "snapshot" : "built") +
       " prepare=" + FormatMillis(index_prepare_ms) +
       " nodes=" + std::to_string(index_nodes) + "}";
  if (mutations_applied > 0 || delta_size > 0 || index_epoch > 0) {
    s += " live{epoch=" + std::to_string(index_epoch) +
         " delta=" + std::to_string(delta_size) +
         " mutations=" + std::to_string(mutations_applied) +
         " refreezes=" + std::to_string(refreezes_completed) + "}";
  }
  s += std::string(" mem{") + (index_cold != 0 ? "cold" : "warm") +
       " body=" + std::to_string(body_bytes) +
       " resident=" + std::to_string(body_resident_bytes);
  if (memory_budget_bytes > 0) {
    s += " budget=" + std::to_string(memory_budget_bytes) +
         " trims=" + std::to_string(budget_trims);
  }
  s += " majflt=" + std::to_string(major_faults) +
       " minflt=" + std::to_string(minor_faults) + "}";
  if (is_router != 0) {
    const uint64_t considered =
        shards_harvested + shards_pruned_keyword + shards_pruned_distance;
    s += " cluster{shards=" + std::to_string(cluster_shards) +
         " harvested=" + std::to_string(shards_harvested) +
         " pruned_kw=" + std::to_string(shards_pruned_keyword) +
         " pruned_dist=" + std::to_string(shards_pruned_distance) +
         " probes=" + std::to_string(probe_queries);
    if (considered > 0) {
      const double rate =
          static_cast<double>(shards_pruned_keyword +
                              shards_pruned_distance) /
          static_cast<double>(considered);
      char buf[32];
      std::snprintf(buf, sizeof(buf), " prune_rate=%.3f", rate);
      s += buf;
    }
    for (const ShardStats& sh : shard_stats) {
      s += " shard" + std::to_string(sh.shard_id) + "{fanout=" +
           std::to_string(sh.fanout) + " p50=" + FormatMillis(sh.p50_ms) +
           " p95=" + FormatMillis(sh.p95_ms) + "}";
    }
    s += "}";
  }
  if (cache_enabled != 0) {
    const uint64_t lookups = cache_hits + cache_misses;
    s += " cache{hits=" + std::to_string(cache_hits) +
         " misses=" + std::to_string(cache_misses) +
         " evictions=" + std::to_string(cache_evictions) +
         " invalidations=" + std::to_string(cache_invalidations) +
         " entries=" + std::to_string(cache_entries) +
         " resident=" + std::to_string(cache_resident_bytes) +
         " budget=" + std::to_string(cache_budget_bytes);
    if (lookups > 0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " hit_rate=%.3f",
                    static_cast<double>(cache_hits) /
                        static_cast<double>(lookups));
      s += buf;
    }
    s += "}";
  }
  return s;
}

}  // namespace coskq
