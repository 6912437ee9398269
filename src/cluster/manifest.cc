#include "cluster/manifest.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/atomic_file.h"

namespace coskq {

namespace {

constexpr uint16_t kEndianMarker = 0x0102;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/// Little-endian appenders. The manifest defines its own codec rather than
/// reusing the wire codec: file format and wire format version
/// independently.
void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  PutU16(out, static_cast<uint16_t>(v));
  PutU16(out, static_cast<uint16_t>(v >> 16));
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutRect(std::string* out, const Rect& r) {
  PutDouble(out, r.min_x);
  PutDouble(out, r.min_y);
  PutDouble(out, r.max_x);
  PutDouble(out, r.max_y);
}

/// Bounds-checked little-endian reader over the file image. Every Get
/// returns false on truncation; callers bail with a Corruption status.
class ManifestReader {
 public:
  explicit ManifestReader(const std::string& bytes) : bytes_(bytes) {}

  bool GetU8(uint8_t* v) {
    if (pos_ + 1 > bytes_.size()) return false;
    *v = static_cast<uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool GetU16(uint16_t* v) {
    uint8_t lo, hi;
    if (!GetU8(&lo) || !GetU8(&hi)) return false;
    *v = static_cast<uint16_t>(lo | (static_cast<uint16_t>(hi) << 8));
    return true;
  }
  bool GetU32(uint32_t* v) {
    uint16_t lo, hi;
    if (!GetU16(&lo) || !GetU16(&hi)) return false;
    *v = static_cast<uint32_t>(lo) | (static_cast<uint32_t>(hi) << 16);
    return true;
  }
  bool GetU64(uint64_t* v) {
    uint32_t lo, hi;
    if (!GetU32(&lo) || !GetU32(&hi)) return false;
    *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return true;
  }
  bool GetDouble(double* v) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool GetString(std::string* s) {
    uint32_t len;
    if (!GetU32(&len)) return false;
    if (pos_ + len > bytes_.size()) return false;
    s->assign(bytes_, pos_, len);
    pos_ += len;
    return true;
  }
  bool GetRect(Rect* r) {
    return GetDouble(&r->min_x) && GetDouble(&r->min_y) &&
           GetDouble(&r->max_x) && GetDouble(&r->max_y);
  }

  size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

}  // namespace

uint64_t ClusterFnv1a(const void* data, size_t n, uint64_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

void ShardSignature::AddWord(const std::string& word) {
  const uint64_t h = ClusterFnv1a(word.data(), word.size());
  // Two probe bits from independent halves of the 64-bit digest.
  const uint32_t b1 = static_cast<uint32_t>(h) & 255u;
  const uint32_t b2 = static_cast<uint32_t>(h >> 32) & 255u;
  bits[b1 >> 6] |= uint64_t{1} << (b1 & 63u);
  bits[b2 >> 6] |= uint64_t{1} << (b2 & 63u);
}

bool ShardSignature::MightContain(const std::string& word) const {
  const uint64_t h = ClusterFnv1a(word.data(), word.size());
  const uint32_t b1 = static_cast<uint32_t>(h) & 255u;
  const uint32_t b2 = static_cast<uint32_t>(h >> 32) & 255u;
  return (bits[b1 >> 6] & (uint64_t{1} << (b1 & 63u))) != 0 &&
         (bits[b2 >> 6] & (uint64_t{1} << (b2 & 63u))) != 0;
}

std::string ClusterManifest::Encode() {
  std::string out;
  PutU32(&out, kManifestMagic);
  PutU16(&out, kManifestVersion);
  PutU16(&out, kEndianMarker);
  PutU64(&out, dataset_checksum);
  PutU64(&out, total_objects);
  PutRect(&out, dataset_mbr);
  PutU32(&out, static_cast<uint32_t>(vocabulary.size()));
  for (const std::string& word : vocabulary) {
    PutString(&out, word);
  }
  PutU32(&out, static_cast<uint32_t>(shards.size()));
  for (const ShardManifestEntry& shard : shards) {
    PutU32(&out, shard.shard_id);
    PutU64(&out, shard.num_objects);
    PutRect(&out, shard.tile);
    PutRect(&out, shard.mbr);
    for (const uint64_t w : shard.signature.bits) {
      PutU64(&out, w);
    }
    PutU64(&out, shard.dataset_checksum);
    PutU64(&out, shard.snapshot_checksum);
    PutU64(&out, shard.snapshot_bytes);
    PutString(&out, shard.dataset_file);
    PutString(&out, shard.snapshot_file);
    PutU64(&out, shard.global_ids.size());
    for (const uint32_t id : shard.global_ids) {
      PutU32(&out, id);
    }
  }
  file_checksum = ClusterFnv1a(out.data(), out.size());
  PutU64(&out, file_checksum);
  return out;
}

StatusOr<ClusterManifest> ClusterManifest::Decode(const std::string& bytes) {
  if (bytes.size() < 8 + sizeof(uint64_t)) {
    return Status::Corruption("manifest truncated: " +
                              std::to_string(bytes.size()) + " bytes");
  }
  // Trailer first: a flipped bit anywhere fails here, before any parsing.
  const size_t body_len = bytes.size() - sizeof(uint64_t);
  const uint64_t expect = ClusterFnv1a(bytes.data(), body_len);
  uint64_t stored = 0;
  for (int i = 7; i >= 0; --i) {
    stored = (stored << 8) |
             static_cast<uint8_t>(bytes[body_len + static_cast<size_t>(i)]);
  }
  if (stored != expect) {
    return Status::Corruption("manifest checksum mismatch");
  }

  const std::string body = bytes.substr(0, body_len);
  ManifestReader r(body);
  ClusterManifest m;
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t endian = 0;
  if (!r.GetU32(&magic) || magic != kManifestMagic) {
    return Status::Corruption("not a cluster manifest (bad magic)");
  }
  if (!r.GetU16(&version)) {
    return Status::Corruption("manifest truncated in header");
  }
  if (version != kManifestVersion) {
    return Status::InvalidArgument("unsupported manifest version " +
                                   std::to_string(version));
  }
  if (!r.GetU16(&endian) || endian != kEndianMarker) {
    return Status::Corruption("manifest endian marker mismatch");
  }
  uint32_t vocab_count = 0;
  if (!r.GetU64(&m.dataset_checksum) || !r.GetU64(&m.total_objects) ||
      !r.GetRect(&m.dataset_mbr) || !r.GetU32(&vocab_count)) {
    return Status::Corruption("manifest truncated in header");
  }
  if (vocab_count > kManifestMaxArray) {
    return Status::Corruption("manifest vocabulary count implausible");
  }
  m.vocabulary.reserve(vocab_count);
  for (uint32_t i = 0; i < vocab_count; ++i) {
    std::string word;
    if (!r.GetString(&word)) {
      return Status::Corruption("manifest truncated in vocabulary");
    }
    m.vocabulary.push_back(std::move(word));
  }
  uint32_t num_shards = 0;
  if (!r.GetU32(&num_shards) || num_shards > kManifestMaxArray) {
    return Status::Corruption("manifest shard count implausible");
  }
  m.shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    ShardManifestEntry shard;
    bool ok = r.GetU32(&shard.shard_id) && r.GetU64(&shard.num_objects) &&
              r.GetRect(&shard.tile) && r.GetRect(&shard.mbr);
    for (uint64_t& w : shard.signature.bits) {
      ok = ok && r.GetU64(&w);
    }
    uint64_t id_count = 0;
    ok = ok && r.GetU64(&shard.dataset_checksum) &&
         r.GetU64(&shard.snapshot_checksum) &&
         r.GetU64(&shard.snapshot_bytes) &&
         r.GetString(&shard.dataset_file) &&
         r.GetString(&shard.snapshot_file) && r.GetU64(&id_count);
    if (!ok || id_count > kManifestMaxArray) {
      return Status::Corruption("manifest truncated in shard " +
                                std::to_string(s));
    }
    if (id_count != shard.num_objects) {
      return Status::Corruption("manifest shard " + std::to_string(s) +
                                ": id-map size disagrees with object count");
    }
    shard.global_ids.reserve(id_count);
    for (uint64_t i = 0; i < id_count; ++i) {
      uint32_t id = 0;
      if (!r.GetU32(&id)) {
        return Status::Corruption("manifest truncated in shard id map");
      }
      shard.global_ids.push_back(id);
    }
    m.shards.push_back(std::move(shard));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("manifest carries trailing bytes");
  }
  m.file_checksum = expect;
  return m;
}

Status ClusterManifest::SaveToFile(const std::string& path) {
  return WriteFileAtomically(path, Encode());
}

StatusOr<ClusterManifest> ClusterManifest::LoadFromFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::IoError("read failed: " + path);
  }
  return Decode(buffer.str());
}

}  // namespace coskq
