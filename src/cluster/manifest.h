#ifndef COSKQ_CLUSTER_MANIFEST_H_
#define COSKQ_CLUSTER_MANIFEST_H_

#include <stdint.h>

#include <array>
#include <string>
#include <vector>

#include "geo/rect.h"
#include "util/status.h"

namespace coskq {

/// The cluster manifest: one versioned little-endian file ("cluster.cqmf")
/// describing a sharded serving deployment — how a dataset was cut into K
/// spatial shards and everything the scatter-gather router needs to route,
/// prune, and merge without ever loading the dataset itself:
///
///   * the *global* vocabulary in interning order, so the router can assign
///     every query keyword its global TermId and reproduce the single-server
///     keyword ordering exactly (TermSet order decides solver tie-breaks);
///   * per shard: the STR tile, the tight object MBR (the MINDIST pruning
///     bound), a 256-bit keyword Bloom signature (the coverage pruning
///     bound), the shard's local->global object-id map, and the checksums
///     binding the shard's dataset file and index snapshot to this cut.
///
/// File layout: magic "CQMF", version, endian marker 0x0102, the payload,
/// and an 8-byte FNV-1a trailer checksum over everything before it.
/// Encoding is deterministic — the same manifest re-encodes byte-identical —
/// and decoding returns a Status (never crashes) on truncated, corrupt, or
/// wrong-version bytes.
inline constexpr uint32_t kManifestMagic = 0x464d5143u;  // "CQMF"
inline constexpr uint16_t kManifestVersion = 1;
inline constexpr const char* kManifestFileName = "cluster.cqmf";

/// Sanity bound on decoded array sizes (shards, vocabulary words, global
/// ids): a corrupt length field must not force a huge allocation.
inline constexpr uint64_t kManifestMaxArray = 1ull << 28;

/// 256-bit one-sided keyword Bloom signature of a shard's vocabulary.
///
/// Bits are derived from the keyword *strings*, never from TermIds — each
/// shard interns its own vocabulary in its own order, so ids are not
/// comparable across shards, but strings are. Two probe bits per word keep
/// the false-positive rate low at paper-scale vocabularies while the test
/// `MightContain(w)` stays two bit reads.
///
/// One-sided guarantee: if MightContain returns false, the shard holds NO
/// object with that keyword — which is what makes keyword pruning sound for
/// every solver.
struct ShardSignature {
  std::array<uint64_t, 4> bits{{0, 0, 0, 0}};

  void AddWord(const std::string& word);
  bool MightContain(const std::string& word) const;

  friend bool operator==(const ShardSignature& a, const ShardSignature& b) {
    return a.bits == b.bits;
  }
};

/// FNV-1a over a byte range, seedable for incremental use. The same digest
/// the index snapshots use, exposed here so the manifest, the partitioner
/// (snapshot-file checksums), and the tests agree on one definition.
uint64_t ClusterFnv1a(const void* data, size_t n,
                      uint64_t seed = 14695981039346656037ull);

/// One shard of the partition.
struct ShardManifestEntry {
  uint32_t shard_id = 0;
  uint64_t num_objects = 0;
  /// The shard's STR tile. Tiles are closed rectangles sharing edges; over
  /// all shards they tile the dataset MBR exactly (zero-area overlaps,
  /// areas summing to the dataset MBR area).
  Rect tile;
  /// Tight MBR of the shard's objects (subset of `tile`); the rectangle the
  /// router's MINDIST lower bound is computed against.
  Rect mbr;
  /// Bloom signature over the shard's keyword strings.
  ShardSignature signature;
  /// Dataset::ContentChecksum() of the shard's dataset — what the shard
  /// server's own index snapshot is bound to.
  uint64_t dataset_checksum = 0;
  /// FNV-1a over the shard's snapshot file bytes, plus its size: pins the
  /// exact `.cqix` artifact this manifest version was cut with.
  uint64_t snapshot_checksum = 0;
  uint64_t snapshot_bytes = 0;
  /// File names relative to the manifest's directory.
  std::string dataset_file;
  std::string snapshot_file;
  /// Ascending global object ids; shard-local id i is global_ids[i]. The
  /// router maps RELEVANT harvest entries back to global ids through this.
  std::vector<uint32_t> global_ids;
};

/// The decoded manifest.
struct ClusterManifest {
  /// ContentChecksum of the full (pre-partition) dataset.
  uint64_t dataset_checksum = 0;
  uint64_t total_objects = 0;
  Rect dataset_mbr;
  /// The full dataset's vocabulary in interning order: word i has global
  /// TermId i.
  std::vector<std::string> vocabulary;
  std::vector<ShardManifestEntry> shards;

  /// The file trailer checksum of this manifest's encoding (computed by
  /// Encode/SaveToFile, recorded by Decode/LoadFromFile). This is the
  /// manifest identity a router reports through STATS.
  uint64_t file_checksum = 0;

  /// Deterministic full-file encoding (header + payload + trailer); also
  /// refreshes `file_checksum`.
  std::string Encode();
  /// Decodes and verifies a full file image. Status on any malformation.
  static StatusOr<ClusterManifest> Decode(const std::string& bytes);

  /// Writes Encode() to `path`, replacing it through WriteFileAtomically.
  Status SaveToFile(const std::string& path);
  static StatusOr<ClusterManifest> LoadFromFile(const std::string& path);
};

}  // namespace coskq

#endif  // COSKQ_CLUSTER_MANIFEST_H_
