#ifndef COSKQ_INDEX_SNAPSHOT_H_
#define COSKQ_INDEX_SNAPSHOT_H_

#include <stdint.h>

#include <memory>
#include <string>

#include "data/dataset.h"
#include "index/irtree.h"
#include "util/status.h"

namespace coskq {

/// Versioned little-endian index snapshot: the frozen flat IR-tree
/// (frozen_layout.h) persisted so the server and the batch tools can load a
/// prebuilt index instead of re-running STR bulk load on every start.
///
/// File layout (all integers little-endian):
///   [header region]   magic "CQIX", version, endian marker 0x0102, dataset
///                     checksum, object count, max_entries, array counts,
///                     height, body size, a layout word (v2+; zero in v4)
///                     and (v3+) the posting-file counts. v1 wrote the bare
///                     48-byte header; v2 a 56-byte and v3/v4 a 64-byte
///                     header, zero-padded to a 4096-byte region so the body
///                     starts page-aligned in the file and in a mapping.
///   [body]            the frozen arrays, byte-for-byte the FrozenStore body
///                     buffer (every section 8-byte aligned, so the body can
///                     be traversed in place from an mmap)
///   [8-byte trailer]  FNV-1a checksum of header region + body
///
/// A snapshot is bound to the exact dataset it was built from: LoadSnapshot
/// recomputes Dataset::ContentChecksum() and refuses a mismatch. v4 bodies
/// hold flat node sections, the leaf entries and the term-major posting
/// file (DESIGN.md §11). Files of v1-v3, in either of their two node
/// layouts, keep loading: one converter rebuilds their body as the v4 body
/// Freeze() writes for the same tree, in an owned (heap) buffer, so such a
/// load is never a cold mapping. An unknown layout id in a v2/v3 header is
/// rejected with InvalidArgument; a non-zero layout word in a v4 header is
/// Corruption. Any change to the header, the FrozenNodeRecord layout, or
/// the body section order requires bumping kSnapshotVersion.
inline constexpr uint32_t kSnapshotMagic = 0x58495143u;  // "CQIX"
inline constexpr uint16_t kSnapshotVersion = 4;

/// Header fields of a snapshot file, as returned by ReadSnapshotInfo
/// (`coskq_cli index inspect`).
struct SnapshotInfo {
  uint16_t version = 0;
  uint64_t dataset_checksum = 0;
  uint32_t num_objects = 0;
  uint32_t max_entries = 0;
  uint32_t num_nodes = 0;
  uint32_t num_leaf_entries = 0;
  /// Term-arena length (v3+: node summaries; v1/v2: summaries and object
  /// keyword spans).
  uint32_t num_terms = 0;
  /// Posting file (v3+; 0 for v1/v2 files): number of posting lists and
  /// total entries.
  uint32_t num_post_terms = 0;
  uint32_t num_postings = 0;
  uint32_t height = 0;
  uint64_t body_bytes = 0;
  uint64_t file_bytes = 0;
  /// Size of the header region preceding the body (48 for v1, 4096 for v2+).
  uint64_t header_bytes = 0;
};

/// How LoadSnapshot maps the file (DESIGN.md §14).
struct SnapshotLoadOptions {
  /// Cold / out-of-core mode: skip MAP_POPULATE (pages fault in on demand),
  /// madvise(MADV_RANDOM) the body (traversals are not sequential), verify
  /// the checksum by streamed reads instead of touching the mapping, and
  /// switch traversal prefetch to page-granular madvise hints.
  bool cold = false;
  /// With `cold`: soft cap on the body's resident bytes, enforced by
  /// periodic mincore sampling + madvise(MADV_DONTNEED) tail trims (see
  /// FrozenStore::MaybeEnforceBudget). 0 = uncapped. Implies cold.
  uint64_t memory_budget_bytes = 0;
  /// Ask the kernel to drop the snapshot's page cache after checksum
  /// verification (posix_fadvise DONTNEED), so the first traversal really
  /// reads the disk — what the cold benchmarks need. Best effort.
  bool drop_page_cache = false;
};

/// Writes `tree`'s frozen representation to `path` (the current version),
/// freezing first if needed. Snapshots of the same tree are byte-for-byte
/// identical. The file is replaced through WriteFileAtomically, so `path`
/// never names a partial file and a process that has the old file mapped
/// keeps reading its intact inode.
Status SaveSnapshot(IrTree* tree, const std::string& path);

/// Loads a snapshot into a frozen-only IrTree over `dataset` (which must be
/// the dataset the snapshot was built from, verified by checksum; it must
/// outlive the tree). The file is mapped read-only when possible (falling
/// back to a single read), so loading is O(validation) instead of
/// O(rebuild). Fails with a Status — never crashes — on truncated, corrupt,
/// wrong-version, unknown-layout, or wrong-dataset files.
StatusOr<std::unique_ptr<IrTree>> LoadSnapshot(const Dataset* dataset,
                                               const std::string& path);
StatusOr<std::unique_ptr<IrTree>> LoadSnapshot(
    const Dataset* dataset, const std::string& path,
    const SnapshotLoadOptions& load_options);

/// Reads and validates a snapshot's header and checksum without a dataset
/// (the dataset-checksum *match* is not checked; everything else is).
StatusOr<SnapshotInfo> ReadSnapshotInfo(const std::string& path);

}  // namespace coskq

#endif  // COSKQ_INDEX_SNAPSHOT_H_
