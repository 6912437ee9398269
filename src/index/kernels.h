#ifndef COSKQ_INDEX_KERNELS_H_
#define COSKQ_INDEX_KERNELS_H_

#include <stdint.h>

#include <string>
#include <vector>

#include "index/frozen_layout.h"
#include "util/status.h"

namespace coskq {
namespace internal_index {

/// Data-parallel kernels for the frozen fast paths (see DESIGN.md §12).
///
/// Every operation has a scalar reference implementation plus SSE2 and AVX2
/// variants compiled with function-level target attributes (no global
/// `-march`), and the table in use is chosen once per process: from the
/// `COSKQ_KERNEL` environment variable (`scalar`, `sse2`, `avx2`, or `auto`)
/// when set to a usable value, else by CPUID feature detection.
///
/// Bit-identity contract: for identical inputs, every implementation of an
/// operation produces byte-identical outputs — the same squared distances
/// (the deferred sqrt is applied by callers to survivors only, exactly like
/// the scalar frozen path) and the same survivor index sequences, in the
/// same ascending order. The SIMD MINDIST arithmetic mirrors
/// Rect::MinDistance's max/max/mul/add sequence: `maxpd` and `std::max`
/// agree on every finite input except the sign of a zero, which cannot
/// survive the squaring, and the kernels are compiled without FMA so the
/// two products and the sum are rounded separately, exactly as the scalar
/// code rounds them. All vector loads are unaligned: the snapshot body only
/// guarantees 8-byte section alignment and callers pass arbitrary child
/// offsets into the SoA arrays. `tests/index_kernels_test` sweeps every
/// vector-width tail (N = 0..33), unaligned base offsets, and degenerate /
/// touching / containing MBR geometry against the scalar reference.
struct KernelOps {
  /// Dispatch-table name: "scalar", "sse2", or "avx2".
  const char* name;

  /// Squared MINDIST from (px, py) to each of `count` MBRs read from the
  /// four SoA coordinate arrays; out[i] receives dx*dx + dy*dy with
  /// dx = max(max(min_x[i] - px, 0), px - max_x[i]) (same for dy). The
  /// sqrt is deferred to callers, which apply it only to children that
  /// survive the keyword filter.
  void (*child_squared_distances)(const double* min_x, const double* min_y,
                                  const double* max_x, const double* max_y,
                                  uint32_t count, double px, double py,
                                  double* out);

  /// Fused child scan for the masked best-first paths: squared MINDIST as
  /// above plus the Bloom-signature pre-filter
  /// `(children[i].sig & query_sig) != 0` over the AoS node records.
  /// Surviving children are appended in ascending i as (out_idx[k] = i,
  /// out_dist[k] = squared distance); returns the survivor count. Children
  /// pruned by the signature never reach the term arena. Both output
  /// buffers must hold `count` entries.
  uint32_t (*child_scan_sig)(const double* min_x, const double* min_y,
                             const double* max_x, const double* max_y,
                             const FrozenNodeRecord* children, uint32_t count,
                             double px, double py, uint64_t query_sig,
                             uint32_t* out_idx, double* out_dist);
};

/// The process-wide kernel table. First call resolves the choice: a usable
/// `COSKQ_KERNEL` override wins, otherwise the best CPUID-supported table.
/// An unusable override value (unknown name or unsupported hardware) logs a
/// warning and falls back to auto-detection — library initialisation must
/// not crash on a bad environment; callers that need the failure as data
/// use SelectKernels().
const KernelOps& ActiveKernels();

/// Name of the table ActiveKernels() currently returns.
const char* ActiveKernelName();

/// Forces the process-wide table (test / benchmark / CLI hook). Accepts
/// "scalar", "sse2", "avx2", or "auto" (re-runs the default resolution,
/// honouring COSKQ_KERNEL). Returns InvalidArgument for an unknown name and
/// Unimplemented when the hardware lacks the instruction set; the active
/// table is unchanged on error.
Status SelectKernels(const std::string& name);

/// Looks up a table by name without changing the process-wide choice (the
/// benchmark A/B hook). Same error contract as SelectKernels.
Status KernelsForName(const std::string& name, const KernelOps** out);

/// Kernel names this build supports on this machine, in ascending
/// capability order ("scalar" always first).
std::vector<std::string> SupportedKernelNames();

/// Advisory software prefetch (no-op target address faults are impossible:
/// prefetch instructions never trap).
inline void PrefetchForRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// Prefetch hint carried in best-first heap entries: the node's child-slot
/// base (internal) or leaf-entry base (leaf), with the leaf flag in the
/// MSB. Lets the pop loop start fetching the *next* pop's record and its
/// child MBR / leaf-entry stripe without dereferencing the record.
constexpr uint32_t kPrefetchLeafFlag = 0x80000000u;

inline uint32_t PrefetchHint(const FrozenNodeRecord& rec) {
  return rec.is_leaf() ? (rec.entry_begin | kPrefetchLeafFlag)
                       : rec.first_child;
}

/// Page-granular prefetch for cold (non-populated) mappings: asks the
/// kernel to start reading the page(s) holding [p, p + len) ahead of the
/// fault. A small thread-local ring of recently advised pages swallows
/// duplicate madvise syscalls — on the level-grouped layout a child block's
/// record AND MBR lanes share one page, so one advise covers them all.
void ColdPrefetch(const void* p, size_t len);

/// Issues prefetches for the heap entry that will pop next: its node
/// record, plus the stripe the hint names (child MBR columns for internal
/// nodes, the id/location columns for leaves). On a warm body these
/// are cache-line software prefetches; on a cold mmap they become
/// page-granular madvise(MADV_WILLNEED) hints, since a cache-line prefetch
/// cannot start the disk read a fault would need. Purely advisory —
/// traversal behavior and results are unaffected.
inline void PrefetchNextPop(const FrozenView& v, const void* node,
                            uint32_t hint) {
  if (node == nullptr) {
    return;
  }
  const uint32_t base = hint & ~kPrefetchLeafFlag;
  const bool leaf = (hint & kPrefetchLeafFlag) != 0;
  if (v.cold) {
    ColdPrefetch(node, sizeof(FrozenNodeRecord));
    if (leaf) {
      ColdPrefetch(v.leaf_ids + base, kGroupSlots * sizeof(ObjectId));
      ColdPrefetch(v.leaf_x + base, kGroupSlots * sizeof(double));
      ColdPrefetch(v.leaf_y + base, kGroupSlots * sizeof(double));
    } else {
      // The dedup ring collapses these to a single syscall when the lanes
      // share the child block's page (level-grouped layout).
      ColdPrefetch(v.node_ptr(base), sizeof(FrozenNodeRecord));
      ColdPrefetch(v.min_x_ptr(base), sizeof(double));
      ColdPrefetch(v.min_y_ptr(base), sizeof(double));
      ColdPrefetch(v.max_x_ptr(base), sizeof(double));
      ColdPrefetch(v.max_y_ptr(base), sizeof(double));
    }
    return;
  }
  PrefetchForRead(node);
  if (leaf) {
    PrefetchForRead(v.leaf_ids + base);
    PrefetchForRead(v.leaf_x + base);
    PrefetchForRead(v.leaf_y + base);
  } else {
    PrefetchForRead(v.node_ptr(base));
    PrefetchForRead(v.min_x_ptr(base));
    PrefetchForRead(v.min_y_ptr(base));
    PrefetchForRead(v.max_x_ptr(base));
    PrefetchForRead(v.max_y_ptr(base));
  }
}

}  // namespace internal_index
}  // namespace coskq

#endif  // COSKQ_INDEX_KERNELS_H_
