// SIMD kernel table for the frozen fast paths. See kernels.h for the
// bit-identity contract; the short version is that every variant of an
// operation must be observationally indistinguishable from the scalar
// reference, so the SIMD code below mirrors the scalar arithmetic op for op
// (sub, max, max, mul, mul, add — never an FMA) and only the instruction
// width differs.
//
// Build note: the SIMD variants carry function-level
// `__attribute__((target(...)))` so this translation unit compiles with the
// project's baseline flags (no global -march) and the binary still runs on
// machines without AVX2 — the dispatch below never takes an AVX2 function
// pointer unless CPUID reports the feature.

#include "index/kernels.h"

#include "index/residency.h"

#include <stdlib.h>
#include <string.h>

#include <algorithm>

#include "util/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#define COSKQ_KERNELS_X86 1
#include <immintrin.h>
#else
#define COSKQ_KERNELS_X86 0
#endif

namespace coskq {
namespace internal_index {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference.
//
// GCC's -O3 happily auto-vectorizes these loops, which would make the
// "scalar" table a covert SSE2 table and the benchmark A/B meaningless, so
// the reference implementations explicitly opt out of the vectorizers. The
// generated code is still the exact max/max/mul/add sequence the frozen
// paths always used.

#if defined(__GNUC__) && !defined(__clang__)
#define COSKQ_NO_AUTOVEC \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define COSKQ_NO_AUTOVEC
#endif

inline double AxisDelta(double lo, double hi, double q) {
  return std::max(std::max(lo - q, 0.0), q - hi);
}

COSKQ_NO_AUTOVEC
void ScalarChildSquaredDistances(const double* min_x, const double* min_y,
                                 const double* max_x, const double* max_y,
                                 uint32_t count, double px, double py,
                                 double* out) {
  for (uint32_t i = 0; i < count; ++i) {
    const double dx = AxisDelta(min_x[i], max_x[i], px);
    const double dy = AxisDelta(min_y[i], max_y[i], py);
    out[i] = dx * dx + dy * dy;
  }
}

COSKQ_NO_AUTOVEC
uint32_t ScalarChildScanSig(const double* min_x, const double* min_y,
                            const double* max_x, const double* max_y,
                            const FrozenNodeRecord* children, uint32_t count,
                            double px, double py, uint64_t query_sig,
                            uint32_t* out_idx, double* out_dist) {
  uint32_t survivors = 0;
  for (uint32_t i = 0; i < count; ++i) {
    if ((children[i].sig & query_sig) == 0) {
      continue;
    }
    const double dx = AxisDelta(min_x[i], max_x[i], px);
    const double dy = AxisDelta(min_y[i], max_y[i], py);
    out_idx[survivors] = i;
    out_dist[survivors] = dx * dx + dy * dy;
    ++survivors;
  }
  return survivors;
}

constexpr KernelOps kScalarOps = {
    "scalar",
    &ScalarChildSquaredDistances,
    &ScalarChildScanSig,
};

#if COSKQ_KERNELS_X86

// ---------------------------------------------------------------------------
// SSE2 (2 doubles per op; baseline on x86-64, so no target attribute needed,
// but spelled out for symmetry with the AVX2 block).
//
// Why min/max here is safe for bit-identity: `maxpd(a, b)` returns b when
// the operands compare equal, so maxpd(x, +0.0) yields +0.0 where
// std::max(x, 0.0) keeps x's -0.0 — a sign-of-zero difference only, erased
// by the squaring that immediately follows. MBR coordinates are never NaN
// (tree invariant: MBRs come from real object coordinates), so the NaN
// asymmetry of maxpd cannot trigger.

__attribute__((target("sse2"))) inline __m128d Sse2AxisDelta(__m128d lo,
                                                             __m128d hi,
                                                             __m128d q) {
  const __m128d zero = _mm_setzero_pd();
  const __m128d a = _mm_max_pd(_mm_sub_pd(lo, q), zero);
  return _mm_max_pd(a, _mm_sub_pd(q, hi));
}

__attribute__((target("sse2"))) void Sse2ChildSquaredDistances(
    const double* min_x, const double* min_y, const double* max_x,
    const double* max_y, uint32_t count, double px, double py, double* out) {
  const __m128d vpx = _mm_set1_pd(px);
  const __m128d vpy = _mm_set1_pd(py);
  uint32_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const __m128d dx = Sse2AxisDelta(_mm_loadu_pd(min_x + i),
                                     _mm_loadu_pd(max_x + i), vpx);
    const __m128d dy = Sse2AxisDelta(_mm_loadu_pd(min_y + i),
                                     _mm_loadu_pd(max_y + i), vpy);
    _mm_storeu_pd(out + i,
                  _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy)));
  }
  for (; i < count; ++i) {
    const double dx = AxisDelta(min_x[i], max_x[i], px);
    const double dy = AxisDelta(min_y[i], max_y[i], py);
    out[i] = dx * dx + dy * dy;
  }
}

__attribute__((target("sse2"))) uint32_t Sse2ChildScanSig(
    const double* min_x, const double* min_y, const double* max_x,
    const double* max_y, const FrozenNodeRecord* children, uint32_t count,
    double px, double py, uint64_t query_sig, uint32_t* out_idx,
    double* out_dist) {
  const __m128d vpx = _mm_set1_pd(px);
  const __m128d vpy = _mm_set1_pd(py);
  uint32_t survivors = 0;
  uint32_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const uint64_t pass0 = children[i].sig & query_sig;
    const uint64_t pass1 = children[i + 1].sig & query_sig;
    if ((pass0 | pass1) == 0) {
      continue;
    }
    const __m128d dx = Sse2AxisDelta(_mm_loadu_pd(min_x + i),
                                     _mm_loadu_pd(max_x + i), vpx);
    const __m128d dy = Sse2AxisDelta(_mm_loadu_pd(min_y + i),
                                     _mm_loadu_pd(max_y + i), vpy);
    alignas(16) double dist[2];
    _mm_store_pd(dist, _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy)));
    if (pass0 != 0) {
      out_idx[survivors] = i;
      out_dist[survivors] = dist[0];
      ++survivors;
    }
    if (pass1 != 0) {
      out_idx[survivors] = i + 1;
      out_dist[survivors] = dist[1];
      ++survivors;
    }
  }
  for (; i < count; ++i) {
    if ((children[i].sig & query_sig) == 0) {
      continue;
    }
    const double dx = AxisDelta(min_x[i], max_x[i], px);
    const double dy = AxisDelta(min_y[i], max_y[i], py);
    out_idx[survivors] = i;
    out_dist[survivors] = dx * dx + dy * dy;
    ++survivors;
  }
  return survivors;
}

constexpr KernelOps kSse2Ops = {
    "sse2",
    &Sse2ChildSquaredDistances,
    &Sse2ChildScanSig,
};

// ---------------------------------------------------------------------------
// AVX2 (4 doubles / 4 signatures per op). target("avx2") deliberately does
// NOT enable FMA: the dx*dx + dy*dy sum must round the two products before
// the add exactly like the scalar code, and without -mfma the compiler
// cannot contract _mm256_add_pd(_mm256_mul_pd, _mm256_mul_pd) into a fused
// op.

__attribute__((target("avx2"))) inline __m256d Avx2AxisDelta(__m256d lo,
                                                             __m256d hi,
                                                             __m256d q) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d a = _mm256_max_pd(_mm256_sub_pd(lo, q), zero);
  return _mm256_max_pd(a, _mm256_sub_pd(q, hi));
}

__attribute__((target("avx2"))) void Avx2ChildSquaredDistances(
    const double* min_x, const double* min_y, const double* max_x,
    const double* max_y, uint32_t count, double px, double py, double* out) {
  const __m256d vpx = _mm256_set1_pd(px);
  const __m256d vpy = _mm256_set1_pd(py);
  uint32_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d dx = Avx2AxisDelta(_mm256_loadu_pd(min_x + i),
                                     _mm256_loadu_pd(max_x + i), vpx);
    const __m256d dy = Avx2AxisDelta(_mm256_loadu_pd(min_y + i),
                                     _mm256_loadu_pd(max_y + i), vpy);
    _mm256_storeu_pd(
        out + i, _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)));
  }
  for (; i < count; ++i) {
    const double dx = AxisDelta(min_x[i], max_x[i], px);
    const double dy = AxisDelta(min_y[i], max_y[i], py);
    out[i] = dx * dx + dy * dy;
  }
}

__attribute__((target("avx2"))) uint32_t Avx2ChildScanSig(
    const double* min_x, const double* min_y, const double* max_x,
    const double* max_y, const FrozenNodeRecord* children, uint32_t count,
    double px, double py, uint64_t query_sig, uint32_t* out_idx,
    double* out_dist) {
  const __m256d vpx = _mm256_set1_pd(px);
  const __m256d vpy = _mm256_set1_pd(py);
  uint32_t survivors = 0;
  uint32_t i = 0;
  for (; i + 4 <= count; i += 4) {
    // The node signatures live at stride sizeof(FrozenNodeRecord) inside
    // the AoS records; gather the four AND results into a lane mask first
    // so fully-pruned groups skip the distance math entirely.
    uint32_t lane_mask = 0;
    for (uint32_t k = 0; k < 4; ++k) {
      lane_mask |= ((children[i + k].sig & query_sig) != 0 ? 1u : 0u) << k;
    }
    if (lane_mask == 0) {
      continue;
    }
    const __m256d dx = Avx2AxisDelta(_mm256_loadu_pd(min_x + i),
                                     _mm256_loadu_pd(max_x + i), vpx);
    const __m256d dy = Avx2AxisDelta(_mm256_loadu_pd(min_y + i),
                                     _mm256_loadu_pd(max_y + i), vpy);
    alignas(32) double dist[4];
    _mm256_store_pd(dist,
                    _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)));
    for (uint32_t k = 0; k < 4; ++k) {
      if ((lane_mask & (1u << k)) != 0) {
        out_idx[survivors] = i + k;
        out_dist[survivors] = dist[k];
        ++survivors;
      }
    }
  }
  for (; i < count; ++i) {
    if ((children[i].sig & query_sig) == 0) {
      continue;
    }
    const double dx = AxisDelta(min_x[i], max_x[i], px);
    const double dy = AxisDelta(min_y[i], max_y[i], py);
    out_idx[survivors] = i;
    out_dist[survivors] = dx * dx + dy * dy;
    ++survivors;
  }
  return survivors;
}

constexpr KernelOps kAvx2Ops = {
    "avx2",
    &Avx2ChildSquaredDistances,
    &Avx2ChildScanSig,
};

#endif  // COSKQ_KERNELS_X86

// ---------------------------------------------------------------------------
// Dispatch.

const KernelOps* AutoDetect() {
#if COSKQ_KERNELS_X86
  if (__builtin_cpu_supports("avx2")) {
    return &kAvx2Ops;
  }
  return &kSse2Ops;  // SSE2 is the x86-64 baseline.
#else
  return &kScalarOps;
#endif
}

Status Lookup(const std::string& name, const KernelOps** out) {
  if (name == "scalar") {
    *out = &kScalarOps;
    return Status::OK();
  }
#if COSKQ_KERNELS_X86
  if (name == "sse2") {
    *out = &kSse2Ops;
    return Status::OK();
  }
  if (name == "avx2") {
    if (!__builtin_cpu_supports("avx2")) {
      return Status::Unimplemented("kernel 'avx2' not supported by this CPU");
    }
    *out = &kAvx2Ops;
    return Status::OK();
  }
#else
  if (name == "sse2" || name == "avx2") {
    return Status::Unimplemented("kernel '" + name +
                                 "' not built for this architecture");
  }
#endif
  return Status::InvalidArgument(
      "unknown kernel '" + name + "' (expected scalar, sse2, avx2, or auto)");
}

const KernelOps* ResolveDefault() {
  const char* env = getenv("COSKQ_KERNEL");
  if (env != nullptr && env[0] != '\0' && strcmp(env, "auto") != 0) {
    const KernelOps* forced = nullptr;
    const Status status = Lookup(env, &forced);
    if (status.ok()) {
      return forced;
    }
    // A bad environment must degrade, not crash: warn and auto-detect.
    COSKQ_LOG(kWarning) << "ignoring COSKQ_KERNEL=" << env << ": "
                        << status.message();
  }
  return AutoDetect();
}

/// The process-wide selection. Writes happen only through SelectKernels
/// (a test/bench hook documented as not-thread-safe against in-flight
/// queries); reads are a single pointer load.
const KernelOps*& ActiveSlot() {
  static const KernelOps* active = ResolveDefault();
  return active;
}

}  // namespace

const KernelOps& ActiveKernels() { return *ActiveSlot(); }

const char* ActiveKernelName() { return ActiveSlot()->name; }

Status SelectKernels(const std::string& name) {
  const KernelOps* ops = nullptr;
  if (name == "auto") {
    ops = ResolveDefault();
  } else {
    const Status status = Lookup(name, &ops);
    if (!status.ok()) {
      return status;
    }
  }
  ActiveSlot() = ops;
  return Status::OK();
}

Status KernelsForName(const std::string& name, const KernelOps** out) {
  return Lookup(name, out);
}

std::vector<std::string> SupportedKernelNames() {
  std::vector<std::string> names = {"scalar"};
#if COSKQ_KERNELS_X86
  names.push_back("sse2");
  if (__builtin_cpu_supports("avx2")) {
    names.push_back("avx2");
  }
#endif
  return names;
}

void ColdPrefetch(const void* p, size_t len) {
  // Keyed by first page of the range; heap-pop prefetch ranges are at most
  // a group (one page, maybe straddling two), so one key is a good proxy.
  // +1 biases keys away from 0 so the zero-initialised ring is "empty".
  constexpr size_t kRing = 16;
  static thread_local uintptr_t ring[kRing] = {};
  static thread_local uint32_t ring_pos = 0;
  const uintptr_t key = reinterpret_cast<uintptr_t>(p) / 4096 + 1;
  for (uintptr_t r : ring) {
    if (r == key) {
      return;
    }
  }
  ring[ring_pos++ % kRing] = key;
  AdviseWillNeed(p, len);
}

}  // namespace internal_index
}  // namespace coskq
