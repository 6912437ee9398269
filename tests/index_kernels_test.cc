// Exhaustive bit-identity sweep for the SIMD kernel table (kernels.h):
// every SIMD variant must produce byte-identical outputs to the scalar
// reference on every vector-width tail length (N = 0..33), on unaligned
// base offsets into the SoA arrays, and on boundary geometry (touching,
// overlapping, containing, and degenerate point/line MBRs, with the query
// on corners and edges). Plus the dispatch contract: unknown or
// hardware-unsupported COSKQ_KERNEL overrides must fail with a Status (or
// degrade to auto-detection), never crash.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "index/frozen_layout.h"
#include "index/kernels.h"
#include "util/random.h"

namespace coskq {
namespace internal_index {
namespace {

struct SoaMbrs {
  std::vector<double> min_x, min_y, max_x, max_y;
  std::vector<FrozenNodeRecord> nodes;

  size_t size() const { return min_x.size(); }

  void Add(double lo_x, double lo_y, double hi_x, double hi_y, uint64_t sig) {
    min_x.push_back(lo_x);
    min_y.push_back(lo_y);
    max_x.push_back(hi_x);
    max_y.push_back(hi_y);
    FrozenNodeRecord rec{};
    rec.sig = sig;
    nodes.push_back(rec);
  }
};

/// Random boxes plus a deliberate band of boundary geometry relative to the
/// probe point (0.5, 0.5): containing boxes (distance exactly 0), boxes
/// whose edge or corner touches the probe, degenerate point and line boxes,
/// and huge/tiny coordinates.
SoaMbrs MakeAdversarialMbrs(size_t n, uint64_t seed) {
  SoaMbrs soa;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t sig =
        rng.UniformUint64(4) == 0
            ? 0  // some all-zero signatures so pruning paths are hit
            : rng.UniformUint64(~uint64_t{0});
    switch (i % 7) {
      case 0: {  // generic random box
        const double x0 = rng.UniformDouble(), x1 = rng.UniformDouble();
        const double y0 = rng.UniformDouble(), y1 = rng.UniformDouble();
        soa.Add(std::min(x0, x1), std::min(y0, y1), std::max(x0, x1),
                std::max(y0, y1), sig);
        break;
      }
      case 1:  // contains the probe: exact zero distance
        soa.Add(0.25, 0.25, 0.75, 0.75, sig);
        break;
      case 2:  // right edge exactly through the probe
        soa.Add(0.0, 0.0, 0.5, 1.0, sig);
        break;
      case 3:  // corner exactly on the probe
        soa.Add(0.5, 0.5, 0.9, 0.9, sig);
        break;
      case 4:  // degenerate point box
        soa.Add(0.125, 0.875, 0.125, 0.875, sig);
        break;
      case 5:  // degenerate horizontal line box
        soa.Add(0.1, 0.3, 0.9, 0.3, sig);
        break;
      default:  // extreme magnitudes
        soa.Add(-1e300, -1e-300, 1e-300, 1e300, sig);
        break;
    }
  }
  return soa;
}

class KernelsTest : public ::testing::TestWithParam<std::string> {
 protected:
  const KernelOps* ops() {
    const KernelOps* out = nullptr;
    const Status status = KernelsForName(GetParam(), &out);
    EXPECT_TRUE(status.ok()) << status.message();
    return out;
  }
};

TEST_P(KernelsTest, ChildSquaredDistancesBitIdenticalOnAllTails) {
  const KernelOps* scalar = nullptr;
  ASSERT_TRUE(KernelsForName("scalar", &scalar).ok());
  const KernelOps* simd = ops();

  // 40 slots so every (offset, count) pair below stays in bounds.
  const SoaMbrs soa = MakeAdversarialMbrs(40, 17);
  const double probes[][2] = {
      {0.5, 0.5}, {0.0, 0.0}, {1.0, 1.0}, {0.5, -2.0}, {-0.0, 0.5}};
  for (const auto& probe : probes) {
    for (uint32_t offset = 0; offset < 4; ++offset) {
      for (uint32_t count = 0; count <= 33; ++count) {
        std::vector<double> want(count + 1, -1.0), got(count + 1, -1.0);
        scalar->child_squared_distances(
            soa.min_x.data() + offset, soa.min_y.data() + offset,
            soa.max_x.data() + offset, soa.max_y.data() + offset, count,
            probe[0], probe[1], want.data());
        simd->child_squared_distances(
            soa.min_x.data() + offset, soa.min_y.data() + offset,
            soa.max_x.data() + offset, soa.max_y.data() + offset, count,
            probe[0], probe[1], got.data());
        for (uint32_t i = 0; i < count; ++i) {
          EXPECT_EQ(got[i], want[i])
              << GetParam() << " offset=" << offset << " count=" << count
              << " lane=" << i;
        }
        // One-past-the-end sentinel untouched: no overwrite on any tail.
        EXPECT_EQ(got[count], -1.0) << GetParam() << " count=" << count;
      }
    }
  }
}

TEST_P(KernelsTest, ChildScanSigMatchesScalarSurvivorsAndDistances) {
  const KernelOps* scalar = nullptr;
  ASSERT_TRUE(KernelsForName("scalar", &scalar).ok());
  const KernelOps* simd = ops();

  const SoaMbrs soa = MakeAdversarialMbrs(40, 23);
  const uint64_t query_sigs[] = {0, ~uint64_t{0}, 0x8000000000000001ull,
                                 0x5555555555555555ull};
  for (const uint64_t qs : query_sigs) {
    for (uint32_t offset = 0; offset < 4; ++offset) {
      for (uint32_t count = 0; count <= 33; ++count) {
        std::vector<uint32_t> want_idx(count), got_idx(count);
        std::vector<double> want_dist(count), got_dist(count);
        const uint32_t want_n = scalar->child_scan_sig(
            soa.min_x.data() + offset, soa.min_y.data() + offset,
            soa.max_x.data() + offset, soa.max_y.data() + offset,
            soa.nodes.data() + offset, count, 0.5, 0.5, qs, want_idx.data(),
            want_dist.data());
        const uint32_t got_n = simd->child_scan_sig(
            soa.min_x.data() + offset, soa.min_y.data() + offset,
            soa.max_x.data() + offset, soa.max_y.data() + offset,
            soa.nodes.data() + offset, count, 0.5, 0.5, qs, got_idx.data(),
            got_dist.data());
        ASSERT_EQ(got_n, want_n)
            << GetParam() << " qs=" << qs << " offset=" << offset
            << " count=" << count;
        for (uint32_t k = 0; k < want_n; ++k) {
          EXPECT_EQ(got_idx[k], want_idx[k]) << GetParam() << " k=" << k;
          EXPECT_EQ(got_dist[k], want_dist[k]) << GetParam() << " k=" << k;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSupported, KernelsTest,
                         ::testing::ValuesIn(SupportedKernelNames()),
                         [](const auto& info) { return info.param; });

TEST(KernelDispatchTest, SupportedNamesStartWithScalar) {
  const std::vector<std::string> names = SupportedKernelNames();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "scalar");
  for (const std::string& name : names) {
    const KernelOps* ops = nullptr;
    ASSERT_TRUE(KernelsForName(name, &ops).ok()) << name;
    EXPECT_EQ(ops->name, name);
  }
}

TEST(KernelDispatchTest, UnknownNameFailsWithStatusNotCrash) {
  const KernelOps* ops = nullptr;
  const Status status = KernelsForName("avx512-typo", &ops);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ops, nullptr);

  // SelectKernels must leave the active table untouched on error.
  const std::string before = ActiveKernelName();
  EXPECT_FALSE(SelectKernels("no-such-kernel").ok());
  EXPECT_EQ(ActiveKernelName(), before);
}

TEST(KernelDispatchTest, SelectRoundTripsThroughEverySupportedKernel) {
  const std::string before = ActiveKernelName();
  for (const std::string& name : SupportedKernelNames()) {
    ASSERT_TRUE(SelectKernels(name).ok()) << name;
    EXPECT_EQ(ActiveKernelName(), name);
  }
  ASSERT_TRUE(SelectKernels(before).ok());
}

TEST(KernelDispatchTest, BadEnvironmentOverrideDegradesToAutoDetect) {
  // "auto" re-runs the default resolution, which reads COSKQ_KERNEL. A
  // bogus value must log-and-fallback (library init cannot crash on a bad
  // environment), landing on a real supported table.
  const std::string before = ActiveKernelName();
  ASSERT_EQ(setenv("COSKQ_KERNEL", "quantum", /*overwrite=*/1), 0);
  ASSERT_TRUE(SelectKernels("auto").ok());
  const std::vector<std::string> names = SupportedKernelNames();
  EXPECT_NE(std::find(names.begin(), names.end(),
                      std::string(ActiveKernelName())),
            names.end());
  ASSERT_EQ(unsetenv("COSKQ_KERNEL"), 0);
  ASSERT_TRUE(SelectKernels(before).ok());
}

TEST(KernelDispatchTest, HonoursValidEnvironmentOverride) {
  const std::string before = ActiveKernelName();
  ASSERT_EQ(setenv("COSKQ_KERNEL", "scalar", /*overwrite=*/1), 0);
  ASSERT_TRUE(SelectKernels("auto").ok());
  EXPECT_EQ(std::string(ActiveKernelName()), "scalar");
  ASSERT_EQ(unsetenv("COSKQ_KERNEL"), 0);
  ASSERT_TRUE(SelectKernels(before).ok());
}

#if !defined(__x86_64__) && !defined(__i386__)
TEST(KernelDispatchTest, SimdNamesUnimplementedOffX86) {
  const KernelOps* ops = nullptr;
  EXPECT_EQ(KernelsForName("avx2", &ops).code(), StatusCode::kUnimplemented);
  EXPECT_EQ(KernelsForName("sse2", &ops).code(), StatusCode::kUnimplemented);
}
#endif

}  // namespace
}  // namespace internal_index
}  // namespace coskq
