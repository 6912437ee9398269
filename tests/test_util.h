#ifndef COSKQ_TESTS_TEST_UTIL_H_
#define COSKQ_TESTS_TEST_UTIL_H_

// Helpers shared by the test suites: small random datasets and queries with
// reproducible seeds, and per-test scratch paths.

#include <unistd.h>

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/query.h"
#include "data/query_gen.h"
#include "data/synthetic.h"
#include "util/random.h"

namespace coskq {
namespace test {

/// A small synthetic dataset: `n` objects in the unit square, vocabulary
/// `vocab`, ~`avg_kw` keywords per object, deterministic in `seed`.
inline Dataset MakeRandomDataset(size_t n, size_t vocab, double avg_kw,
                                 uint64_t seed) {
  SyntheticSpec spec;
  spec.num_objects = n;
  spec.vocab_size = vocab;
  spec.avg_keywords_per_object = avg_kw;
  spec.zipf_theta = 0.7;
  spec.cluster_fraction = 0.5;
  spec.num_clusters = 4;
  Rng rng(seed);
  return GenerateSynthetic(spec, &rng);
}

/// A random query with `k` keywords drawn from the frequent band.
inline CoskqQuery MakeRandomQuery(const Dataset& dataset, size_t k,
                                  uint64_t seed) {
  QueryGenerator gen(&dataset);
  Rng rng(seed);
  return gen.Generate(k, &rng);
}

/// A scratch path under ::testing::TempDir() unique to this process and the
/// running test: `<tempdir>/<suite>.<test>.<pid>.<name>`. ctest runs every
/// test case in its own process, often in parallel, so fixed names would let
/// concurrent cases overwrite (or truncate under an mmap) each other's
/// files. Use it for files and directories alike.
inline std::string UniqueTempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = info != nullptr ? std::string(info->test_suite_name()) +
                                          "." + info->name()
                                    : std::string("no_test");
  for (char& c : tag) {
    if (c == '/') {
      c = '_';  // Parameterized names carry slashes.
    }
  }
  return ::testing::TempDir() + "/" + tag + "." + std::to_string(getpid()) +
         "." + name;
}

}  // namespace test
}  // namespace coskq

#endif  // COSKQ_TESTS_TEST_UTIL_H_
