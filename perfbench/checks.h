// Correctness checks the benchmark applies to every answer it receives.
//
// They are computed apart from the program: the object table is the
// benchmark's own copy of every object's coordinates and keywords (extended
// with the objects its acknowledged MUTATEs inserted), costs are recomputed
// with the benchmark's own MaxSum and Dia formulas, and the lower bound comes
// from a linear scan of per-keyword object lists rather than from the index.
// Every check returns an empty string on success or a description of the
// failure; the self-test feeds each one a wrong answer and expects the
// description.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <stdint.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/cost.h"
#include "data/dataset.h"

namespace perfbench {

/// One answer as the benchmark saw it (from the wire or from BatchEngine).
struct Answer {
  bool feasible = false;
  std::vector<uint32_t> set;  // sorted object ids
  double cost = 0.0;
};

class ObjectTable {
 public:
  /// Copies every object of `dataset` (ids are positions).
  explicit ObjectTable(const coskq::Dataset& dataset);

  /// Appends an object; its id is the previous size(). Keywords sorted.
  uint32_t Add(double x, double y, std::vector<uint32_t> keywords);

  size_t size() const { return x_.size(); }
  double x(uint32_t id) const { return x_[id]; }
  double y(uint32_t id) const { return y_[id]; }
  const std::vector<uint32_t>& keywords(uint32_t id) const {
    return keywords_[id];
  }

  /// MaxSum or Dia of `set` around (qx, qy), from the raw coordinates.
  double Cost(coskq::CostType type, double qx, double qy,
              const std::vector<uint32_t>& set) const;

  /// max over t in `terms` of the distance from (qx, qy) to the nearest
  /// object carrying t, among objects for which `live(id)` holds; a lower
  /// bound on the optimal cost of both cost functions. +inf if some term
  /// has no live object.
  template <typename LiveFn>
  double LowerBound(double qx, double qy, const std::vector<uint32_t>& terms,
                    LiveFn live) const;
  double LowerBound(double qx, double qy,
                    const std::vector<uint32_t>& terms) const {
    return LowerBound(qx, qy, terms, [](uint32_t) { return true; });
  }

 private:
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<std::vector<uint32_t>> keywords_;
  std::vector<std::vector<uint32_t>> postings_;  // term -> object ids
};

/// The answer is feasible, names known objects in ascending order, covers
/// `terms`, and carries exactly the recomputed cost (bit for bit).
std::string CheckAnswer(const ObjectTable& table, coskq::CostType type,
                        double qx, double qy,
                        const std::vector<uint32_t>& terms,
                        const Answer& answer);

/// lower_bound <= cost.
std::string CheckLowerBound(double lower_bound, double cost);

/// exact <= appro <= ratio(type) * exact.
std::string CheckApproBound(coskq::CostType type, double appro, double exact);

/// Two independent exact algorithms agree on the optimal cost (bit for bit).
std::string CheckSameCost(double a, double b);

/// Same set and bit-identical cost.
std::string CheckSameAnswer(const Answer& got, const Answer& want);

/// No object of the answer was removed by a MUTATE acknowledged before the
/// query was sent (`removed_before_send(id)` says so).
template <typename RemovedFn>
std::string CheckNotStale(const Answer& answer, RemovedFn removed_before_send) {
  for (uint32_t id : answer.set) {
    if (removed_before_send(id)) {
      return "answer holds object " + std::to_string(id) +
             ", removed by an acknowledged MUTATE before the query was sent";
    }
  }
  return "";
}

/// The answer to a query asked right after an acknowledged insert of
/// `inserted` at the query's location, carrying all the query's keywords,
/// is that object at cost 0.
std::string CheckInsertVisible(const Answer& answer, uint32_t inserted);

/// Two counts reached by independent paths are equal.
std::string CheckCountsEqual(const std::string& what_a, uint64_t a,
                             const std::string& what_b, uint64_t b);

template <typename LiveFn>
double ObjectTable::LowerBound(double qx, double qy,
                               const std::vector<uint32_t>& terms,
                               LiveFn live) const {
  double bound = 0.0;
  for (uint32_t t : terms) {
    double nearest = std::numeric_limits<double>::infinity();
    if (t < postings_.size()) {
      for (uint32_t id : postings_[t]) {
        if (!live(id)) {
          continue;
        }
        const double dx = qx - x_[id];
        const double dy = qy - y_[id];
        const double d = std::sqrt(dx * dx + dy * dy);
        nearest = d < nearest ? d : nearest;
      }
    }
    bound = nearest > bound ? nearest : bound;
  }
  return bound;
}

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
