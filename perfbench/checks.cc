#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {
namespace {

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Dist(double ax, double ay, double bx, double by) {
  const double dx = ax - bx;
  const double dy = ay - by;
  return std::sqrt(dx * dx + dy * dy);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

ObjectTable::ObjectTable(const coskq::Dataset& dataset) {
  const size_t n = dataset.NumObjects();
  x_.reserve(n);
  y_.reserve(n);
  keywords_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const coskq::SpatialObject& o =
        dataset.object(static_cast<coskq::ObjectId>(i));
    Add(o.location.x, o.location.y,
        std::vector<uint32_t>(o.keywords.begin(), o.keywords.end()));
  }
}

uint32_t ObjectTable::Add(double x, double y, std::vector<uint32_t> keywords) {
  std::sort(keywords.begin(), keywords.end());
  keywords.erase(std::unique(keywords.begin(), keywords.end()),
                 keywords.end());
  const uint32_t id = static_cast<uint32_t>(x_.size());
  for (uint32_t t : keywords) {
    if (t >= postings_.size()) {
      postings_.resize(t + 1);
    }
    postings_[t].push_back(id);
  }
  x_.push_back(x);
  y_.push_back(y);
  keywords_.push_back(std::move(keywords));
  return id;
}

double ObjectTable::Cost(coskq::CostType type, double qx, double qy,
                         const std::vector<uint32_t>& set) const {
  double max_query = 0.0;
  double max_pair = 0.0;
  for (size_t i = 0; i < set.size(); ++i) {
    max_query = std::max(max_query, Dist(qx, qy, x_[set[i]], y_[set[i]]));
    for (size_t j = i + 1; j < set.size(); ++j) {
      max_pair = std::max(
          max_pair, Dist(x_[set[i]], y_[set[i]], x_[set[j]], y_[set[j]]));
    }
  }
  return type == coskq::CostType::kMaxSum ? max_query + max_pair
                                          : std::max(max_query, max_pair);
}

std::string CheckAnswer(const ObjectTable& table, coskq::CostType type,
                        double qx, double qy,
                        const std::vector<uint32_t>& terms,
                        const Answer& answer) {
  if (!answer.feasible || answer.set.empty()) {
    return "no feasible set returned, though every query keyword is carried";
  }
  for (size_t i = 0; i < answer.set.size(); ++i) {
    if (answer.set[i] >= table.size()) {
      return "unknown object " + std::to_string(answer.set[i]);
    }
    if (i > 0 && answer.set[i] <= answer.set[i - 1]) {
      return "set not strictly ascending";
    }
  }
  for (uint32_t t : terms) {
    bool covered = false;
    for (uint32_t id : answer.set) {
      const std::vector<uint32_t>& kw = table.keywords(id);
      if (std::binary_search(kw.begin(), kw.end(), t)) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      return "keyword " + std::to_string(t) + " not covered by the set";
    }
  }
  const double cost = table.Cost(type, qx, qy, answer.set);
  if (!SameBits(cost, answer.cost)) {
    return "reported cost " + Num(answer.cost) + " != recomputed " + Num(cost);
  }
  return "";
}

std::string CheckLowerBound(double lower_bound, double cost) {
  if (!(lower_bound <= cost)) {
    return "cost " + Num(cost) + " below the keyword-NN lower bound " +
           Num(lower_bound);
  }
  return "";
}

std::string CheckApproBound(coskq::CostType type, double appro, double exact) {
  if (!(exact <= appro)) {
    return "approximate cost " + Num(appro) + " below the optimum " +
           Num(exact);
  }
  // The ratio bound is a real-number statement; allow the rounding of the
  // product itself and nothing more.
  const double bound = coskq::ApproRatioBound(type) * exact * (1.0 + 1e-12);
  if (!(appro <= bound)) {
    return "approximate cost " + Num(appro) + " above " +
           Num(coskq::ApproRatioBound(type)) + " x optimum " + Num(exact);
  }
  return "";
}

std::string CheckSameCost(double a, double b) {
  if (!SameBits(a, b)) {
    return "exact costs differ: " + Num(a) + " vs " + Num(b);
  }
  return "";
}

std::string CheckSameAnswer(const Answer& got, const Answer& want) {
  if (got.feasible != want.feasible) {
    return std::string("feasibility differs: got ") +
           (got.feasible ? "feasible" : "infeasible");
  }
  if (got.set != want.set) {
    std::string s = "sets differ: got {";
    for (uint32_t id : got.set) s += std::to_string(id) + " ";
    s += "} want {";
    for (uint32_t id : want.set) s += std::to_string(id) + " ";
    return s + "}";
  }
  if (want.feasible && !SameBits(got.cost, want.cost)) {
    return "costs differ: " + Num(got.cost) + " vs " + Num(want.cost);
  }
  return "";
}

std::string CheckInsertVisible(const Answer& answer, uint32_t inserted) {
  if (!answer.feasible || answer.cost != 0.0 ||
      !std::binary_search(answer.set.begin(), answer.set.end(), inserted)) {
    return "answer after the acknowledged insert of object " +
           std::to_string(inserted) + " at the query point has cost " +
           Num(answer.cost) + " and does not hold it";
  }
  return "";
}

std::string CheckCountsEqual(const std::string& what_a, uint64_t a,
                             const std::string& what_b, uint64_t b) {
  if (a != b) {
    return what_a + " = " + std::to_string(a) + " but " + what_b + " = " +
           std::to_string(b);
  }
  return "";
}

}  // namespace perfbench
