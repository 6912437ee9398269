#include "data/dataset.h"

#include <string.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/atomic_file.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace coskq {

TermId Vocabulary::GetOrAdd(const std::string& word) {
  auto [it, inserted] =
      word_to_id_.emplace(word, static_cast<TermId>(id_to_word_.size()));
  if (inserted) {
    id_to_word_.push_back(word);
  }
  return it->second;
}

TermId Vocabulary::Find(const std::string& word) const {
  auto it = word_to_id_.find(word);
  return it == word_to_id_.end() ? kInvalidTermId : it->second;
}

const std::string& Vocabulary::TermString(TermId id) const {
  COSKQ_CHECK_LT(id, id_to_word_.size());
  return id_to_word_[id];
}

Dataset Dataset::Clone() const {
  COSKQ_CHECK(!concurrent_appends_enabled())
      << "Clone of a concurrent-append dataset";
  Dataset copy;
  copy.objects_ = objects_;
  copy.vocab_ = vocab_;
  copy.mbr_ = mbr_;
  copy.term_frequency_ = term_frequency_;
  copy.total_keyword_count_ = total_keyword_count_;
  return copy;
}

ObjectId Dataset::AddObject(const Point& location,
                            const std::vector<std::string>& words) {
  TermSet terms;
  terms.reserve(words.size());
  for (const std::string& word : words) {
    terms.push_back(vocab_.GetOrAdd(word));
  }
  return AddObjectWithTerms(location, std::move(terms));
}

ObjectId Dataset::AddObjectWithTerms(const Point& location, TermSet terms) {
  COSKQ_CHECK(!concurrent_appends_enabled())
      << "use AppendObjectConcurrent in concurrent-append mode";
  NormalizeTermSet(&terms);
  checksum_cached_.store(false, std::memory_order_relaxed);
  const ObjectId id = static_cast<ObjectId>(objects_.size());
  mbr_.ExpandToInclude(location);
  total_keyword_count_ += terms.size();
  for (TermId t : terms) {
    if (t >= term_frequency_.size()) {
      term_frequency_.resize(t + 1, 0);
    }
    ++term_frequency_[t];
  }
  objects_.push_back(SpatialObject{id, location, std::move(terms)});
  return id;
}

const SpatialObject& Dataset::object(ObjectId id) const {
  COSKQ_CHECK_LT(id, NumObjects());
  return objects_[id];
}

void Dataset::EnableConcurrentAppends(size_t max_extra) {
  COSKQ_CHECK(!concurrent_appends_enabled());
  const size_t base = objects_.size();
  published_count_.store(base, std::memory_order_relaxed);
  append_capacity_ = base + max_extra;
  // All reallocation happens here, before any reader exists: appends only
  // ever write one placeholder slot and bump the published count, so the
  // storage (and every reference a reader holds) stays put.
  objects_.resize(append_capacity_);
  concurrent_mode_.store(true, std::memory_order_release);
}

StatusOr<ObjectId> Dataset::AppendObjectConcurrent(const Point& location,
                                                   TermSet terms) {
  COSKQ_CHECK(concurrent_appends_enabled());
  NormalizeTermSet(&terms);
  const size_t n = published_count_.load(std::memory_order_relaxed);
  if (n >= append_capacity_) {
    return Status::OutOfRange("append capacity exhausted (" +
                              std::to_string(append_capacity_) + " objects)");
  }
  const ObjectId id = static_cast<ObjectId>(n);
  objects_[n] = SpatialObject{id, location, std::move(terms)};
  // Release: a reader that observes the new count sees the full object.
  published_count_.store(n + 1, std::memory_order_release);
  return id;
}

uint32_t Dataset::TermFrequency(TermId t) const {
  return t < term_frequency_.size() ? term_frequency_[t] : 0;
}

double Dataset::AverageKeywordsPerObject() const {
  if (objects_.empty()) {
    return 0.0;
  }
  return static_cast<double>(total_keyword_count_) /
         static_cast<double>(objects_.size());
}

std::vector<TermId> Dataset::TermsByFrequencyDesc() const {
  std::vector<TermId> terms;
  terms.reserve(term_frequency_.size());
  for (TermId t = 0; t < term_frequency_.size(); ++t) {
    if (term_frequency_[t] > 0) {
      terms.push_back(t);
    }
  }
  std::stable_sort(terms.begin(), terms.end(), [this](TermId a, TermId b) {
    if (term_frequency_[a] != term_frequency_[b]) {
      return term_frequency_[a] > term_frequency_[b];
    }
    return a < b;
  });
  return terms;
}

void Dataset::ReplaceKeywords(ObjectId id, TermSet terms) {
  COSKQ_CHECK_LT(id, objects_.size());
  NormalizeTermSet(&terms);
  checksum_cached_.store(false, std::memory_order_relaxed);
  SpatialObject& obj = objects_[id];
  total_keyword_count_ -= obj.keywords.size();
  for (TermId t : obj.keywords) {
    COSKQ_DCHECK(t < term_frequency_.size() && term_frequency_[t] > 0);
    --term_frequency_[t];
  }
  total_keyword_count_ += terms.size();
  for (TermId t : terms) {
    if (t >= term_frequency_.size()) {
      term_frequency_.resize(t + 1, 0);
    }
    ++term_frequency_[t];
  }
  obj.keywords = std::move(terms);
}

uint64_t Dataset::ContentChecksum() const {
  if (checksum_cached_.load(std::memory_order_acquire)) {
    return checksum_cache_.load(std::memory_order_relaxed);
  }
  // FNV-1a over a canonical little-endian u64 stream. Coordinates are
  // hashed by bit pattern, so the digest is exact (no formatting round
  // trip) and any content difference changes it with high probability.
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      h ^= (value >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  const auto mix_double = [&mix](double value) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
    memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  };
  const size_t n = NumObjects();
  mix(n);
  for (size_t i = 0; i < n; ++i) {
    const SpatialObject& obj = objects_[i];
    mix_double(obj.location.x);
    mix_double(obj.location.y);
    mix(obj.keywords.size());
    for (TermId t : obj.keywords) {
      mix(t);
    }
  }
  checksum_cache_.store(h, std::memory_order_relaxed);
  checksum_cached_.store(true, std::memory_order_release);
  return h;
}

Status Dataset::SaveToFile(const std::string& path) const {
  return WriteFileAtomically(path, [this](int fd) {
    // Formatted in ~1 MiB chunks, each written out as it fills.
    constexpr std::streamoff kChunkBytes = 1 << 20;
    std::ostringstream out;
    // max_digits10 makes the coordinate round-trip bit-exact.
    out.precision(std::numeric_limits<double>::max_digits10);
    const auto flush = [&out, fd] {
      const std::string chunk = out.str();
      out.str("");
      return WriteFully(fd, chunk.data(), chunk.size());
    };
    const size_t n = NumObjects();
    for (size_t i = 0; i < n; ++i) {
      const SpatialObject& obj = objects_[i];
      out << obj.location.x << ' ' << obj.location.y;
      for (TermId t : obj.keywords) {
        out << ' ' << vocab_.TermString(t);
      }
      out << '\n';
      if (out.tellp() >= kChunkBytes && !flush()) {
        return false;
      }
    }
    return flush();
  });
}

namespace {

StatusOr<Dataset> ParseLines(std::istream& in, const std::string& origin) {
  Dataset dataset;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty() || trimmed[0] == '#') {
      continue;
    }
    std::vector<std::string> fields = SplitString(trimmed, ' ');
    if (fields.size() < 2) {
      return Status::Corruption(origin + ":" + std::to_string(line_number) +
                                ": expected 'x y [words...]'");
    }
    double x = 0.0;
    double y = 0.0;
    if (!ParseDouble(fields[0], &x) || !ParseDouble(fields[1], &y)) {
      return Status::Corruption(origin + ":" + std::to_string(line_number) +
                                ": malformed coordinates");
    }
    // strtod happily parses "nan"/"inf"; a non-finite location would poison
    // every distance computed against it, so reject it here with the same
    // file:line provenance as a parse failure.
    if (!std::isfinite(x) || !std::isfinite(y)) {
      return Status::Corruption(origin + ":" + std::to_string(line_number) +
                                ": non-finite coordinates");
    }
    std::vector<std::string> words(fields.begin() + 2, fields.end());
    dataset.AddObject(Point{x, y}, words);
  }
  return dataset;
}

}  // namespace

StatusOr<Dataset> Dataset::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open for reading: " + path);
  }
  return ParseLines(in, path);
}

StatusOr<Dataset> Dataset::ParseFromString(const std::string& text) {
  std::istringstream in(text);
  return ParseLines(in, "<string>");
}

}  // namespace coskq
