#ifndef COSKQ_INDEX_FROZEN_LAYOUT_H_
#define COSKQ_INDEX_FROZEN_LAYOUT_H_

#include <stddef.h>
#include <stdint.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "data/object.h"
#include "data/term_set.h"

namespace coskq {

namespace internal_index {

/// One node of the frozen (flat) IR-tree. Nodes are numbered in
/// breadth-first "slot" order (root = slot 0), so the children of any node
/// occupy a contiguous slot range and the per-child MINDIST scan reads
/// contiguous stretches of the structure-of-arrays MBR lanes.
///
/// The record is a fixed 32-byte POD written verbatim (little-endian) into
/// index snapshots, so its layout is part of the snapshot format: any field
/// change requires a snapshot version bump (see snapshot.h).
struct FrozenNodeRecord {
  /// Dense preorder id carried over from the pointer tree. Visit logs and
  /// the per-node caches of SearchScratch are keyed by this id, which is why
  /// frozen traversal is observationally identical to the pointer tree even
  /// though storage order (BFS) differs from id order (preorder).
  uint32_t id;
  /// Internal nodes: slot of the first child; children occupy
  /// [first_child, first_child + entry_count). Unused (0) for leaves.
  uint32_t first_child;
  /// Leaves: index of the first entry in the leaf-entry arrays; entries
  /// occupy [entry_begin, entry_begin + entry_count). Unused (0) otherwise.
  uint32_t entry_begin;
  /// Number of children (internal) or leaf entries (leaf).
  uint16_t entry_count;
  /// Bit 0: leaf. Remaining bits reserved (zero).
  uint16_t flags;
  /// Term-summary span [term_begin, term_begin + term_count) in the arena:
  /// the node's sorted keyword-union summary.
  uint32_t term_begin;
  uint32_t term_count;
  /// One-bit Bloom signature of the term summary (see term_signature.h).
  uint64_t sig;

  bool is_leaf() const { return (flags & 1u) != 0; }
};

static_assert(sizeof(FrozenNodeRecord) == 32,
              "FrozenNodeRecord is part of the snapshot format");
static_assert(std::is_trivially_copyable<FrozenNodeRecord>::value,
              "FrozenNodeRecord must be memcpy-safe");

/// Element counts of the variable-size body sections; they determine every
/// section offset.
struct BodyCounts {
  uint32_t num_nodes = 0;
  uint32_t num_leaf_entries = 0;
  /// Length of the term arena (the node term summaries).
  uint32_t num_terms = 0;
  /// Posting-list count: one past the largest term id any leaf entry
  /// carries (0 for an empty body). post_begin holds num_post_terms + 1
  /// offsets.
  uint32_t num_post_terms = 0;
  /// Total posting entries, i.e. the sum of the leaf entries' keyword-set
  /// sizes (Σ df).
  uint32_t num_postings = 0;
};

/// Byte offsets of the body sections (snapshot v4, DESIGN.md §11): each a
/// flat array indexed by slot or entry, in this order, each 8-byte aligned.
struct BodyLayout {
  size_t nodes_off = 0;
  size_t min_x_off = 0;
  size_t min_y_off = 0;
  size_t max_x_off = 0;
  size_t max_y_off = 0;
  size_t terms_off = 0;
  size_t leaf_ids_off = 0;
  size_t leaf_x_off = 0;
  size_t leaf_y_off = 0;
  size_t post_begin_off = 0;
  size_t post_entries_off = 0;

  size_t total_bytes = 0;

  static BodyLayout Make(const BodyCounts& counts);
};

/// The frozen IR-tree: every array the flat traversals touch, resolved
/// against one contiguous 8-byte-aligned body buffer laid out exactly like
/// the body of an index snapshot (see snapshot.cc), so saving is a single
/// write and loading can point straight into an mmap.
///
///  * nodes[slot]                     — node records in BFS slot order.
///  * min_x/min_y/max_x/max_y[slot]   — the node MBRs as four SoA lanes, so
///    a parent's per-child MINDIST scan reads four contiguous runs.
///  * terms[...]                      — term arena: the node summaries as
///    sorted spans.
///  * leaf_ids/leaf_x/leaf_y[i]       — leaf entries packed in traversal
///    order: object id and location, so a leaf scan never touches the
///    Dataset.
///  * post_begin/post_entries         — the term-major posting file: the
///    ascending leaf-entry indices of every term (see postings()). A leaf
///    entry's keyword test is "e lies in the run of t", and the run of t
///    inside a leaf is a sub-run (see LeafRun).
struct FrozenView {
  const FrozenNodeRecord* nodes = nullptr;
  const double* min_x = nullptr;
  const double* min_y = nullptr;
  const double* max_x = nullptr;
  const double* max_y = nullptr;
  const TermId* terms = nullptr;
  const ObjectId* leaf_ids = nullptr;
  const double* leaf_x = nullptr;
  const double* leaf_y = nullptr;
  const uint32_t* post_begin = nullptr;
  const uint32_t* post_entries = nullptr;

  uint32_t num_nodes = 0;
  uint32_t num_leaf_entries = 0;
  uint32_t num_terms = 0;
  uint32_t num_post_terms = 0;
  uint32_t num_postings = 0;
  uint32_t height = 0;

  /// True when the body is a cold (non-populated) mapping; traversals swap
  /// the blind cache-line prefetch for page-granular madvise hints.
  bool cold = false;

  const TermId* node_terms(const FrozenNodeRecord& n) const {
    return terms + n.term_begin;
  }

  /// Document frequency of t in the frozen base (0 for ids past the
  /// posting file).
  uint32_t df(TermId t) const {
    return t < num_post_terms ? post_begin[t + 1] - post_begin[t] : 0;
  }

  /// The whole posting run of t: [first, last) of ascending entry indices.
  std::pair<const uint32_t*, const uint32_t*> postings(TermId t) const {
    if (t >= num_post_terms) {
      return {post_entries, post_entries};
    }
    return {post_entries + post_begin[t], post_entries + post_begin[t + 1]};
  }

  /// The sub-run of t's postings inside the leaf-entry range
  /// [begin, end): exactly the entries of that range carrying t, ascending.
  std::pair<const uint32_t*, const uint32_t*> LeafRun(TermId t,
                                                      uint32_t begin,
                                                      uint32_t end) const {
    auto [first, last] = postings(t);
    first = std::lower_bound(first, last, begin);
    return {first, std::lower_bound(first, last, end)};
  }
};

/// Calls visit(e) once for every leaf entry e in [begin, end) that carries
/// at least one of `num_terms` query terms, in ascending e: the union of the
/// terms' leaf runs, where run_of(i) returns term i's run inside
/// [begin, end). These are exactly the survivors of an entry-by-entry
/// "keyword set meets the query" test, in the same order.
template <typename RunOf, typename Visit>
void ForEachLeafMatch(size_t num_terms, uint32_t begin, uint32_t end,
                      RunOf run_of, Visit visit) {
  if (num_terms == 1) {
    for (auto [first, last] = run_of(0); first != last; ++first) {
      visit(*first);
    }
    return;
  }
  // Mark the runs in a bitmap over the leaf's entries, then sweep it.
  constexpr uint32_t kStackWords = 8;
  const uint32_t words = (end - begin + 63) / 64;
  uint64_t stack_bits[kStackWords];
  std::vector<uint64_t> heap_bits;
  uint64_t* bits = stack_bits;
  if (words > kStackWords) {
    heap_bits.resize(words);
    bits = heap_bits.data();
  }
  std::fill(bits, bits + words, uint64_t{0});
  for (size_t i = 0; i < num_terms; ++i) {
    for (auto [first, last] = run_of(i); first != last; ++first) {
      const uint32_t k = *first - begin;
      bits[k >> 6] |= uint64_t{1} << (k & 63);
    }
  }
  for (uint32_t w = 0; w < words; ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      visit(begin + w * 64 + static_cast<uint32_t>(std::countr_zero(word)));
    }
  }
}

/// Owns the storage behind a FrozenView: either a heap buffer (built by
/// IrTree::Freeze or by a read-based snapshot load) or an mmap of a snapshot
/// file. Exactly one of the two is active.
struct FrozenStore {
  FrozenStore() = default;
  ~FrozenStore();

  FrozenStore(const FrozenStore&) = delete;
  FrozenStore& operator=(const FrozenStore&) = delete;

  FrozenView view;

  /// Heap-owned body buffer (identical to the snapshot body).
  std::vector<uint8_t> owned;

  /// When loaded via mmap: base and length of the whole mapped file (the
  /// body starts at the snapshot header region size). Unmapped on
  /// destruction.
  void* mapped = nullptr;
  size_t mapped_size = 0;

  /// Start and length of the body inside `owned` or `mapped`. SaveSnapshot
  /// writes exactly these bytes.
  const uint8_t* body = nullptr;
  size_t body_bytes = 0;

  /// Out-of-core mode (cold mmap loads only): when memory_budget_bytes is
  /// non-zero, readers periodically sample the body's resident pages via
  /// mincore and madvise(MADV_DONTNEED) the non-node tail back to the
  /// kernel whenever residency exceeds the budget. Purely advisory — the
  /// mapping is read-only and file-backed, so dropped pages refault from
  /// the snapshot; results never change, only paging behavior.
  uint64_t memory_budget_bytes = 0;
  std::atomic<uint64_t> budget_trims{0};
  std::atomic<uint64_t> budget_resident_bytes{0};

  /// Cheap call sites invoke this on every read-guard acquire; it samples
  /// residency only every kBudgetCheckPeriod-th call and lets one thread at
  /// a time do the trim.
  void MaybeEnforceBudget();

  /// Body size in bytes for the given array counts.
  static size_t BodyBytes(const BodyCounts& counts);

  /// Points `view` at the arrays inside `body_bytes_ptr` (which must hold
  /// BodyBytes bytes, 8-byte aligned), records the counts, and remembers
  /// the body extent for SaveSnapshot.
  void BindView(const uint8_t* body_bytes_ptr, const BodyCounts& counts,
                uint32_t height);

  /// The counts the view was bound with.
  BodyCounts counts() const {
    return BodyCounts{view.num_nodes, view.num_leaf_entries, view.num_terms,
                      view.num_post_terms, view.num_postings};
  }

 private:
  std::atomic<uint32_t> budget_ticker_{0};
  std::mutex trim_mutex_;
};

}  // namespace internal_index
}  // namespace coskq

#endif  // COSKQ_INDEX_FROZEN_LAYOUT_H_
