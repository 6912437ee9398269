// Frozen flat IR-tree: IrTree::Freeze() and the frozen fast paths.
//
// The frozen representation stores the tree as contiguous arrays (see
// frozen_layout.h): breadth-first node records, structure-of-arrays node
// MBRs so a parent's per-child MINDIST scan reads four contiguous double
// ranges, a term arena holding every node summary as a sorted span, leaf
// entries (id, location) packed in traversal order so leaf scans never
// touch the Dataset, and a term-major posting file (ascending leaf-entry
// indices per term) that answers every leaf-level keyword test and, for
// selective queries, whole range retrievals.
//
// Bit-identity contract: every frozen traversal mirrors its pointer-tree
// counterpart exactly — same child visit order (BFS slots preserve the
// pointer tree's child order), same pruning predicates evaluated in the same
// short-circuit order, the same best-first heap discipline over entries
// compared by distance only, and the same floating-point arithmetic
// (Rect::MinDistance's max/max/sqrt sequence reproduced over the SoA
// arrays). Node records keep the pointer tree's preorder ids, so visit logs
// and the SearchScratch per-node caches are keyed identically. The
// index_frozen_diff_test suite proves the contract over 50 seeds.

#include <string.h>
#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <queue>

#include "index/frozen_layout.h"
#include "index/irtree.h"
#include "index/irtree_node.h"
#include "index/kernels.h"
#include "index/residency.h"
#include "index/search_scratch.h"
#include "index/term_signature.h"
#include "util/logging.h"

namespace coskq {

using internal_index::ActiveKernels;
using internal_index::BodyCounts;
using internal_index::BodyLayout;
using internal_index::FrozenNodeRecord;
using internal_index::FrozenStore;
using internal_index::FrozenView;
using internal_index::KernelOps;
using internal_index::PrefetchHint;
using internal_index::PrefetchNextPop;

namespace internal_index {

namespace {

constexpr size_t Align8(size_t n) { return (n + 7) & ~size_t{7}; }

}  // namespace

BodyLayout BodyLayout::Make(const BodyCounts& counts) {
  const size_t nodes = counts.num_nodes;
  const size_t entries = counts.num_leaf_entries;
  BodyLayout lay;
  size_t off = 0;
  const auto section = [&off](size_t bytes) {
    const size_t begin = off;
    off += Align8(bytes);
    return begin;
  };
  lay.nodes_off = section(nodes * sizeof(FrozenNodeRecord));
  lay.min_x_off = section(nodes * sizeof(double));
  lay.min_y_off = section(nodes * sizeof(double));
  lay.max_x_off = section(nodes * sizeof(double));
  lay.max_y_off = section(nodes * sizeof(double));
  lay.terms_off = section(size_t{counts.num_terms} * sizeof(TermId));
  lay.leaf_ids_off = section(entries * sizeof(ObjectId));
  lay.leaf_x_off = section(entries * sizeof(double));
  lay.leaf_y_off = section(entries * sizeof(double));
  lay.post_begin_off =
      section((size_t{counts.num_post_terms} + 1) * sizeof(uint32_t));
  lay.post_entries_off =
      section(size_t{counts.num_postings} * sizeof(uint32_t));
  lay.total_bytes = off;
  return lay;
}

FrozenStore::~FrozenStore() {
  if (mapped != nullptr) {
    munmap(mapped, mapped_size);
  }
}

size_t FrozenStore::BodyBytes(const BodyCounts& counts) {
  return BodyLayout::Make(counts).total_bytes;
}

void FrozenStore::BindView(const uint8_t* body_ptr, const BodyCounts& counts,
                           uint32_t height) {
  COSKQ_CHECK_EQ(reinterpret_cast<uintptr_t>(body_ptr) % 8, 0u)
      << "frozen body must be 8-byte aligned";
  const BodyLayout lay = BodyLayout::Make(counts);
  const auto at = [body_ptr](size_t off) { return body_ptr + off; };
  body = body_ptr;
  body_bytes = lay.total_bytes;
  view.nodes = reinterpret_cast<const FrozenNodeRecord*>(at(lay.nodes_off));
  view.min_x = reinterpret_cast<const double*>(at(lay.min_x_off));
  view.min_y = reinterpret_cast<const double*>(at(lay.min_y_off));
  view.max_x = reinterpret_cast<const double*>(at(lay.max_x_off));
  view.max_y = reinterpret_cast<const double*>(at(lay.max_y_off));
  view.terms = reinterpret_cast<const TermId*>(at(lay.terms_off));
  view.leaf_ids = reinterpret_cast<const ObjectId*>(at(lay.leaf_ids_off));
  view.leaf_x = reinterpret_cast<const double*>(at(lay.leaf_x_off));
  view.leaf_y = reinterpret_cast<const double*>(at(lay.leaf_y_off));
  view.post_begin = reinterpret_cast<const uint32_t*>(at(lay.post_begin_off));
  view.post_entries =
      reinterpret_cast<const uint32_t*>(at(lay.post_entries_off));
  view.num_nodes = counts.num_nodes;
  view.num_leaf_entries = counts.num_leaf_entries;
  view.num_terms = counts.num_terms;
  view.num_post_terms = counts.num_post_terms;
  view.num_postings = counts.num_postings;
  view.height = height;
}

void FrozenStore::MaybeEnforceBudget() {
  if (memory_budget_bytes == 0 || mapped == nullptr || body == nullptr) {
    return;
  }
  // Sampling residency costs a mincore walk over the body; do it on a
  // sparse subsample of guard acquires and let one thread at a time trim.
  constexpr uint32_t kBudgetCheckPeriod = 64;
  if (budget_ticker_.fetch_add(1, std::memory_order_relaxed) %
          kBudgetCheckPeriod !=
      0) {
    return;
  }
  std::unique_lock<std::mutex> lock(trim_mutex_, std::try_to_lock);
  if (!lock.owns_lock()) {
    return;
  }
  const uint64_t resident = MappingResidentBytes(body, body_bytes);
  budget_resident_bytes.store(resident, std::memory_order_relaxed);
  if (resident <= memory_budget_bytes) {
    return;
  }
  // Over budget: give the tail of the body back to the kernel, protecting a
  // prefix of the node region (the upper levels every traversal re-reads)
  // up to half the budget. Purely advisory — dropped pages refault from the
  // read-only snapshot file, so results are unaffected.
  const size_t node_region_bytes = BodyLayout::Make(counts()).terms_off;
  const size_t keep =
      std::min<size_t>(node_region_bytes, memory_budget_bytes / 2);
  AdviseDontNeed(body + keep, body_bytes - keep);
  budget_trims.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace internal_index

namespace {

/// Per-child squared MINDIST over the contiguous SoA slot range
/// [first, first + count), dispatched to the active SIMD kernel table
/// (kernels.h): the sub/max/mul part of Rect::MinDistance's arithmetic for
/// non-empty rectangles (every node of a non-empty tree has one). The sqrt
/// is deferred to the children that survive the keyword filter — callers
/// apply std::sqrt(out[i]) there, which reproduces Rect::MinDistance bit for
/// bit: std::max(std::max(a, 0.0), b) selects the same value as its
/// std::max({a, 0.0, b}) for every input, a -0.0 difference cannot survive
/// the squaring, and sqrt of the identical sum is the identical double. The
/// kernel table's own bit-identity contract covers the vectorized variants.
inline void ScanChildSquaredDistances(const KernelOps& kernels,
                                      const FrozenView& v, uint32_t first,
                                      uint32_t count, const Point& p,
                                      double* out) {
  kernels.child_squared_distances(v.min_x + first, v.min_y + first,
                                  v.max_x + first, v.max_y + first, count,
                                  p.x, p.y, out);
}

/// MINDIST from `p` to the MBR of the node at `slot` (same arithmetic).
inline double NodeMinDist(const FrozenView& v, uint32_t slot, const Point& p) {
  const double dx =
      std::max(std::max(v.min_x[slot] - p.x, 0.0), p.x - v.max_x[slot]);
  const double dy =
      std::max(std::max(v.min_y[slot] - p.y, 0.0), p.y - v.max_y[slot]);
  return std::sqrt(dx * dx + dy * dy);
}

/// Stack buffer size of the unmasked child-distance scan: child blocks are
/// scanned in chunks of at most this many slots.
constexpr uint32_t kScanChunk = 64;

}  // namespace

void IrTree::Freeze() {
  if (frozen_ != nullptr) {
    // Already frozen: folding the pending delta (if any) into the flat
    // arrays is exactly a refreeze; with an empty delta this is a no-op.
    const Status status = Refreeze();
    COSKQ_CHECK(status.ok()) << status.ToString();
    return;
  }
  COSKQ_CHECK(root_ != nullptr);

  // Breadth-first node order: children of every node end up in a contiguous
  // slot range, in the pointer tree's child order.
  std::vector<const Node*> order;
  order.push_back(root_.get());
  for (size_t i = 0; i < order.size(); ++i) {
    const Node* n = order[i];
    if (!n->is_leaf) {
      for (const auto& child : n->children) {
        order.push_back(child.get());
      }
    }
  }

  uint64_t term_total = 0;
  uint64_t leaf_total = 0;
  for (const Node* n : order) {
    term_total += n->terms.size();
    if (n->is_leaf) {
      leaf_total += n->objects.size();
    }
    COSKQ_CHECK_LE(n->EntryCount(), size_t{65535})
        << "fan-out exceeds FrozenNodeRecord::entry_count";
  }
  // Document frequencies, counted in id order (sequential over the
  // dataset): obj_sigs_ is non-zero exactly for the tree's objects that
  // carry keywords. The layout pass below then fills each term's run in
  // leaf-entry order, so runs come out ascending with no sort.
  uint64_t posting_total = 0;
  std::vector<uint32_t> post_cursor;  // df per term, then fill cursors
  for (ObjectId id = 0; id < obj_sigs_.size(); ++id) {
    if (obj_sigs_[id] == 0) {
      continue;
    }
    const TermSet& keywords = dataset_->object(id).keywords;
    posting_total += keywords.size();
    if (keywords.back() >= post_cursor.size()) {
      post_cursor.resize(size_t{keywords.back()} + 1, 0);
    }
    for (TermId t : keywords) {
      ++post_cursor[t];
    }
  }
  constexpr uint64_t kMax32 = std::numeric_limits<uint32_t>::max();
  COSKQ_CHECK_LE(uint64_t{order.size()}, kMax32);
  COSKQ_CHECK_LE(term_total, kMax32);
  COSKQ_CHECK_LE(posting_total, kMax32);
  COSKQ_CHECK_LT(uint64_t{post_cursor.size()}, kMax32);
  BodyCounts counts;
  counts.num_nodes = static_cast<uint32_t>(order.size());
  counts.num_leaf_entries = static_cast<uint32_t>(leaf_total);
  counts.num_terms = static_cast<uint32_t>(term_total);
  counts.num_post_terms = static_cast<uint32_t>(post_cursor.size());
  counts.num_postings = static_cast<uint32_t>(posting_total);
  const uint32_t num_nodes = counts.num_nodes;

  auto store = std::make_unique<FrozenStore>();
  // Zero-filled so section padding bytes are deterministic: snapshots of
  // the same tree are byte-for-byte identical.
  store->owned.assign(FrozenStore::BodyBytes(counts), 0);
  uint8_t* body = store->owned.data();
  const BodyLayout lay = BodyLayout::Make(counts);
  auto* nodes = reinterpret_cast<FrozenNodeRecord*>(body + lay.nodes_off);
  auto* min_x = reinterpret_cast<double*>(body + lay.min_x_off);
  auto* min_y = reinterpret_cast<double*>(body + lay.min_y_off);
  auto* max_x = reinterpret_cast<double*>(body + lay.max_x_off);
  auto* max_y = reinterpret_cast<double*>(body + lay.max_y_off);
  auto* terms = reinterpret_cast<TermId*>(body + lay.terms_off);
  auto* leaf_ids = reinterpret_cast<ObjectId*>(body + lay.leaf_ids_off);
  auto* leaf_x = reinterpret_cast<double*>(body + lay.leaf_x_off);
  auto* leaf_y = reinterpret_cast<double*>(body + lay.leaf_y_off);
  auto* post_begin = reinterpret_cast<uint32_t*>(body + lay.post_begin_off);
  auto* post_entries =
      reinterpret_cast<uint32_t*>(body + lay.post_entries_off);
  // df counts -> run starts (post_begin) and per-term fill cursors.
  uint32_t run_start = 0;
  for (uint32_t t = 0; t < counts.num_post_terms; ++t) {
    post_begin[t] = run_start;
    run_start += post_cursor[t];
    post_cursor[t] = post_begin[t];
  }
  post_begin[counts.num_post_terms] = run_start;

  uint32_t next_child = 1;
  uint32_t next_term = 0;
  uint32_t next_leaf = 0;
  for (uint32_t slot = 0; slot < num_nodes; ++slot) {
    const Node* n = order[slot];
    FrozenNodeRecord rec{};
    rec.id = n->id;
    rec.sig = n->sig;
    rec.term_begin = next_term;
    rec.term_count = static_cast<uint32_t>(n->terms.size());
    std::copy(n->terms.begin(), n->terms.end(), terms + next_term);
    next_term += rec.term_count;
    min_x[slot] = n->mbr.min_x;
    min_y[slot] = n->mbr.min_y;
    max_x[slot] = n->mbr.max_x;
    max_y[slot] = n->mbr.max_y;
    if (n->is_leaf) {
      rec.flags = 1;
      rec.entry_begin = next_leaf;
      rec.entry_count = static_cast<uint16_t>(n->objects.size());
      for (ObjectId id : n->objects) {
        const SpatialObject& obj = dataset_->object(id);
        leaf_ids[next_leaf] = id;
        leaf_x[next_leaf] = obj.location.x;
        leaf_y[next_leaf] = obj.location.y;
        for (TermId t : obj.keywords) {
          // Holds unless an object sits in two leaves (the unchecked
          // pointer-tree insert path): then df, counted per object, is short.
          COSKQ_CHECK_LT(post_cursor[t], post_begin[t + 1]);
          post_entries[post_cursor[t]++] = next_leaf;
        }
        ++next_leaf;
      }
    } else {
      rec.first_child = next_child;
      rec.entry_count = static_cast<uint16_t>(n->children.size());
      next_child += static_cast<uint32_t>(n->children.size());
    }
    nodes[slot] = rec;
  }
  COSKQ_CHECK_EQ(next_child, num_nodes);
  COSKQ_CHECK_EQ(next_term, counts.num_terms);
  COSKQ_CHECK_EQ(next_leaf, counts.num_leaf_entries);

  store->BindView(body, counts, static_cast<uint32_t>(Height()));
  frozen_ = std::move(store);
  RebuildFrozenLive();
}

void IrTree::RebuildFrozenLive() {
  const FrozenView& v = frozen_->view;
  frozen_live_.assign(dataset_->NumObjects(), 0);
  for (uint32_t e = 0; e < v.num_leaf_entries; ++e) {
    frozen_live_[v.leaf_ids[e]] = 1;
  }
}

Status IrTree::Refreeze() {
  std::lock_guard<std::mutex> refreeze_lock(refreeze_mutex_);
  if (frozen_ == nullptr) {
    return Status::InvalidArgument(
        "Refreeze requires a frozen tree (call Freeze() first)");
  }

  // Capture: the delta to fold (d0) and the post-fold live set L0, under the
  // mutation lock so both are one consistent cut. Everything applied after
  // this cut survives into the post-swap delta.
  std::shared_ptr<const DeltaTree> d0;
  std::vector<ObjectId> live;
  {
    std::lock_guard<std::mutex> mutate_lock(mutate_mutex_);
    {
      std::lock_guard<std::mutex> delta_lock(delta_mutex_);
      d0 = delta_;
    }
    if (d0 == nullptr || d0->empty()) {
      return Status::OK();
    }
    live.reserve(size_.load(std::memory_order_relaxed));
    for (ObjectId id = 0; id < frozen_live_.size(); ++id) {
      if (frozen_live_[id] != 0 && !d0->IsTombstoned(id)) {
        live.push_back(id);
      }
    }
    // Inserts are disjoint from the base, so appending and sorting yields
    // the ascending live set.
    live.insert(live.end(), d0->inserts.begin(), d0->inserts.end());
    std::sort(live.begin(), live.end());
  }

  // Build: a from-scratch tree over L0, outside every lock — queries and
  // mutations proceed untouched against the old body while this runs. The
  // dataset records for L0 are immutable (append-only dataset), so the
  // unlocked read is safe.
  auto fresh = std::make_unique<IrTree>(dataset_, options_, live);
  fresh->Freeze();

  // Swap: splice the new body in and rewrite the delta so that
  // (base − tombstones) ∪ inserts names the same logical set before and
  // after. With B0/B1 the old/new base and (insC, tombC) the current delta:
  //   tombN = (tombC ∖ tomb0) ∪ (ins0 ∖ insC)   — folded-in inserts that
  //            were removed again while the build ran, plus tombstones newer
  //            than the cut (both ⊆ B1);
  //   insN  = (insC ∖ ins0) ∪ (tomb0 ∖ tombC)   — inserts newer than the
  //            cut, plus folded-out tombstones that were resurrected (both
  //            disjoint from B1).
  {
    std::lock_guard<std::mutex> mutate_lock(mutate_mutex_);
    std::shared_ptr<const DeltaTree> cur;
    {
      std::lock_guard<std::mutex> delta_lock(delta_mutex_);
      cur = delta_;
    }
    static const DeltaTree kEmptyDelta;
    const DeltaTree& c = cur != nullptr ? *cur : kEmptyDelta;
    auto next = std::make_shared<DeltaTree>();
    std::vector<ObjectId> part_a;
    std::vector<ObjectId> part_b;
    std::set_difference(c.tombstones.begin(), c.tombstones.end(),
                        d0->tombstones.begin(), d0->tombstones.end(),
                        std::back_inserter(part_a));
    std::set_difference(d0->inserts.begin(), d0->inserts.end(),
                        c.inserts.begin(), c.inserts.end(),
                        std::back_inserter(part_b));
    std::set_union(part_a.begin(), part_a.end(), part_b.begin(), part_b.end(),
                   std::back_inserter(next->tombstones));
    part_a.clear();
    part_b.clear();
    std::set_difference(c.inserts.begin(), c.inserts.end(),
                        d0->inserts.begin(), d0->inserts.end(),
                        std::back_inserter(part_a));
    std::set_difference(d0->tombstones.begin(), d0->tombstones.end(),
                        c.tombstones.begin(), c.tombstones.end(),
                        std::back_inserter(part_b));
    std::set_union(part_a.begin(), part_a.end(), part_b.begin(), part_b.end(),
                   std::back_inserter(next->inserts));
    next->insert_sigs.reserve(next->inserts.size());
    for (ObjectId id : next->inserts) {
      next->insert_sigs.push_back(
          TermSetSignature(dataset_->object(id).keywords));
    }
    next->CheckWellFormed();
    // The logical set is untouched by the swap.
    COSKQ_CHECK_EQ(static_cast<int64_t>(live.size()) + next->LiveDelta(),
                   static_cast<int64_t>(size_.load(std::memory_order_relaxed)));

    std::unique_lock<std::shared_mutex> swap_lock(swap_mutex_);
    root_ = std::move(fresh->root_);
    obj_sigs_ = std::move(fresh->obj_sigs_);
    obj_sig_bits_sum_ = fresh->obj_sig_bits_sum_;
    next_node_id_ = fresh->next_node_id_;
    frozen_ = std::move(fresh->frozen_);
    RebuildFrozenLive();
    PublishDelta(std::move(next));
    epoch_.fetch_add(1, std::memory_order_release);
  }
  refreezes_completed_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void IrTree::RefreezeAsync() {
  std::lock_guard<std::mutex> launch_lock(refreeze_launch_mutex_);
  if (refreeze_running_.load(std::memory_order_acquire)) {
    return;
  }
  if (refreeze_thread_.joinable()) {
    refreeze_thread_.join();
  }
  refreeze_running_.store(true, std::memory_order_release);
  refreeze_thread_ = std::thread([this] {
    const Status status = Refreeze();
    COSKQ_CHECK(status.ok()) << status.ToString();
    refreeze_running_.store(false, std::memory_order_release);
  });
}

void IrTree::WaitForRefreeze() {
  std::lock_guard<std::mutex> launch_lock(refreeze_launch_mutex_);
  if (refreeze_thread_.joinable()) {
    refreeze_thread_.join();
  }
}

IrTree::IrTree(const Dataset* dataset, const Options& options,
               std::unique_ptr<internal_index::FrozenStore> store)
    : dataset_(dataset), options_(options), frozen_(std::move(store)) {
  COSKQ_CHECK(dataset != nullptr);
  COSKQ_CHECK(frozen_ != nullptr);
  size_ = frozen_->view.num_leaf_entries;
  next_node_id_ = frozen_->view.num_nodes;
  RebuildFrozenLive();
  // The signatures of the objects the leaf entries name (read in id order),
  // so the masked-range prune-rate estimate matches a dataset-built tree's.
  for (ObjectId id = 0; id < frozen_live_.size(); ++id) {
    if (frozen_live_[id] != 0) {
      obj_sig_bits_sum_ += static_cast<uint64_t>(
          std::popcount(TermSetSignature(dataset_->object(id).keywords)));
    }
  }
}

ObjectId IrTree::FrozenKeywordNn(const Point& p, TermId t, double* distance,
                                 std::vector<uint32_t>* visit_log,
                                 const DeltaTree* delta) const {
  const FrozenView& v = frozen_->view;
  const KernelOps& kernels = ActiveKernels();
  struct QueueEntry {
    double distance;
    const FrozenNodeRecord* node;  // nullptr for object entries.
    ObjectId id;
    uint32_t aux = 0;  // PrefetchHint(*node); ignored by the comparator.
    bool operator>(const QueueEntry& other) const {
      return distance > other.distance;
    }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  if (size_ > 0 &&
      TermSpanContains(v.node_terms(v.nodes[0]), v.nodes[0].term_count, t)) {
    queue.push(QueueEntry{NodeMinDist(v, 0, p), v.nodes,
                          kInvalidObjectId, PrefetchHint(v.nodes[0])});
  }
  double dist_buf[kScanChunk];
  while (!queue.empty()) {
    QueueEntry top = queue.top();
    queue.pop();
    if (!queue.empty()) {
      // Start pulling the likely next pop while this node is processed.
      PrefetchNextPop(v, queue.top().node, queue.top().aux);
    }
    if (top.node == nullptr) {
      if (distance != nullptr) {
        *distance = top.distance;
      }
      return top.id;
    }
    const FrozenNodeRecord& node = *top.node;
    if (visit_log != nullptr) {
      visit_log->push_back(node.id);
    }
    if (node.is_leaf()) {
      // The leaf's run of t: exactly the entries carrying t, ascending —
      // the survivors of the per-entry keyword test, in scan order.
      auto [first, last] =
          v.LeafRun(t, node.entry_begin, node.entry_begin + node.entry_count);
      for (; first != last; ++first) {
        const uint32_t e = *first;
        if (delta != nullptr && delta->IsTombstoned(v.leaf_ids[e])) {
          continue;
        }
        queue.push(QueueEntry{Distance(p, Point{v.leaf_x[e], v.leaf_y[e]}),
                              nullptr, v.leaf_ids[e]});
      }
    } else {
      const uint32_t first = node.first_child;
      const uint32_t count = node.entry_count;
      // Chunk boundaries don't affect push order (chunks and survivors both
      // ascend in slot order).
      for (uint32_t c0 = 0; c0 < count;) {
        const uint32_t n = std::min(kScanChunk, count - c0);
        ScanChildSquaredDistances(kernels, v, first + c0, n, p, dist_buf);
        for (uint32_t i = 0; i < n; ++i) {
          const FrozenNodeRecord& child = v.nodes[first + c0 + i];
          if (TermSpanContains(v.node_terms(child), child.term_count, t)) {
            queue.push(QueueEntry{std::sqrt(dist_buf[i]), &child,
                                  kInvalidObjectId, PrefetchHint(child)});
          }
        }
        c0 += n;
      }
    }
  }
  if (distance != nullptr) {
    *distance = std::numeric_limits<double>::infinity();
  }
  return kInvalidObjectId;
}

ObjectId IrTree::FrozenKeywordNnMasked(const Point& p, TermId t, int slot,
                                       double* distance,
                                       SearchScratch* scratch,
                                       const DeltaTree* delta) const {
  const FrozenView& v = frozen_->view;
  const KernelOps& kernels = ActiveKernels();
  const uint64_t bit = uint64_t{1} << slot;
  const uint64_t kw_sig = TermSignature(t);
  using internal_index::HeapEntry;
  std::vector<HeapEntry>& heap = scratch->heap();
  heap.clear();
  const auto push = [&heap](HeapEntry entry) {
    heap.push_back(entry);
    std::push_heap(heap.begin(), heap.end(), std::greater<HeapEntry>());
  };
  std::vector<uint32_t>* visit_log = scratch->visit_log();
  // Node MINDISTs are recomputed from the SoA arrays instead of read through
  // the scratch memo: the scan produces the identical values (same inputs,
  // same arithmetic as the memo's Rect::MinDistance fill), so pruning and
  // heap order are unchanged. Object distances still go through the
  // QueryDistance memo when anchored at the query origin, exactly like the
  // pointer path (same calls, same hit/miss counters).
  const bool from_origin = p == scratch->origin();
  if (size_ > 0 && (v.nodes[0].sig & kw_sig) != 0 &&
      (scratch->NodeMask(v.nodes[0].id, v.node_terms(v.nodes[0]),
                         v.nodes[0].term_count) &
       bit) != 0) {
    push(HeapEntry{NodeMinDist(v, 0, p), v.nodes, kInvalidObjectId,
                   PrefetchHint(v.nodes[0])});
  }
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<HeapEntry>());
    const HeapEntry top = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
      // Start pulling the likely next pop while this node is processed.
      PrefetchNextPop(v, heap.front().node, heap.front().aux);
    }
    if (top.node == nullptr) {
      if (distance != nullptr) {
        *distance = top.distance;
      }
      return top.id;
    }
    const FrozenNodeRecord& node =
        *static_cast<const FrozenNodeRecord*>(top.node);
    if (visit_log != nullptr) {
      visit_log->push_back(node.id);
    }
    if (node.is_leaf()) {
      // The leaf's run of t holds exactly the entries whose signature,
      // cached mask and keyword tests all pass, in scan order, so the
      // QueryDistance memo sees the same calls as an entry-by-entry scan.
      auto [first, last] =
          v.LeafRun(t, node.entry_begin, node.entry_begin + node.entry_count);
      for (; first != last; ++first) {
        const uint32_t e = *first;
        const ObjectId id = v.leaf_ids[e];
        if (delta != nullptr && delta->IsTombstoned(id)) {
          continue;
        }
        const Point location{v.leaf_x[e], v.leaf_y[e]};
        const double d = from_origin ? scratch->QueryDistance(id, location)
                                     : Distance(p, location);
        push(HeapEntry{d, nullptr, id});
      }
    } else {
      const uint32_t first = node.first_child;
      const uint32_t count = node.entry_count;
      // Fused kernel: batched squared MINDIST + the Bloom pre-filter in one
      // pass, survivors written to the pooled scratch buffers. The fusion
      // mirrors the scalar short-circuit exactly — signature-pruned
      // children never reached NodeMask (or the term arena) before either.
      std::vector<uint32_t>& sidx = scratch->survivor_idx();
      std::vector<double>& sdist = scratch->survivor_dist();
      if (sidx.size() < count) {
        sidx.resize(count);
      }
      if (sdist.size() < count) {
        sdist.resize(count);
      }
      const uint32_t n = kernels.child_scan_sig(
          v.min_x + first, v.min_y + first, v.max_x + first, v.max_y + first,
          v.nodes + first, count, p.x, p.y, kw_sig, sidx.data(),
          sdist.data());
      for (uint32_t k = 0; k < n; ++k) {
        const FrozenNodeRecord& child = v.nodes[first + sidx[k]];
        if ((scratch->NodeMask(child.id, v.node_terms(child),
                               child.term_count) &
             bit) != 0) {
          push(HeapEntry{std::sqrt(sdist[k]), &child, kInvalidObjectId,
                         PrefetchHint(child)});
        }
      }
    }
  }
  if (distance != nullptr) {
    *distance = std::numeric_limits<double>::infinity();
  }
  return kInvalidObjectId;
}

namespace {

/// Range-retrieval planner constant (DESIGN.md §11): a frozen range call
/// reads the query terms' posting runs instead of walking the tree when
/// their total length Σ df is below this multiple of the leaf entries
/// expected inside the disk. Fixed by the measurement recorded in
/// CHANGES.md.
constexpr double kPostingScanFactor = 0.25;

/// Leaf entries expected inside `circle` under uniform density: the base's
/// entry count scaled by the share of the root MBR the disk covers (the
/// disk's area, capped by its bounding square clipped to the MBR). Only the
/// planner reads it.
double EstimatedEntriesInDisk(const FrozenView& v, const Circle& circle) {
  const double r = circle.radius;
  const double w = std::min(circle.center.x + r, v.max_x[0]) -
                   std::max(circle.center.x - r, v.min_x[0]);
  const double h = std::min(circle.center.y + r, v.max_y[0]) -
                   std::max(circle.center.y - r, v.min_y[0]);
  if (w < 0.0 || h < 0.0) {
    return 0.0;
  }
  const double root_area =
      (v.max_x[0] - v.min_x[0]) * (v.max_y[0] - v.min_y[0]);
  const double entries = static_cast<double>(v.num_leaf_entries);
  if (!(root_area > 0.0)) {
    return entries;  // Degenerate MBR: no area to scale by.
  }
  constexpr double kPi = 3.14159265358979323846;
  return entries * std::min(w * h, kPi * r * r) / root_area;
}

/// The planner: true when Σ_{t∈terms} df(t) < kPostingScanFactor × the
/// expected in-disk entry count.
bool PostingsCheaperThanTree(const FrozenView& v, const Circle& circle,
                             const TermSet& terms) {
  const double budget =
      kPostingScanFactor * EstimatedEntriesInDisk(v, circle);
  double total = 0.0;
  for (TermId t : terms) {
    total += v.df(t);
    if (!(total < budget)) {
      return false;
    }
  }
  return total < budget;
}

/// Leaf-level step of a frozen range walk: appends the ids of the leaf's
/// live entries inside the disk that carry a query term, in entry order.
void RangeScanLeaf(const FrozenView& v, const FrozenNodeRecord& leaf,
                   const Circle& circle, const TermSet& terms,
                   const DeltaTree* delta, std::vector<ObjectId>* out) {
  const uint32_t begin = leaf.entry_begin;
  const uint32_t end = begin + leaf.entry_count;
  internal_index::ForEachLeafMatch(
      terms.size(), begin, end,
      [&](size_t i) { return v.LeafRun(terms[i], begin, end); },
      [&](uint32_t e) {
        const ObjectId id = v.leaf_ids[e];
        if (delta != nullptr && delta->IsTombstoned(id)) {
          return;
        }
        if (circle.Contains(Point{v.leaf_x[e], v.leaf_y[e]})) {
          out->push_back(id);
        }
      });
}

}  // namespace

bool IrTree::FrozenRangeFromPostings(const Circle& circle,
                                     const TermSet& query_terms,
                                     const DeltaTree* delta,
                                     std::vector<ObjectId>* out) const {
  const FrozenView& v = frozen_->view;
  if (!PostingsCheaperThanTree(v, circle, query_terms)) {
    return false;
  }
  uint64_t examined = 0;
  // The tree walk starts by testing the disk against the root MBR; a disk
  // that fails it has no matches either way.
  const Rect root{v.min_x[0], v.min_y[0], v.max_x[0], v.max_y[0]};
  if (circle.Intersects(root)) {
    // Entry indices are collected in `out`'s tail, put in entry order —
    // the tree walk's output order — and mapped to ids in place.
    const size_t start = out->size();
    for (TermId t : query_terms) {
      const auto [first, last] = v.postings(t);
      examined += static_cast<uint64_t>(last - first);
      for (const uint32_t* p = first; p != last; ++p) {
        if (circle.Contains(Point{v.leaf_x[*p], v.leaf_y[*p]})) {
          out->push_back(*p);
        }
      }
    }
    const auto tail = out->begin() + static_cast<ptrdiff_t>(start);
    if (query_terms.size() > 1) {
      std::sort(tail, out->end());
      out->erase(std::unique(tail, out->end()), out->end());
    }
    auto kept = tail;
    for (auto it = tail; it != out->end(); ++it) {
      const ObjectId id = v.leaf_ids[*it];
      if (delta == nullptr || !delta->IsTombstoned(id)) {
        *kept++ = id;
      }
    }
    out->erase(kept, out->end());
  }
  range_posting_calls_.fetch_add(1, std::memory_order_relaxed);
  range_posting_entries_.fetch_add(examined, std::memory_order_relaxed);
  return true;
}

void IrTree::FrozenRangeRelevant(const Circle& circle,
                                 const TermSet& query_terms,
                                 std::vector<ObjectId>* out,
                                 std::vector<uint32_t>* visit_log,
                                 const DeltaTree* delta) const {
  if (frozen_->view.num_leaf_entries == 0) {
    return;
  }
  // Calls that log node visits keep the tree walk: the visit log is the
  // tree's observable, and the diff suites compare it.
  if (visit_log == nullptr &&
      FrozenRangeFromPostings(circle, query_terms, delta, out)) {
    return;
  }
  const FrozenView& v = frozen_->view;
  struct Searcher {
    const FrozenView& v;
    const Circle& circle;
    const TermSet& query_terms;
    const DeltaTree* delta;
    std::vector<ObjectId>* out;
    std::vector<uint32_t>* visit_log;
    uint64_t examined = 0;

    void Run(uint32_t slot) {
      const FrozenNodeRecord& node = v.nodes[slot];
      const Rect mbr{v.min_x[slot], v.min_y[slot], v.max_x[slot],
                     v.max_y[slot]};
      if (!circle.Intersects(mbr) ||
          !TermSpanIntersects(v.node_terms(node), node.term_count,
                              query_terms)) {
        return;
      }
      if (visit_log != nullptr) {
        visit_log->push_back(node.id);
      }
      if (node.is_leaf()) {
        examined += node.entry_count;
        RangeScanLeaf(v, node, circle, query_terms, delta, out);
        return;
      }
      const uint32_t first = node.first_child;
      const uint32_t last = first + node.entry_count;
      for (uint32_t c = first; c < last; ++c) {
        Run(c);
      }
    }
  };
  Searcher searcher{v, circle, query_terms, delta, out, visit_log};
  searcher.Run(0);
  range_tree_calls_.fetch_add(1, std::memory_order_relaxed);
  range_tree_entries_.fetch_add(searcher.examined, std::memory_order_relaxed);
}

void IrTree::FrozenRangeRelevantMasked(const Circle& circle,
                                       const TermSet& query_terms,
                                       uint64_t submask,
                                       std::vector<ObjectId>* out,
                                       SearchScratch* scratch,
                                       const DeltaTree* delta) const {
  if (frozen_->view.num_leaf_entries == 0) {
    return;
  }
  if (scratch->visit_log() == nullptr &&
      FrozenRangeFromPostings(circle, query_terms, delta, out)) {
    return;
  }
  const FrozenView& v = frozen_->view;
  const uint64_t sub_sig = TermSetSignature(query_terms);
  struct Searcher {
    const FrozenView& v;
    const Circle& circle;
    const TermSet& query_terms;
    uint64_t submask;
    uint64_t sub_sig;
    SearchScratch* scratch;
    const DeltaTree* delta;
    std::vector<ObjectId>* out;
    std::vector<uint32_t>* visit_log;
    uint64_t examined = 0;

    void Run(uint32_t slot) {
      const FrozenNodeRecord& node = v.nodes[slot];
      const Rect mbr{v.min_x[slot], v.min_y[slot], v.max_x[slot],
                     v.max_y[slot]};
      // Same short-circuit order as the pointer path: geometry, signature,
      // then the cached mask when warm, else the exact early-exit merge
      // with no cache fill.
      if (!circle.Intersects(mbr) || (node.sig & sub_sig) == 0) {
        return;
      }
      uint64_t node_mask = 0;
      const bool relevant =
          scratch->CachedNodeMask(node.id, &node_mask)
              ? (node_mask & submask) != 0
              : TermSpanIntersects(v.node_terms(node), node.term_count,
                                   query_terms);
      if (!relevant) {
        return;
      }
      if (visit_log != nullptr) {
        visit_log->push_back(node.id);
      }
      if (node.is_leaf()) {
        // The union of the leaf runs is exactly the set the per-entry
        // signature + mask/keyword tests kept, in entry order.
        examined += node.entry_count;
        RangeScanLeaf(v, node, circle, query_terms, delta, out);
        return;
      }
      const uint32_t first = node.first_child;
      const uint32_t last = first + node.entry_count;
      for (uint32_t c = first; c < last; ++c) {
        Run(c);
      }
    }
  };
  Searcher searcher{v,       circle,  query_terms, submask, sub_sig,
                    scratch, delta,   out,         scratch->visit_log()};
  searcher.Run(0);
  range_tree_calls_.fetch_add(1, std::memory_order_relaxed);
  range_tree_entries_.fetch_add(searcher.examined, std::memory_order_relaxed);
}

void IrTree::CheckFrozenInvariants() const {
  COSKQ_CHECK(frozen_ != nullptr);
  const FrozenView& v = frozen_->view;
  COSKQ_CHECK_GE(v.num_nodes, 1u);

  // Pass 1: BFS structure. Child blocks of internal nodes must tile
  // [1, num_nodes) in slot order; leaf entry blocks must tile
  // [0, num_leaf_entries) in slot order; term spans are in-bounds.
  std::vector<uint32_t> depth(v.num_nodes, 0);
  std::vector<bool> id_seen(v.num_nodes, false);
  uint32_t expected_child = 1;
  uint32_t expected_leaf_entry = 0;
  int leaf_depth = -1;
  size_t object_count = 0;
  for (uint32_t slot = 0; slot < v.num_nodes; ++slot) {
    const FrozenNodeRecord& node = v.nodes[slot];
    COSKQ_CHECK_LT(node.id, v.num_nodes);
    COSKQ_CHECK(!id_seen[node.id]) << "duplicate preorder id";
    id_seen[node.id] = true;
    COSKQ_CHECK_LE(static_cast<int>(node.entry_count), options_.max_entries);
    if (slot != 0) {
      COSKQ_CHECK_GE(node.entry_count, 1u);
    }
    COSKQ_CHECK_LE(uint64_t{node.term_begin} + node.term_count,
                   uint64_t{v.num_terms});
    if (node.is_leaf()) {
      if (leaf_depth < 0) {
        leaf_depth = static_cast<int>(depth[slot]);
      }
      COSKQ_CHECK_EQ(leaf_depth, static_cast<int>(depth[slot]))
          << "leaves at unequal depth";
      COSKQ_CHECK_EQ(node.entry_begin, expected_leaf_entry);
      expected_leaf_entry += node.entry_count;
      object_count += node.entry_count;
    } else {
      COSKQ_CHECK_EQ(node.first_child, expected_child);
      expected_child += node.entry_count;
      COSKQ_CHECK_LE(expected_child, v.num_nodes);
      for (uint32_t c = node.first_child;
           c < node.first_child + node.entry_count; ++c) {
        depth[c] = depth[slot] + 1;
      }
    }
  }
  COSKQ_CHECK_EQ(expected_child, v.num_nodes);
  COSKQ_CHECK_EQ(expected_leaf_entry, v.num_leaf_entries);
  COSKQ_CHECK_EQ(object_count, static_cast<size_t>(v.num_leaf_entries));
  // Guard on the base count, not size_: a non-empty delta over an empty
  // frozen base leaves the recorded height 0.
  if (v.num_leaf_entries > 0) {
    COSKQ_CHECK_EQ(static_cast<int>(v.height), leaf_depth + 1);
  }

  // Pass 2 (bottom-up, slots in reverse BFS order): every node's MBR, term
  // summary, and signature must equal what its children / leaf entries
  // imply, and leaf entries must match the dataset.
  std::vector<Rect> expected_mbr(v.num_nodes);
  std::vector<TermSet> expected_terms(v.num_nodes);
  for (uint32_t i = v.num_nodes; i-- > 0;) {
    const FrozenNodeRecord& node = v.nodes[i];
    Rect mbr;
    TermSet terms;
    if (node.is_leaf()) {
      for (uint32_t e = node.entry_begin;
           e < node.entry_begin + node.entry_count; ++e) {
        const ObjectId id = v.leaf_ids[e];
        const SpatialObject& obj = dataset_->object(id);
        COSKQ_CHECK_EQ(v.leaf_x[e], obj.location.x);
        COSKQ_CHECK_EQ(v.leaf_y[e], obj.location.y);
        mbr.ExpandToInclude(obj.location);
        TermSetMergeInto(&terms, obj.keywords);
      }
    } else {
      for (uint32_t c = node.first_child;
           c < node.first_child + node.entry_count; ++c) {
        mbr.ExpandToInclude(expected_mbr[c]);
        TermSetMergeInto(&terms, expected_terms[c]);
      }
    }
    COSKQ_CHECK(mbr == Rect(v.min_x[i], v.min_y[i], v.max_x[i], v.max_y[i]))
        << "frozen MBR mismatch";
    COSKQ_CHECK_EQ(terms.size(), static_cast<size_t>(node.term_count));
    COSKQ_CHECK(
        std::equal(terms.begin(), terms.end(), v.terms + node.term_begin))
        << "frozen term summary mismatch";
    COSKQ_CHECK_EQ(node.sig, TermSetSignature(terms));
    expected_mbr[i] = mbr;
    expected_terms[i] = std::move(terms);
  }

  // Pass 3: the posting file is the transpose of the leaf entries' keyword
  // sets. Runs are strictly ascending and in range, every (entry, keyword)
  // pair is found in its term's run, and the run lengths add up to the
  // number of such pairs — so the runs hold those pairs and nothing else.
  COSKQ_CHECK_EQ(v.post_begin[0], 0u);
  COSKQ_CHECK_EQ(v.post_begin[v.num_post_terms], v.num_postings);
  for (uint32_t t = 0; t < v.num_post_terms; ++t) {
    COSKQ_CHECK_LE(v.post_begin[t], v.post_begin[t + 1]);
    const auto [first, last] = v.postings(t);
    for (const uint32_t* p = first; p != last; ++p) {
      COSKQ_CHECK_LT(*p, v.num_leaf_entries) << "posting out of range";
      COSKQ_CHECK(p == first || p[-1] < *p) << "posting run not ascending";
    }
  }
  uint64_t keyword_pairs = 0;
  TermId max_term = 0;
  for (uint32_t e = 0; e < v.num_leaf_entries; ++e) {
    const TermSet& keywords = dataset_->object(v.leaf_ids[e]).keywords;
    keyword_pairs += keywords.size();
    for (TermId t : keywords) {
      max_term = std::max(max_term, t);
      const auto [first, last] = v.postings(t);
      COSKQ_CHECK(std::binary_search(first, last, e))
          << "entry " << e << " missing from the postings of term " << t;
    }
  }
  COSKQ_CHECK_EQ(keyword_pairs, uint64_t{v.num_postings});
  COSKQ_CHECK_EQ(v.num_post_terms, keyword_pairs == 0 ? 0u : max_term + 1)
      << "posting file not sized to the largest term";

  // Cross-check against the pointer tree when both representations exist.
  if (root_ != nullptr) {
    struct Walker {
      const FrozenView& v;
      uint32_t next_leaf_entry = 0;
      void Run(const Node* node, uint32_t slot) {
        const FrozenNodeRecord& rec = v.nodes[slot];
        COSKQ_CHECK_EQ(rec.id, node->id);
        COSKQ_CHECK_EQ(rec.is_leaf(), node->is_leaf);
        COSKQ_CHECK_EQ(static_cast<size_t>(rec.entry_count),
                       node->EntryCount());
        if (node->is_leaf) {
          for (size_t k = 0; k < node->objects.size(); ++k) {
            COSKQ_CHECK_EQ(v.leaf_ids[rec.entry_begin + k],
                           node->objects[k]);
          }
        } else {
          for (size_t k = 0; k < node->children.size(); ++k) {
            Run(node->children[k].get(),
                rec.first_child + static_cast<uint32_t>(k));
          }
        }
      }
    };
    Walker walker{v};
    walker.Run(root_.get(), 0);
  }
}

}  // namespace coskq
