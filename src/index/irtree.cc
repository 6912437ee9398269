#include "index/irtree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>

#include "index/frozen_layout.h"
#include "index/irtree_node.h"
#include "index/kernels.h"
#include "index/quadratic_split.h"
#include "index/residency.h"
#include "index/search_scratch.h"
#include "index/term_signature.h"
#include "util/logging.h"

namespace coskq {

using internal_index::FrozenNodeRecord;
using internal_index::FrozenView;
using internal_index::PrefetchHint;
using internal_index::PrefetchNextPop;
using internal_index::QuadraticSplit;
using internal_index::RectEnlargement;
using internal_index::StrTile;

namespace {

/// Per-thread ReadGuard bookkeeping. Guards are re-entrant (a solver guard
/// wraps query-method guards wraps fallback-overload guards), so each
/// (thread, tree) pair keeps a depth counter and the delta pinned when the
/// outermost guard was taken — inner guards reuse it, which is what makes a
/// guarded unit of work observe one consistent frozen+delta view.
struct GuardSlot {
  const void* tree = nullptr;
  int depth = 0;
  std::shared_ptr<const DeltaTree> delta;
};

constexpr int kMaxGuardSlots = 8;
thread_local GuardSlot g_guard_slots[kMaxGuardSlots];

GuardSlot* FindGuardSlot(const void* tree) {
  for (GuardSlot& slot : g_guard_slots) {
    if (slot.tree == tree) {
      return &slot;
    }
  }
  return nullptr;
}

}  // namespace

void IrTree::GuardAcquire() const {
  GuardSlot* slot = FindGuardSlot(this);
  if (slot != nullptr) {
    ++slot->depth;
    return;
  }
  slot = FindGuardSlot(nullptr);
  COSKQ_CHECK(slot != nullptr)
      << "more than " << kMaxGuardSlots
      << " distinct IrTrees guarded on one thread";
  swap_mutex_.lock_shared();
  slot->tree = this;
  slot->depth = 1;
  {
    std::lock_guard<std::mutex> lock(delta_mutex_);
    slot->delta = delta_;
  }
  if (frozen_ != nullptr) {
    // Budget-capped out-of-core trees trim themselves back under budget on
    // a sparse subsample of outermost guard acquires; no-op otherwise.
    frozen_->MaybeEnforceBudget();
  }
}

void IrTree::GuardRelease() const {
  GuardSlot* slot = FindGuardSlot(this);
  COSKQ_CHECK(slot != nullptr);
  if (--slot->depth > 0) {
    return;
  }
  slot->tree = nullptr;
  slot->delta.reset();
  swap_mutex_.unlock_shared();
}

const DeltaTree* IrTree::PinnedDelta() const {
  const GuardSlot* slot = FindGuardSlot(this);
  COSKQ_CHECK(slot != nullptr) << "PinnedDelta outside a ReadGuard";
  return slot->delta.get();
}

std::shared_ptr<DeltaTree> IrTree::CopyDeltaLocked() const {
  std::shared_ptr<const DeltaTree> current;
  {
    std::lock_guard<std::mutex> lock(delta_mutex_);
    current = delta_;
  }
  return current != nullptr ? std::make_shared<DeltaTree>(*current)
                            : std::make_shared<DeltaTree>();
}

void IrTree::PublishDelta(std::shared_ptr<const DeltaTree> delta) const {
  if (delta != nullptr && delta->empty()) {
    // Keep the null ⇔ empty invariant: queries pinning a null delta skip
    // every merge branch, so a drained delta costs pure reads nothing.
    delta.reset();
  }
  std::lock_guard<std::mutex> lock(delta_mutex_);
  delta_ = std::move(delta);
}

size_t IrTree::delta_size() const {
  std::lock_guard<std::mutex> lock(delta_mutex_);
  return delta_ != nullptr ? delta_->size() : 0;
}

IrTree::IrTree(const Dataset* dataset, const Options& options)
    : dataset_(dataset), options_(options) {
  COSKQ_CHECK(dataset != nullptr);
  COSKQ_CHECK_GE(options_.max_entries, 4);
  std::vector<ObjectId> ids(dataset_->NumObjects());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<ObjectId>(i);
  }
  BulkLoad(std::move(ids));
}

IrTree::IrTree(const Dataset* dataset, const Options& options,
               const std::vector<ObjectId>& object_ids)
    : dataset_(dataset), options_(options) {
  COSKQ_CHECK(dataset != nullptr);
  COSKQ_CHECK_GE(options_.max_entries, 4);
  BulkLoad(object_ids);
}

IrTree::~IrTree() {
  if (refreeze_thread_.joinable()) {
    refreeze_thread_.join();
  }
}

void IrTree::BulkLoad(std::vector<ObjectId> ids) {
  const size_t n = ids.size();
  size_.store(n, std::memory_order_relaxed);
  ObjectId max_id = 0;
  for (ObjectId id : ids) {
    max_id = std::max(max_id, id);
  }
  obj_sigs_.assign(n == 0 ? 0 : static_cast<size_t>(max_id) + 1, 0);
  obj_sig_bits_sum_ = 0;
  for (ObjectId id : ids) {
    obj_sigs_[id] = TermSetSignature(dataset_->object(id).keywords);
    obj_sig_bits_sum_ += static_cast<uint64_t>(std::popcount(obj_sigs_[id]));
  }
  if (n == 0) {
    root_ = std::make_unique<Node>();
    AssignNodeIds();
    return;
  }
  const size_t cap = static_cast<size_t>(options_.max_entries);

  // Leaf level: STR tiling over object locations.
  std::vector<std::unique_ptr<Node>> level;
  StrTile(
      &ids, cap,
      [this](ObjectId id) { return dataset_->object(id).location; },
      [this, &ids, &level](size_t begin, size_t end) {
        auto leaf = std::make_unique<Node>();
        leaf->is_leaf = true;
        leaf->objects.assign(ids.begin() + static_cast<ptrdiff_t>(begin),
                             ids.begin() + static_cast<ptrdiff_t>(end));
        leaf->Recompute(*dataset_);
        level.push_back(std::move(leaf));
      });

  // Upper levels: STR tiling over child MBR centers.
  while (level.size() > 1) {
    std::vector<std::unique_ptr<Node>> next;
    StrTile(
        &level, cap,
        [](const std::unique_ptr<Node>& n) { return n->mbr.Center(); },
        [this, &level, &next](size_t begin, size_t end) {
          auto parent = std::make_unique<Node>();
          parent->is_leaf = false;
          for (size_t i = begin; i < end; ++i) {
            parent->children.push_back(std::move(level[i]));
          }
          parent->Recompute(*dataset_);
          next.push_back(std::move(parent));
        });
    level = std::move(next);
  }
  root_ = std::move(level.front());
  AssignNodeIds();
}

void IrTree::AssignNodeIds() {
  struct Assigner {
    uint32_t next = 0;
    void Run(Node* node) {
      node->id = next++;
      if (!node->is_leaf) {
        for (const auto& child : node->children) {
          Run(child.get());
        }
      }
    }
  };
  Assigner assigner;
  assigner.Run(root_.get());
  next_node_id_ = assigner.next;
}

Status IrTree::Insert(ObjectId id) {
  std::lock_guard<std::mutex> mutate_lock(mutate_mutex_);
  if (id >= dataset_->NumObjects()) {
    return Status::InvalidArgument("Insert of object id " +
                                   std::to_string(id) +
                                   " beyond the dataset");
  }
  if (frozen_ == nullptr) {
    return InsertPointer(id);
  }
  // Frozen tree (built or snapshot-loaded): the insert lands in the delta
  // overlay; the frozen body and the pointer tree (which only mirrors the
  // frozen base) are untouched, so concurrent queries stay valid.
  std::shared_ptr<DeltaTree> delta = CopyDeltaLocked();
  if (delta->EraseTombstone(id)) {
    // Resurrection: the id is live in the base again.
  } else if (LiveInBase(id) || delta->IsInserted(id)) {
    return Status::InvalidArgument("object " + std::to_string(id) +
                                   " already present");
  } else {
    delta->AddInsert(id, TermSetSignature(dataset_->object(id).keywords));
  }
  PublishDelta(std::move(delta));
  size_.fetch_add(1, std::memory_order_relaxed);
  mutations_applied_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status IrTree::Remove(ObjectId id) {
  std::lock_guard<std::mutex> mutate_lock(mutate_mutex_);
  if (frozen_ == nullptr) {
    return Status::Unimplemented(
        "Remove requires a Freeze()-d IrTree (deletes land in the delta "
        "overlay)");
  }
  std::shared_ptr<DeltaTree> delta = CopyDeltaLocked();
  if (delta->EraseInsert(id)) {
    // A pending delta insert simply disappears.
  } else if (LiveInBase(id) && !delta->IsTombstoned(id)) {
    delta->AddTombstone(id);
  } else {
    return Status::NotFound("object " + std::to_string(id) + " not present");
  }
  PublishDelta(std::move(delta));
  size_.fetch_sub(1, std::memory_order_relaxed);
  mutations_applied_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status IrTree::InsertPointer(ObjectId id) {
  COSKQ_CHECK(root_ != nullptr);
  const SpatialObject& obj = dataset_->object(id);
  if (obj_sigs_.size() <= id) {
    obj_sigs_.resize(static_cast<size_t>(id) + 1, 0);
  }
  obj_sig_bits_sum_ -= static_cast<uint64_t>(std::popcount(obj_sigs_[id]));
  obj_sigs_[id] = TermSetSignature(obj.keywords);
  obj_sig_bits_sum_ += static_cast<uint64_t>(std::popcount(obj_sigs_[id]));
  const int max_entries = options_.max_entries;
  const int min_entries = std::max(2, max_entries * 2 / 5);

  struct Inserter {
    const Dataset& dataset;
    int max_entries;
    int min_entries;
    const SpatialObject& obj;

    // Returns a sibling produced by a split, if any. Maintains the MBR and
    // term summary of every node along the path.
    std::unique_ptr<Node> Run(Node* node) {
      node->mbr.ExpandToInclude(obj.location);
      TermSetMergeInto(&node->terms, obj.keywords);
      // Union signature of a union of term sets is the OR, so the
      // incremental update is exact (splits below Recompute from scratch).
      node->sig |= TermSetSignature(obj.keywords);
      if (node->is_leaf) {
        node->objects.push_back(obj.id);
        if (static_cast<int>(node->objects.size()) <= max_entries) {
          return nullptr;
        }
        std::vector<ObjectId> group_a;
        std::vector<ObjectId> group_b;
        QuadraticSplit(std::move(node->objects), min_entries, &group_a,
                       &group_b, [this](ObjectId o) {
                         return Rect::FromPoint(dataset.object(o).location);
                       });
        node->objects = std::move(group_a);
        node->Recompute(dataset);
        auto sibling = std::make_unique<Node>();
        sibling->is_leaf = true;
        sibling->objects = std::move(group_b);
        sibling->Recompute(dataset);
        return sibling;
      }

      // ChooseSubtree: least enlargement, ties by smallest area.
      Node* best = nullptr;
      double best_enlargement = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      const Rect obj_rect = Rect::FromPoint(obj.location);
      for (const auto& child : node->children) {
        const double e = RectEnlargement(child->mbr, obj_rect);
        const double a = child->mbr.Area();
        if (e < best_enlargement || (e == best_enlargement && a < best_area)) {
          best_enlargement = e;
          best_area = a;
          best = child.get();
        }
      }
      COSKQ_CHECK(best != nullptr);
      std::unique_ptr<Node> sibling = Run(best);
      if (sibling == nullptr) {
        return nullptr;
      }
      node->children.push_back(std::move(sibling));
      if (static_cast<int>(node->children.size()) <= max_entries) {
        return nullptr;
      }
      std::vector<std::unique_ptr<Node>> group_a;
      std::vector<std::unique_ptr<Node>> group_b;
      QuadraticSplit(std::move(node->children), min_entries, &group_a,
                     &group_b, [](const std::unique_ptr<Node>& child) {
                       return child->mbr;
                     });
      node->children = std::move(group_a);
      node->Recompute(dataset);
      auto new_sibling = std::make_unique<Node>();
      new_sibling->is_leaf = false;
      new_sibling->children = std::move(group_b);
      new_sibling->Recompute(dataset);
      return new_sibling;
    }
  };

  Inserter inserter{*dataset_, max_entries, min_entries, obj};
  std::unique_ptr<Node> sibling = inserter.Run(root_.get());
  if (sibling != nullptr) {
    auto new_root = std::make_unique<Node>();
    new_root->is_leaf = false;
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(sibling));
    new_root->Recompute(*dataset_);
    root_ = std::move(new_root);
  }
  size_.fetch_add(1, std::memory_order_relaxed);
  // Keep node ids dense: incremental insertion is a test/maintenance path,
  // so a preorder renumbering per insert is an acceptable price for flat
  // per-node cache arrays on the query path.
  AssignNodeIds();
  return Status::OK();
}

ObjectId IrTree::KeywordNn(const Point& p, TermId t, double* distance) const {
  return KeywordNn(p, t, distance,
                   static_cast<std::vector<uint32_t>*>(nullptr));
}

namespace {

/// Merges the delta's insert candidates into a keyword-NN answer: the
/// nearest delta insert containing `t` replaces the frozen result iff it is
/// strictly closer (ties go to the frozen base; among equal-distance delta
/// candidates the smallest id wins — with continuous coordinates ties have
/// measure zero, so the merged answer matches a from-scratch build).
void MergeDeltaKeywordNn(const Dataset& dataset, const DeltaTree& delta,
                         const Point& p, TermId t, ObjectId* best_id,
                         double* best_distance) {
  const uint64_t kw_sig = TermSignature(t);
  for (size_t i = 0; i < delta.inserts.size(); ++i) {
    if ((delta.insert_sigs[i] & kw_sig) == 0) {
      continue;
    }
    const SpatialObject& obj = dataset.object(delta.inserts[i]);
    if (!obj.ContainsTerm(t)) {
      continue;
    }
    const double d = Distance(p, obj.location);
    if (d < *best_distance) {
      *best_distance = d;
      *best_id = obj.id;
    }
  }
}

}  // namespace

ObjectId IrTree::KeywordNn(const Point& p, TermId t, double* distance,
                           std::vector<uint32_t>* visit_log) const {
  ReadGuard guard(this);
  const DeltaTree* delta = PinnedDelta();
  if (UseFrozen(delta)) {
    double d = std::numeric_limits<double>::infinity();
    ObjectId id = FrozenKeywordNn(p, t, &d, visit_log, delta);
    if (delta != nullptr) {
      MergeDeltaKeywordNn(*dataset_, *delta, p, t, &id, &d);
    }
    if (distance != nullptr) {
      *distance = d;
    }
    return id;
  }
  struct QueueEntry {
    double distance;
    const Node* node;  // nullptr for object entries.
    ObjectId id;
    bool operator>(const QueueEntry& other) const {
      return distance > other.distance;
    }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  if (size_ > 0 && TermSetContains(root_->terms, t)) {
    queue.push(QueueEntry{root_->mbr.MinDistance(p), root_.get(),
                          kInvalidObjectId});
  }
  while (!queue.empty()) {
    QueueEntry top = queue.top();
    queue.pop();
    if (top.node == nullptr) {
      if (distance != nullptr) {
        *distance = top.distance;
      }
      return top.id;
    }
    const Node* node = top.node;
    if (visit_log != nullptr) {
      visit_log->push_back(node->id);
    }
    if (node->is_leaf) {
      for (ObjectId id : node->objects) {
        const SpatialObject& obj = dataset_->object(id);
        if (obj.ContainsTerm(t)) {
          queue.push(QueueEntry{Distance(p, obj.location), nullptr, id});
        }
      }
    } else {
      for (const auto& child : node->children) {
        if (TermSetContains(child->terms, t)) {
          queue.push(QueueEntry{child->mbr.MinDistance(p), child.get(),
                                kInvalidObjectId});
        }
      }
    }
  }
  if (distance != nullptr) {
    *distance = std::numeric_limits<double>::infinity();
  }
  return kInvalidObjectId;
}

ObjectId IrTree::KeywordNn(const Point& p, TermId t, double* distance,
                           SearchScratch* scratch) const {
  ReadGuard guard(this);
  if (scratch == nullptr || !scratch->mask_active()) {
    return KeywordNn(p, t, distance,
                     scratch != nullptr ? scratch->visit_log() : nullptr);
  }
  const int slot = scratch->mask().SlotOf(t);
  if (slot < 0) {
    return KeywordNn(p, t, distance, scratch->visit_log());
  }
  const DeltaTree* delta = PinnedDelta();
  if (UseFrozen(delta)) {
    double d = std::numeric_limits<double>::infinity();
    ObjectId id = FrozenKeywordNnMasked(p, t, slot, &d, scratch, delta);
    if (delta != nullptr) {
      MergeDeltaKeywordNn(*dataset_, *delta, p, t, &id, &d);
    }
    if (distance != nullptr) {
      *distance = d;
    }
    return id;
  }
  const uint64_t bit = uint64_t{1} << slot;
  // Bloom pre-filter for `t`: a clear AND proves non-containment, so the
  // exact (cached-mask) test only runs on signature-positives. Pruning
  // decisions are unchanged — the filter has no false negatives.
  const uint64_t kw_sig = TermSignature(t);
  // The pooled vector driven by std::push_heap/pop_heap with the same
  // comparator is the exact algorithm std::priority_queue runs, so entries
  // pop in the baseline order, ties included.
  using internal_index::HeapEntry;
  std::vector<HeapEntry>& heap = scratch->heap();
  heap.clear();
  const auto push = [&heap](HeapEntry entry) {
    heap.push_back(entry);
    std::push_heap(heap.begin(), heap.end(), std::greater<HeapEntry>());
  };
  std::vector<uint32_t>* visit_log = scratch->visit_log();
  // Traversals anchored at the query origin (the NnSet case) read node
  // MinDistance and object distances through the per-query memos — the k
  // keyword searches of one NnSet share most of their geometry. Anchored
  // elsewhere (e.g. Cao appro2's per-anchor probes) they compute plain
  // distances; the memos are keyed to origin() only.
  const bool from_origin = p == scratch->origin();
  if (size_ > 0 && (root_->sig & kw_sig) != 0 &&
      (scratch->NodeMask(root_->id, root_->terms) & bit) != 0) {
    const double d = from_origin
                         ? scratch->NodeMinDistance(root_->id, root_->mbr)
                         : root_->mbr.MinDistance(p);
    push(HeapEntry{d, root_.get(), kInvalidObjectId});
  }
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<HeapEntry>());
    const HeapEntry top = heap.back();
    heap.pop_back();
    if (top.node == nullptr) {
      if (distance != nullptr) {
        *distance = top.distance;
      }
      return top.id;
    }
    const Node* node = static_cast<const Node*>(top.node);
    if (visit_log != nullptr) {
      visit_log->push_back(node->id);
    }
    if (node->is_leaf) {
      for (ObjectId id : node->objects) {
        if ((obj_sigs_[id] & kw_sig) == 0) {
          continue;
        }
        const SpatialObject& obj = dataset_->object(id);
        // Warm cached mask when present, else the baseline's two-probe
        // containment test with no cache fill — most objects a traversal
        // touches are never consulted again, and the ones a solver keeps
        // get their mask computed at the consumption site.
        uint64_t obj_mask = 0;
        const bool contains = scratch->CachedObjectMask(id, &obj_mask)
                                  ? (obj_mask & bit) != 0
                                  : obj.ContainsTerm(t);
        if (contains) {
          const double d = from_origin
                               ? scratch->QueryDistance(id, obj.location)
                               : Distance(p, obj.location);
          push(HeapEntry{d, nullptr, id});
        }
      }
    } else {
      for (const auto& child : node->children) {
        if ((child->sig & kw_sig) != 0 &&
            (scratch->NodeMask(child->id, child->terms) & bit) != 0) {
          const double d =
              from_origin ? scratch->NodeMinDistance(child->id, child->mbr)
                          : child->mbr.MinDistance(p);
          push(HeapEntry{d, child.get(), kInvalidObjectId});
        }
      }
    }
  }
  if (distance != nullptr) {
    *distance = std::numeric_limits<double>::infinity();
  }
  return kInvalidObjectId;
}

std::vector<std::pair<ObjectId, double>> IrTree::BooleanKnn(
    const Point& p, const TermSet& required, size_t k) const {
  ReadGuard guard(this);
  std::vector<std::pair<ObjectId, double>> result;
  if (size_ == 0 || k == 0) {
    return result;
  }
  COSKQ_CHECK(root_ != nullptr)
      << "BooleanKnn requires the pointer tree; not available on a "
         "snapshot-loaded (frozen-only) index";
  result.reserve(std::min(k, size_.load(std::memory_order_relaxed)));
  struct QueueEntry {
    double distance;
    const Node* node;  // nullptr for object entries.
    ObjectId id;
    bool operator>(const QueueEntry& other) const {
      return distance > other.distance;
    }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  if (TermSetIsSubset(required, root_->terms)) {
    queue.push(QueueEntry{root_->mbr.MinDistance(p), root_.get(),
                          kInvalidObjectId});
  }
  while (!queue.empty()) {
    QueueEntry top = queue.top();
    queue.pop();
    if (top.node == nullptr) {
      result.emplace_back(top.id, top.distance);
      if (result.size() == k) {
        break;
      }
      continue;
    }
    const Node* node = top.node;
    if (node->is_leaf) {
      for (ObjectId id : node->objects) {
        const SpatialObject& obj = dataset_->object(id);
        if (TermSetIsSubset(required, obj.keywords)) {
          queue.push(QueueEntry{Distance(p, obj.location), nullptr, id});
        }
      }
    } else {
      for (const auto& child : node->children) {
        if (TermSetIsSubset(required, child->terms)) {
          queue.push(QueueEntry{child->mbr.MinDistance(p), child.get(),
                                kInvalidObjectId});
        }
      }
    }
  }
  return result;
}

std::vector<std::pair<ObjectId, double>> IrTree::TopkRanked(
    const Point& p, const TermSet& terms, size_t k, double alpha) const {
  ReadGuard guard(this);
  std::vector<std::pair<ObjectId, double>> result;
  if (size_ == 0 || k == 0 || terms.empty()) {
    return result;
  }
  COSKQ_CHECK(root_ != nullptr)
      << "TopkRanked requires the pointer tree; not available on a "
         "snapshot-loaded (frozen-only) index";
  result.reserve(std::min(k, size_.load(std::memory_order_relaxed)));
  COSKQ_CHECK_GE(alpha, 0.0);
  COSKQ_CHECK_LE(alpha, 1.0);
  const Point lo{root_->mbr.min_x, root_->mbr.min_y};
  const Point hi{root_->mbr.max_x, root_->mbr.max_y};
  const double diag = std::max(Distance(lo, hi),
                               std::numeric_limits<double>::min());
  const double num_terms = static_cast<double>(terms.size());
  const auto object_score = [&](const SpatialObject& obj) {
    const double rel =
        static_cast<double>(TermSetIntersectionSize(obj.keywords, terms)) /
        num_terms;
    return alpha * Distance(p, obj.location) / diag +
           (1.0 - alpha) * (1.0 - rel);
  };
  const auto node_bound = [&](const Node& node) {
    const double rel_ub =
        static_cast<double>(TermSetIntersectionSize(node.terms, terms)) /
        num_terms;
    return alpha * node.mbr.MinDistance(p) / diag +
           (1.0 - alpha) * (1.0 - rel_ub);
  };
  struct QueueEntry {
    double score;
    const Node* node;  // nullptr for object entries.
    ObjectId id;
    bool operator>(const QueueEntry& other) const {
      return score > other.score;
    }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  queue.push(QueueEntry{node_bound(*root_), root_.get(), kInvalidObjectId});
  while (!queue.empty()) {
    QueueEntry top = queue.top();
    queue.pop();
    if (top.node == nullptr) {
      result.emplace_back(top.id, top.score);
      if (result.size() == k) {
        break;
      }
      continue;
    }
    const Node* node = top.node;
    if (node->is_leaf) {
      for (ObjectId id : node->objects) {
        queue.push(
            QueueEntry{object_score(dataset_->object(id)), nullptr, id});
      }
    } else {
      for (const auto& child : node->children) {
        queue.push(
            QueueEntry{node_bound(*child), child.get(), kInvalidObjectId});
      }
    }
  }
  return result;
}

std::vector<ObjectId> IrTree::NnSet(const Point& p, const TermSet& terms,
                                    TermSet* missing) const {
  return NnSet(p, terms, missing, nullptr);
}

std::vector<ObjectId> IrTree::NnSet(const Point& p, const TermSet& terms,
                                    TermSet* missing,
                                    SearchScratch* scratch) const {
  // One guard across the per-keyword searches: all of them (and their delta
  // merges) observe the same frozen+delta view.
  ReadGuard guard(this);
  std::vector<ObjectId> result;
  result.reserve(terms.size());
  for (TermId t : terms) {
    double distance = 0.0;
    const ObjectId id = scratch != nullptr
                            ? KeywordNn(p, t, &distance, scratch)
                            : KeywordNn(p, t, &distance);
    if (id == kInvalidObjectId) {
      if (missing != nullptr) {
        missing->push_back(t);
      }
      continue;
    }
    result.push_back(id);
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  if (missing != nullptr) {
    NormalizeTermSet(missing);
  }
  return result;
}

void IrTree::RangeRelevant(const Circle& circle, const TermSet& query_terms,
                           std::vector<ObjectId>* out) const {
  RangeRelevant(circle, query_terms, out,
                static_cast<std::vector<uint32_t>*>(nullptr));
}

namespace {

/// Appends the delta inserts inside the disk that carry a query term, in
/// ascending id order (DeltaTree::inserts is sorted). Runs after the frozen
/// traversal so base matches keep their traversal order.
void AppendDeltaRangeRelevant(const Dataset& dataset, const DeltaTree& delta,
                              const Circle& circle, const TermSet& query_terms,
                              std::vector<ObjectId>* out) {
  const uint64_t sub_sig = TermSetSignature(query_terms);
  for (size_t i = 0; i < delta.inserts.size(); ++i) {
    if ((delta.insert_sigs[i] & sub_sig) == 0) {
      continue;
    }
    const SpatialObject& obj = dataset.object(delta.inserts[i]);
    if (circle.Contains(obj.location) && obj.ContainsAnyOf(query_terms)) {
      out->push_back(obj.id);
    }
  }
}

}  // namespace

void IrTree::RangeRelevant(const Circle& circle, const TermSet& query_terms,
                           std::vector<ObjectId>* out,
                           std::vector<uint32_t>* visit_log) const {
  // A disk of negative radius is empty on every path (the delta scan's
  // point test alone would accept points within |radius|).
  if (circle.radius < 0.0) {
    return;
  }
  ReadGuard guard(this);
  const DeltaTree* delta = PinnedDelta();
  if (UseFrozen(delta)) {
    FrozenRangeRelevant(circle, query_terms, out, visit_log, delta);
    if (delta != nullptr) {
      AppendDeltaRangeRelevant(*dataset_, *delta, circle, query_terms, out);
    }
    return;
  }
  struct Searcher {
    const Dataset& dataset;
    const Circle& circle;
    const TermSet& query_terms;
    std::vector<ObjectId>* out;
    std::vector<uint32_t>* visit_log;

    void Run(const Node* node) {
      if (!circle.Intersects(node->mbr) ||
          !TermSetsIntersect(node->terms, query_terms)) {
        return;
      }
      if (visit_log != nullptr) {
        visit_log->push_back(node->id);
      }
      if (node->is_leaf) {
        for (ObjectId id : node->objects) {
          const SpatialObject& obj = dataset.object(id);
          if (circle.Contains(obj.location) &&
              obj.ContainsAnyOf(query_terms)) {
            out->push_back(id);
          }
        }
        return;
      }
      for (const auto& child : node->children) {
        Run(child.get());
      }
    }
  };
  if (size_ == 0) {
    return;
  }
  Searcher searcher{*dataset_, circle, query_terms, out, visit_log};
  searcher.Run(root_.get());
}

void IrTree::RangeRelevant(const Circle& circle, const TermSet& query_terms,
                           std::vector<ObjectId>* out,
                           SearchScratch* scratch) const {
  if (circle.radius < 0.0) {
    return;  // Empty disk, as in the unmasked entry.
  }
  ReadGuard guard(this);
  uint64_t submask = 0;
  if (scratch == nullptr || !scratch->mask_active() ||
      !scratch->mask().SubmaskOf(query_terms, &submask)) {
    RangeRelevant(circle, query_terms, out,
                  scratch != nullptr ? scratch->visit_log() : nullptr);
    return;
  }
  // Bloom signature of the tested subset: a clear AND against a node or
  // object signature proves disjointness, skipping the exact mask test
  // without changing its outcome (no false negatives).
  const uint64_t sub_sig = TermSetSignature(query_terms);
  // Cheap cost model for the masked scan. An object with b signature bits
  // survives a q-bit query signature with probability ~(1 - q/64)^b, so the
  // mean density of the corpus signatures predicts the Bloom filter's prune
  // rate for this query. When a keyword-heavy query meets a keyword-heavy
  // corpus (web-like: ~30 bits per object signature) the estimate collapses
  // and the masked scan is the plain scan plus dead signature tests and
  // cold-cache probes — measurably slower. Divert those queries to the
  // plain path; it returns the identical result set. The cutoff sits before
  // the frozen/pointer split so both representations take the same branch.
  //
  // The divert only applies when the scratch caches are cold. The solvers
  // always run NnSet before any range retrieval, which fills the distance
  // memo and mask caches for the epoch; a warm masked scan reuses those
  // entries and beats the plain scan even when the Bloom prune rate is
  // poor, so warm queries keep the masked path unconditionally.
  constexpr double kMaskedRangeMinPruneRate = 0.02;
  const bool caches_warm =
      scratch->dist_cache_hits() + scratch->dist_cache_misses() > 0;
  const double clear_frac =
      1.0 - static_cast<double>(std::popcount(sub_sig)) / 64.0;
  const double mean_sig_bits =
      size_ > 0 ? static_cast<double>(obj_sig_bits_sum_) /
                      static_cast<double>(size_)
                : 0.0;
  if (!caches_warm &&
      std::pow(clear_frac, mean_sig_bits) < kMaskedRangeMinPruneRate) {
    RangeRelevant(circle, query_terms, out, scratch->visit_log());
    return;
  }
  const DeltaTree* delta = PinnedDelta();
  if (UseFrozen(delta)) {
    FrozenRangeRelevantMasked(circle, query_terms, submask, out, scratch,
                              delta);
    if (delta != nullptr) {
      AppendDeltaRangeRelevant(*dataset_, *delta, circle, query_terms, out);
    }
    return;
  }
  struct Searcher {
    const Dataset& dataset;
    const std::vector<uint64_t>& obj_sigs;
    const Circle& circle;
    const TermSet& query_terms;
    uint64_t submask;
    uint64_t sub_sig;
    SearchScratch* scratch;
    std::vector<ObjectId>* out;
    std::vector<uint32_t>* visit_log;

    void Run(const Node* node) {
      // Geometric test first, matching the baseline's short-circuit order;
      // then the signature, then the cached mask when warm (NnSet ran
      // first in the solver flow, so nodes near the query usually are),
      // else the baseline's early-exit merge with no cache fill.
      if (!circle.Intersects(node->mbr) || (node->sig & sub_sig) == 0) {
        return;
      }
      uint64_t node_mask = 0;
      const bool relevant = scratch->CachedNodeMask(node->id, &node_mask)
                                ? (node_mask & submask) != 0
                                : TermSetsIntersect(node->terms, query_terms);
      if (!relevant) {
        return;
      }
      if (visit_log != nullptr) {
        visit_log->push_back(node->id);
      }
      if (node->is_leaf) {
        for (ObjectId id : node->objects) {
          // Signature first: one load from the dense sig array decides a
          // prune without touching the object record at all, and both
          // predicates are pure so the surviving set is unchanged (the
          // frozen path orders its leaf scan the same way).
          if ((obj_sigs[id] & sub_sig) == 0) {
            continue;
          }
          const SpatialObject& obj = dataset.object(id);
          if (!circle.Contains(obj.location)) {
            continue;
          }
          // Warm cached mask if the query already touched this object;
          // otherwise the baseline's early-exit merge, with no cache fill —
          // most disk objects are tested exactly once, and the relevant
          // ones get their mask computed by the solver that consumes them.
          uint64_t obj_mask = 0;
          const bool relevant =
              scratch->CachedObjectMask(id, &obj_mask)
                  ? (obj_mask & submask) != 0
                  : obj.ContainsAnyOf(query_terms);
          if (relevant) {
            out->push_back(id);
          }
        }
        return;
      }
      for (const auto& child : node->children) {
        Run(child.get());
      }
    }
  };
  if (size_ == 0) {
    return;
  }
  Searcher searcher{*dataset_, obj_sigs_, circle,
                    query_terms, submask, sub_sig,
                    scratch,   out,       scratch->visit_log()};
  searcher.Run(root_.get());
}

namespace {

/// KeywordMatches' mask of one keyword set.
uint64_t KeywordMask(const TermSet& keywords,
                     const std::vector<std::pair<TermId, int>>& term_bits) {
  uint64_t mask = 0;
  for (const auto& [t, bit] : term_bits) {
    if (TermSetContains(keywords, t)) {
      mask |= uint64_t{1} << bit;
    }
  }
  return mask;
}

bool ById(const IrTree::KeywordMatch& a, const IrTree::KeywordMatch& b) {
  return a.id < b.id;
}

}  // namespace

void IrTree::KeywordMatches(
    const std::vector<std::pair<TermId, int>>& term_bits,
    std::vector<KeywordMatch>* out) const {
  ReadGuard guard(this);
  const DeltaTree* delta = PinnedDelta();
  std::vector<KeywordMatch> matches;
  if (frozen_ != nullptr) {
    // Base: one single-bit match per posting of a listed term, live ids
    // only; folded per object below.
    const FrozenView& v = frozen_->view;
    for (const auto& [t, bit] : term_bits) {
      for (auto [first, last] = v.postings(t); first != last; ++first) {
        const ObjectId id = v.leaf_ids[*first];
        if (delta == nullptr || !delta->IsTombstoned(id)) {
          matches.push_back(KeywordMatch{
              id, Point{v.leaf_x[*first], v.leaf_y[*first]},
              uint64_t{1} << bit});
        }
      }
    }
  } else {
    // Never-frozen tree: a range retrieval over the whole plane.
    TermSet terms;
    for (const auto& [t, bit] : term_bits) {
      terms.push_back(t);
    }
    NormalizeTermSet(&terms);
    std::vector<ObjectId> ids;
    RangeRelevant(
        Circle(Point{0.0, 0.0}, std::numeric_limits<double>::infinity()),
        terms, &ids);
    for (ObjectId id : ids) {
      const SpatialObject& obj = dataset_->object(id);
      matches.push_back(
          KeywordMatch{id, obj.location, KeywordMask(obj.keywords, term_bits)});
    }
  }
  std::sort(matches.begin(), matches.end(), ById);
  size_t kept = 0;
  for (size_t i = 0; i < matches.size(); ++i) {
    if (kept > 0 && matches[kept - 1].id == matches[i].id) {
      matches[kept - 1].mask |= matches[i].mask;
    } else {
      matches[kept++] = matches[i];
    }
  }
  matches.resize(kept);
  if (delta != nullptr) {
    // Delta inserts are disjoint from the base and sorted by id.
    for (ObjectId id : delta->inserts) {
      const SpatialObject& obj = dataset_->object(id);
      const uint64_t mask = KeywordMask(obj.keywords, term_bits);
      if (mask != 0) {
        matches.push_back(KeywordMatch{id, obj.location, mask});
      }
    }
    std::inplace_merge(matches.begin(),
                       matches.begin() + static_cast<ptrdiff_t>(kept),
                       matches.end(), ById);
  }
  out->insert(out->end(), matches.begin(), matches.end());
}

RangeRetrievalStats IrTree::range_stats() const {
  RangeRetrievalStats stats;
  stats.posting_calls = range_posting_calls_.load(std::memory_order_relaxed);
  stats.posting_entries =
      range_posting_entries_.load(std::memory_order_relaxed);
  stats.tree_calls = range_tree_calls_.load(std::memory_order_relaxed);
  stats.tree_entries = range_tree_entries_.load(std::memory_order_relaxed);
  return stats;
}

struct IrTree::RelevantStream::Impl {
  struct QueueEntry {
    double distance;
    /// IrTree::Node* in pointer mode, FrozenNodeRecord* in frozen mode;
    /// nullptr for object entries. The comparator reads only the distance,
    /// so heap behavior is identical across modes.
    const void* node;
    ObjectId id;
    /// Frozen mode only: PrefetchHint(*node) for the heap-pop prefetch.
    /// Ignored by the comparator; zero in pointer mode and for objects.
    uint32_t aux = 0;
    bool operator>(const QueueEntry& other) const {
      return distance > other.distance;
    }
  };

  const IrTree* tree;
  Point origin;
  TermSet query_terms;
  /// Non-null when the stream runs on the frozen flat layout; the traversal
  /// then mirrors the pointer walk slot-for-slot (same visit order, same
  /// predicates, same arithmetic).
  const FrozenView* fv = nullptr;
  /// When masked, prune on scratch-cached bitmasks instead of the sorted
  /// term sets; the queue itself stays stream-private so streams can be
  /// interleaved with other masked traversals on the same scratch.
  SearchScratch* scratch = nullptr;
  uint64_t submask = 0;
  /// Bloom signature of `query_terms` (definite-negative pre-filter).
  uint64_t sub_sig = 0;
  bool masked = false;
  /// True when the stream is anchored at the scratch's query origin, so
  /// node/object distances can be read through the per-query memos.
  bool from_origin = false;
  /// The delta pinned by the stream's guard (null ⇔ empty). The frozen
  /// traversal skips its tombstones; its insert candidates are pre-scored
  /// into delta_cands and min-merged against the tree stream by Next().
  const DeltaTree* delta = nullptr;
  /// (distance, id) of every relevant delta insert, ascending.
  std::vector<std::pair<double, ObjectId>> delta_cands = {};
  size_t delta_pos = 0;
  /// One-element lookahead of the tree stream for the merge (the tree side
  /// has no O(1) peek).
  std::optional<std::pair<ObjectId, double>> lookahead = std::nullopt;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue = {};

  /// Pops the next relevant object from the frozen/pointer traversal alone
  /// (the pre-delta stream); Next() merges it with delta_cands.
  std::optional<std::pair<ObjectId, double>> NextFromTree();
};

IrTree::RelevantStream::RelevantStream(const IrTree* tree, const Point& origin,
                                       const TermSet& query_terms)
    : RelevantStream(tree, origin, query_terms, nullptr) {}

IrTree::RelevantStream::RelevantStream(const IrTree* tree, const Point& origin,
                                       const TermSet& query_terms,
                                       SearchScratch* scratch)
    : guard_(tree), impl_(new Impl{tree, origin, query_terms}) {
  COSKQ_CHECK(tree != nullptr);
  uint64_t submask = 0;
  if (scratch != nullptr && scratch->mask_active() &&
      scratch->mask().SubmaskOf(query_terms, &submask)) {
    impl_->scratch = scratch;
    impl_->submask = submask;
    impl_->sub_sig = TermSetSignature(query_terms);
    impl_->masked = true;
    impl_->from_origin = origin == scratch->origin();
  }
  const DeltaTree* delta = tree->PinnedDelta();
  if (delta != nullptr) {
    impl_->delta = delta;
    const uint64_t query_sig = TermSetSignature(query_terms);
    for (size_t i = 0; i < delta->inserts.size(); ++i) {
      if ((delta->insert_sigs[i] & query_sig) == 0) {
        continue;
      }
      const SpatialObject& obj = tree->dataset_->object(delta->inserts[i]);
      if (obj.ContainsAnyOf(query_terms)) {
        impl_->delta_cands.emplace_back(Distance(origin, obj.location),
                                        obj.id);
      }
    }
    std::sort(impl_->delta_cands.begin(), impl_->delta_cands.end());
  }
  if (tree->size_ == 0) {
    return;
  }
  if (tree->UseFrozen(delta)) {
    const FrozenView& v = tree->frozen_->view;
    impl_->fv = &v;
    const FrozenNodeRecord& root = v.nodes[0];
    const bool root_relevant =
        impl_->masked
            ? (root.sig & impl_->sub_sig) != 0 &&
                  (scratch->NodeMask(root.id, v.node_terms(root),
                                     root.term_count) &
                   submask) != 0
            : TermSpanIntersects(v.node_terms(root), root.term_count,
                                 impl_->query_terms);
    if (root_relevant) {
      // Same arithmetic as Rect::MinDistance on the (non-empty) root MBR.
      impl_->queue.push(Impl::QueueEntry{
          Rect(v.min_x[0], v.min_y[0], v.max_x[0], v.max_y[0])
              .MinDistance(origin),
          &root, kInvalidObjectId, PrefetchHint(root)});
    }
    return;
  }
  const bool root_relevant =
      impl_->masked
          ? (tree->root_->sig & impl_->sub_sig) != 0 &&
                (scratch->NodeMask(tree->root_->id, tree->root_->terms) &
                 submask) != 0
          : TermSetsIntersect(tree->root_->terms, impl_->query_terms);
  if (root_relevant) {
    impl_->queue.push(Impl::QueueEntry{
        tree->root_->mbr.MinDistance(origin), tree->root_.get(),
        kInvalidObjectId});
  }
}

IrTree::RelevantStream::~RelevantStream() = default;

std::optional<std::pair<ObjectId, double>> IrTree::RelevantStream::Next() {
  Impl& im = *impl_;
  if (im.delta_pos >= im.delta_cands.size() && !im.lookahead.has_value()) {
    // Empty or exhausted delta: the tree stream is the whole stream.
    return im.NextFromTree();
  }
  if (!im.lookahead.has_value()) {
    im.lookahead = im.NextFromTree();
  }
  if (im.delta_pos < im.delta_cands.size()) {
    const std::pair<double, ObjectId>& cand = im.delta_cands[im.delta_pos];
    // Min-merge on distance; the frozen side wins ties (see
    // MergeDeltaKeywordNn — continuous coordinates make ties measure-zero).
    if (!im.lookahead.has_value() || cand.first < im.lookahead->second) {
      ++im.delta_pos;
      return std::make_pair(cand.second, cand.first);
    }
  }
  std::optional<std::pair<ObjectId, double>> result = im.lookahead;
  im.lookahead.reset();
  return result;
}

std::optional<std::pair<ObjectId, double>>
IrTree::RelevantStream::Impl::NextFromTree() {
  if (this->fv != nullptr) {
    // Frozen mode: the pointer loop below, transliterated onto the flat
    // arrays. Predicate order, distances, and scratch interactions are
    // identical, so the emitted stream matches the pointer stream bit for
    // bit.
    auto& queue = this->queue;
    const FrozenView& v = *this->fv;
    const bool masked = this->masked;
    SearchScratch* scratch = this->scratch;
    const uint64_t submask = this->submask;
    const uint64_t sub_sig = this->sub_sig;
    const bool from_origin = this->from_origin;
    while (!queue.empty()) {
      const Impl::QueueEntry top = queue.top();
      queue.pop();
      if (top.node == nullptr) {
        return std::make_pair(top.id, top.distance);
      }
      if (!queue.empty()) {
        // Start pulling the likely next pop while this node is processed.
        const Impl::QueueEntry& next = queue.top();
        PrefetchNextPop(v, next.node, next.aux);
      }
      const FrozenNodeRecord& node =
          *static_cast<const FrozenNodeRecord*>(top.node);
      if (node.is_leaf()) {
        // The union of the query terms' leaf runs: exactly the entries the
        // per-entry signature, mask and keyword tests kept, in entry order,
        // so heap pushes and QueryDistance memo calls are unchanged.
        const uint32_t begin = node.entry_begin;
        const uint32_t end = begin + node.entry_count;
        const TermSet& terms = this->query_terms;
        internal_index::ForEachLeafMatch(
            terms.size(), begin, end,
            [&](size_t i) { return v.LeafRun(terms[i], begin, end); },
            [&](uint32_t e) {
              const ObjectId id = v.leaf_ids[e];
              if (this->delta != nullptr && this->delta->IsTombstoned(id)) {
                return;
              }
              const Point location{v.leaf_x[e], v.leaf_y[e]};
              const double d = from_origin
                                   ? scratch->QueryDistance(id, location)
                                   : Distance(this->origin, location);
              queue.push(Impl::QueueEntry{d, nullptr, id});
            });
      } else {
        const uint32_t first = node.first_child;
        const uint32_t last = first + node.entry_count;
        for (uint32_t c = first; c < last; ++c) {
          const FrozenNodeRecord& child = v.nodes[c];
          bool relevant;
          if (masked) {
            uint64_t node_mask = 0;
            relevant = (child.sig & sub_sig) != 0 &&
                       (scratch->CachedNodeMask(child.id, &node_mask)
                            ? (node_mask & submask) != 0
                            : TermSpanIntersects(v.node_terms(child),
                                                 child.term_count,
                                                 this->query_terms));
          } else {
            relevant = TermSpanIntersects(v.node_terms(child),
                                          child.term_count,
                                          this->query_terms);
          }
          if (relevant) {
            const Rect mbr(v.min_x[c], v.min_y[c], v.max_x[c], v.max_y[c]);
            const double d = masked && from_origin
                                 ? scratch->NodeMinDistance(child.id, mbr)
                                 : mbr.MinDistance(this->origin);
            queue.push(
                Impl::QueueEntry{d, &child, kInvalidObjectId,
                                 PrefetchHint(child)});
          }
        }
      }
    }
    return std::nullopt;
  }
  auto& queue = this->queue;
  const Dataset& dataset = *this->tree->dataset_;
  const bool masked = this->masked;
  SearchScratch* scratch = this->scratch;
  const uint64_t submask = this->submask;
  const uint64_t sub_sig = this->sub_sig;
  const bool from_origin = this->from_origin;
  const std::vector<uint64_t>& obj_sigs = this->tree->obj_sigs_;
  while (!queue.empty()) {
    Impl::QueueEntry top = queue.top();
    queue.pop();
    if (top.node == nullptr) {
      return std::make_pair(top.id, top.distance);
    }
    const Node* node = static_cast<const Node*>(top.node);
    if (node->is_leaf) {
      for (ObjectId id : node->objects) {
        const SpatialObject& obj = dataset.object(id);
        bool relevant;
        if (masked) {
          // Signature pre-filter, then the warm cached mask if present,
          // else the baseline merge with no cache fill (see RangeRelevant).
          uint64_t obj_mask = 0;
          relevant = (obj_sigs[id] & sub_sig) != 0 &&
                     (scratch->CachedObjectMask(id, &obj_mask)
                          ? (obj_mask & submask) != 0
                          : obj.ContainsAnyOf(this->query_terms));
        } else {
          relevant = obj.ContainsAnyOf(this->query_terms);
        }
        if (relevant) {
          const double d = masked && from_origin
                               ? scratch->QueryDistance(id, obj.location)
                               : Distance(this->origin, obj.location);
          queue.push(Impl::QueueEntry{d, nullptr, id});
        }
      }
    } else {
      for (const auto& child : node->children) {
        bool relevant;
        if (masked) {
          uint64_t node_mask = 0;
          relevant =
              (child->sig & sub_sig) != 0 &&
              (scratch->CachedNodeMask(child->id, &node_mask)
                   ? (node_mask & submask) != 0
                   : TermSetsIntersect(child->terms, this->query_terms));
        } else {
          relevant = TermSetsIntersect(child->terms, this->query_terms);
        }
        if (relevant) {
          const double d =
              masked && from_origin
                  ? scratch->NodeMinDistance(child->id, child->mbr)
                  : child->mbr.MinDistance(this->origin);
          queue.push(Impl::QueueEntry{d, child.get(), kInvalidObjectId});
        }
      }
    }
  }
  return std::nullopt;
}

int IrTree::Height() const {
  ReadGuard guard(this);
  if (frozen_ != nullptr) {
    // The frozen view records the height of the frozen base; delta inserts
    // never deepen it (they live outside the tree until the next refreeze).
    return static_cast<int>(frozen_->view.height);
  }
  if (size_.load(std::memory_order_relaxed) == 0) {
    return 0;
  }
  int height = 1;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    ++height;
    node = node->children.front().get();
  }
  return height;
}

size_t IrTree::NodeCount() const {
  ReadGuard guard(this);
  if (root_ == nullptr) {
    return frozen_->view.num_nodes;
  }
  struct Counter {
    size_t count = 0;
    void Run(const Node* node) {
      ++count;
      if (!node->is_leaf) {
        for (const auto& child : node->children) {
          Run(child.get());
        }
      }
    }
  };
  Counter counter;
  counter.Run(root_.get());
  return counter.count;
}

IndexMemoryStats IrTree::MemoryStats() const {
  ReadGuard guard(this);
  IndexMemoryStats stats;
  stats.process_resident_bytes = internal_index::ProcessResidentBytes();
  const internal_index::FaultCounters faults =
      internal_index::ProcessFaultCounters();
  stats.major_faults = faults.major;
  stats.minor_faults = faults.minor;
  if (frozen_ == nullptr) {
    return stats;
  }
  stats.cold = frozen_->view.cold;
  stats.body_bytes = frozen_->body_bytes;
  stats.memory_budget_bytes = frozen_->memory_budget_bytes;
  stats.budget_trims =
      frozen_->budget_trims.load(std::memory_order_relaxed);
  if (frozen_->mapped != nullptr) {
    // Budget-capped trees keep a fresh reading as a side effect of
    // enforcement; re-walking mincore here would duplicate that work.
    stats.body_resident_bytes =
        frozen_->memory_budget_bytes != 0
            ? frozen_->budget_resident_bytes.load(std::memory_order_relaxed)
            : internal_index::MappingResidentBytes(frozen_->body,
                                                  frozen_->body_bytes);
  }
  return stats;
}

void IrTree::CheckInvariants() const {
  ReadGuard guard(this);
  COSKQ_CHECK(root_ != nullptr || frozen_ != nullptr);
  if (frozen_ != nullptr) {
    CheckFrozenInvariants();
  }
  // Delta-overlay invariants (DESIGN.md §13).
  const DeltaTree* delta = PinnedDelta();
  const size_t base_count =
      frozen_ != nullptr ? frozen_->view.num_leaf_entries
                         : size_.load(std::memory_order_relaxed);
  if (delta != nullptr) {
    COSKQ_CHECK(frozen_ != nullptr) << "delta on a never-frozen tree";
    delta->CheckWellFormed();
    for (size_t i = 0; i < delta->inserts.size(); ++i) {
      const ObjectId id = delta->inserts[i];
      COSKQ_CHECK(!LiveInBase(id)) << "delta insert already in frozen base";
      COSKQ_CHECK_LT(id, dataset_->NumObjects());
      COSKQ_CHECK_EQ(delta->insert_sigs[i],
                     TermSetSignature(dataset_->object(id).keywords));
    }
    for (ObjectId id : delta->tombstones) {
      COSKQ_CHECK(LiveInBase(id)) << "tombstone outside the frozen base";
    }
    COSKQ_CHECK_EQ(
        static_cast<int64_t>(size_.load(std::memory_order_relaxed)),
        static_cast<int64_t>(base_count) + delta->LiveDelta());
  } else {
    COSKQ_CHECK_EQ(size_.load(std::memory_order_relaxed), base_count);
  }
  if (frozen_ != nullptr) {
    size_t live_bits = 0;
    for (uint8_t bit : frozen_live_) {
      live_bits += bit;
    }
    COSKQ_CHECK_EQ(live_bits, frozen_->view.num_leaf_entries);
  }
  if (root_ == nullptr) {
    return;
  }
  struct Checker {
    const Dataset& dataset;
    int max_entries;
    size_t object_count = 0;
    int leaf_depth = -1;

    void Run(const Node* node, int depth, bool is_root) {
      COSKQ_CHECK_LE(static_cast<int>(node->EntryCount()), max_entries);
      if (!is_root) {
        COSKQ_CHECK_GE(node->EntryCount(), 1u);
      }
      Rect expected_mbr;
      TermSet expected_terms;
      if (node->is_leaf) {
        if (leaf_depth < 0) {
          leaf_depth = depth;
        }
        COSKQ_CHECK_EQ(leaf_depth, depth) << "leaves at unequal depth";
        for (ObjectId id : node->objects) {
          const SpatialObject& obj = dataset.object(id);
          expected_mbr.ExpandToInclude(obj.location);
          TermSetMergeInto(&expected_terms, obj.keywords);
          ++object_count;
        }
      } else {
        COSKQ_CHECK(node->objects.empty());
        for (const auto& child : node->children) {
          expected_mbr.ExpandToInclude(child->mbr);
          TermSetMergeInto(&expected_terms, child->terms);
          Run(child.get(), depth + 1, /*is_root=*/false);
        }
      }
      COSKQ_CHECK(expected_mbr == node->mbr) << "MBR mismatch";
      COSKQ_CHECK(expected_terms == node->terms) << "term summary mismatch";
    }
  };
  Checker checker{*dataset_, options_.max_entries};
  checker.Run(root_.get(), 0, /*is_root=*/true);
  // The pointer tree mirrors the frozen base (not the delta overlay), so on
  // a frozen tree it counts the base; on a never-frozen tree, everything.
  COSKQ_CHECK_EQ(checker.object_count, base_count);
}

}  // namespace coskq
