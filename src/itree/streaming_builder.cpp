#include "itree/streaming_builder.h"

#include <algorithm>

namespace sword::itree {

// The branch structure below is IntervalTree::AddAccess verbatim, minus the
// tree maintenance: an extension never changes a node's first byte, so the
// sorted-order bookkeeping only happens in NewNode. Any change here must be
// mirrored there (and vice versa); the equivalence property tests fail loudly
// on divergence.
uint32_t StreamingSetBuilder::AddAccess(uint64_t addr, const AccessKey& key) {
  total_accesses_++;

  const ContKey here{addr, key};

  // 1. Repeated access to a run's most recent address: fold without growing.
  if (const uint32_t dup = last_addr_.Find(here); dup != kNil) {
    nodes_[dup].hits++;
    return dup;
  }

  // 2. Continuation of an established run: addr is exactly the next element.
  // A found entry is removed here and re-registered at the run's new end.
  if (const uint32_t id = continuations_.Erase(here); id != kNil) {
    AccessNode& n = nodes_[id];
    auto& iv = n.interval;
    last_addr_.EraseIfMapsTo(ContKey{iv.base + iv.stride * (iv.count - 1), key}, id);
    if (iv.count == 1) {
      // This continuation was registered at base+size (unit element walk).
      iv.stride = addr - iv.base;
      iv.count = 2;
      open_single_.Erase(key);
    } else {
      iv.count++;
    }
    n.hits++;
    continuations_.InsertIfAbsent(ContKey{iv.base + iv.stride * iv.count, key}, id);
    last_addr_.InsertIfAbsent(here, id);
    return id;
  }

  // 3. Second element of an arbitrary-stride ascending walk: the most recent
  // single-access node with this key adopts stride = addr - base. Either way
  // the open single is consumed.
  if (const uint32_t id = open_single_.Erase(key); id != kNil) {
    AccessNode& n = nodes_[id];
    auto& iv = n.interval;
    if (addr > iv.base) {
      continuations_.EraseIfMapsTo(ContKey{iv.base + key.size, key}, id);
      last_addr_.EraseIfMapsTo(ContKey{iv.base, key}, id);
      iv.stride = addr - iv.base;
      iv.count = 2;
      n.hits++;
      continuations_.InsertIfAbsent(ContKey{iv.base + iv.stride * 2, key}, id);
      last_addr_.InsertIfAbsent(here, id);
      return id;
    }
    // Descending access: the old node stays single; start a new one.
  }

  // 4. Fresh node. No open single carries this key any more (branch 3
  // consumed it), so the insert below always takes.
  const uint32_t id = NewNode(ilp::StridedInterval{addr, 0, 1, key.size}, key);
  nodes_[id].hits = 1;
  continuations_.InsertIfAbsent(ContKey{addr + key.size, key}, id);
  last_addr_.InsertIfAbsent(here, id);
  open_single_.InsertIfAbsent(key, id);
  return id;
}

// IntervalTree::AddRun verbatim, dispatching to this builder's AddAccess.
uint32_t StreamingSetBuilder::AddRun(uint64_t base, uint64_t stride,
                                     uint64_t count, const AccessKey& key) {
  // Degenerate shapes are defined by the element loop.
  if (count == 0) return kNil;
  if (stride == 0) {
    uint32_t id = kNil;
    for (uint64_t i = 0; i < count; i++) id = AddAccess(base, key);
    return id;
  }
  uint32_t id = AddAccess(base, key);
  if (count == 1) return id;
  const uint32_t first = id;
  id = AddAccess(base + stride, key);
  if (count == 2) return id;

  // Bulk fast path: the first two elements merged into one fresh-looking run
  // node and no other node shares the key, so every remaining element would
  // take the continuation branch on this exact node. Apply the loop's net
  // effect in O(1).
  const auto& iv = nodes_[id].interval;
  if (id == first && iv.base == base && iv.stride == stride && iv.count == 2 &&
      key_nodes_.GetOrZero(key) == 1) {
    const uint64_t extra = count - 2;
    continuations_.EraseIfMapsTo(ContKey{base + 2 * stride, key}, id);
    last_addr_.EraseIfMapsTo(ContKey{base + stride, key}, id);
    AccessNode& run = nodes_[id];
    run.interval.count = count;
    run.hits += extra;
    total_accesses_ += extra;
    continuations_.InsertIfAbsent(ContKey{base + stride * count, key}, id);
    last_addr_.InsertIfAbsent(ContKey{base + stride * (count - 1), key}, id);
    return id;
  }

  // Aliasing with pre-existing same-key state: replay element by element.
  for (uint64_t i = 2; i < count; i++) id = AddAccess(base + i * stride, key);
  return id;
}

uint32_t StreamingSetBuilder::NewNode(const ilp::StridedInterval& interval,
                                      const AccessKey& key) {
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  AccessNode node;
  node.interval = interval;
  node.key = key;
  nodes_.push_back(node);
  ++key_nodes_.InsertIfAbsent(key, 0);
  // Sorted-append or spill. A node's first byte is immutable, so comparing
  // against the LAST in-order node is enough: program-order address walks
  // keep extending the main sequence; only genuine back-jumps spill.
  if (order_.empty() ||
      interval.lo() >= nodes_[order_.back()].interval.lo()) {
    order_.push_back(id);
  } else {
    spill_.push_back(id);
  }
  return id;
}

uint64_t StreamingSetBuilder::MemoryBytes() const {
  return nodes_.capacity() * sizeof(AccessNode) +
         (order_.capacity() + spill_.capacity()) * sizeof(uint32_t) +
         continuations_.MemoryBytes() + last_addr_.MemoryBytes() +
         open_single_.MemoryBytes() + key_nodes_.MemoryBytes();
}

FrozenIntervalSet StreamingSetBuilder::Freeze() const {
  // Sort the spill by (first byte, creation id) and merge with the main
  // sequence, which is already sorted by that pair (first bytes are
  // non-decreasing by construction, ids by append order). The merged order
  // equals the RB-tree's in-order walk: the tree keys on first byte, breaks
  // ties to the right (= creation order), and first bytes never change.
  std::vector<uint32_t> sorted_spill = spill_;
  auto less = [this](uint32_t a, uint32_t b) {
    const uint64_t la = nodes_[a].interval.lo();
    const uint64_t lb = nodes_[b].interval.lo();
    return la != lb ? la < lb : a < b;
  };
  std::sort(sorted_spill.begin(), sorted_spill.end(), less);

  std::vector<AccessNode> merged;
  merged.reserve(nodes_.size());
  size_t i = 0;
  size_t j = 0;
  while (i < order_.size() && j < sorted_spill.size()) {
    merged.push_back(less(order_[i], sorted_spill[j]) ? nodes_[order_[i++]]
                                                      : nodes_[sorted_spill[j++]]);
  }
  for (; i < order_.size(); i++) merged.push_back(nodes_[order_[i]]);
  for (; j < sorted_spill.size(); j++) merged.push_back(nodes_[sorted_spill[j]]);
  return FrozenIntervalSet::FromSorted(std::move(merged));
}

void StreamingSetBuilder::Reset() {
  nodes_.clear();
  nodes_.shrink_to_fit();
  order_.clear();
  order_.shrink_to_fit();
  spill_.clear();
  spill_.shrink_to_fit();
  total_accesses_ = 0;
  continuations_.Clear();
  last_addr_.Clear();
  open_single_.Clear();
  key_nodes_.Clear();
}

}  // namespace sword::itree
