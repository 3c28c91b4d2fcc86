// Streaming decode-to-frozen builder: FrozenIntervalSet construction
// directly from decoder output, skipping the red-black tree entirely.
//
// The offline analyzer only ever compares FROZEN sets (PR 4); the RB-tree's
// one remaining job on the hot path is to hand the freeze a sorted node
// sequence. But segments close at barriers, and once a segment is finished
// its node set is final - so the sort can be had far cheaper than O(log N)
// balanced insertion per node. This builder runs the EXACT summarization
// algorithm of IntervalTree::AddAccess/AddRun (same continuation,
// last-address, open-single, and per-key-count indexes, same branch order,
// same node ids) over a flat creation-ordered arena, and tracks sortedness
// instead of maintaining it:
//
//   - a node whose first byte is >= the previous appended node's first byte
//     extends the sorted main sequence in O(1) (the overwhelmingly common
//     case: program-order accesses walk addresses upward);
//   - an out-of-order node goes to a small spill buffer.
//
// Freeze() sorts the spill (typically tiny) and merges it with the main
// sequence by (first byte, creation id) - provably the tree's in-order
// sequence, because a node's first byte NEVER changes after creation
// (continuations extend stride/count/hi only; a descending access starts a
// new node) and the tree breaks first-byte ties toward the right, i.e. in
// creation order. The resulting FrozenIntervalSet is byte-identical to
// FrozenIntervalSet(tree) for the same event stream, which the property
// tests pin down.
//
// Per-event cost drops from O(depth) (the tree pays a root-ward max-hi
// propagation on EVERY access, even O(1) continuations) to amortized O(1),
// and per-node memory from sizeof(IntervalTree::Node) (payload + three
// links, a color, and an augmentation word) to sizeof(AccessNode). The
// summarization indexes are FlatIndex tables (itree/flat_index.h), so the
// per-event path - in practice almost always the continuation branch -
// rewrites slots in place and never allocates; storage grows only when a
// node arena or an index doubles, and nothing is reserved up front.
#pragma once

#include <cstdint>
#include <vector>

#include "itree/flat_index.h"
#include "itree/frozen_set.h"
#include "itree/interval_tree.h"

namespace sword::itree {

class StreamingSetBuilder {
 public:
  /// Records one access. Identical summarization semantics (node ids, hit
  /// counts, interval shapes) to IntervalTree::AddAccess.
  uint32_t AddAccess(uint64_t addr, const AccessKey& key);

  /// Records a coalesced strided run; identical to IntervalTree::AddRun,
  /// including the O(1) bulk extension for the fresh-run common case.
  uint32_t AddRun(uint64_t base, uint64_t stride, uint64_t count,
                  const AccessKey& key);

  size_t NodeCount() const { return nodes_.size(); }
  uint64_t TotalAccesses() const { return total_accesses_; }
  bool Empty() const { return nodes_.empty(); }

  /// Out-of-order nodes waiting in the spill buffer (diagnostics/accounting).
  size_t SpillCount() const { return spill_.size(); }
  uint64_t SpillBytes() const { return spill_.capacity() * sizeof(uint32_t); }

  /// Heap footprint: node arena, order and spill buffers, and every
  /// summarization index at its allocated slot capacity - the same
  /// accounting shape as IntervalTree::MemoryBytes, so the memory governor
  /// treats both builds uniformly.
  uint64_t MemoryBytes() const;

  /// Produces the frozen comparison form: sorts the spill, merges by
  /// (first byte, creation id), done. O(N + S log S) for S spilled nodes.
  /// The builder remains valid (more events may follow a salvage probe),
  /// but callers normally Reset() or drop it afterwards.
  FrozenIntervalSet Freeze() const;

  /// Releases every node and index, returning the builder to empty.
  void Reset();

 private:
  static constexpr uint32_t kNil = 0xffffffffu;

  uint32_t NewNode(const ilp::StridedInterval& interval, const AccessKey& key);

  std::vector<AccessNode> nodes_;  // creation order; ids match the tree's
  std::vector<uint32_t> order_;    // ids in non-decreasing first-byte order
  std::vector<uint32_t> spill_;    // out-of-order ids, sorted at Freeze()
  uint64_t total_accesses_ = 0;
  // The same four summarization indexes as IntervalTree (see its header).
  FlatIndex<ContKey, ContKeyHash> continuations_;
  FlatIndex<ContKey, ContKeyHash> last_addr_;
  FlatIndex<AccessKey, AccessKeyHash> open_single_;
  FlatIndex<AccessKey, AccessKeyHash> key_nodes_;
};

}  // namespace sword::itree
