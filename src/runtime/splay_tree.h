// The per-metapool splay tree of Section 4.5: each metapool records the
// address ranges of all registered objects in a self-adjusting binary search
// tree, so that bounds and load-store checks amortize to the cost of a few
// comparisons on the hot path (the key insight SAFECode takes from the
// Jones-Kelly bounds checker and makes fast by splitting trees per pool).
//
// Keys are byte ranges [start, start+size). Ranges never overlap; attempting
// to insert an overlapping range fails (the caller reports a double
// registration). Lookup by containing address splays the found node to the
// root, which is what makes repeated checks on the same object cheap.
//
// The tree itself is not thread-safe: every MetaPool owns one tree and
// guards it with one lock (splaying mutates the tree on lookups too). The
// per-thread object-lookup cache in front of it lives in
// metapool_runtime.cc.
#ifndef SVA_SRC_RUNTIME_SPLAY_TREE_H_
#define SVA_SRC_RUNTIME_SPLAY_TREE_H_

#include <cstdint>
#include <memory>
#include <optional>

namespace sva::runtime {

struct ObjectRange {
  uint64_t start = 0;
  uint64_t size = 0;
  // Exclusive end, saturated: a range abutting the top of the 64-bit
  // address space (e.g. a RegisterUserspace object) reports UINT64_MAX
  // instead of wrapping to 0.
  uint64_t end() const {
    uint64_t e = start + size;
    return e < start ? UINT64_MAX : e;
  }
  // Unsigned-safe containment (no start+size arithmetic that can wrap).
  bool Contains(uint64_t addr) const {
    return addr >= start && addr - start < size;
  }
  // Containment as the check path defines it: a zero-size object occupies
  // exactly its start address.
  bool ContainsForLookup(uint64_t addr) const {
    return size == 0 ? addr == start : Contains(addr);
  }
};

class SplayTree {
 public:
  SplayTree() = default;
  ~SplayTree();
  SplayTree(const SplayTree&) = delete;
  SplayTree& operator=(const SplayTree&) = delete;

  // Inserts [start, start+size). Returns false if it would overlap an
  // existing range (including an exact duplicate). Zero-size ranges occupy
  // one conceptual point and are stored with size 0.
  bool Insert(uint64_t start, uint64_t size);

  // Removes the range that starts exactly at `start`. Returns the removed
  // range, or nullopt if no range starts there (an illegal free).
  std::optional<ObjectRange> RemoveAt(uint64_t start);

  // Finds the range containing `addr`, splaying the found node to the root.
  std::optional<ObjectRange> LookupContaining(uint64_t addr);

  // Finds the range with the given exact start (splaying).
  std::optional<ObjectRange> LookupStart(uint64_t start);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void Clear();

  // Cumulative splay-step comparison / rotation counts for the benchmark
  // harness and the trace subsystem.
  uint64_t comparisons() const { return comparisons_; }
  uint64_t rotations() const { return rotations_; }
  void ResetStats() {
    comparisons_ = 0;
    rotations_ = 0;
  }

 private:
  struct Node {
    ObjectRange range;
    Node* left = nullptr;
    Node* right = nullptr;
  };

  // Top-down splay: moves the node whose range contains (or is nearest to)
  // `addr` to the root.
  void Splay(uint64_t addr);
  // -1 if addr before range, 0 if inside (or equal for empty), +1 if after.
  int Compare(uint64_t addr, const ObjectRange& range);
  static void DeleteSubtree(Node* n);

  Node* root_ = nullptr;
  size_t size_ = 0;
  uint64_t comparisons_ = 0;
  uint64_t rotations_ = 0;
};

}  // namespace sva::runtime

#endif  // SVA_SRC_RUNTIME_SPLAY_TREE_H_
