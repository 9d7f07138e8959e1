// A small object-lookup cache placed in front of each metapool splay tree.
//
// Splay lookups amortize well but still pay a handful of pointer-chasing
// comparisons per check, and every hit mutates the tree (the splay itself).
// The SAFECode line of work front-ends the per-pool trees with a tiny cache
// of recently-hit object ranges for exactly this reason: kernel check
// streams are heavily skewed toward a few hot objects (the current stack
// frame, the buffer being copied, the inode being walked), so even a
// 2-4 entry direct-mapped cache absorbs most lookups before the tree is
// touched.
//
// Correctness contract (see DESIGN.md "Run-time check fast path"):
//  * Only ranges that are live in the tree may be cached (positive hits
//    only; negative results are never cached, so insertions need no
//    invalidation — a new object cannot overlap any cached live range).
//  * The cache itself knows nothing of removals. Its owner (MetaPool's
//    per-thread slot) tags it with the pool generation and Reset()s it
//    when the generation moves, so a dropped or dropped-then-reregistered
//    object never serves stale bounds.
#ifndef SVA_SRC_RUNTIME_LOOKUP_CACHE_H_
#define SVA_SRC_RUNTIME_LOOKUP_CACHE_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace sva::runtime {

// Forward range semantics shared with SplayTree: a zero-size object
// occupies exactly its start address; all comparisons are unsigned-safe
// (no start+size arithmetic that can wrap past UINT64_MAX).
template <typename Range>
class LookupCacheT {
 public:
  static constexpr size_t kWays = 4;

  // Returns the cached range containing `addr`, or nullptr on a miss.
  const Range* Find(uint64_t addr) const {
    for (size_t i = 0; i < kWays; ++i) {
      if (valid_[i] && Matches(entries_[i], addr)) {
        return &entries_[i];
      }
    }
    return nullptr;
  }

  // Records a range that was just found live in the tree. An entry with the
  // same start is overwritten in place; otherwise round-robin replacement.
  void Remember(const Range& range) {
    for (size_t i = 0; i < kWays; ++i) {
      if (valid_[i] && entries_[i].start == range.start) {
        entries_[i] = range;
        return;
      }
    }
    entries_[victim_] = range;
    valid_[victim_] = true;
    victim_ = (victim_ + 1) % kWays;
  }

  // Drops everything (pool generation moved or cache toggled).
  void Reset() {
    valid_.fill(false);
    victim_ = 0;
  }

 private:
  static bool Matches(const Range& r, uint64_t addr) {
    if (r.size == 0) {
      return addr == r.start;
    }
    return addr >= r.start && addr - r.start < r.size;
  }

  std::array<Range, kWays> entries_{};
  std::array<bool, kWays> valid_{};
  size_t victim_ = 0;
};

}  // namespace sva::runtime

#endif  // SVA_SRC_RUNTIME_LOOKUP_CACHE_H_
