// Synchronization primitives for the virtual multiprocessor (DESIGN.md §SMP).
//
// The SVA paper targets multiprocessor commodity kernels: the runtime's
// checks are issued concurrently from every processor, so the metapool
// registries and the kernel's shared structures need kernel-style locking.
//
// SpinLock is a test-and-test-and-set spinlock, the moral equivalent of
// Linux 2.4's spin_lock_t. Critical sections here are tens of nanoseconds
// (a splay-tree operation, a free-list pop), so spinning beats a
// futex-based std::mutex and keeps the dependency surface tiny. It is
// TSan-friendly: all synchronization goes through std::atomic with
// acquire/release ordering.
#ifndef SVA_SRC_SMP_SYNC_H_
#define SVA_SRC_SMP_SYNC_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace sva::smp {

// One CPU cache line; per-CPU data is padded to this to avoid false sharing.
inline constexpr size_t kCacheLineBytes = 64;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

// Test-and-test-and-set spinlock. Meets the C++ Lockable requirements, so
// std::lock_guard / std::scoped_lock work directly.
class SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() {
    // Fast path: uncontended acquire.
    while (locked_.exchange(true, std::memory_order_acquire)) {
      // Contended: spin on a plain load so the line stays shared until the
      // holder releases it (test-and-test-and-set).
      do {
        CpuRelax();
      } while (locked_.load(std::memory_order_relaxed));
    }
  }

  bool try_lock() {
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void unlock() { locked_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> locked_{false};
};

}  // namespace sva::smp

#endif  // SVA_SRC_SMP_SYNC_H_
