// Concurrency tests for the sharded metapool runtime: N worker threads
// issuing mixed register/drop/bounds-check/load-store-check traffic against
// shared metapools. Run under the tsan preset (ctest -L concurrency) these
// must be data-race free; under any build they must be deterministic where
// the workload is (disjoint per-thread address regions).
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/metapool_runtime.h"
#include "src/smp/percpu.h"

namespace sva::runtime {
namespace {

constexpr unsigned kThreads = 8;

// Disjoint per-thread address regions, far enough apart that even the
// largest object a worker registers cannot reach a neighbour's region.
uint64_t RegionBase(unsigned thread) {
  return 0x200000000ull + (static_cast<uint64_t>(thread) << 28);
}

void RunOnThreads(unsigned threads, const std::function<void(unsigned)>& fn) {
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([t, &fn] {
      smp::ScopedCpu bind(t);
      fn(t);
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
}

TEST(RuntimeConcurrencyTest, ConcurrentChecksOnStableObjects) {
  MetaPoolRuntime rt;
  MetaPool* pool = rt.CreatePool("stable", true, 64, /*complete=*/true);
  constexpr uint64_t kObjects = 32;
  for (unsigned t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kObjects; ++i) {
      ASSERT_TRUE(
          rt.RegisterObject(*pool, RegionBase(t) + i * 0x1000, 64).ok());
    }
  }
  rt.ResetStats();

  constexpr uint64_t kIters = 5000;
  RunOnThreads(kThreads, [&](unsigned t) {
    for (uint64_t i = 0; i < kIters; ++i) {
      uint64_t base = RegionBase(t) + (i % kObjects) * 0x1000;
      EXPECT_TRUE(rt.LoadStoreCheck(*pool, base + (i % 64)).ok());
      EXPECT_TRUE(rt.BoundsCheck(*pool, base, base + 63).ok());
    }
  });

  EXPECT_TRUE(rt.violations().empty());
  // Per-CPU counter shards must not lose increments.
  EXPECT_EQ(rt.stats().total_performed(), kThreads * kIters * 2);
  EXPECT_EQ(rt.stats().total_failed(), 0u);
}

TEST(RuntimeConcurrencyTest, MixedRegisterDropCheckStress) {
  MetaPoolRuntime rt;
  // Two shared pools, including objects spanning up to 32 pages, so
  // concurrent inserts/removes of large ranges and lookups interleave.
  MetaPool* a = rt.CreatePool("stress_a", true, 64, /*complete=*/true);
  MetaPool* b = rt.CreatePool("stress_b", false, 0, /*complete=*/true);

  std::atomic<uint64_t> local_failures{0};
  constexpr uint64_t kIters = 4000;
  RunOnThreads(kThreads, [&](unsigned t) {
    std::mt19937_64 rng(t * 7919 + 1);
    uint64_t region = RegionBase(t);
    uint64_t expected_failures = 0;
    for (uint64_t i = 0; i < kIters; ++i) {
      MetaPool* pool = (rng() & 1) ? a : b;
      uint64_t slot = rng() % 16;
      uint64_t start = region + slot * 0x100000;
      // Sizes up to 128 KiB: objects spanning up to 32 pages.
      uint64_t size = 64 + (rng() % 0x20000);
      switch (rng() % 4) {
        case 0:
          (void)rt.RegisterObject(*pool, start, size);
          break;
        case 1:
          // A failed drop (no live object at start) counts as a failed
          // check in the stats, like a bad free.
          if (!rt.DropObject(*pool, start).ok()) {
            ++expected_failures;
          }
          break;
        case 2: {
          // In-region probe; sound either way, must never crash or race.
          Status s = rt.LoadStoreCheck(*pool, start + (rng() % size));
          if (!s.ok()) {
            ++expected_failures;
          }
          break;
        }
        default: {
          Status s = rt.BoundsCheck(*pool, start, start + (rng() % size));
          if (!s.ok()) {
            ++expected_failures;
          }
          break;
        }
      }
    }
    local_failures.fetch_add(expected_failures, std::memory_order_relaxed);
  });

  // Every check failure a worker observed is in the shared violation log
  // (registration violations are logged too, so >= rather than ==).
  EXPECT_GE(rt.violations().size(), local_failures.load());
  EXPECT_EQ(rt.stats().total_failed(), local_failures.load());
}

// The model check: per-thread operation sequences over disjoint address
// regions are generated from fixed seeds, executed concurrently on one
// shared pool, then replayed serially on a fresh pool. Disjointness means
// interleaving cannot change any op's outcome, so the concurrent run must
// match the serialized replay op for op.
struct Op {
  enum Kind { kRegister, kDrop, kLsCheck, kBoundsCheck } kind;
  uint64_t start = 0;
  uint64_t size = 0;
  uint64_t addr = 0;
};

std::vector<Op> MakeOps(unsigned thread, uint64_t count) {
  std::mt19937_64 rng(thread * 104729 + 17);
  std::vector<Op> ops;
  ops.reserve(count);
  uint64_t region = RegionBase(thread);
  for (uint64_t i = 0; i < count; ++i) {
    Op op;
    op.kind = static_cast<Op::Kind>(rng() % 4);
    op.start = region + (rng() % 16) * 0x100000;
    op.size = 32 + (rng() % 0x20000);
    op.addr = op.start + (rng() % op.size);
    ops.push_back(op);
  }
  return ops;
}

std::vector<bool> ApplyOps(MetaPoolRuntime& rt, MetaPool& pool,
                           const std::vector<Op>& ops) {
  std::vector<bool> outcomes;
  outcomes.reserve(ops.size());
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kRegister:
        outcomes.push_back(rt.RegisterObject(pool, op.start, op.size).ok());
        break;
      case Op::kDrop:
        outcomes.push_back(rt.DropObject(pool, op.start).ok());
        break;
      case Op::kLsCheck:
        outcomes.push_back(rt.LoadStoreCheck(pool, op.addr).ok());
        break;
      case Op::kBoundsCheck:
        outcomes.push_back(rt.BoundsCheck(pool, op.start, op.addr).ok());
        break;
    }
  }
  return outcomes;
}

TEST(RuntimeConcurrencyTest, ConcurrentMatchesSerializedReplay) {
  constexpr uint64_t kOpsPerThread = 3000;
  std::vector<std::vector<Op>> sequences;
  for (unsigned t = 0; t < kThreads; ++t) {
    sequences.push_back(MakeOps(t, kOpsPerThread));
  }

  MetaPoolRuntime concurrent_rt;
  MetaPool* concurrent_pool =
      concurrent_rt.CreatePool("model", true, 64, /*complete=*/true);
  std::vector<std::vector<bool>> concurrent(kThreads);
  RunOnThreads(kThreads, [&](unsigned t) {
    concurrent[t] = ApplyOps(concurrent_rt, *concurrent_pool, sequences[t]);
  });

  MetaPoolRuntime serial_rt;
  MetaPool* serial_pool =
      serial_rt.CreatePool("model", true, 64, /*complete=*/true);
  for (unsigned t = 0; t < kThreads; ++t) {
    std::vector<bool> replay =
        ApplyOps(serial_rt, *serial_pool, sequences[t]);
    ASSERT_EQ(concurrent[t].size(), replay.size());
    for (size_t i = 0; i < replay.size(); ++i) {
      ASSERT_EQ(concurrent[t][i], replay[i])
          << "thread " << t << " op " << i << " kind "
          << static_cast<int>(sequences[t][i].kind)
          << " diverged between concurrent and serialized execution";
    }
  }
  // Same traffic, same end state: live object counts agree.
  EXPECT_EQ(concurrent_pool->live_objects(), serial_pool->live_objects());
}

TEST(RuntimeConcurrencyTest, CacheToggleDuringTraffic) {
  MetaPoolRuntime rt;
  MetaPool* pool = rt.CreatePool("toggle", true, 64, /*complete=*/true);
  for (unsigned t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(rt.RegisterObject(*pool, RegionBase(t), 4096).ok());
  }
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    for (int i = 0; i < 200; ++i) {
      pool->set_cache_enabled(i & 1);
      std::this_thread::yield();
    }
    stop.store(true);
  });
  RunOnThreads(kThreads, [&](unsigned t) {
    uint64_t base = RegionBase(t);
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_TRUE(rt.LoadStoreCheck(*pool, base + 128).ok());
      EXPECT_TRUE(rt.BoundsCheck(*pool, base, base + 4095).ok());
    }
  });
  toggler.join();
  EXPECT_TRUE(rt.violations().empty());
}

// A drop on one thread must invalidate what another thread cached: thread
// A checks X (filling its per-thread cache), thread B drops X, then A's
// next check on X must fail and a lookup must miss.
TEST(RuntimeConcurrencyTest, DropOnOneThreadInvalidatesAnotherThreadsCache) {
  MetaPoolRuntime rt;
  MetaPool* pool = rt.CreatePool("cross_thread", true, 64, /*complete=*/true);
  const uint64_t x = RegionBase(0);
  ASSERT_TRUE(rt.RegisterObject(*pool, x, 64).ok());

  std::atomic<int> phase{0};  // 1: A has cached X; 2: B has dropped X.
  Status check_after_drop;
  std::optional<ObjectRange> lookup_after_drop;
  uint64_t hits_before_drop = 0;
  std::thread a([&] {
    smp::ScopedCpu bind(0);
    EXPECT_TRUE(rt.LoadStoreCheck(*pool, x + 8).ok());  // Miss, then fill.
    EXPECT_TRUE(rt.LoadStoreCheck(*pool, x + 16).ok());  // Cache hit.
    hits_before_drop = pool->cache_hits();
    phase.store(1, std::memory_order_release);
    while (phase.load(std::memory_order_acquire) != 2) {
      std::this_thread::yield();
    }
    check_after_drop = rt.LoadStoreCheck(*pool, x + 8);
    lookup_after_drop = pool->Lookup(x + 8);
  });
  std::thread b([&] {
    smp::ScopedCpu bind(1);
    while (phase.load(std::memory_order_acquire) != 1) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(rt.DropObject(*pool, x).ok());
    phase.store(2, std::memory_order_release);
  });
  a.join();
  b.join();

  EXPECT_EQ(hits_before_drop, 1u);  // X really was cached on thread A.
  EXPECT_EQ(pool->live_objects(), 0u);
  EXPECT_EQ(check_after_drop.code(), StatusCode::kSafetyViolation)
      << "a stale per-thread cache entry approved a dropped object";
  EXPECT_FALSE(lookup_after_drop.has_value());
}

}  // namespace
}  // namespace sva::runtime
