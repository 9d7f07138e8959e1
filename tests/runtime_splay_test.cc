#include <gtest/gtest.h>

#include <map>
#include <random>

#include "src/runtime/metapool_runtime.h"
#include "src/runtime/splay_tree.h"
#include "src/smp/epoch.h"

namespace sva::runtime {
namespace {

TEST(SplayTreeTest, InsertLookupRemove) {
  SplayTree tree;
  EXPECT_TRUE(tree.Insert(100, 16));
  EXPECT_TRUE(tree.Insert(200, 32));
  EXPECT_TRUE(tree.Insert(50, 8));
  EXPECT_EQ(tree.size(), 3u);

  auto hit = tree.LookupContaining(100);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->start, 100u);
  EXPECT_EQ(hit->size, 16u);
  EXPECT_TRUE(tree.LookupContaining(115).has_value());
  EXPECT_FALSE(tree.LookupContaining(116).has_value());
  EXPECT_FALSE(tree.LookupContaining(99).has_value());
  EXPECT_TRUE(tree.LookupContaining(231).has_value());
  EXPECT_FALSE(tree.LookupContaining(232).has_value());

  auto removed = tree.RemoveAt(100);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->size, 16u);
  EXPECT_FALSE(tree.LookupContaining(100).has_value());
  EXPECT_EQ(tree.size(), 2u);
  // Removing an interior pointer or absent start fails.
  EXPECT_FALSE(tree.RemoveAt(201).has_value());
  EXPECT_FALSE(tree.RemoveAt(100).has_value());
}

TEST(SplayTreeTest, RejectsOverlaps) {
  SplayTree tree;
  EXPECT_TRUE(tree.Insert(100, 16));
  EXPECT_FALSE(tree.Insert(100, 16));  // Exact duplicate.
  EXPECT_FALSE(tree.Insert(90, 20));   // Overlaps front.
  EXPECT_FALSE(tree.Insert(110, 20));  // Overlaps back.
  EXPECT_FALSE(tree.Insert(104, 4));   // Inside.
  EXPECT_FALSE(tree.Insert(90, 100));  // Encloses.
  EXPECT_TRUE(tree.Insert(116, 4));    // Adjacent after is fine.
  EXPECT_TRUE(tree.Insert(96, 4));     // Adjacent before is fine.
  EXPECT_EQ(tree.size(), 3u);
}

TEST(SplayTreeTest, ZeroSizedRanges) {
  SplayTree tree;
  EXPECT_TRUE(tree.Insert(500, 0));
  auto hit = tree.LookupContaining(500);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size, 0u);
  EXPECT_FALSE(tree.LookupContaining(501).has_value());
  EXPECT_TRUE(tree.RemoveAt(500).has_value());
}

TEST(SplayTreeTest, LookupStart) {
  SplayTree tree;
  tree.Insert(1000, 64);
  EXPECT_TRUE(tree.LookupStart(1000).has_value());
  EXPECT_FALSE(tree.LookupStart(1001).has_value());
}

TEST(SplayTreeTest, RangeEndingAtAddressSpaceTop) {
  SplayTree tree;
  // An object whose last byte is UINT64_MAX: start + size == 2^64 wraps to
  // 0 in naive arithmetic, which used to break both containment and overlap
  // detection.
  constexpr uint64_t kStart = UINT64_MAX - 15;
  ASSERT_TRUE(tree.Insert(kStart, 16));
  EXPECT_TRUE(tree.LookupContaining(kStart).has_value());
  EXPECT_TRUE(tree.LookupContaining(UINT64_MAX).has_value());
  EXPECT_FALSE(tree.LookupContaining(kStart - 1).has_value());
  // Overlap detection must reject objects overlapping the top range.
  EXPECT_FALSE(tree.Insert(UINT64_MAX - 7, 8));   // Inside.
  EXPECT_FALSE(tree.Insert(UINT64_MAX - 31, 32)); // Overlaps front.
  EXPECT_FALSE(tree.Insert(UINT64_MAX, 1));       // Last byte.
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.Insert(kStart - 16, 16));      // Adjacent before is fine.
  auto removed = tree.RemoveAt(kStart);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->size, 16u);
}

TEST(SplayTreeTest, OversizedRangeSaturatesInsteadOfWrapping) {
  SplayTree tree;
  // start + size - 1 > UINT64_MAX: the range is clamped to the top of the
  // address space rather than wrapping around to low memory.
  constexpr uint64_t kStart = UINT64_MAX - 3;
  ASSERT_TRUE(tree.Insert(kStart, 100));
  EXPECT_TRUE(tree.LookupContaining(UINT64_MAX).has_value());
  // Low memory is NOT covered by the wrapped range.
  EXPECT_FALSE(tree.LookupContaining(0).has_value());
  EXPECT_FALSE(tree.LookupContaining(95).has_value());
  // But further top-of-memory registrations still conflict.
  EXPECT_FALSE(tree.Insert(UINT64_MAX, 1));
  EXPECT_TRUE(tree.Insert(100, 16));  // Low memory stays usable.
}

TEST(SplayTreeTest, ZeroSizeRangeAtAddressSpaceTop) {
  SplayTree tree;
  ASSERT_TRUE(tree.Insert(UINT64_MAX, 0));
  EXPECT_TRUE(tree.LookupContaining(UINT64_MAX).has_value());
  EXPECT_FALSE(tree.LookupContaining(UINT64_MAX - 1).has_value());
  EXPECT_TRUE(tree.RemoveAt(UINT64_MAX).has_value());
}

TEST(SplayTreeTest, ObjectRangeEndSaturates) {
  ObjectRange top{UINT64_MAX - 15, 16};
  EXPECT_EQ(top.end(), UINT64_MAX);  // Saturated, not wrapped to 0.
  EXPECT_TRUE(top.Contains(UINT64_MAX));
  EXPECT_FALSE(top.Contains(0));
  ObjectRange normal{100, 16};
  EXPECT_EQ(normal.end(), 116u);
}

TEST(SplayTreeTest, RemoveNonRootAfterMixedLookups) {
  SplayTree tree;
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(tree.Insert(0x1000 + i * 0x100, 0x80));
  }
  // Splay a few other nodes to the root so the victim is deep in the tree.
  tree.LookupContaining(0x1000);
  tree.LookupContaining(0x1000 + 63 * 0x100);
  tree.LookupContaining(0x1000 + 31 * 0x100 + 5);
  auto removed = tree.RemoveAt(0x1000 + 17 * 0x100);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->size, 0x80u);
  EXPECT_EQ(tree.size(), 63u);
  EXPECT_FALSE(tree.LookupContaining(0x1000 + 17 * 0x100).has_value());
  // Neighbours are unaffected.
  EXPECT_TRUE(tree.LookupContaining(0x1000 + 16 * 0x100).has_value());
  EXPECT_TRUE(tree.LookupContaining(0x1000 + 18 * 0x100).has_value());
}

TEST(SplayTreeTest, ClearEmptiesTree) {
  SplayTree tree;
  for (uint64_t i = 0; i < 100; ++i) {
    tree.Insert(i * 32, 16);
  }
  EXPECT_EQ(tree.size(), 100u);
  tree.Clear();
  EXPECT_TRUE(tree.empty());
  EXPECT_FALSE(tree.LookupContaining(0).has_value());
  EXPECT_TRUE(tree.Insert(0, 16));
}

TEST(SplayTreeTest, RepeatedLookupsAmortize) {
  SplayTree tree;
  for (uint64_t i = 0; i < 1024; ++i) {
    tree.Insert(i * 64, 32);
  }
  // First lookup of a cold address may be deep.
  tree.LookupContaining(512 * 64);
  tree.ResetStats();
  // Once splayed to the root, repeated lookups cost O(1) comparisons.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.LookupContaining(512 * 64 + 7).has_value());
  }
  EXPECT_LE(tree.comparisons(), 400u);  // ~1-3 comparisons per hit.
}

// --- Lookup-cache behaviour --------------------------------------------------
//
// The object-lookup cache fronting the splay trees is per-thread and lives
// at the MetaPool level (validated against the pool's generation counter),
// so these tests drive a MetaPool rather than a bare tree.

MetaPool MakePool() { return MetaPool("test", true, 8, true); }

TEST(MetaPoolLookupCacheTest, RepeatedHitsSkipTheTree) {
  MetaPool pool = MakePool();
  for (uint64_t i = 0; i < 256; ++i) {
    pool.RegisterRange(0x1000 + i * 0x100, 0x80);
  }
  pool.Lookup(0x1000 + 128 * 0x100);  // Warm the cache.
  pool.ResetStats();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Lookup(0x1000 + 128 * 0x100 + 7).has_value());
  }
  EXPECT_EQ(pool.cache_hits(), 100u);
  EXPECT_EQ(pool.cache_misses(), 0u);
  EXPECT_EQ(pool.comparisons(), 0u);  // The trees were never touched.
}

TEST(MetaPoolLookupCacheTest, DroppedObjectIsInvalidated) {
  MetaPool pool = MakePool();
  ASSERT_TRUE(pool.RegisterRange(0x1000, 0x100));
  ASSERT_TRUE(pool.Lookup(0x1080).has_value());  // Cached.
  ASSERT_TRUE(pool.RemoveStart(0x1000).has_value());
  // The cache must not resurrect the dropped object.
  EXPECT_FALSE(pool.Lookup(0x1080).has_value());
}

TEST(MetaPoolLookupCacheTest, ReRegisteredObjectDoesNotServeStaleBounds) {
  MetaPool pool = MakePool();
  ASSERT_TRUE(pool.RegisterRange(0x1000, 0x100));
  ASSERT_TRUE(pool.Lookup(0x10F0).has_value());  // Cached.
  ASSERT_TRUE(pool.RemoveStart(0x1000).has_value());
  // Same start, smaller object: the old cached extent would wrongly pass
  // addresses in [0x1040, 0x1100).
  ASSERT_TRUE(pool.RegisterRange(0x1000, 0x40));
  auto hit = pool.Lookup(0x1010);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size, 0x40u);
  EXPECT_FALSE(pool.Lookup(0x10F0).has_value());
  EXPECT_FALSE(pool.Lookup(0x1040).has_value());
}

TEST(MetaPoolLookupCacheTest, DisabledCacheStillCorrect) {
  MetaPool pool = MakePool();
  pool.set_cache_enabled(false);
  for (uint64_t i = 0; i < 16; ++i) {
    pool.RegisterRange(0x1000 + i * 0x100, 0x80);
  }
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(pool.Lookup(0x1000 + i * 0x100 + 5).has_value());
    }
  }
  EXPECT_EQ(pool.cache_hits(), 0u);
  EXPECT_EQ(pool.cache_misses(), 0u);
  EXPECT_GT(pool.comparisons(), 0u);
  // Re-enabling then disabling starts cold: entries cached while enabled
  // are not served after the toggle.
  pool.set_cache_enabled(true);
  pool.Lookup(0x1000);
  pool.set_cache_enabled(false);
  pool.ResetStats();
  ASSERT_TRUE(pool.Lookup(0x1000).has_value());
  EXPECT_EQ(pool.cache_hits(), 0u);
  EXPECT_GT(pool.comparisons(), 0u);
}

TEST(MetaPoolLookupCacheTest, LookupStartServedFromCache) {
  MetaPool pool = MakePool();
  ASSERT_TRUE(pool.RegisterRange(0x2000, 0x100));
  ASSERT_TRUE(pool.Lookup(0x2050).has_value());  // Cache fill.
  pool.ResetStats();
  auto hit = pool.LookupStart(0x2000);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(pool.cache_hits(), 1u);
  EXPECT_EQ(pool.comparisons(), 0u);
  // An interior address is not an exact start: must fall through (and then
  // miss, since no object starts there).
  EXPECT_FALSE(pool.LookupStart(0x2050).has_value());
}

TEST(MetaPoolLookupCacheTest, SpanningObjectFoundFromEveryStripe) {
  MetaPool pool = MakePool();
  // An object spanning many 4 KiB pages is found through any page it
  // covers.
  constexpr uint64_t kStart = 0x10000;
  constexpr uint64_t kSize = 0x40000;  // 64 pages.
  ASSERT_TRUE(pool.RegisterRange(kStart, kSize));
  for (uint64_t off = 0; off < kSize; off += 0x1000) {
    auto hit = pool.Lookup(kStart + off);
    ASSERT_TRUE(hit.has_value()) << "offset 0x" << std::hex << off;
    EXPECT_EQ(hit->start, kStart);
    EXPECT_EQ(hit->size, kSize);
  }
  EXPECT_FALSE(pool.Lookup(kStart - 1).has_value());
  EXPECT_FALSE(pool.Lookup(kStart + kSize).has_value());
  // Overlaps with the spanning object are rejected from any page.
  EXPECT_FALSE(pool.RegisterRange(kStart + 0x5000, 0x10));
  EXPECT_FALSE(pool.RegisterRange(kStart - 0x10, 0x20));
  EXPECT_EQ(pool.live_objects(), 1u);
  // A drop removes it for every page.
  ASSERT_TRUE(pool.RemoveStart(kStart).has_value());
  EXPECT_EQ(pool.live_objects(), 0u);
  for (uint64_t off = 0; off < kSize; off += 0x1000) {
    ASSERT_FALSE(pool.Lookup(kStart + off).has_value());
  }
}

// Property test under cache churn: randomized insert/remove/lookup agrees
// with a reference model with the cache enabled (the default), exercising
// generation invalidation on every removal path.
TEST(MetaPoolLookupCacheTest, RandomChurnNeverServesStale) {
  std::mt19937 rng(99);
  MetaPool pool = MakePool();
  std::map<uint64_t, uint64_t> model;  // start -> size
  std::uniform_int_distribution<uint64_t> slot_dist(0, 63);
  std::uniform_int_distribution<uint64_t> size_dist(1, 3);
  std::uniform_int_distribution<int> op_dist(0, 9);
  auto start_of = [](uint64_t slot) { return 0x1000 + slot * 0x100; };

  for (int step = 0; step < 20000; ++step) {
    uint64_t slot = slot_dist(rng);
    uint64_t start = start_of(slot);
    int op = op_dist(rng);
    if (op < 2) {  // (Re-)register at a fresh size.
      if (model.count(start) != 0) {
        ASSERT_TRUE(pool.RemoveStart(start).has_value());
        model.erase(start);
      }
      uint64_t size = size_dist(rng) * 0x40;
      ASSERT_TRUE(pool.RegisterRange(start, size));
      model[start] = size;
    } else if (op < 3) {  // Drop.
      bool in_model = model.count(start) != 0;
      EXPECT_EQ(pool.RemoveStart(start).has_value(), in_model);
      model.erase(start);
    } else {  // Lookup at a random offset within the slot.
      uint64_t offset = step % 0x100;
      auto got = pool.Lookup(start + offset);
      auto it = model.find(start);
      bool expect_hit = it != model.end() && offset < it->second;
      ASSERT_EQ(got.has_value(), expect_hit)
          << "slot " << slot << " offset " << offset << " step " << step;
      if (expect_hit) {
        EXPECT_EQ(got->size, it->second);
      }
    }
  }
}

// Drops free their splay node inline under the pool lock. Nothing in the
// runtime passes an epoch quiescent state, so a node handed to the global
// epoch domain instead would never be reclaimed: memory would grow with
// every register/drop pair.
TEST(MetaPoolLookupCacheTest, DropsRetireNothingThroughTheEpochDomain) {
  MetaPool pool = MakePool();
  const smp::EpochDomain& epochs = smp::EpochDomain::Global();
  const uint64_t retired_before = epochs.retired();
  for (uint64_t i = 0; i < 1000; ++i) {
    const uint64_t start = 0x100000 + (i % 64) * 0x100;
    ASSERT_TRUE(pool.RegisterRange(start, 0x80));
    ASSERT_TRUE(pool.Lookup(start + 0x10).has_value());
    ASSERT_TRUE(pool.RemoveStart(start).has_value());
  }
  EXPECT_EQ(epochs.retired(), retired_before);
  EXPECT_EQ(pool.live_objects(), 0u);
}

// Property test: the splay tree agrees with a std::map reference model
// across a randomized workload of inserts, removals, and lookups.
class SplayPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SplayPropertyTest, MatchesReferenceModel) {
  std::mt19937 rng(GetParam());
  SplayTree tree;
  std::map<uint64_t, uint64_t> model;  // start -> size

  auto model_overlaps = [&](uint64_t start, uint64_t size) {
    uint64_t end = size == 0 ? start + 1 : start + size;
    for (const auto& [s, sz] : model) {
      uint64_t e = sz == 0 ? s + 1 : s + sz;
      if (start < e && s < end) {
        return true;
      }
    }
    return false;
  };
  auto model_containing =
      [&](uint64_t addr) -> std::optional<std::pair<uint64_t, uint64_t>> {
    for (const auto& [s, sz] : model) {
      if (sz == 0 ? addr == s : (addr >= s && addr < s + sz)) {
        return std::make_pair(s, sz);
      }
    }
    return std::nullopt;
  };

  std::uniform_int_distribution<uint64_t> addr_dist(0, 4096);
  std::uniform_int_distribution<uint64_t> size_dist(0, 64);
  std::uniform_int_distribution<int> op_dist(0, 9);

  for (int step = 0; step < 3000; ++step) {
    int op = op_dist(rng);
    if (op < 4) {  // Insert.
      uint64_t start = addr_dist(rng);
      uint64_t size = size_dist(rng);
      bool expect_ok = !model_overlaps(start, size);
      EXPECT_EQ(tree.Insert(start, size), expect_ok)
          << "insert [" << start << "," << size << ") step " << step;
      if (expect_ok) {
        model[start] = size;
      }
    } else if (op < 6) {  // Remove.
      uint64_t start = addr_dist(rng);
      bool in_model = model.count(start) != 0;
      auto removed = tree.RemoveAt(start);
      EXPECT_EQ(removed.has_value(), in_model) << "remove " << start;
      if (in_model) {
        EXPECT_EQ(removed->size, model[start]);
        model.erase(start);
      }
    } else {  // Lookup.
      uint64_t addr = addr_dist(rng);
      auto expected = model_containing(addr);
      auto got = tree.LookupContaining(addr);
      ASSERT_EQ(got.has_value(), expected.has_value())
          << "lookup " << addr << " step " << step;
      if (expected.has_value()) {
        EXPECT_EQ(got->start, expected->first);
        EXPECT_EQ(got->size, expected->second);
      }
    }
    ASSERT_EQ(tree.size(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplayPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u, 0xDEADu));

}  // namespace
}  // namespace sva::runtime
