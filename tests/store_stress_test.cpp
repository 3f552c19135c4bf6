// Concurrency tests for the sharded object store itself: parallel
// create/open/restrict/revoke/destroy must lose no slots, never validate a
// stale secret after revocation, and keep live_count() exact.  Also covers
// the pair opener (open2), the accessor-based destroy, and the
// validated-capability cache.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/object_store.hpp"
#include "amoeba/core/schemes.hpp"

namespace amoeba::core {
namespace {

constexpr Port kPort{0x5A5A5A5A5A5AULL};

[[nodiscard]] ObjectStore<int> make_store(SchemeKind kind,
                                          std::uint64_t seed) {
  Rng rng(seed);
  return ObjectStore<int>(make_scheme(kind, rng), kPort, seed);
}

// ------------------------------------------------------ single-thread API

TEST(ShardedStore, ObjectNumbersAreDenseAndShardSpread) {
  auto store = make_store(SchemeKind::one_way_xor, 1);
  for (std::uint32_t i = 0; i < 100; ++i) {
    const Capability cap = store.create(static_cast<int>(i));
    EXPECT_EQ(cap.object.value(), i);  // sequential creates stay dense
  }
  EXPECT_EQ(store.live_count(), 100u);
}

TEST(ShardedStore, Open2LocksBothObjectsWhateverTheShards) {
  auto store = make_store(SchemeKind::one_way_xor, 2);
  // Same shard (object numbers 0 and 16 with 16 shards), different shards,
  // and identical objects must all work.
  std::vector<Capability> caps;
  for (int i = 0; i < 20; ++i) {
    caps.push_back(store.create(i));
  }
  const std::size_t n = store.shard_count();
  auto same_shard = store.open2(caps[0], Rights::none(),
                                caps[0 + n], Rights::none());
  ASSERT_TRUE(same_shard.ok());
  EXPECT_EQ(*same_shard.value().a.value, 0);
  EXPECT_EQ(*same_shard.value().b.value, static_cast<int>(n));
  same_shard = store.open2(caps[1], Rights::none(), caps[2], Rights::none());
  ASSERT_TRUE(same_shard.ok());
  auto self = store.open2(caps[3], Rights::none(), caps[3], Rights::none());
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self.value().a.value, self.value().b.value);
}

TEST(ShardedStore, Open2ValidatesFirstCapabilityFirst) {
  auto store = make_store(SchemeKind::one_way_xor, 3);
  const Capability good = store.create(1);
  Capability forged = store.create(2);
  forged.check = CheckField(forged.check.value() ^ 1);
  EXPECT_EQ(store.open2(forged, Rights::none(), good, Rights::none()).error(),
            ErrorCode::bad_capability);
  EXPECT_EQ(store.open2(good, Rights::none(), forged, Rights::none()).error(),
            ErrorCode::bad_capability);
  EXPECT_TRUE(store.open2(good, Rights::none(), good, Rights::none()).ok());
}

TEST(ShardedStore, DestroyThroughAccessorChecksTheRight) {
  auto store = make_store(SchemeKind::one_way_xor, 5);
  const Capability cap = store.create(7);
  const auto read_only = store.restrict(cap, rights::kRead);
  ASSERT_TRUE(read_only.ok());
  {
    auto opened = store.open(read_only.value(), rights::kRead);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(store.destroy(std::move(opened.value())).error(),
              ErrorCode::permission_denied);
  }
  EXPECT_EQ(store.live_count(), 1u);
  {
    auto opened = store.open(cap, rights::kDestroy);
    ASSERT_TRUE(opened.ok());
    EXPECT_TRUE(store.destroy(std::move(opened.value())).ok());
  }
  EXPECT_EQ(store.live_count(), 0u);
}

// -------------------------------------------------- validated-cap cache

TEST(ShardedStore, RepeatOpensHitTheValidationCache) {
  auto store = make_store(SchemeKind::encrypted, 6);
  const Capability cap = store.create(1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.open(cap, Rights::none()).ok());
  }
  const auto stats = store.cache_stats();
  EXPECT_GE(stats.hits, 49u);  // first open misses, the rest hit
}

TEST(ShardedStore, RevocationInvalidatesCachedValidations) {
  auto store = make_store(SchemeKind::encrypted, 7);
  const Capability cap = store.create(1);
  ASSERT_TRUE(store.open(cap, Rights::none()).ok());  // warm the cache
  ASSERT_TRUE(store.open(cap, Rights::none()).ok());
  const auto fresh = store.revoke(cap);
  ASSERT_TRUE(fresh.ok());
  // The cached entry for the old capability must not resurrect it.
  EXPECT_EQ(store.open(cap, Rights::none()).error(),
            ErrorCode::bad_capability);
  EXPECT_TRUE(store.open(fresh.value(), Rights::none()).ok());
}

TEST(ShardedStore, SlotReuseInvalidatesCachedValidations) {
  auto store = make_store(SchemeKind::encrypted, 8);
  const Capability cap = store.create(1);
  ASSERT_TRUE(store.open(cap, Rights::none()).ok());  // warm the cache
  ASSERT_TRUE(store.destroy(cap).ok());
  const Capability reused = store.create(2);
  ASSERT_EQ(reused.object, cap.object);  // same number, fresh secret
  EXPECT_EQ(store.open(cap, Rights::none()).error(),
            ErrorCode::bad_capability);
  EXPECT_EQ(*store.open(reused, Rights::none()).value().value, 2);
}

// --------------------------------------------------------- parallel storm

TEST(ShardedStoreStress, EightThreadsFullLifecycleKeepsInvariants) {
  auto store = make_store(SchemeKind::one_way_xor, 9);
  constexpr int kThreads = 8;
  constexpr int kStepsPerThread = 2000;
  std::atomic<int> anomalies{0};
  std::atomic<long> net_live{0};  // creations minus destructions

  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(static_cast<std::uint64_t>(t) + 1000);
        // Thread-local working set: each thread owns the objects it made,
        // so destroys/revokes race only through the store internals.
        std::vector<Capability> mine;
        std::vector<Capability> revoked;
        for (int step = 0; step < kStepsPerThread; ++step) {
          const std::uint64_t op = rng.below(10);
          if (op < 4 || mine.empty()) {
            mine.push_back(store.create(t * 100000 + step));
            net_live.fetch_add(1);
          } else if (op < 7) {
            const auto& cap = mine[rng.below(mine.size())];
            auto opened = store.open(cap, Rights::none());
            if (!opened.ok()) {
              anomalies.fetch_add(1);  // own live capability must open
            }
          } else if (op < 8) {
            const std::size_t idx = rng.below(mine.size());
            auto fresh = store.revoke(mine[idx]);
            if (!fresh.ok()) {
              anomalies.fetch_add(1);
            } else {
              revoked.push_back(mine[idx]);
              mine[idx] = fresh.value();
            }
          } else if (op < 9) {
            const std::size_t idx = rng.below(mine.size());
            if (!store.destroy(mine[idx]).ok()) {
              anomalies.fetch_add(1);
            } else {
              net_live.fetch_sub(1);
            }
            mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(idx));
          } else if (!revoked.empty()) {
            // A revoked capability must never validate again, even while
            // other threads mutate the same shard.
            const auto& stale = revoked[rng.below(revoked.size())];
            if (store.open(stale, Rights::none()).ok()) {
              anomalies.fetch_add(1);
            }
          }
        }
        // Park the survivors: every capability this thread still holds
        // must open, and destroy must reclaim each slot exactly once.
        // (Two store calls in one full expression would keep the first
        // accessor's shard lock alive across the second -- separate
        // statements, as everywhere.)
        for (const auto& cap : mine) {
          const bool opens = store.open(cap, Rights::none()).ok();
          if (!opens || !store.destroy(cap).ok()) {
            anomalies.fetch_add(1);
          } else {
            net_live.fetch_sub(1);
          }
        }
      });
    }
  }

  EXPECT_EQ(anomalies.load(), 0);
  EXPECT_EQ(net_live.load(), 0);
  EXPECT_EQ(store.live_count(), 0u);  // no lost slots
}

TEST(ShardedStoreStress, ParallelPairOpensDoNotDeadlock) {
  // Transfers in opposite directions across the same pair of objects, plus
  // pairs within one shard: the ordered two-shard locking must never
  // deadlock.  A run that completes is the assertion.
  auto store = make_store(SchemeKind::simple, 10);
  std::vector<Capability> caps;
  for (int i = 0; i < 32; ++i) {
    caps.push_back(store.create(i));
  }
  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(static_cast<std::uint64_t>(t) + 77);
        for (int i = 0; i < 4000; ++i) {
          const auto& a = caps[rng.below(caps.size())];
          const auto& b = caps[rng.below(caps.size())];
          auto pair = store.open2(a, Rights::none(), b, Rights::none());
          if (!pair.ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace amoeba::core
