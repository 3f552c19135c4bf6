// Tests for the lock-free validate hot path: the seqlock/EBR primitives
// in amoeba/common/epoch.hpp, the zero-mutex-acquisition guarantee of
// ObjectStore::check() on repeat capabilities (proven through the
// CountedMutex instrumentation, not by inspection; on a durable table the
// hit also records its slot's ticket without a lock), and the exactness of
// revocation/destruction against concurrent lock-free readers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "amoeba/common/epoch.hpp"
#include "amoeba/common/rng.hpp"
#include "amoeba/core/object_store.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"

namespace amoeba::core {
namespace {

using common::CountedMutex;
using common::EpochDomain;
using common::SeqCount;
using common::this_thread_lock_counters;

constexpr Port kPort{0x1F2F3F4F5F6FULL};

std::shared_ptr<const ProtectionScheme> test_scheme() {
  Rng rng(42);
  return make_scheme(SchemeKind::one_way_xor, rng);
}

// ------------------------------------------------------------ primitives

TEST(CountedMutexTest, CountsEveryAcquisitionOnThisThread) {
  CountedMutex mutex;
  const std::uint64_t before = this_thread_lock_counters().mutex_acquisitions;
  mutex.lock();
  mutex.unlock();
  ASSERT_TRUE(mutex.try_lock());
  mutex.unlock();
  EXPECT_EQ(this_thread_lock_counters().mutex_acquisitions, before + 2);
}

TEST(SeqCountTest, ReaderValidatesOnlyStableGenerations) {
  SeqCount seq;
  const std::uint32_t s0 = seq.read_begin();
  EXPECT_FALSE(SeqCount::busy(s0));
  EXPECT_TRUE(seq.read_ok(s0));
  {
    const SeqCount::WriteGuard guard(seq);
    const std::uint32_t mid = seq.read_begin();
    EXPECT_TRUE(SeqCount::busy(mid));   // odd while a writer is inside
    EXPECT_FALSE(seq.read_ok(mid));     // a busy generation never validates
    EXPECT_FALSE(seq.read_ok(s0));      // the old generation is gone
  }
  const std::uint32_t s1 = seq.read_begin();
  EXPECT_FALSE(SeqCount::busy(s1));
  EXPECT_EQ(s1, s0 + 2);  // one writer = two bumps
  EXPECT_TRUE(seq.read_ok(s1));
  EXPECT_FALSE(seq.read_ok(s0));  // stale began fails even when stable now
}

struct CountedOnDelete {
  explicit CountedOnDelete(std::atomic<int>* deleted) : deleted_(deleted) {}
  ~CountedOnDelete() { deleted_->fetch_add(1, std::memory_order_relaxed); }
  std::atomic<int>* deleted_;
};

TEST(EpochDomainTest, RetiredPointerOutlivesPinnedReader) {
  EpochDomain domain;
  std::atomic<int> deleted{0};
  auto* item = new CountedOnDelete(&deleted);

  EpochDomain::Guard guard = domain.pin();
  domain.retire(item);  // unlinked by construction: only we know of it
  EXPECT_EQ(deleted.load(), 0);
  EXPECT_GE(domain.limbo_size(), 1u);

  // A pinned reader caps the domain at one epoch advance (readers may lag
  // the global epoch by at most one), so NOTHING retired here can be
  // reclaimed while the guard lives -- garbage accumulates in limbo.
  for (int i = 0; i < 16; ++i) {
    domain.retire(new CountedOnDelete(&deleted));
  }
  EXPECT_EQ(deleted.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(domain.limbo_size(), 17u);
  guard = EpochDomain::Guard();  // unpin
  domain.synchronize();
  EXPECT_EQ(deleted.load(), 17);
  EXPECT_EQ(domain.limbo_size(), 0u);
}

TEST(EpochDomainTest, GuardsNestAndMove) {
  EpochDomain domain;
  std::atomic<int> deleted{0};
  {
    EpochDomain::Guard outer = domain.pin();
    {
      const EpochDomain::Guard inner = domain.pin();
      domain.retire(new CountedOnDelete(&deleted));
    }
    EXPECT_EQ(deleted.load(), 0);  // outer still pins the epoch
    EpochDomain::Guard moved = std::move(outer);
  }
  domain.synchronize();
  EXPECT_EQ(deleted.load(), 1);
}

// ---------------------------------------------- the zero-acquisition proof

TEST(LockFreeValidate, RepeatCheckTakesZeroMutexAcquisitions) {
  ObjectStore<int> store(test_scheme(), kPort, /*seed=*/7);
  const Capability cap = store.create(123);
  // First check goes through the locked path and seeds the cache.
  ASSERT_TRUE(store.check(cap, Rights::all()).ok());

  const common::LockCounters& counters = this_thread_lock_counters();
  const std::uint64_t locks_before = counters.mutex_acquisitions;
  const std::uint64_t falls_before = counters.seqlock_fallbacks;
  constexpr int kRepeats = 10'000;
  for (int i = 0; i < kRepeats; ++i) {
    const Result<Rights> granted = store.check(cap, Rights::all());
    ASSERT_TRUE(granted.ok());
    ASSERT_TRUE(granted.value().has_all(Rights::all()));
  }
  // THE claim of this PR: not one mutex acquisition, not one seqlock bail.
  EXPECT_EQ(counters.mutex_acquisitions, locks_before);
  EXPECT_EQ(counters.seqlock_fallbacks, falls_before);
  EXPECT_GE(store.cache_stats().hits,
            static_cast<std::uint64_t>(kRepeats));
}

TEST(LockFreeValidate, RepeatCheckOnADurableTableRecordsItsReadWithoutLocking) {
  // On a durable table a check() hit also loads the slot's ticket and
  // records it in the request scope (the read barrier's input): one more
  // atomic load, still not one lock.
  Durability<int> durability;
  durability.committer = storage::GroupCommitter::create(
      std::make_shared<storage::MemoryBackend>(
          ObjectStore<int>::kDefaultShards));
  durability.encode = [](Writer& w, const int& v) {
    w.u32(static_cast<std::uint32_t>(v));
  };
  durability.decode = [](Reader& r, int& v) {
    v = static_cast<int>(r.u32());
    return r.ok();
  };
  const std::shared_ptr<storage::GroupCommitter> committer =
      durability.committer;
  ObjectStore<int> store(test_scheme(), kPort, /*seed=*/7,
                         ObjectStore<int>::kDefaultShards, durability);
  const Capability cap = store.create(123);
  ASSERT_TRUE(store.check(cap, Rights::all()).ok());  // seeds the cache
  std::uint64_t written = 0;
  {
    auto opened = store.open(cap, Rights::none());
    ASSERT_TRUE(opened.ok());
    opened.value().mark_dirty();
    written = opened.value().release_async();
  }
  ASSERT_NE(written, 0u);

  storage::RequestScope scope;
  const common::LockCounters& counters = this_thread_lock_counters();
  const std::uint64_t locks_before = counters.mutex_acquisitions;
  const std::uint64_t falls_before = counters.seqlock_fallbacks;
  constexpr int kRepeats = 10'000;
  for (int i = 0; i < kRepeats; ++i) {
    ASSERT_TRUE(store.check(cap, Rights::all()).ok());
  }
  EXPECT_EQ(counters.mutex_acquisitions, locks_before);
  EXPECT_EQ(counters.seqlock_fallbacks, falls_before);
  const storage::RequestScope::Tickets reads = scope.take_reads();
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].committer, committer.get());
  EXPECT_EQ(reads[0].ticket, written);  // the slot's newest record
}

TEST(LockFreeValidate, InsufficientRightsDeniedWithoutLocking) {
  ObjectStore<int> store(test_scheme(), kPort, 7);
  const Capability narrow =
      store.restrict(store.create(5), Rights(0x01)).value();
  ASSERT_TRUE(store.check(narrow, Rights(0x01)).ok());  // seed the cache

  const common::LockCounters& counters = this_thread_lock_counters();
  const std::uint64_t before = counters.mutex_acquisitions;
  // A cached VALID capability asking for rights it lacks is denied on the
  // fast path too -- the grant is proven, the subset test needs no lock.
  EXPECT_EQ(store.check(narrow, Rights(0x03)).error(),
            ErrorCode::permission_denied);
  EXPECT_EQ(counters.mutex_acquisitions, before);
}

TEST(LockFreeValidate, OpenPrefixSkipsRevalidationAfterWarmup) {
  ObjectStore<int> store(test_scheme(), kPort, 7);
  const Capability cap = store.create(9);
  { ASSERT_TRUE(store.open(cap, Rights::all()).ok()); }  // seeds the cache
  const auto before = store.cache_stats();
  for (int i = 0; i < 100; ++i) {
    auto opened = store.open(cap, Rights::all());
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(*opened.value().value, 9);
  }
  const auto after = store.cache_stats();
  // Every repeat open validated through the fast prefix: hits grew, and
  // no miss (crypto revalidation) ever happened again.
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GE(after.hits, before.hits + 100);
}

TEST(LockFreeValidate, ForgedCheckFieldNeverHitsTheFastPath) {
  ObjectStore<int> store(test_scheme(), kPort, 7);
  const Capability cap = store.create(11);
  ASSERT_TRUE(store.check(cap, Rights::all()).ok());
  Capability forged = cap;
  forged.check = CheckField(cap.check.value() ^ 1);
  EXPECT_FALSE(store.check(forged, Rights::all()).ok());
  Capability widened = store.restrict(cap, Rights(0x01)).value();
  widened.rights = Rights::all();  // keep the narrow check field
  EXPECT_FALSE(store.check(widened, Rights::all()).ok());
}

// ------------------------------------------------- revocation exactness

TEST(LockFreeValidate, RevokeInvalidatesCachedCapabilityImmediately) {
  ObjectStore<int> store(test_scheme(), kPort, 7);
  const Capability cap = store.create(1);
  ASSERT_TRUE(store.check(cap, Rights::all()).ok());  // cached & fast now
  const Capability fresh = store.revoke(cap).value();
  // The epoch bump makes the cached proof stale: the OLD capability must
  // fail on its very next use, fast path or slow.
  EXPECT_FALSE(store.check(cap, Rights::all()).ok());
  EXPECT_TRUE(store.check(fresh, Rights::all()).ok());
}

TEST(LockFreeValidate, DestroyAndSlotReuseNeverRevalidateTheDead) {
  ObjectStore<int> store(test_scheme(), kPort, 7);
  const Capability cap = store.create(1);
  ASSERT_TRUE(store.check(cap, Rights::all()).ok());
  ASSERT_TRUE(store.destroy(cap).ok());
  EXPECT_EQ(store.check(cap, Rights::all()).error(),
            ErrorCode::no_such_object);
  // The freed slot is recycled for the next create; the old capability
  // (same object number, dead secret generation) must keep failing.
  const Capability reused = store.create(2);
  EXPECT_EQ(reused.object, cap.object);
  EXPECT_TRUE(store.check(reused, Rights::all()).ok());
  EXPECT_FALSE(store.check(cap, Rights::all()).ok());
}

// ------------------------------------------------------ concurrent storm
//
// Eight reader threads hammer the lock-free validate path while the main
// thread revokes, destroys, and recycles slots.  The invariant under
// test: once a revocation/destruction HAS RETURNED (published through an
// acquire/release flag), no reader that starts a validate afterwards can
// see the stale capability succeed.  Run under TSan this also checks the
// seqlock/EBR fences: every load in validate_fast must be properly
// ordered against the WriteGuard stores.

TEST(LockFreeValidate, ConcurrentValidateStormSurvivesRevocation) {
  ObjectStore<int> store(test_scheme(), kPort, 7, /*shards=*/4);
  const Capability doomed = store.create(1);
  const Capability stable = store.create(2);
  ASSERT_TRUE(store.check(doomed, Rights::all()).ok());
  ASSERT_TRUE(store.check(stable, Rights::all()).ok());

  std::atomic<bool> revoked{false};
  std::atomic<bool> destroy_begun{false};
  std::atomic<bool> destroy_done{false};
  std::atomic<bool> stop{false};
  Capability fresh;  // outlives the readers (declared before the jthreads)
  std::atomic<Capability*> replacement{nullptr};

  constexpr int kThreads = 8;
  std::vector<std::jthread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        // Order matters: sample the flag BEFORE validating, so a true
        // flag proves the revocation completed before this validate.
        const bool was_revoked = revoked.load(std::memory_order_acquire);
        const Result<Rights> old_cap = store.check(doomed, Rights::all());
        if (was_revoked) {
          EXPECT_FALSE(old_cap.ok());
        }
        if (Capability* cap = replacement.load(std::memory_order_acquire)) {
          const bool done_before =
              destroy_done.load(std::memory_order_acquire);
          const Result<Rights> new_cap = store.check(*cap, Rights::all());
          if (done_before) {
            // The destroy completed before this validate began: the dead
            // capability must not validate, fast path or slow.
            EXPECT_FALSE(new_cap.ok());
          } else if (!destroy_begun.load(std::memory_order_acquire)) {
            // The validate finished without ever observing destroy_begun,
            // and observing the destroy's slot mutation (through the
            // seqlock/mutex sync edges) would have made the earlier
            // begun-store visible too -- so the validate saw a live slot.
            EXPECT_TRUE(new_cap.ok());
          }
        }
        // Background noise: a capability that stays valid throughout, and
        // slot churn stressing slot_grow against the atomic probes.
        EXPECT_TRUE(store.check(stable, Rights::all()).ok());
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  fresh = store.revoke(doomed).value();
  replacement.store(&fresh, std::memory_order_release);
  revoked.store(true, std::memory_order_release);

  // Slot churn while readers run: create/destroy cycles reuse free-list
  // slots and extend the high-water mark across chunk boundaries.
  for (int i = 0; i < 200; ++i) {
    const Capability churn = store.create(i);
    ASSERT_TRUE(store.destroy(churn).ok());
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  destroy_begun.store(true, std::memory_order_release);
  ASSERT_TRUE(store.destroy(fresh).ok());
  destroy_done.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop.store(true, std::memory_order_release);
}

}  // namespace
}  // namespace amoeba::core
