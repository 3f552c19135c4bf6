// Lock-free reader infrastructure: seqlock sequence counters, epoch-based
// reclamation (EBR), and instrumented lock counters.
//
// Two read-mostly hot paths ride this layer:
//   * the object store's validate path (core/object_store.hpp) -- per-slot
//     SeqCount counters let check() validate a repeat capability with
//     atomic loads only, falling back to the shard mutex on any
//     instability, and
//   * the network's stripe tables (net/network.cpp) -- registration maps
//     are immutable snapshots swapped atomically and reclaimed through
//     EpochDomain, so transmit/locate never block behind a registration.
//
// The instrumented counters exist so tests can PROVE a path is lock-free:
// CountedMutex bumps a thread-local counter on every acquisition, and a
// test that drives N operations through a supposedly lock-free path can
// assert the counter did not move (tests/lockfree_validate_test.cpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>

namespace amoeba::common {

// ---------------------------------------------------------------------
// Instrumented lock counters.

/// Per-thread lock instrumentation.  Cheap enough to update
/// unconditionally (one thread-local increment per acquisition); read by
/// tests and benchmarks, never by production logic.
struct LockCounters {
  std::uint64_t mutex_acquisitions = 0;  // CountedMutex::lock()/try_lock()
  std::uint64_t seqlock_fallbacks = 0;   // lock-free reads that bailed to
                                         // the locked slow path
};

/// The calling thread's counters.  Thread-local; no synchronization.
[[nodiscard]] LockCounters& this_thread_lock_counters();

/// Drop-in std::mutex that counts acquisitions on the calling thread.
/// Used for every lock a supposedly lock-free read path must NOT take
/// (object-store shard mutexes, network stripe writer mutexes), so the
/// "zero acquisitions" claim is checkable at runtime, not by inspection.
/// Satisfies Lockable: works with std::unique_lock / std::lock_guard.
class CountedMutex {
 public:
  void lock() {
    ++this_thread_lock_counters().mutex_acquisitions;
    mutex_.lock();
  }
  [[nodiscard]] bool try_lock() {
    const bool locked = mutex_.try_lock();
    if (locked) {
      ++this_thread_lock_counters().mutex_acquisitions;
    }
    return locked;
  }
  void unlock() { mutex_.unlock(); }

 private:
  std::mutex mutex_;
};

// ---------------------------------------------------------------------
// Seqlock sequence counter.

/// A per-record sequence counter implementing the seqlock reader protocol
/// (Boehm, "Can seqlocks get along with programming language memory
/// models?").  Even value = record stable; odd = a writer is mid-update.
///
/// Writer side (MUST already be serialized by an external mutex -- the
/// counter does not arbitrate between writers; fields are std::atomic,
/// stored release):
///
///   { SeqCount::WriteGuard guard(slot.seq);   // seq becomes odd
///     slot.field.store(v, std::memory_order_release);
///     ...
///   }                                          // seq becomes even again
///
/// Reader side (no lock; fields loaded acquire):
///
///   const std::uint32_t s = slot.seq.read_begin();
///   if (SeqCount::busy(s)) { fall back to the locked path; }
///   auto a = slot.field.load(std::memory_order_acquire);
///   ...
///   if (!slot.seq.read_ok(s)) { fall back; }
///   // a (and every other field load in between) is a consistent
///   // snapshot of one stable generation.
///
/// Memory-model contract, in atomics alone (no fences, so ThreadSanitizer
/// models every edge): a field store is a release store sequenced after
/// the guard's odd store, so a reader whose acquire load returns it also
/// sees the odd value, and read_ok()'s later load of the counter -- which
/// the acquire load keeps after it -- cannot return `began`.  The guard's
/// destructor stores the even value release, so read_begin()'s acquire
/// load of it sees every field store of the finished generation.
class SeqCount {
 public:
  /// True if `observed` was captured mid-write (odd).
  [[nodiscard]] static constexpr bool busy(std::uint32_t observed) {
    return (observed & 1U) != 0;
  }

  /// First half of a lock-free read: capture the generation.
  [[nodiscard]] std::uint32_t read_begin() const {
    return seq_.load(std::memory_order_acquire);
  }

  /// Second half: true iff every acquire field load since read_begin()
  /// observed one stable generation.  `began` must come from read_begin();
  /// a busy generation never validates.
  [[nodiscard]] bool read_ok(std::uint32_t began) const {
    return !busy(began) && seq_.load(std::memory_order_relaxed) == began;
  }

  /// Marks the record unstable for the guard's lifetime.  The caller must
  /// hold the external writer mutex for this record.
  class WriteGuard {
   public:
    explicit WriteGuard(SeqCount& seq) : seq_(seq) {
      const std::uint32_t s = seq_.seq_.load(std::memory_order_relaxed);
      // The field stores that follow are release stores: a reader that
      // observes any new field value also observes this odd value (or the
      // final even one) and retries.
      seq_.seq_.store(s + 1, std::memory_order_relaxed);
    }
    ~WriteGuard() {
      const std::uint32_t s = seq_.seq_.load(std::memory_order_relaxed);
      seq_.seq_.store(s + 1, std::memory_order_release);
    }
    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;

   private:
    SeqCount& seq_;
  };

 private:
  std::atomic<std::uint32_t> seq_{0};
};

// ---------------------------------------------------------------------
// Epoch-based reclamation.

/// Grace-period memory reclamation for RCU-style snapshot structures
/// (Fraser-style EBR, three generations).  Readers pin the domain around
/// a critical section; writers unlink a snapshot, then retire() it, and
/// the domain frees it only after every reader that could have seen it
/// has unpinned.
///
/// Contracts:
///   * Readers: hold a Guard across every dereference of an EBR-protected
///     pointer.  pin() is wait-free after a thread's first use (one
///     seq_cst store + load); guards may nest.
///   * Writers: UNLINK FIRST (atomically replace the published pointer),
///     then retire() the old pointer FROM THE SAME THREAD.  That ordering
///     plus the domain's internal mutex is what guarantees a reader
///     pinned after the retirement epoch advances cannot observe the
///     retired pointer.
///   * Reclamation: a retired pointer is deleted at least two epoch
///     advances later, and an advance blocks while any reader is still
///     pinned in an older epoch -- so deletion never races a reader.
///
/// Thread records are allocated on first pin and recycled when threads
/// exit; the domain itself is never destroyed (global() leaks by design
/// to dodge static-destruction order against exiting threads).
class EpochDomain {
  struct ReaderRecord;

 public:
  /// RAII pin on the current epoch.  Non-copyable, movable.
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& other) noexcept
        : record_(std::exchange(other.record_, nullptr)) {}
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        release();
        record_ = std::exchange(other.record_, nullptr);
      }
      return *this;
    }
    ~Guard() { release(); }

   private:
    friend class EpochDomain;
    explicit Guard(ReaderRecord* record) : record_(record) {}
    void release() noexcept;

    ReaderRecord* record_ = nullptr;
  };

  /// Enters a read-side critical section.  Every EBR-protected pointer
  /// loaded while the Guard lives stays valid until the Guard drops.
  [[nodiscard]] Guard pin();

  /// Hands a no-longer-published pointer to the domain for deferred
  /// deletion.  The caller must have unlinked `ptr` (made it unreachable
  /// for NEW readers) before calling, on this same thread.
  template <typename T>
  void retire(const T* ptr) {
    retire_raw(const_cast<T*>(ptr),
               [](void* p) { delete static_cast<T*>(p); });
  }

  /// Blocks until every pointer retired before the call has been deleted
  /// (forces epoch advances; spins while stale readers stay pinned).
  /// Teardown/test helper -- never needed on hot paths.
  void synchronize();

  /// Count of retired-but-not-yet-deleted pointers (test observability).
  [[nodiscard]] std::size_t limbo_size() const;

  /// The process-wide domain all Amoeba readers share.  Never destroyed.
  [[nodiscard]] static EpochDomain& global();

  EpochDomain();
  ~EpochDomain();
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

 private:
  struct Retired {
    void* ptr;
    void (*deleter)(void*);
  };
  struct LimboList;

  void retire_raw(void* ptr, void (*deleter)(void*));
  [[nodiscard]] bool try_advance_locked();
  [[nodiscard]] ReaderRecord* record_for_this_thread();

  // Epoch readers observe; advanced one at a time under mutex_.
  std::atomic<std::uint64_t> global_epoch_{1};
  // Registered reader records, a grow-only lock-free stack.
  std::atomic<ReaderRecord*> records_{nullptr};
  // Serializes retire + epoch advance + limbo reclamation.
  mutable std::mutex mutex_;
  LimboList* limbo_;  // [3], indexed by epoch % 3; guarded by mutex_
};

}  // namespace amoeba::common
