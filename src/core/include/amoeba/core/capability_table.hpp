// The capability table every server shares: per-object secret random
// numbers, bound to one protection scheme and one server put-port.
//
// "The server would then pick a random number, store this number in its
// object table, and insert it into the newly-formed object capability"
// (§2.3).  The table also implements the paper's two owner operations:
// sub-capability fabrication (a new capability "with fewer rights") and
// instant revocation ("change the random number stored in its internal
// table"), plus destroy-with-slot-reuse, where a reused object number
// draws a fresh secret so stale capabilities cannot resurrect.
//
// The table knows nothing of the objects' payloads.  core::ObjectStore<T>
// (object_store.hpp) stores them by the table's (shard, index) and hands
// the table their bytes through one small interface, Payloads.  All of
// this file is compiled once, for every payload type.
//
// Concurrency.  Object numbers are assigned so that `object % shard_count`
// names the owning shard; each shard has its own mutex, slot chunks, free
// list and RNG, so independent objects proceed in parallel and a
// multi-worker service needs no service-wide lock.  open() returns a Lease
// that holds the shard lock for its lifetime; open2() takes two shard
// locks in index order (a total order: no deadlock).
//
// Validation cache.  Each shard keeps a direct-mapped cache of validated
// capabilities (the §2.4 soft-protection cache, for every scheme), keyed
// by (object, rights, check) and stamped with the slot's secret epoch.
// Rotating the secret (create into a reused slot, revoke, destroy) bumps
// the epoch, so stale entries die without any scan.
//
// Lock-free repeat validation.  check() -- and the validation prefix of
// open() -- first runs a probe that takes NO lock: it reads the slot's
// header (live flag + epoch) and the cache entry, each under a
// common::SeqCount seqlock generation.  Writers (all serialized by the
// shard mutex) wrap their stores in a SeqCount::WriteGuard, so a probe
// that overlaps a transition fails its recheck and falls back to the
// locked path.  A hit needs the entry's epoch to equal the slot's IN THE
// SAME stable generation; the epoch bump is inside the slot's write
// guard, so no capability ever fast-validates against a rotated secret.
// Anything short of a bit-exact hit is answered by the mutex path, never
// by the probe.  Slot chunks are published once and never move, so probes
// hold no lock while shards grow; shard mutexes are common::CountedMutex,
// so a test can PROVE the zero-acquisition claim.
//
// Durability (storage/).  A table with a group committer journals every
// change -- create, payload mutation, secret rotation, destroy -- ENCODED
// under the owning shard's lock, carrying the object number, the secret
// and the payload's bytes, so every capability issued before a crash
// validates after recovery.  A handler that writes a payload marks its
// lease (mark_dirty, or mark_dirty_delta with a compact patch), and the
// record is encoded at release, still under the lock; a pair journals as
// ONE group, so a crash never holds half a bank transfer.  Every record
// takes one path: its LSN is assigned and it is encoded straight into the
// committer's staging buffer, one queue hold per group.  The mutator then
// drops the lock and waits for its ticket (inside a storage::RequestScope
// the request's replier waits instead, once); release_async() hands the
// ticket back for pipelined waits.  Each slot keeps the ticket of its
// newest record, stored before the shard lock drops (a pair group gives
// both slots the same one).  Every validation -- the locked one on success
// or failure, and the lock-free hit of check() -- records that ticket in
// the calling thread's storage::RequestScope as a read, so a reply waits
// only for the objects its request looked at (rpc::Service's read
// barrier).  for_each_live() reads every slot and records the committer's
// newest effect instead.
//
// At a checkpoint the committer's flusher asks the table, between two
// cycles, to image every shard's live slots under the shard locks -- all
// or none, try-locked (group_commit.hpp).  A committer whose volume is
// non-empty makes the constructor replay snapshot-then-journal: secrets,
// payloads and free lists.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "amoeba/common/epoch.hpp"
#include "amoeba/common/error.hpp"
#include "amoeba/common/rng.hpp"
#include "amoeba/common/serial.hpp"
#include "amoeba/core/capability.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/storage/group_commit.hpp"

namespace amoeba::core {

namespace detail {

// The table's storage, declared here for the lock-free probe, which is
// inlined into check() (called out of line, it cost bench_e11's lock-free
// leg 8-11% at 4 and 8 threads).  Only capability_table.cpp touches it
// otherwise.

/// Slots per chunk (a power of two).  Chunks never move once allocated,
/// so a slot -- and a payload stored by its index -- is address-stable.
inline constexpr std::size_t kChunkSlots = 512;

/// One object's entry.  The header -- seq, epoch, live -- is read by the
/// lock-free probe: every writer transition (create, revoke, destroy,
/// recovery replay) holds the shard mutex AND wraps its header stores in
/// a WriteGuard, so the probe can detect overlap and bail.
struct TableSlot {
  common::SeqCount seq;
  std::atomic<std::uint32_t> epoch{0};  // bumped on every secret rotation
  std::atomic<bool> live{false};
  // Mutex-guarded only; NEVER read by the lock-free probe (the probe
  // trusts the epoch-stamped cache entry instead of the secret).
  std::uint64_t secret = 0;
  // Group-commit ticket of the slot's newest journal record (0: none since
  // start, or an in-memory table).  Stored under the shard mutex before it
  // drops; a request that reads the slot records it as a read of its
  // storage::RequestScope, and its reply waits until it is durable.
  std::atomic<std::uint64_t> ticket{0};
};

/// Slots live in fixed-size chunks that never move once published:
/// lock-free probes dereference slot addresses without any lock, so the
/// storage must be address-stable across shard growth.
struct SlotChunk {
  std::array<TableSlot, kChunkSlots> slots{};
};

/// Direct-mapped validated-capability cache entry.  `epoch` ties the
/// entry to one secret generation of the slot.  Fields are atomics, stored
/// release and probed acquire, under the entry's own SeqCount: the single
/// writer (the locked path's refill, serialized by the shard mutex) flips
/// the generation odd around its stores, so the lock-free probe reads a
/// consistent tuple or rejects.
struct CacheEntry {
  common::SeqCount seq;
  std::atomic<std::uint32_t> object{0};
  std::atomic<std::uint32_t> epoch{0};
  std::atomic<std::uint64_t> check{0};
  std::atomic<std::uint8_t> rights{0};
  std::atomic<std::uint8_t> granted{0};
  std::atomic<bool> used{false};
};
inline constexpr std::size_t kCacheEntries = 256;  // per shard, bounded

/// One shard: its mutex, slots, validate cache, free list, RNG and LSN.
struct TableShard {
  TableShard(std::uint64_t seed, std::size_t max_slots)
      : chunk_count((max_slots + kChunkSlots - 1) / kChunkSlots),
        chunks(std::make_unique<std::atomic<SlotChunk*>[]>(chunk_count)),
        rng(seed) {}
  ~TableShard() {
    for (std::size_t c = 0; c < chunk_count; ++c) {
      delete chunks[c].load(std::memory_order_relaxed);
    }
  }
  TableShard(const TableShard&) = delete;
  TableShard& operator=(const TableShard&) = delete;

  mutable common::CountedMutex mutex;
  // ---- lock-free-readable state -------------------------------------
  // Chunk directory, sized at construction for the whole 24-bit object
  // space (so the directory itself never grows).  A chunk pointer is null
  // until the shard first reaches it, then immutable.
  const std::size_t chunk_count;
  std::unique_ptr<std::atomic<SlotChunk*>[]> chunks;
  // High-water mark of constructed slots; release-published after the
  // owning chunk pointer, acquire-read by probes before either.
  std::atomic<std::uint32_t> slot_limit{0};
  std::array<CacheEntry, kCacheEntries> cache{};
  // mutable: bumped from the const lock-free probe.
  mutable std::atomic<std::uint64_t> cache_hits{0};    // approximate
  mutable std::atomic<std::uint64_t> cache_misses{0};  // approximate
  // ---- mutex-guarded state ------------------------------------------
  std::vector<std::uint32_t> free_list;
  std::atomic<std::uint32_t> free_count{0};
  Rng rng;
  std::uint64_t lsn = 0;  // last journal LSN issued
  std::uint64_t journal_records = 0;
  std::uint64_t snapshots = 0;
  // Payload images, reused per record: [0] for single records and a
  // pair's first member, [1] for its second (both may share this shard).
  std::array<Writer, 2> scratch;
};

/// Slot by index for the LOCK-FREE probe: null when the index is past the
/// published high-water mark.  The acquire loads pair with slot_grow's
/// release stores, so a non-null result is a fully constructed slot.
inline const TableSlot* slot_peek_atomic(const TableShard& shard,
                                         std::size_t index) {
  if (index >= shard.slot_limit.load(std::memory_order_acquire)) {
    return nullptr;
  }
  const SlotChunk* chunk =
      shard.chunks[index / kChunkSlots].load(std::memory_order_acquire);
  return chunk == nullptr ? nullptr : &chunk->slots[index % kChunkSlots];
}

/// Direct-mapped cache index of a capability (hash over the full key
/// tuple so near-identical capabilities spread).
inline std::size_t cache_slot(const Capability& cap) {
  const std::uint64_t mix =
      (static_cast<std::uint64_t>(cap.object.value()) << 8 |
       cap.rights.bits()) * 0x9E3779B97F4A7C15ULL ^
      cap.check.value() * 0xC2B2AE3D27D4EB4FULL;
  return (mix >> 32) & (kCacheEntries - 1);
}

}  // namespace detail

class CapabilityTable {
 public:
  /// Power of two; 16 shards keeps per-shard contention negligible for a
  /// service with a few dozen workers while costing ~1 KiB per shard.
  static constexpr std::size_t kDefaultShards = 16;
  /// Slots per address-stable chunk; ObjectStore<T> chunks its payloads
  /// the same way.
  static constexpr std::size_t kChunkSlots = detail::kChunkSlots;

  /// The payload side of the table, implemented by ObjectStore<T>: the
  /// table reaches the objects' payloads only through these calls, and
  /// only under the owning shard's lock (or during recovery, before any
  /// other thread exists).  The payload format stays behind them.
  class Payloads {
   public:
    /// Appends the serialized payload of `object` to `out` (journal
    /// records and checkpoint images).
    virtual void encode(Writer& out, ObjectNumber object) = 0;
    /// Recovery replay: replaces the payload of `object` with the image
    /// `in` holds.  False: the image is corrupt.
    virtual bool decode(Reader& in, ObjectNumber object) = 0;
    /// Recovery replay: applies one delta patch to the live payload of
    /// `object`.  False: the patch is corrupt.
    virtual bool apply_delta(Reader& in, ObjectNumber object) = 0;
    /// Whether apply_delta has a codec to run.
    [[nodiscard]] virtual bool applies_deltas() const = 0;
    /// Resets the payload of `object` to an empty one.  `dispose` first
    /// releases the external resources it owns (recovery replay only: the
    /// live paths' handlers manage those resources themselves).
    virtual void reset(ObjectNumber object, bool dispose) = 0;

   protected:
    ~Payloads() = default;
  };

  /// One open object: holds the owning shard's lock for its lifetime, and
  /// the journal marks its release writes.  Do not call single-capability
  /// table operations on the same table while one is held (use
  /// destroy(Lease&&) / open2 for the multi-step patterns); the shard mutex
  /// is not recursive.
  class Lease {
   public:
    Rights rights;
    ObjectNumber object;

    Lease() = default;
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;
    ~Lease();

    /// Declares that the payload was (or will be) modified: its full image
    /// is journaled when this lease is released.  Leases of in-memory
    /// tables ignore the mark.
    void mark_dirty() { dirty_ = true; }

    /// Declares that the payload was patched in place: `patch` -- a
    /// server-defined byte-range patch the store's apply_delta codec can
    /// replay -- is journaled as a compact delta record when this lease is
    /// released, instead of the payload's full image.  A full mark_dirty()
    /// on the same lease supersedes every pending patch (the re-encoded
    /// payload already contains their effects).  Throws UsageError on a
    /// durable table without a delta codec -- checked HERE, at mark time,
    /// because the journaling itself runs in release paths (destructors)
    /// that must not throw.
    void mark_dirty_delta(Buffer patch);

    /// Journals the marks NOW, while the shard lock is still held, instead
    /// of at release (the durability wait still happens at release).
    /// Required before destroy()ing the partner of a same-shard pair (the
    /// destroy drops the shared lock); harmless otherwise.
    void flush();

    /// Journals the marks and releases the object WITHOUT blocking on
    /// group-commit durability: returns the commit ticket to hand to
    /// wait_durable() later (0 -- already durable -- for in-memory
    /// tables).  The pipelined form: keep a bounded window of outstanding
    /// tickets and overlap many mutations against one flush cycle.
    [[nodiscard]] std::uint64_t release_async();

    /// Releases a pair (open2): journals both members' marks as ONE atomic
    /// group while both locks are held, drops the locks, THEN waits once
    /// for the group -- a crash cannot observe a debit without its credit.
    static void release_pair(Lease& a, Lease& b) noexcept;

   private:
    friend class CapabilityTable;
    Lease(CapabilityTable* table, Rights granted, ObjectNumber object,
          std::unique_lock<common::CountedMutex> lock);

    /// Full release: journal under the lock, drop the lock, THEN block on
    /// the commit ticket -- waiting while holding the shard mutex would
    /// serialize every other object of the shard behind one fsync.  It
    /// runs in destructors and so must not throw: inside a request handler
    /// the wait is deferred to the request's storage::RequestScope, whose
    /// one wait (the service's replier makes it) reports a failure (a
    /// failed flush, a fenced deposed primary) as the `internal` reply;
    /// anywhere else a failed wait stops the process, as an exception
    /// escaping a destructor always did: nothing may carry on as if the
    /// effect were durable.
    void finish() noexcept;

    CapabilityTable* table_ = nullptr;
    bool dirty_ = false;
    std::vector<Buffer> deltas_;  // pending mark_dirty_delta patches
    std::uint64_t pending_ = 0;   // commit ticket of an earlier flush()
    std::unique_lock<common::CountedMutex> lock_;  // none: a pair's partner
  };

  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  /// Journal/recovery counters (all zero for in-memory tables).
  struct DurabilityStats {
    std::uint64_t journal_records = 0;    // records appended since start
    std::uint64_t snapshots = 0;          // shard images taken
    std::uint64_t recovered_objects = 0;  // live slots after recovery
    bool recovered = false;               // this table was rebuilt
  };

  /// `committer` null: an in-memory table.  Otherwise every change is
  /// journaled through it, and a non-empty volume is recovered here,
  /// calling back into `payloads` (which must outlive the table).
  CapabilityTable(std::shared_ptr<const ProtectionScheme> scheme,
                  Port server_port, std::uint64_t seed, std::size_t shards,
                  std::shared_ptr<storage::GroupCommitter> committer,
                  Payloads& payloads);
  ~CapabilityTable();
  CapabilityTable(const CapabilityTable&) = delete;
  CapabilityTable& operator=(const CapabilityTable&) = delete;

  /// Creation, first half: picks a slot -- freed slots anywhere in the
  /// table are reused before any shard grows, so the object-number space
  /// stays dense and a destroy+create pair round-trips through the same
  /// number -- draws its fresh secret and returns its lease (all rights).
  /// The caller places the payload, then calls finish_create.
  [[nodiscard]] Lease reserve();
  /// Creation, second half: journals the create record, releases the
  /// lease, waits for durability and mints the owner capability.
  [[nodiscard]] Capability finish_create(Lease&& lease, Rights rights);

  /// Blocks until the given group-commit ticket is durable (no-op for
  /// ticket 0 or an in-memory table); inside a storage::RequestScope it
  /// only records the ticket for the request's one wait.
  void wait_durable(std::uint64_t ticket);

  /// The server workhorse: look the object up by the (unencrypted) object
  /// field, validate the check field against the stored secret (through
  /// the per-shard validated-capability cache), and verify the granted
  /// rights cover `required`.  The validation PREFIX is lock-free on a
  /// repeat capability: a probe hit proves the capability valid for the
  /// slot's current secret generation, and if the generation is unchanged
  /// once the shard lock is held, the cached grant is reused.
  [[nodiscard]] Result<Lease> open(const Capability& cap, Rights required);

  /// Validates a capability and the required rights WITHOUT keeping the
  /// object open -- the typed dispatcher's pre-handler check for
  /// multi-object operations.  A probe hit answers with ZERO mutex
  /// acquisitions; everything else falls back to check_locked().
  [[nodiscard]] Result<Rights> check(const Capability& cap, Rights required) {
    if (const std::optional<FastHit> hit =
            validate_fast(shard_of(cap.object), cap)) {
      if (hit->ticket != 0) {  // only a durable table stores tickets
        storage::RequestScope::note_read(*committer_, hit->ticket);
      }
      if (!hit->granted.has_all(required)) {
        return ErrorCode::permission_denied;
      }
      return hit->granted;
    }
    return check_locked(cap, required);
  }

  /// The mutex slow path of check().  Public so the bench contrast
  /// (bench_e11) can drive the locked and lock-free paths side by side.
  [[nodiscard]] Result<Rights> check_locked(const Capability& cap,
                                            Rights required);

  /// Opens two objects atomically (the bank-transfer shape), locking the
  /// two owning shards in ascending index order.  When both name the same
  /// shard, the second lease shares the first one's lock.
  [[nodiscard]] Result<std::pair<Lease, Lease>> open2(const Capability& cap_a,
                                                      Rights required_a,
                                                      const Capability& cap_b,
                                                      Rights required_b);

  /// Server-side sub-capability fabrication: any valid capability may be
  /// narrowed to `mask` (intersection).  No special right is required,
  /// exactly as in the paper -- you can only lose rights this way.
  [[nodiscard]] Result<Capability> restrict(const Capability& cap,
                                            Rights mask);

  /// Revocation: draws a new secret, invalidating every outstanding
  /// capability for the object, and returns a fresh capability with the
  /// caller's rights.  Guarded by the admin bit ("obviously this operation
  /// must be protected with a bit in the RIGHTS field").
  [[nodiscard]] Result<Capability> revoke(const Capability& cap);

  /// Destroys the object through its held lease (which needs the destroy
  /// right); its payload is reset and its number returns to the owning
  /// shard's free list.  On success the lease is released.
  [[nodiscard]] Result<void> destroy(Lease&& lease);

  /// Server-internal mint.  Returns no_such_object for dead slots.
  [[nodiscard]] Result<Capability> mint_for(ObjectNumber object,
                                            Rights rights);

  /// Calls fn(object) for every live object, under its shard's lock, one
  /// shard locked at a time.  Records the committer's newest effect as a
  /// read of the calling thread's request scope.
  void for_each_live(const std::function<void(ObjectNumber)>& fn);

  /// Takes a checkpoint of the volume now and waits until it is durable.
  /// No-op for in-memory tables.
  void compact();

  [[nodiscard]] std::size_t live_count() const {
    return live_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const ProtectionScheme& scheme() const { return *scheme_; }
  [[nodiscard]] Port server_port() const { return server_port_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] bool durable() const { return committer_ != nullptr; }
  [[nodiscard]] const std::shared_ptr<storage::GroupCommitter>& committer()
      const {
    return committer_;
  }

  /// Aggregate validated-capability cache statistics across shards.
  /// Lock-free relaxed counters: a moment-in-time approximation.
  [[nodiscard]] CacheStats cache_stats() const;
  [[nodiscard]] DurabilityStats durability_stats() const;

 private:
  /// A successful lock-free validation: the granted rights plus the
  /// secret epoch they were proven against (open() re-checks the epoch
  /// under the shard lock to decide whether the proof still stands).
  struct FastHit {
    Rights granted;
    std::uint32_t epoch = 0;
    std::uint64_t ticket = 0;  // the slot's, loaded after the entry
  };

  [[nodiscard]] std::size_t shard_index(ObjectNumber object) const {
    return object.value() & (shards_.size() - 1);
  }
  [[nodiscard]] std::size_t slot_index(ObjectNumber object) const {
    return object.value() / shards_.size();
  }
  [[nodiscard]] detail::TableShard& shard_of(ObjectNumber object) const {
    return *shards_[shard_index(object)];
  }

  /// The no-lock validate probe.  Returns a hit ONLY when, within one
  /// stable seqlock generation of both records, the slot is live and the
  /// shard's cache entry matches the capability bit for bit at the slot's
  /// current secret epoch -- i.e. this exact capability already validated
  /// against this exact secret and nothing rotated since.  Every other
  /// outcome (miss, dead slot, unpublished index, torn read) is nullopt:
  /// the caller falls back to the mutex path, which is the sole authority
  /// for failures.  Performs zero lock acquisitions.
  [[nodiscard]] std::optional<FastHit> validate_fast(
      const detail::TableShard& shard, const Capability& cap) const {
    const detail::TableSlot* slot =
        detail::slot_peek_atomic(shard, slot_index(cap.object));
    if (slot == nullptr) {
      return std::nullopt;
    }
    const std::uint32_t slot_gen = slot->seq.read_begin();
    if (common::SeqCount::busy(slot_gen)) {
      ++common::this_thread_lock_counters().seqlock_fallbacks;
      return std::nullopt;
    }
    const std::uint32_t epoch = slot->epoch.load(std::memory_order_acquire);
    const bool live = slot->live.load(std::memory_order_acquire);
    if (!slot->seq.read_ok(slot_gen)) {
      ++common::this_thread_lock_counters().seqlock_fallbacks;
      return std::nullopt;
    }
    if (!live) {
      return std::nullopt;
    }
    const detail::CacheEntry& entry = shard.cache[detail::cache_slot(cap)];
    const std::uint32_t entry_gen = entry.seq.read_begin();
    if (common::SeqCount::busy(entry_gen)) {
      ++common::this_thread_lock_counters().seqlock_fallbacks;
      return std::nullopt;
    }
    const bool used = entry.used.load(std::memory_order_acquire);
    const std::uint32_t entry_object =
        entry.object.load(std::memory_order_acquire);
    const std::uint32_t entry_epoch =
        entry.epoch.load(std::memory_order_acquire);
    const std::uint64_t entry_check =
        entry.check.load(std::memory_order_acquire);
    const std::uint8_t entry_rights =
        entry.rights.load(std::memory_order_acquire);
    const Rights granted(entry.granted.load(std::memory_order_acquire));
    if (!entry.seq.read_ok(entry_gen)) {
      ++common::this_thread_lock_counters().seqlock_fallbacks;
      return std::nullopt;
    }
    if (!used || entry_object != cap.object.value() ||
        entry_epoch != epoch || entry_check != cap.check.value() ||
        entry_rights != cap.rights.bits()) {
      return std::nullopt;  // not proven for THIS epoch: slow path decides
    }
    shard.cache_hits.fetch_add(1, std::memory_order_relaxed);
    // The entry was refilled under the shard lock after the record that
    // set its epoch stored its ticket, so this load sees that ticket or a
    // newer one.
    return FastHit{granted, epoch,
                   slot->ticket.load(std::memory_order_acquire)};
  }
  /// The slot at `index` if it is live, else null; either way records
  /// its ticket, when it exists, as a read of the calling thread's request
  /// scope.  Caller holds the shard mutex.
  [[nodiscard]] const detail::TableSlot* note_read(detail::TableShard& shard,
                                                   std::size_t index) const;
  [[nodiscard]] Result<Rights> validate_locked(detail::TableShard& shard,
                                               const Capability& cap,
                                               Rights required,
                                               const FastHit* hit = nullptr);
  /// Journals the marks of armed leases (a pair's members at most) as one
  /// group and disarms them.  Returns its ticket, 0 for nothing.
  [[nodiscard]] std::uint64_t journal_locked(std::span<Lease* const> leases);
  [[nodiscard]] bool image_all();
  void recover();

  std::shared_ptr<const ProtectionScheme> scheme_;
  Port server_port_;
  std::shared_ptr<storage::GroupCommitter> committer_;
  Payloads& payloads_;
  std::vector<std::unique_ptr<detail::TableShard>> shards_;
  std::atomic<std::size_t> cursor_{0};
  std::atomic<std::size_t> live_count_{0};
  DurabilityStats recovery_stats_;  // written once during recovery
  /// Declared last, so destroyed first: no checkpoint images a shard
  /// being torn down.
  storage::GroupCommitter::Registration imager_;
};

}  // namespace amoeba::core
