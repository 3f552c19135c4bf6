#include "amoeba/core/capability_table.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "amoeba/storage/record.hpp"

namespace amoeba::core {

namespace {

using detail::cache_slot;
using detail::TableShard;
using detail::TableSlot;

/// Bumps the slot's secret epoch.  Caller holds the shard mutex and a
/// WriteGuard on the slot (or runs single-threaded recovery).
void bump_epoch(TableSlot& slot) {
  slot.epoch.store(slot.epoch.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
}

/// Slot by index for writers (caller holds the shard mutex and knows
/// index < slot_limit).
TableSlot& slot_at(TableShard& shard, std::size_t index) {
  return shard.chunks[index / CapabilityTable::kChunkSlots]
      .load(std::memory_order_relaxed)
      ->slots[index % CapabilityTable::kChunkSlots];
}

/// Grows the shard to cover `index`: materializes every chunk up to the
/// owning one (recovery can land on a high index first, and slot_at may
/// then address ANY index below slot_limit) and publishes the new
/// high-water mark (chunk pointer FIRST, both release -- the probe's
/// acquire loads see them in order).  Caller holds the shard mutex.
TableSlot& slot_grow(TableShard& shard, std::size_t index) {
  const std::size_t last = index / CapabilityTable::kChunkSlots;
  if (last >= shard.chunk_count) {
    throw UsageError("ObjectStore: slot index out of range");
  }
  // Chunks below the current limit already exist, so the scan starts at
  // the limit's own chunk.
  const std::size_t first_gap =
      shard.slot_limit.load(std::memory_order_relaxed) /
      CapabilityTable::kChunkSlots;
  detail::SlotChunk* chunk = nullptr;
  for (std::size_t c = std::min(first_gap, last); c <= last; ++c) {
    chunk = shard.chunks[c].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new detail::SlotChunk();
      shard.chunks[c].store(chunk, std::memory_order_release);
    }
  }
  if (index >= shard.slot_limit.load(std::memory_order_relaxed)) {
    shard.slot_limit.store(static_cast<std::uint32_t>(index) + 1,
                           std::memory_order_release);
  }
  return chunk->slots[index % CapabilityTable::kChunkSlots];
}

/// Validation through the shard's cache; caller holds the shard mutex.
/// The refill wraps its stores in the entry's WriteGuard so the lock-free
/// probe never observes a half-written entry; the reads here can stay
/// relaxed because the mutex already excludes every writer.
Result<Rights> validate_cached(const ProtectionScheme& scheme,
                               TableShard& shard, const TableSlot& slot,
                               const Capability& cap) {
  detail::CacheEntry& entry = shard.cache[cache_slot(cap)];
  const std::uint32_t slot_epoch = slot.epoch.load(std::memory_order_relaxed);
  if (entry.used.load(std::memory_order_relaxed) &&
      entry.object.load(std::memory_order_relaxed) == cap.object.value() &&
      entry.epoch.load(std::memory_order_relaxed) == slot_epoch &&
      entry.check.load(std::memory_order_relaxed) == cap.check.value() &&
      entry.rights.load(std::memory_order_relaxed) == cap.rights.bits()) {
    shard.cache_hits.fetch_add(1, std::memory_order_relaxed);
    return Rights(entry.granted.load(std::memory_order_relaxed));
  }
  shard.cache_misses.fetch_add(1, std::memory_order_relaxed);
  const Result<Rights> granted = scheme.validate(cap, slot.secret);
  if (granted.ok()) {
    const common::SeqCount::WriteGuard guard(entry.seq);
    entry.object.store(cap.object.value(), std::memory_order_release);
    entry.epoch.store(slot_epoch, std::memory_order_release);
    entry.check.store(cap.check.value(), std::memory_order_release);
    entry.rights.store(cap.rights.bits(), std::memory_order_release);
    entry.granted.store(granted.value().bits(), std::memory_order_release);
    entry.used.store(true, std::memory_order_release);
  }
  return granted;
}

/// Locks the two shards' mutexes in ascending index order (one lock when
/// they coincide).  lock_a/lock_b come back owning sa/sb respectively.
void lock_pair(TableShard& a, std::size_t sa, TableShard& b, std::size_t sb,
               std::unique_lock<common::CountedMutex>& lock_a,
               std::unique_lock<common::CountedMutex>& lock_b) {
  if (sb < sa) {
    lock_b = std::unique_lock(b.mutex);
  }
  lock_a = std::unique_lock(a.mutex);
  if (sa < sb) {
    lock_b = std::unique_lock(b.mutex);
  }
}

/// One journal record, its payload bytes borrowed from the caller.
struct Entry {
  storage::RecordType type;
  ObjectNumber object;
  std::uint64_t secret = 0;
  std::span<const std::uint8_t> payload;
};

/// The one journal path.  `each_entry(emit)` calls emit(Entry) per record;
/// each record takes the next LSN of its shard and is encoded straight
/// into the committer's staging buffer, the whole group under one queue
/// hold, so no flush cycle splits it.  Encoding under the shard lock is
/// where the LSN is assigned, so an image taken later under the same lock
/// always covers every encoded record, flushed or still queued.  A second
/// pass over the entries stores the group's ticket in each record's slot
/// before any lock drops, so a reader of the slot sees it.  Caller holds
/// the shard lock of every entry and waits on the returned ticket after
/// dropping them.
template <typename EachEntry>
std::uint64_t append_locked(
    storage::GroupCommitter& committer,
    const std::vector<std::unique_ptr<TableShard>>& shards,
    EachEntry&& each_entry) {
  const std::size_t mask = shards.size() - 1;
  const std::uint64_t ticket =
      committer.enqueue_group_with([&](const auto& stage) {
        each_entry([&](const Entry& e) {
          const std::size_t s = e.object.value() & mask;
          TableShard& shard = *shards[s];
          ++shard.journal_records;
          storage::encode_record_into(e.type, e.object, e.secret,
                                      ++shard.lsn, e.payload, stage(s));
        });
      });
  each_entry([&](const Entry& e) {
    slot_at(*shards[e.object.value() & mask], e.object.value() / shards.size())
        .ticket.store(ticket, std::memory_order_release);
  });
  return ticket;
}

}  // namespace

// ---- Lease ------------------------------------------------------------

CapabilityTable::Lease::Lease(CapabilityTable* table, Rights granted,
                              ObjectNumber object,
                              std::unique_lock<common::CountedMutex> lock)
    : rights(granted), object(object), table_(table), lock_(std::move(lock)) {}

CapabilityTable::Lease::Lease(Lease&& other) noexcept {
  *this = std::move(other);
}

CapabilityTable::Lease& CapabilityTable::Lease::operator=(
    Lease&& other) noexcept {
  if (this != &other) {
    finish();
    rights = other.rights;
    object = other.object;
    table_ = std::exchange(other.table_, nullptr);
    dirty_ = std::exchange(other.dirty_, false);
    deltas_ = std::move(other.deltas_);
    other.deltas_.clear();
    pending_ = std::exchange(other.pending_, 0);
    lock_ = std::move(other.lock_);
  }
  return *this;
}

CapabilityTable::Lease::~Lease() { finish(); }

void CapabilityTable::Lease::mark_dirty_delta(Buffer patch) {
  if (table_ != nullptr && table_->durable() &&
      !table_->payloads_.applies_deltas()) {
    throw UsageError(
        "ObjectStore: mark_dirty_delta needs an apply_delta codec "
        "(Durability::apply_delta is unset)");
  }
  deltas_.push_back(std::move(patch));
}

void CapabilityTable::Lease::flush() {
  if (table_ != nullptr) {
    Lease* self = this;
    pending_ = std::max(pending_, table_->journal_locked({&self, 1}));
  }
}

std::uint64_t CapabilityTable::Lease::release_async() {
  flush();
  table_ = nullptr;
  if (lock_.owns_lock()) {
    lock_.unlock();
  }
  return std::exchange(pending_, 0);
}

void CapabilityTable::Lease::finish() noexcept {
  CapabilityTable* table = table_;
  if (table != nullptr) {
    const std::uint64_t ticket = release_async();
    table->wait_durable(ticket);
  }
}

void CapabilityTable::Lease::release_pair(Lease& a, Lease& b) noexcept {
  CapabilityTable* table = a.table_ != nullptr ? a.table_ : b.table_;
  if (table == nullptr) {
    return;
  }
  const std::array<Lease*, 2> members{&a, &b};
  // Tickets are one monotone volume-wide sequence: waiting for the largest
  // covers every earlier flush() of either member.
  const std::uint64_t ticket =
      std::max({table->journal_locked(members),
                std::exchange(a.pending_, std::uint64_t{0}),
                std::exchange(b.pending_, std::uint64_t{0})});
  a = Lease();
  b = Lease();
  table->wait_durable(ticket);
}

// ---- the table ----------------------------------------------------------

CapabilityTable::CapabilityTable(
    std::shared_ptr<const ProtectionScheme> scheme, Port server_port,
    std::uint64_t seed, std::size_t shards,
    std::shared_ptr<storage::GroupCommitter> committer, Payloads& payloads)
    : scheme_(std::move(scheme)),
      server_port_(server_port),
      committer_(std::move(committer)),
      payloads_(payloads) {
  if (scheme_ == nullptr) {
    throw UsageError("ObjectStore requires a protection scheme");
  }
  if (shards == 0 || (shards & (shards - 1)) != 0) {
    throw UsageError("ObjectStore shard count must be a power of two");
  }
  if (durable() && committer_->backend()->shard_count() != shards) {
    throw UsageError(
        "ObjectStore: backend shard count must match the store's "
        "(object-number layout is per-shard)");
  }
  shards_.reserve(shards);
  // Highest slot index a shard can ever hold in the 24-bit object space --
  // fixes the size of its chunk-pointer directory up front, so the
  // directory itself never reallocates under lock-free readers.
  const std::size_t max_slots = ObjectNumber::kMask / shards + 1;
  for (std::size_t s = 0; s < shards; ++s) {
    // Distinct per-shard RNG streams derived from the table seed.
    shards_.push_back(std::make_unique<TableShard>(
        seed ^ (0x9E3779B97F4A7C15ULL * (s + 1)), max_slots));
  }
  if (durable()) {
    if (!committer_->backend()->empty()) {
      recover();
    }
    std::vector<std::size_t> streams(shards);
    std::iota(streams.begin(), streams.end(), std::size_t{0});
    imager_ = committer_->add_imager(std::move(streams),
                                     [this] { return image_all(); });
  }
}

CapabilityTable::~CapabilityTable() = default;

CapabilityTable::Lease CapabilityTable::reserve() {
  const std::size_t mask = shards_.size() - 1;
  const std::size_t start =
      cursor_.fetch_add(1, std::memory_order_relaxed) & mask;
  std::size_t chosen = start;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::size_t s = (start + i) & mask;
    if (shards_[s]->free_count.load(std::memory_order_relaxed) > 0) {
      chosen = s;
      break;
    }
  }
  TableShard& shard = *shards_[chosen];
  std::unique_lock lock(shard.mutex);
  std::uint32_t index;
  if (!shard.free_list.empty()) {
    index = shard.free_list.back();
    shard.free_list.pop_back();
    shard.free_count.fetch_sub(1, std::memory_order_relaxed);
  } else {
    index = shard.slot_limit.load(std::memory_order_relaxed);
    if (index > (ObjectNumber::kMask - chosen) / shards_.size()) {
      throw UsageError("ObjectStore: 24-bit object space exhausted");
    }
  }
  TableSlot& slot = slot_grow(shard, index);
  {
    // Seqlock transition: concurrent lock-free probes of this slot see
    // either the pre-create or post-create generation, never a torn mix.
    const common::SeqCount::WriteGuard guard(slot.seq);
    slot.secret = scheme_->new_secret(shard.rng);
    bump_epoch(slot);  // stale cache entries for a reused number die here
    slot.live.store(true, std::memory_order_release);
  }
  live_count_.fetch_add(1, std::memory_order_relaxed);
  return Lease(this, Rights::all(),
               ObjectNumber(static_cast<std::uint32_t>(
                   index * shards_.size() + chosen)),
               std::move(lock));
}

Capability CapabilityTable::finish_create(Lease&& lease, Rights rights) {
  const ObjectNumber object = lease.object;
  TableShard& shard = shard_of(object);
  const std::uint64_t secret = slot_at(shard, slot_index(object)).secret;
  if (durable()) {
    Writer& image = shard.scratch[0];
    image.clear();
    payloads_.encode(image, object);
    lease.pending_ = append_locked(*committer_, shards_, [&](const auto& emit) {
      emit({storage::RecordType::create, object, secret, image.buffer()});
    });
  }
  lease.finish();  // minting needs no lock: the secret is copied
  return scheme_->mint(server_port_, object, secret, rights);
}

void CapabilityTable::wait_durable(std::uint64_t ticket) {
  if (ticket != 0 && committer_ != nullptr) {
    committer_->wait_durable(ticket);
  }
}

const TableSlot* CapabilityTable::note_read(TableShard& shard,
                                            std::size_t index) const {
  if (index >= shard.slot_limit.load(std::memory_order_relaxed)) {
    return nullptr;  // never created: no record to wait for
  }
  const TableSlot& slot = slot_at(shard, index);
  if (committer_ != nullptr) {
    // Dead slots too: a refusal may stem from a destroy not yet durable.
    storage::RequestScope::note_read(
        *committer_, slot.ticket.load(std::memory_order_relaxed));
  }
  return slot.live.load(std::memory_order_relaxed) ? &slot : nullptr;
}

/// The one locked validation: find the live slot (no_such_object), prove
/// the capability against its secret -- through `hit` when the probe's
/// epoch still stands, else through the cache -- and check `required`
/// (permission_denied).  Caller holds the shard mutex.
Result<Rights> CapabilityTable::validate_locked(TableShard& shard,
                                                const Capability& cap,
                                                Rights required,
                                                const FastHit* hit) {
  const TableSlot* slot = note_read(shard, slot_index(cap.object));
  if (slot == nullptr) {
    return ErrorCode::no_such_object;
  }
  Rights granted;
  if (hit != nullptr &&
      slot->epoch.load(std::memory_order_relaxed) == hit->epoch) {
    granted = hit->granted;  // same secret generation: the hit stands
  } else {
    const Result<Rights> validated =
        validate_cached(*scheme_, shard, *slot, cap);
    if (!validated.ok()) {
      return validated.error();
    }
    granted = validated.value();
  }
  if (!granted.has_all(required)) {
    return ErrorCode::permission_denied;
  }
  return granted;
}

Result<CapabilityTable::Lease> CapabilityTable::open(const Capability& cap,
                                                     Rights required) {
  TableShard& shard = shard_of(cap.object);
  const std::optional<FastHit> hit = validate_fast(shard, cap);
  if (hit.has_value() && !hit->granted.has_all(required)) {
    return ErrorCode::permission_denied;  // valid cap, insufficient rights
  }
  std::unique_lock lock(shard.mutex);
  const Result<Rights> granted =
      validate_locked(shard, cap, required, hit ? &*hit : nullptr);
  if (!granted.ok()) {
    return granted.error();
  }
  return Lease(this, granted.value(), cap.object, std::move(lock));
}

Result<Rights> CapabilityTable::check_locked(const Capability& cap,
                                             Rights required) {
  TableShard& shard = shard_of(cap.object);
  const std::unique_lock lock(shard.mutex);
  return validate_locked(shard, cap, required);
}

Result<std::pair<CapabilityTable::Lease, CapabilityTable::Lease>>
CapabilityTable::open2(const Capability& cap_a, Rights required_a,
                       const Capability& cap_b, Rights required_b) {
  const std::size_t sa = shard_index(cap_a.object);
  const std::size_t sb = shard_index(cap_b.object);
  std::unique_lock<common::CountedMutex> lock_a;
  std::unique_lock<common::CountedMutex> lock_b;
  lock_pair(*shards_[sa], sa, *shards_[sb], sb, lock_a, lock_b);
  const Result<Rights> granted_a =
      validate_locked(*shards_[sa], cap_a, required_a);
  if (!granted_a.ok()) {
    return granted_a.error();
  }
  const Result<Rights> granted_b =
      validate_locked(*shards_[sb], cap_b, required_b);
  if (!granted_b.ok()) {
    return granted_b.error();
  }
  return std::pair{
      Lease(this, granted_a.value(), cap_a.object, std::move(lock_a)),
      Lease(this, granted_b.value(), cap_b.object, std::move(lock_b))};
}

Result<Capability> CapabilityTable::restrict(const Capability& cap,
                                             Rights mask) {
  TableShard& shard = shard_of(cap.object);
  const std::unique_lock lock(shard.mutex);
  const Result<Rights> granted = validate_locked(shard, cap, Rights::none());
  if (!granted.ok()) {
    return granted.error();
  }
  return scheme_->mint(server_port_, cap.object,
                       slot_at(shard, slot_index(cap.object)).secret,
                       granted.value().intersect(mask));
}

Result<Capability> CapabilityTable::revoke(const Capability& cap) {
  TableShard& shard = shard_of(cap.object);
  std::unique_lock lock(shard.mutex);
  const Result<Rights> granted = validate_locked(shard, cap, rights::kAdmin);
  if (!granted.ok()) {
    return granted.error();
  }
  TableSlot& slot = slot_at(shard, slot_index(cap.object));
  {
    // Seqlock transition: the epoch bump is what kills every cached
    // fast-path hit for the rotated secret -- instant, exact revocation.
    const common::SeqCount::WriteGuard guard(slot.seq);
    slot.secret = scheme_->new_secret(shard.rng);
    bump_epoch(slot);
  }
  const std::uint64_t secret = slot.secret;
  std::uint64_t ticket = 0;
  if (durable()) {
    ticket = append_locked(*committer_, shards_, [&](const auto& emit) {
      emit({storage::RecordType::rotate, cap.object, secret, {}});
    });
  }
  lock.unlock();
  wait_durable(ticket);
  return scheme_->mint(server_port_, cap.object, secret, granted.value());
}

Result<void> CapabilityTable::destroy(Lease&& lease) {
  if (lease.table_ == nullptr || !lease.lock_.owns_lock()) {
    throw UsageError("ObjectStore::destroy: empty accessor");
  }
  if (!lease.rights.has_all(rights::kDestroy)) {
    return ErrorCode::permission_denied;
  }
  const ObjectNumber object = lease.object;
  TableShard& shard = shard_of(object);
  const std::size_t index = slot_index(object);
  TableSlot& slot = slot_at(shard, index);
  {
    // Seqlock transition: a concurrent fast probe either sees the old live
    // generation (linearized before this destroy) or fails/misses.
    const common::SeqCount::WriteGuard guard(slot.seq);
    slot.live.store(false, std::memory_order_release);
    bump_epoch(slot);
  }
  payloads_.reset(object, /*dispose=*/false);
  live_count_.fetch_sub(1, std::memory_order_relaxed);
  shard.free_list.push_back(static_cast<std::uint32_t>(index));
  shard.free_count.fetch_add(1, std::memory_order_relaxed);
  // The destroy record supersedes any still-unflushed mutation marks; an
  // earlier explicit flush() may have left a pending ticket.
  lease.dirty_ = false;
  lease.deltas_.clear();
  if (durable()) {
    lease.pending_ = std::max(
        lease.pending_,
        append_locked(*committer_, shards_, [&](const auto& emit) {
          emit({storage::RecordType::destroy, object, 0, {}});
        }));
  }
  lease.finish();
  return {};
}

Result<Capability> CapabilityTable::mint_for(ObjectNumber object,
                                             Rights rights) {
  TableShard& shard = shard_of(object);
  const std::unique_lock lock(shard.mutex);
  const TableSlot* slot = note_read(shard, slot_index(object));
  if (slot == nullptr) {
    return ErrorCode::no_such_object;
  }
  return scheme_->mint(server_port_, object, slot->secret, rights);
}

void CapabilityTable::for_each_live(
    const std::function<void(ObjectNumber)>& fn) {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    TableShard& shard = *shards_[s];
    const std::unique_lock lock(shard.mutex);
    const std::uint32_t limit =
        shard.slot_limit.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < limit; ++i) {
      if (slot_at(shard, i).live.load(std::memory_order_relaxed)) {
        fn(ObjectNumber(static_cast<std::uint32_t>(i * shards_.size() + s)));
      }
    }
  }
  // After the scan: every effect it saw was enqueued before its shard's
  // lock was taken, so the newest effect from here covers them all.
  if (committer_ != nullptr) {
    committer_->note_unattributed_read();
  }
}

void CapabilityTable::compact() {
  if (durable()) {
    committer_->checkpoint();
  }
}

CapabilityTable::CacheStats CapabilityTable::cache_stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    total.hits += shard->cache_hits.load(std::memory_order_relaxed);
    total.misses += shard->cache_misses.load(std::memory_order_relaxed);
  }
  return total;
}

CapabilityTable::DurabilityStats CapabilityTable::durability_stats() const {
  DurabilityStats total = recovery_stats_;
  for (const auto& shard : shards_) {
    const std::unique_lock lock(shard->mutex);
    total.journal_records += shard->journal_records;
    total.snapshots += shard->snapshots;
  }
  return total;
}

std::uint64_t CapabilityTable::journal_locked(std::span<Lease* const> leases) {
  std::array<std::span<const std::uint8_t>, 2> images{};
  bool any = false;
  for (std::size_t i = 0; i < leases.size(); ++i) {
    Lease& lease = *leases[i];
    if (lease.table_ == nullptr || !durable()) {
      lease.dirty_ = false;
      lease.deltas_.clear();
    } else if (lease.dirty_) {
      lease.deltas_.clear();  // the full image already holds the patches
      Writer& image = shard_of(lease.object).scratch[i];
      image.clear();
      payloads_.encode(image, lease.object);
      images[i] = image.buffer();
      any = true;
    } else {
      any = any || !lease.deltas_.empty();
    }
  }
  if (!any) {
    return 0;
  }
  const std::uint64_t ticket =
      append_locked(*committer_, shards_, [&](const auto& emit) {
        for (std::size_t i = 0; i < leases.size(); ++i) {
          const Lease& lease = *leases[i];
          if (lease.dirty_) {
            emit({storage::RecordType::mutate, lease.object, 0, images[i]});
          }
          for (const Buffer& patch : lease.deltas_) {
            emit({storage::RecordType::delta, lease.object, 0, patch});
          }
        }
      });
  for (Lease* lease : leases) {
    lease->dirty_ = false;
    lease->deltas_.clear();
  }
  return ticket;
}

/// The checkpoint imager: serializes each shard's live slots into an image
/// and queues it (install_snapshot) under the shard's lock.  All shards or
/// none, try-locked: a lease may be held across an outgoing call, which
/// waits on the flusher for its floor.
///
/// Records are LSN-stamped at encode time under the shard lock and
/// enqueued before it drops, so `shard.lsn` covers exactly the records
/// with smaller tickets than the image's.  Those records -- and the
/// reply-stream floors of their requests, which were enqueued earlier
/// still -- land in the image's group or an earlier one, so no crash image
/// and no backup ever holds an effect without its floor.  Records encoded
/// after the image carry larger LSNs and ride its checkpoint cycle or a
/// later one, beside it in the fresh log.
bool CapabilityTable::image_all() {
  std::vector<std::unique_lock<common::CountedMutex>> locks;
  for (const auto& shard : shards_) {
    if (!locks.emplace_back(shard->mutex, std::try_to_lock).owns_lock()) {
      return false;
    }
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    TableShard& shard = *shards_[s];
    std::vector<storage::SnapshotSlot> slots;
    const std::uint32_t limit =
        shard.slot_limit.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < limit; ++i) {
      const TableSlot& slot = slot_at(shard, i);
      if (!slot.live.load(std::memory_order_relaxed)) {
        continue;
      }
      storage::SnapshotSlot image;
      image.object =
          ObjectNumber(static_cast<std::uint32_t>(i * shards_.size() + s));
      image.secret = slot.secret;
      Writer w;
      payloads_.encode(w, image.object);
      image.payload = w.take();
      slots.push_back(std::move(image));
    }
    ++shard.snapshots;
    committer_->install_snapshot(s, storage::encode_snapshot(slots, shard.lsn));
    locks[s].unlock();
  }
  return true;
}

/// Rebuilds every shard from snapshot-then-journal.  Runs from the
/// constructor, before any other thread can reach the table, so plain
/// stores suffice.  Every record is applied idempotently (replaying a
/// record the table already reflects converges to the same state).
void CapabilityTable::recover() {
  const storage::Backend& volume = *committer_->backend();
  recovery_stats_.recovered = true;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    TableShard& shard = *shards_[s];
    std::vector<storage::SnapshotSlot> snapshot;
    std::uint64_t applied_lsn = 0;
    if (!storage::decode_snapshot(volume.read_snapshot(s), snapshot,
                                  applied_lsn)) {
      throw UsageError("ObjectStore: corrupt shard snapshot on recovery");
    }
    for (const storage::SnapshotSlot& image : snapshot) {
      TableSlot& slot = slot_grow(shard, slot_index(image.object));
      Reader r(image.payload);
      if (!payloads_.decode(r, image.object)) {
        throw UsageError("ObjectStore: corrupt payload in shard snapshot");
      }
      slot.secret = image.secret;
      slot.live.store(true, std::memory_order_relaxed);
    }
    shard.lsn = applied_lsn;
    // read_journal holds only the records above the image's LSN.
    for (const storage::Record& record :
         storage::decode_journal(volume.read_journal(s))) {
      shard.lsn = record.lsn;
      if (shard_index(record.object) != s) {
        continue;  // record addressed to the wrong shard: ignore
      }
      if (record.type >= storage::RecordType::reply_floor) {
        throw UsageError("ObjectStore: reply-stream record in a shard journal");
      }
      TableSlot& slot = slot_grow(shard, slot_index(record.object));
      const bool live = slot.live.load(std::memory_order_relaxed);
      Reader r(record.payload);
      // A payload's external resources are released BEFORE its successor
      // decodes: decode side effects may re-acquire the very same
      // resources (the block server re-claims its disk block on every
      // mutate replay), so the order must be release-then-rebuild.
      switch (record.type) {
        case storage::RecordType::create:
          payloads_.reset(record.object, /*dispose=*/live);
          if (!payloads_.decode(r, record.object)) {
            throw UsageError("ObjectStore: corrupt create payload in journal");
          }
          slot.secret = record.secret;
          slot.live.store(true, std::memory_order_relaxed);
          bump_epoch(slot);
          break;
        case storage::RecordType::mutate:
          if (!live) {
            break;  // mutation of an object destroyed later in a replayed
                    // prefix -- or noise; either way the slot stays dead
          }
          payloads_.reset(record.object, /*dispose=*/true);
          if (!payloads_.decode(r, record.object)) {
            throw UsageError("ObjectStore: corrupt mutate payload in journal");
          }
          break;
        case storage::RecordType::delta:
          if (!live) {
            break;  // patch for an object destroyed later in the prefix
          }
          // No dispose: the patch edits the live payload in place, and the
          // codec manages any external resources the edit touches.
          if (!payloads_.applies_deltas()) {
            throw UsageError(
                "ObjectStore: delta record in journal but no apply_delta "
                "codec configured");
          }
          if (!payloads_.apply_delta(r, record.object)) {
            throw UsageError("ObjectStore: corrupt delta payload in journal");
          }
          break;
        case storage::RecordType::rotate:
          if (live) {
            slot.secret = record.secret;
            bump_epoch(slot);
          }
          break;
        case storage::RecordType::destroy:
          payloads_.reset(record.object, /*dispose=*/live);
          slot.live.store(false, std::memory_order_relaxed);
          bump_epoch(slot);
          break;
        case storage::RecordType::reply_floor:
        case storage::RecordType::reply_body:
        case storage::RecordType::snapshot:
        case storage::RecordType::incarnation:
          break;  // rejected above
      }
    }
    // Free lists: every slot index below the high-water mark that is not
    // live was on the free list when the journal ended.
    std::uint32_t live_in_shard = 0;
    shard.free_list.clear();
    const std::uint32_t limit =
        shard.slot_limit.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < limit; ++i) {
      if (slot_at(shard, i).live.load(std::memory_order_relaxed)) {
        ++live_in_shard;
      } else {
        shard.free_list.push_back(i);
      }
    }
    shard.free_count.store(static_cast<std::uint32_t>(shard.free_list.size()),
                           std::memory_order_relaxed);
    live_count_.fetch_add(live_in_shard, std::memory_order_relaxed);
  }
  recovery_stats_.recovered_objects = live_count();
}

}  // namespace amoeba::core
