// Server-side object table: per-object payload plus the secret random
// number, bound to one protection scheme and one server put-port.
//
// ObjectStore<T> is the typed face of core::CapabilityTable
// (capability_table.hpp), which every server shares and which is compiled
// once: slots, secrets and epochs, validation and its lock-free probe,
// restriction, revocation, journaling, checkpoint images and recovery.
// What depends on T stays here: the payloads, stored by the table's
// (shard, index) in address-stable chunks, their codecs (Durability<T>),
// and the typed accessors.  The table reaches the payloads only through
// CapabilityTable::Payloads, and only under the owning shard's lock, so a
// payload pointer stays valid while its accessor holds that lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "amoeba/core/capability_table.hpp"

namespace amoeba::core {

/// Attaches a store to a storage volume.  `encode`/`decode` are the
/// payload codecs (a server declares how its object type serializes);
/// both are required when `committer` is set.  A non-empty volume
/// triggers recovery; an empty one starts a fresh durable store.
template <typename T>
struct Durability {
  /// The volume's group-commit queue, and through backend() the volume
  /// itself; null = in-memory only.  Journal appends and snapshot images
  /// are enqueued and written by its flusher, and mutators block -- after
  /// releasing the shard lock -- on their commit ticket.
  std::shared_ptr<storage::GroupCommitter> committer;
  std::function<void(Writer&, const T&)> encode;
  std::function<bool(Reader&, T&)> decode;
  /// Applies one RecordType::delta patch (journaled by a handler through
  /// Opened::mark_dirty_delta) to a live payload during recovery replay.
  /// Must be idempotent (replayed prefixes apply patches twice).  Required
  /// iff any handler journals deltas.
  std::function<bool(Reader&, T&)> apply_delta;
  /// Called during RECOVERY REPLAY before a decoded payload is overwritten
  /// or discarded (create-over-live, mutate, destroy) -- servers whose
  /// payloads own external resources (page-tree references) release them
  /// here.  Never called on the live operation paths, where handlers
  /// already manage those resources explicitly.
  std::function<void(T&)> dispose;
};

namespace detail {

/// An ObjectStore's payloads, one chunked array per shard indexed by the
/// table's slot index, and their codecs: the table's Payloads.
template <typename T>
class PayloadChunks : public CapabilityTable::Payloads {
 public:
  PayloadChunks(Durability<T> durability, std::size_t shards)
      : codec_(std::move(durability)), shards_(shards), chunks_(shards) {
    if (codec_.committer != nullptr && (!codec_.encode || !codec_.decode)) {
      throw UsageError("ObjectStore: durable stores need payload codecs");
    }
  }

  /// The payload of `object`, its chunk allocated on first use.  Caller
  /// holds the owning shard's lock.
  T& at(ObjectNumber object) {
    const std::size_t index = object.value() / shards_;
    auto& chunks = chunks_[object.value() & (shards_ - 1)];
    const std::size_t c = index / CapabilityTable::kChunkSlots;
    if (c >= chunks.size()) {
      chunks.resize(c + 1);
    }
    if (chunks[c] == nullptr) {
      chunks[c] = std::make_unique<T[]>(CapabilityTable::kChunkSlots);
    }
    return chunks[c][index % CapabilityTable::kChunkSlots];
  }

  void encode(Writer& out, ObjectNumber object) final {
    codec_.encode(out, at(object));
  }
  bool decode(Reader& in, ObjectNumber object) final {
    T value{};
    if (!codec_.decode(in, value)) {
      return false;
    }
    at(object) = std::move(value);
    return true;
  }
  bool apply_delta(Reader& in, ObjectNumber object) final {
    return codec_.apply_delta(in, at(object));
  }
  [[nodiscard]] bool applies_deltas() const final {
    return static_cast<bool>(codec_.apply_delta);
  }
  void reset(ObjectNumber object, bool dispose) final {
    T& value = at(object);
    if (dispose && codec_.dispose) {
      codec_.dispose(value);
    }
    value = T{};
  }

 protected:
  Durability<T> codec_;

 private:
  std::size_t shards_;
  std::vector<std::vector<std::unique_ptr<T[]>>> chunks_;
};

}  // namespace detail

/// The table's operations that do not touch a payload -- check, restrict,
/// revoke, mint_for, compact, the statistics -- are CapabilityTable's own.
/// The payloads are a base constructed before the table: recovery, run by
/// the table's constructor, fills them, and the table (its checkpoint
/// imager) is destroyed first.
template <typename T>
class ObjectStore : private detail::PayloadChunks<T>, public CapabilityTable {
 public:
  ObjectStore(std::shared_ptr<const ProtectionScheme> scheme,
              Port server_port, std::uint64_t seed,
              std::size_t shards = kDefaultShards,
              Durability<T> durability = {})
      : detail::PayloadChunks<T>(std::move(durability), shards),
        CapabilityTable(std::move(scheme), server_port, seed, shards,
                        this->codec_.committer,
                        static_cast<detail::PayloadChunks<T>&>(*this)) {}

  /// Exclusive accessor to one live object: a Lease (the shard lock,
  /// `rights`, `object`, and the journal marks -- mark_dirty,
  /// mark_dirty_delta, flush) plus the payload.  `value` stays valid and
  /// data-race-free until the Opened is dropped.
  class Opened : public Lease {
   public:
    T* value = nullptr;

    Opened() = default;
    Opened(Opened&& other) noexcept
        : Lease(std::move(other)), value(std::exchange(other.value, nullptr)) {}
    Opened& operator=(Opened&& other) noexcept {
      Lease::operator=(std::move(other));
      value = std::exchange(other.value, nullptr);
      return *this;
    }
    ~Opened() = default;

    /// Lease::release_async(); `value` is no longer the caller's.
    [[nodiscard]] std::uint64_t release_async() {
      value = nullptr;
      return Lease::release_async();
    }

   private:
    friend class ObjectStore;
    Opened(T* payload, Lease&& lease)
        : Lease(std::move(lease)), value(payload) {}
  };

  /// Two objects opened atomically (open2).  When both capabilities name
  /// the same shard, `b` shares `a`'s lock.  Released together
  /// (Lease::release_pair): one atomic journal group, one wait.
  struct Opened2 {
    Opened a;
    Opened b;

    Opened2() = default;
    Opened2(Opened2&& other) noexcept = default;
    Opened2& operator=(Opened2&& other) noexcept {
      if (this != &other) {
        release();
        a = std::move(other.a);
        b = std::move(other.b);
      }
      return *this;
    }
    ~Opened2() { release(); }

   private:
    void release() noexcept {
      Lease::release_pair(a, b);
      a.value = nullptr;
      b.value = nullptr;
    }
  };

  /// Creates an object and mints its owner capability carrying `rights`.
  [[nodiscard]] Capability create(T value, Rights rights = Rights::all()) {
    Lease lease = reserve();
    this->at(lease.object) = std::move(value);
    return finish_create(std::move(lease), rights);
  }

  /// Validates `cap` for `required` (CapabilityTable::open) and opens its
  /// object.
  [[nodiscard]] Result<Opened> open(const Capability& cap, Rights required) {
    Result<Lease> lease = CapabilityTable::open(cap, required);
    if (!lease.ok()) {
      return lease.error();
    }
    return opened(std::move(lease).value());
  }

  /// Opens two objects atomically (the bank-transfer shape).
  [[nodiscard]] Result<Opened2> open2(const Capability& cap_a,
                                      Rights required_a,
                                      const Capability& cap_b,
                                      Rights required_b) {
    auto leases =
        CapabilityTable::open2(cap_a, required_a, cap_b, required_b);
    if (!leases.ok()) {
      return leases.error();
    }
    Opened2 pair;
    pair.a = opened(std::move(leases.value().first));
    pair.b = opened(std::move(leases.value().second));
    return pair;
  }

  /// Destroys the object; its number returns to the owning shard's free
  /// list.
  [[nodiscard]] Result<void> destroy(const Capability& cap) {
    auto opened = open(cap, rights::kDestroy);
    if (!opened.ok()) {
      return opened.error();
    }
    return destroy(std::move(opened.value()));
  }

  /// Destroys through an already-held accessor (for handlers that opened
  /// the object, inspected it, and then decide to destroy -- re-opening
  /// would self-deadlock on the shard mutex).  Requires the destroy right
  /// on the accessor, like the capability form.
  [[nodiscard]] Result<void> destroy(Opened&& opened) {
    Result<void> destroyed = CapabilityTable::destroy(std::move(opened));
    if (destroyed.ok()) {
      opened.value = nullptr;
    }
    return destroyed;
  }

  /// Visits every live object under its shard lock:
  /// fn(ObjectNumber, const T&).  One shard locked at a time -- the
  /// restart paths use this to rebuild derived server state (memory
  /// budgets, the bank's master account) after recovery.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for_each_live([&](ObjectNumber object) {
      fn(object, static_cast<const T&>(this->at(object)));
    });
  }

 private:
  [[nodiscard]] Opened opened(Lease&& lease) {
    return Opened(&this->at(lease.object), std::move(lease));
  }
};

}  // namespace amoeba::core
