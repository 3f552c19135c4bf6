// At-most-once duplicate suppression (docs/PROTOCOL.md §5) and its reply
// stream (§8.4).
//
// Requests stamped with kFlagAtMostOnce carry the issuing transport's
// (client, seq) identity, and the cache keeps one entry per client, keyed
// by the stamped source machine plus that identity.  A retransmitted
// request whose original already completed re-sends the cached reply
// WITHOUT re-executing the handler (critical for non-idempotent operations
// like bank.transfer and std_destroy); one whose original is still
// executing is dropped silently (the client's next backoff tick retries).
// Batch envelopes are suppressed as a unit: the whole batched reply is
// cached under the envelope's (client, seq).
//
// The cache is SHARDED by client-key hash (16 stripes, each with its own
// mutex and map), so claim/publish on the request path never serializes
// across workers.  The window / client-cap limits stay GLOBAL (atomic
// totals), so the observable bounds are those of one table.  Each stripe
// keeps its clients with cached replies in one LRU list and its floor-only
// tombstones in another, each sorted by last use: the global least
// recently used victim is the oldest of the 16 list heads, so eviction
// costs O(stripes), not O(clients).
//
// Restart semantics (docs/PROTOCOL.md §5.5, §8.4): attach() wires the cache
// to the reply stream (storage/reply_stream.hpp) of the volume its group
// committer writes, and draws this boot's INCARNATION: one more than the
// highest the stream recorded, enqueued as a record that rides the first
// flush cycle.  Every reply carries it; a request stamped with another
// incarnation whose seq the cache neither holds nor covers was addressed
// to a previous boot, and is answered `restarted`, never executed.
//
// So a fresh claim owes the volume its reply_floor record -- the highest
// sequence number ever claimed -- only if the request writes something.
// A Floor parks in the request's storage::RequestScope; the committer
// enqueues it just before the request's first effect on the cache's
// committer (or the scope settles it before an outgoing call), so it takes
// a smaller ticket than every effect it guards, and nothing reaches the
// volume out of queue order: a crash image never holds an effect without
// its floor.  A request that does neither
// appends no floor and no body.  An unstamped request (incarnation 0: the transport has not heard
// from this server yet) cannot be told apart from a pre-restart duplicate,
// so its floor is enqueued at claim.
//
// Completed reply BODIES of requests that journaled their floor follow as
// reply_body records, best effort (no wait; a body rides the next cycle an
// effect or a blocking wait starts), so a post-restart duplicate of a
// recently completed transaction is re-answered instead of timing out.
// Each record is O(1) bytes.  The cache is the reply stream's checkpoint
// imager: at each of the volume's checkpoints the committer's flusher has
// it image the in-memory cache and the incarnation -- bounded like the
// cache itself -- and the checkpoint frame carries the image.
#pragma once

#include <array>
#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>

#include "amoeba/common/serial.hpp"
#include "amoeba/net/message.hpp"
#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/reply_stream.hpp"

namespace amoeba::rpc {

/// A completed reply as the reply stream persists it (docs/PROTOCOL.md
/// §8.4): everything a re-send needs except the fields recomputed per
/// transmission (dest, opcode) or known from the persisted key (client,
/// seq).  `flags varint | status varint | mask u8 | [capability 16 bytes,
/// mask bit 4] | params[i] varint for each set mask bit i (0..3) | data
/// length varint + bytes`; a zero capability or param is left out.
void encode_reply_body(const net::Message& reply, Buffer& out);
/// The reply encode_reply_body wrote, echoing `client` and `seq`; nullopt
/// for bytes it could not have written (so what decodes re-encodes to the
/// same bytes): a short field, an overlong varint, a flags or status above
/// u16, an unknown mask bit, a masked capability or param that is zero,
/// or trailing bytes.
[[nodiscard]] std::optional<net::Message> decode_reply_body(
    std::span<const std::uint8_t> body, std::uint64_t client,
    std::uint64_t seq);

/// Not copyable or movable (mutexes): the committer's imager holds `this`.
class ReplyCache {
 public:
  /// Counters and occupancy of the table.  Snapshot under the stripe
  /// locks; safe to take while workers run.
  struct Stats {
    std::uint64_t duplicates_suppressed = 0;  // retransmits not re-executed
    std::uint64_t replies_resent = 0;   // of those, answered from the cache
    std::uint64_t evicted_entries = 0;  // cached replies aged out
    std::uint64_t evicted_clients = 0;  // whole client entries aged out
    std::uint64_t eviction_visits = 0;  // entries read choosing LRU victims
    std::uint64_t entries = 0;          // live cached replies
    std::uint64_t clients = 0;          // live client entries
    std::uint64_t floorless_claims = 0;  // fresh claims that wrote no floor
    std::uint64_t barrier_parks = 0;     // replies parked on the read barrier
  };

  enum class Verdict {
    fresh,      // unseen seq, claimed as executing: run the handler
    drop,       // duplicate of an executing or evicted seq: say nothing
    resend,     // duplicate of a completed seq: cached reply copied out
    restarted,  // unseen seq stamped with another incarnation: refuse
  };

  /// Total client entries (live + floor-only tombstones) may reach
  /// kTombstoneFactor x max_clients before the LRU tombstone is erased
  /// outright -- the bound that keeps server memory finite against
  /// client-id churn (the id is a self-chosen wire field).
  static constexpr std::size_t kTombstoneFactor = 8;

  /// A fresh claim's reply_floor record, written ahead of the request's
  /// effects: enqueued at once for an unstamped request, otherwise
  /// deferred in `scope` (see the header comment).
  class Floor final : public storage::RequestScope::Deferred {
   public:
    Floor(ReplyCache& cache, const net::Delivery& request,
          storage::RequestScope& scope);
    void enqueue() override;
    /// The floor's commit ticket; 0 until it is enqueued.
    [[nodiscard]] std::uint64_t ticket() const { return ticket_; }

   private:
    ReplyCache& cache_;
    std::uint32_t src_;
    std::uint64_t client_;
    std::uint64_t seq_;
    std::uint64_t ticket_ = 0;
  };

  /// O(stripes): each stripe keeps its entry count as it changes.
  [[nodiscard]] Stats stats() const;

  /// Stats::entries recounted by walking every client under its stripe
  /// lock, O(clients): the check of the running count.
  [[nodiscard]] std::uint64_t recount_entries() const;

  /// Service::set_reply_cache_limits' bounds.  Thread-safe.
  void set_limits(std::size_t window_per_client, std::size_t max_clients);

  /// Drops every cached reply and client entry.  Thread-safe.
  void flush();

  /// Restores the rows `committer`'s reply stream holds, brings them within
  /// the limits (least recently used first, like live overflow), draws
  /// this boot's incarnation and registers the stream's imager.  Call once,
  /// before the first claim.
  void attach(std::shared_ptr<storage::GroupCommitter> committer);

  /// The committer of attach(); null for a cache without a volume.
  [[nodiscard]] storage::GroupCommitter* committer() const {
    return committer_.get();
  }
  /// This boot's incarnation and its record's ticket; 0 without a volume.
  [[nodiscard]] std::uint64_t incarnation() const { return incarnation_; }
  [[nodiscard]] std::uint64_t incarnation_ticket() const {
    return incarnation_ticket_;
  }

  /// Classifies one at-most-once request and, for `fresh`, claims its seq
  /// (marks it executing).  Fills `cached` on `resend`.  Holds only the
  /// owning stripe's lock; limit enforcement runs after it drops.
  [[nodiscard]] Verdict claim(const net::Delivery& request,
                              net::Message& cached);

  /// Publishes the reply of a claimed request and ages out entries beyond
  /// the client's window.  On a volume, a claim whose floor was journaled
  /// journals its body too, best effort and WITHOUT waiting: the floor --
  /// durable before the reply left -- carries the never-twice guarantee;
  /// the body only upgrades a post-restart duplicate from "dropped" to
  /// "re-answered".  One whose floor was not counts as floorless.
  void publish(const net::Delivery& request, const net::Message& reply,
               bool floor_journaled);

  void count_barrier_park() {
    barrier_parks_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  /// One client's slice of the cache.  `replies` holds the states of its
  /// recent transactions ordered by seq; seqs at or below `floor` were
  /// evicted and are known stale (dropped without execution -- the
  /// at-most-once-safe answer for a seq we no longer remember).
  struct CachedReply {
    bool done = false;   // false: original still executing
    net::Message reply;  // valid once done (pre-filter, pre-dest form)
  };
  /// Clients are keyed by the UNFORGEABLE stamped source machine plus the
  /// self-chosen client id, so no machine can touch another's entries.
  struct ClientKey {
    std::uint32_t src = 0;
    std::uint64_t client = 0;
    friend bool operator==(const ClientKey&, const ClientKey&) = default;
  };
  struct ClientKeyHash {
    [[nodiscard]] std::size_t operator()(const ClientKey& k) const {
      return std::hash<std::uint64_t>{}(k.client ^
                                        (std::uint64_t{k.src} << 32));
    }
  };
  using LruList = std::list<ClientKey>;  // least recently used first
  struct ClientEntry {
    std::map<std::uint64_t, CachedReply> replies;
    std::uint64_t floor = 0;
    std::uint64_t last_used = 0;   // the tick of its last splice to a tail
    std::size_t executing = 0;     // replies entries not yet done
    LruList::iterator lru;         // its node: in `loaded` iff replies held
  };
  /// One stripe; the stripe index is the client-key hash folded to
  /// kStripes.  Counters are per-stripe (summed by stats()); `entries` is
  /// kept at every claim, restore, window trim, demotion and flush.
  struct Stripe {
    mutable std::mutex mutex;
    std::unordered_map<ClientKey, ClientEntry, ClientKeyHash> map;
    LruList loaded;      // clients holding cached replies
    LruList tombstones;  // floor-only clients
    Stats counters;      // `clients` derived on read (map.size())
  };
  static constexpr std::size_t kStripes = 16;

  [[nodiscard]] Stripe& stripe_for(const ClientKey& key) {
    return stripes_[ClientKeyHash{}(key) & (kStripes - 1)];
  }
  /// `key`'s entry, created as a tombstone when absent, moved to the tail
  /// of its list.  Under the stripe lock.
  ClientEntry& touch(Stripe& stripe, const ClientKey& key);
  /// Moves `entry` from `from` to the tail of `to` with a fresh tick.
  /// Under the stripe lock, so each list stays sorted by last_used.
  void relist(ClientEntry& entry, LruList& from, LruList& to);
  /// Demotes clients, then erases tombstones, least recently used first,
  /// until the cache is within its limits or nothing more is eligible.
  void enforce_limits();
  /// Demotes the least recently used idle client (or erases the least
  /// recently used tombstone) of all stripes.  Returns false when no
  /// stripe has one.
  bool evict_one(bool tombstone);
  /// Primes the cache with recovered rows: floors always, completed
  /// replies where a body decodes (those duplicates are re-answered).
  void restore(const storage::ReplyRows& rows);
  /// Enqueues one reply-stream record, framed by `encode(lsn, staging)`,
  /// without waking the flusher.  Assigns the stream LSN in enqueue order.
  /// Returns the record's ticket.
  template <typename EncodeFn>
  std::uint64_t append_record(EncodeFn&& encode);
  /// The reply stream's checkpoint imager: queues a snapshot record
  /// imaging the in-memory cache, under the stream's append lock.
  void image();

  std::array<Stripe, kStripes> stripes_;
  std::atomic<std::size_t> window_{128};
  std::atomic<std::size_t> max_clients_{4096};
  std::atomic<std::size_t> loaded_{0};   // clients with cached replies
  std::atomic<std::size_t> clients_{0};  // incl. tombstones
  std::atomic<std::uint64_t> tick_{0};   // LRU clock
  std::atomic<std::uint64_t> floorless_claims_{0};
  std::atomic<std::uint64_t> barrier_parks_{0};
  std::shared_ptr<storage::GroupCommitter> committer_;
  /// Orders the reply stream: LSN assignment + enqueue (held for one
  /// enqueue, O(1)), and the checkpoint image's scan and enqueue, so the
  /// image's LSN covers exactly the records enqueued before it.
  std::mutex append_mutex_;
  std::uint64_t lsn_ = 0;  // last stream LSN assigned
  std::uint64_t incarnation_ = 0;
  std::uint64_t incarnation_ticket_ = 0;
  /// Declared last, so destroyed first: no checkpoint images the cache
  /// once it is being torn down.
  storage::GroupCommitter::Registration imager_;
};

}  // namespace amoeba::rpc
