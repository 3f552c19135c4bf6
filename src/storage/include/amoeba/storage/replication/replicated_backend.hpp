// The primary side of primary/backup replication (docs/PROTOCOL.md §9).
//
// ReplicatedBackend is a Backend decorator: reads go straight to the
// wrapped local volume, writes land locally FIRST and are then shipped to
// every attached backup as LSN-stamped shipments.  Its writer is the
// volume's GroupCommitter, which binds itself at construction:
//
//   * append_journal_batch() only lands the group locally; the
//     committer's post-flush hook then ships the flush cycle as ONE cycle
//     frame -- the exact records, snapshot records included, that just
//     hit the local disk.  Backups compact when the primary does.
//
// Appends handed to the decorator without a committer are not shipped.
//
// The ack mode decides when a mutator's durability wait releases:
//   async    local disk only; shipping is fire-and-forget.
//   ack_one  at least one backup has durably applied the shipment.
//   ack_all  every attached backup has.
// With no backups attached nothing ever waits, so a ReplicatedBackend
// with zero peers behaves exactly like its local volume.
//
// Shipping is per-peer FIFO on a dedicated thread, one shipment in flight,
// retried until acknowledged -- the at-most-once RPC layer plus the
// replica's LSN floor make retransmits harmless.  A backup that answers
// `conflict` (LSN gap: it restarted, or attached mid-stream) triggers a
// full resync: the primary broadcasts ONE cycle frame holding, per
// stream, a snapshot record of its current image and the records above
// it.  A frame that images every stream MOVES the replica floor rather
// than gap-checking against it, so every peer can adopt it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "amoeba/common/error.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/replication/wire.hpp"

namespace amoeba::storage {

class GroupCommitter;

/// When does a replicated mutation count as durable?
enum class AckMode : std::uint8_t {
  async = 0,    // local disk only; backups catch up in the background
  ack_one = 1,  // >= 1 backup has durably applied the shipment
  ack_all = 2,  // every attached backup has
};

[[nodiscard]] std::string_view to_string(AckMode mode);

/// Transport-agnostic shipping channel to one backup.  The storage layer
/// owns the interface (it cannot depend on rpc); rpc/replication.hpp
/// implements it over the at-most-once transaction layer.  Each call is
/// synchronous: it returns the backup's durably-applied floor, or the
/// error the backup (or the link) produced.  Implementations must tolerate
/// being called from a dedicated shipping thread.
class ReplicationLink {
 public:
  virtual ~ReplicationLink() = default;

  [[nodiscard]] virtual std::string peer_name() const = 0;

  /// Offers one encoded cycle frame (replication/wire.hpp).
  [[nodiscard]] virtual Result<std::uint64_t> ship_cycle(
      std::span<const std::uint8_t> frame) = 0;

  /// No-op probe: returns the backup's applied floor (lag measurement).
  [[nodiscard]] virtual Result<std::uint64_t> heartbeat(
      std::uint64_t shipped) = 0;
};

class ReplicatedBackend final : public Backend {
 public:
  explicit ReplicatedBackend(std::shared_ptr<Backend> local,
                             AckMode mode = AckMode::ack_one);
  /// Attempts to drain each peer's queue (one final try per shipment --
  /// a dead backup must not hang shutdown), then joins the shippers.
  ~ReplicatedBackend() override;

  // --- Backend: reads forward, writes land locally then ship. ---
  [[nodiscard]] std::size_t shard_count() const override;
  void append_journal_batch(std::vector<ShardAppend>&& appends) override;
  [[nodiscard]] Buffer read_stream(std::size_t stream) const override;
  [[nodiscard]] RewriteStats rewrite_stats() const override;
  [[nodiscard]] bool empty() const override;

  /// Attaches a backup and resyncs it: the primary's current streams
  /// (minus rep_applied markers) are broadcast as one fresh shipment, so
  /// the new peer converges from any starting state and existing peers
  /// just fast-forward their floors.  The peer's
  /// shipper first probes its applied floor (heartbeat, retried until it
  /// answers) and numbers on above it, so a primary restarted over its
  /// own volume never ships below a floor its earlier incarnation left.
  /// Thread-safe; peers cannot be detached (stop the backup instead --
  /// its queue simply stops draining).
  void attach_peer(std::shared_ptr<ReplicationLink> link);

  /// Called by the GroupCommitter constructor when it finds this decorator
  /// as its backend: installs the cycle-shipping post-flush hook.
  void bind_committer(GroupCommitter& committer);

  struct PeerStats {
    std::string name;
    std::uint64_t acked_lsn = 0;  // backup's durably-applied floor
    std::uint64_t queued = 0;     // shipments still waiting to ship
  };
  struct Stats {
    AckMode mode = AckMode::async;
    std::uint64_t shipped_lsn = 0;  // highest shipment LSN assigned
    std::vector<PeerStats> peers;   // lag = shipped_lsn - acked_lsn
  };
  [[nodiscard]] Stats stats() const;

  /// Probes every peer's applied floor over its link (refreshes the lag
  /// numbers std_info reports without shipping anything).
  void heartbeat();

  [[nodiscard]] AckMode ack_mode() const { return mode_; }
  [[nodiscard]] const std::shared_ptr<Backend>& local() const {
    return local_;
  }

 private:
  struct Shipment {
    std::uint64_t rep_lsn = 0;
    bool resync = false;    // images every stream (resync_locked)
    Buffer frame;           // the encoded cycle frame
    std::size_t needed = 0;  // acks that release the enqueuer's wait
    std::size_t acks = 0;    // guarded by the owning backend's ack_mutex_
  };
  struct Peer {
    explicit Peer(std::shared_ptr<ReplicationLink> l) : link(std::move(l)) {}
    std::shared_ptr<ReplicationLink> link;
    std::mutex mutex;
    std::condition_variable cv;  // wakes the shipper
    std::deque<std::shared_ptr<Shipment>> queue;
    std::uint64_t acked = 0;  // guarded by `mutex`
    /// Shipments numbered under a foreign floor (probe_floor):
    /// never offered, acknowledged once the peer's floor reaches
    /// `resync_end`, the last LSN of the resync that subsumes them.
    std::vector<std::shared_ptr<Shipment>> parked;  // guarded by `mutex`
    std::uint64_t resync_end = 0;                   // guarded by `mutex`
    std::jthread shipper;     // last member: started after the above
  };

  /// Encodes `appends` as shipment `++next_lsn_`, pushes it onto every
  /// peer's queue and stamps the ack count the current mode requires.
  std::shared_ptr<Shipment> broadcast_locked(
      std::span<const ShardAppend> appends, bool resync);
  /// Blocks until the shipment's stamped ack count is reached.  Throws
  /// UsageError if a backup answered `immutable` (it was promoted: this
  /// primary is fenced and must stop reporting durability).
  void await_acks(const std::shared_ptr<Shipment>& shipment);
  /// Encodes + broadcasts one flush cycle's frame (the post-flush hook
  /// body), then waits for the acks the mode requires.
  void ship_cycle(std::span<const ShardAppend> appends);
  /// Broadcasts the volume's current streams as one shipment that images
  /// every stream (attach and gap recovery).
  void resync_locked();
  /// The shipper's first step: learns the peer's floor (retrying until
  /// the heartbeat answers).  If the floor reaches the first queued
  /// shipment, it comes from another numbering (an earlier incarnation of
  /// this primary): numbers on above it, parks the queue and resyncs.
  /// False if stopped before the peer ever answered.
  [[nodiscard]] bool probe_floor(Peer& peer, const std::stop_token& stop);
  void shipper(Peer& peer, const std::stop_token& stop);

  std::shared_ptr<Backend> local_;
  const AckMode mode_;

  mutable std::mutex mutex_;  // orders LSN assignment + queue pushes
  std::uint64_t next_lsn_ = 0;
  std::vector<std::unique_ptr<Peer>> peers_;  // grow-only; stable addresses

  mutable std::mutex ack_mutex_;
  std::condition_variable ack_cv_;
  bool shutting_down_ = false;  // guarded by ack_mutex_
  bool fenced_ = false;         // a backup answered `immutable` (promoted)
};

}  // namespace amoeba::storage
