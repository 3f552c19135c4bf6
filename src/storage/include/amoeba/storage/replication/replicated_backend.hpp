// The primary side of primary/backup replication (docs/PROTOCOL.md §9).
//
// ReplicatedBackend is a Backend decorator: reads go straight to the
// wrapped local volume, writes land locally FIRST and are then shipped to
// every attached backup.  Its writer is the volume's GroupCommitter,
// which binds itself at construction:
//
//   * the committer writes each flush cycle's frame to the local volume,
//     and its post-flush hook then ships that same frame -- the bytes
//     that just hit the local disk, numbered by the volume's frame
//     sequence.  A checkpoint frame starts the backups' logs afresh too.
//
// Frames written to the decorator without a committer are not shipped.
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
// replica's floor make retransmits harmless.  A peer's first shipment is
// a RESYNC: the local commit.log as written, flagged so the backup adopts
// it at any floor.  A backup that later answers `conflict` (a gap: it
// restarted, or lost frames) gets another resync in front of its queue.
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

  /// Offers one shipment (replication/wire.hpp).
  [[nodiscard]] virtual Result<std::uint64_t> ship_cycle(
      std::span<const std::uint8_t> shipment) = 0;

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

  // --- Backend: reads and writes forward to the local volume. ---
  [[nodiscard]] std::size_t shard_count() const override;
  void append_frames(std::span<const std::uint8_t> frames) override;
  void replace_log(std::span<const std::uint8_t> frames) override;
  [[nodiscard]] Buffer read_log() const override;
  [[nodiscard]] std::uint64_t last_seq() const override;
  [[nodiscard]] std::uint64_t log_bytes() const override;
  [[nodiscard]] Buffer read_stream(std::size_t stream) const override;

  /// Attaches a backup and queues its resync: the local commit.log as
  /// written, which the backup adopts whatever it held before -- a stale
  /// log, or another volume's.  Thread-safe; peers cannot be detached
  /// (stop the backup instead -- its queue simply stops draining).
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
    std::uint64_t shipped_lsn = 0;  // highest frame number queued to ship
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
    std::uint64_t last_seq = 0;  // the number of its last frame
    Buffer bytes;                // the encoded shipment
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
    std::jthread shipper;     // last member: started after the above
  };

  /// Ships one flush cycle's frame (the post-flush hook body), then waits
  /// for the acks the mode requires.
  void ship_frame(std::span<const std::uint8_t> frame, std::uint64_t seq);
  /// Blocks until the shipment's stamped ack count is reached.  Throws
  /// UsageError if a backup answered `immutable` (it was promoted: this
  /// primary is fenced and must stop reporting durability).
  void await_acks(const std::shared_ptr<Shipment>& shipment);
  /// A resync: the local log as written, read now.
  [[nodiscard]] std::shared_ptr<Shipment> make_resync();
  void shipper(Peer& peer, const std::stop_token& stop);

  std::shared_ptr<Backend> local_;
  const AckMode mode_;

  mutable std::mutex mutex_;  // orders queue pushes
  std::uint64_t shipped_ = 0;  // highest frame number queued
  std::vector<std::unique_ptr<Peer>> peers_;  // grow-only; stable addresses

  mutable std::mutex ack_mutex_;
  std::condition_variable ack_cv_;
  bool shutting_down_ = false;  // guarded by ack_mutex_
  bool fenced_ = false;         // a backup answered `immutable` (promoted)
};

}  // namespace amoeba::storage
