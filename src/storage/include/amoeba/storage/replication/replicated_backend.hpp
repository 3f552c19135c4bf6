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
// A backup is known by one number, the last frame it acknowledged
// (`acked`).  The ack mode decides when a mutator's durability wait
// releases:
//   async    local disk only; shipping is fire-and-forget.
//   ack_one  some backup has acknowledged the cycle's frame.
// With no backups attached nothing ever waits, so a ReplicatedBackend
// with zero peers behaves exactly like its local volume.
//
// Shipping is per-peer FIFO on a dedicated thread, one shipment in flight,
// retried until acknowledged -- the at-most-once RPC layer plus the
// replica's floor make retransmits harmless.  A peer's first shipment is
// a RESYNC: the local commit.log as written, flagged so the backup adopts
// it at any floor.  A backlog is bounded by the log: once a peer's queued
// frames outgrow the log (a checkpoint shrank it), or the backup answers
// `conflict` (a gap: it restarted, or lost frames), the backlog is
// replaced by one resync.
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
  ack_one = 1,  // >= 1 backup has durably applied the frame
};

[[nodiscard]] std::string_view to_string(AckMode mode);

/// Transport-agnostic shipping channel to one backup.  The storage layer
/// owns the interface (it cannot depend on rpc); rpc/replication.hpp
/// implements it over the at-most-once transaction layer.  The call is
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
};

class ReplicatedBackend final : public Backend {
 public:
  explicit ReplicatedBackend(std::shared_ptr<Backend> local,
                             AckMode mode = AckMode::ack_one);
  /// Attempts to drain each peer's backlog (one final try per shipment --
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
  /// (stop the backup instead -- its backlog stays bounded by the log).
  void attach_peer(std::shared_ptr<ReplicationLink> link);

  /// Called by the GroupCommitter constructor when it finds this decorator
  /// as its backend: installs the cycle-shipping post-flush hook.
  void bind_committer(GroupCommitter& committer);

  struct PeerStats {
    std::string name;
    std::uint64_t acked_lsn = 0;      // last frame the backup acknowledged
    std::uint64_t backlog_bytes = 0;  // log bytes queued, at most the log
  };
  struct Stats {
    AckMode mode = AckMode::async;
    std::uint64_t shipped_lsn = 0;  // highest frame number queued to ship
    std::vector<PeerStats> peers;   // lag = shipped_lsn - acked_lsn
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] AckMode ack_mode() const { return mode_; }
  [[nodiscard]] const std::shared_ptr<Backend>& local() const {
    return local_;
  }

 private:
  struct Shipment {
    std::uint64_t last_seq = 0;  // the number of its last frame
    Buffer bytes;                // the encoded shipment
    /// The log bytes it carries: its frames, without the flags byte.
    [[nodiscard]] std::uint64_t frame_bytes() const {
      return bytes.size() - 1;
    }
  };
  struct Peer {
    explicit Peer(std::shared_ptr<ReplicationLink> l) : link(std::move(l)) {}
    std::shared_ptr<ReplicationLink> link;
    // Guarded by the backend's mutex_:
    std::deque<std::shared_ptr<const Shipment>> backlog;
    std::uint64_t backlog_bytes = 0;  // sum of the backlog's frame_bytes()
    std::uint64_t acked = 0;          // the backup's last answered floor
    std::thread shipper;
  };

  /// The post-flush hook body: queues one flush cycle's frame to every
  /// peer, then, under ack_one, waits until some peer acknowledged it.
  /// Throws UsageError if a backup answered `immutable` (it was promoted:
  /// this primary is fenced and must stop reporting durability).
  void ship_frame(std::span<const std::uint8_t> frame, std::uint64_t seq);
  /// Replaces `peer`'s backlog with one resync: the local log as written,
  /// read now.  Caller holds mutex_, so every frame queued later is
  /// numbered above the resync's last frame.
  void resync_locked(Peer& peer);
  void shipper(Peer& peer);

  std::shared_ptr<Backend> local_;
  const AckMode mode_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;  // a backlog grew, a peer acked, or stop
  std::uint64_t shipped_ = 0;   // highest frame number queued
  std::vector<std::unique_ptr<Peer>> peers_;  // grow-only; stable addresses
  bool stopping_ = false;
  bool fenced_ = false;  // a backup answered `immutable` (promoted)
};

}  // namespace amoeba::storage
