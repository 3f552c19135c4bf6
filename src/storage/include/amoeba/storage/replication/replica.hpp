// The backup side of primary/backup replication (docs/PROTOCOL.md §9).
//
// A ReplicaApplier owns a local volume and writes the primary's commit.log
// frames to it verbatim, in sequence order, so its commit.log is a prefix
// of its primary's, byte for byte -- secrets, reply-cache floors and all.
// That is the whole failover story: promote the backup, construct servers
// over its volume, and every pre-crash capability validates with nothing
// re-minted.
//
// Idempotence is floor gated.  Every frame carries the volume's frame
// sequence number, and the backup's floor is the number of the last frame
// its log holds: durable exactly when that frame is, and read back from
// the log at restart.  A frame at or below the floor is a duplicate (a
// lossy link's retransmission), acknowledged without re-applying.  The
// frame numbered floor+1 is appended; a checkpoint frame starts the
// backup's fresh log, as it did the primary's.  Anything further ahead is
// a gap, refused with `conflict`, which the primary answers with a
// resync: a shipment flagged as one, carrying the primary's whole log,
// which the backup adopts at any floor by replacing its own.  No other
// frame is adopted at a gap.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "amoeba/common/error.hpp"
#include "amoeba/storage/backend.hpp"

namespace amoeba::storage {

class ReplicaApplier {
 public:
  /// Adopts `local` as the backup volume; its floor is the number of the
  /// log's last frame (a restarted backup resumes exactly where its volume
  /// left off -- the primary's retransmits below the floor are
  /// acknowledged as duplicates).
  explicit ReplicaApplier(std::shared_ptr<Backend> local);

  /// Applies one shipment (replication/wire.hpp).  Returns the floor on
  /// success and for suppressed duplicates; `invalid_argument` for a torn
  /// or corrupt frame, one naming a stream this volume lacks, frames out
  /// of sequence, or a resync that does not start a log (nothing is
  /// written); `conflict` for a gap; `immutable` once promoted.
  [[nodiscard]] Result<std::uint64_t> apply_shipment(
      std::span<const std::uint8_t> shipment);

  /// Seals the applier: every later shipment is refused with `immutable`
  /// (the fencing half of failover -- a deposed primary still shipping
  /// cannot scribble on the promoted volume).  Returns the final floor.
  std::uint64_t promote();

  [[nodiscard]] std::uint64_t applied() const;
  [[nodiscard]] bool promoted() const;
  [[nodiscard]] const std::shared_ptr<Backend>& local() const {
    return local_;
  }

 private:
  /// Makes `frames` (a whole log) this volume's log.
  void adopt_locked(std::span<const std::uint8_t> frames);

  mutable std::mutex mutex_;
  std::shared_ptr<Backend> local_;
  std::uint64_t applied_ = 0;
  bool promoted_ = false;
};

}  // namespace amoeba::storage
