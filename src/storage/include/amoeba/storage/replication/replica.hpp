// The backup side of primary/backup replication (docs/PROTOCOL.md §9).
//
// A ReplicaApplier owns a local volume and applies the primary's cycle
// frames to it in shipment order, appending the primary's records byte
// for byte -- snapshot records included -- less the records a resync
// re-ships that a stream already holds.  The volume a long-running
// applier maintains is therefore the same volume the primary would leave
// behind on its own disk -- secrets, reply-cache floors and all -- which
// is the whole failover story: promote the backup, construct servers over
// its volume, and every pre-crash capability validates with nothing
// re-minted.
//
// Idempotence is LSN-floor gated.  Every shipment carries a replication
// LSN assigned in primary ship order; the applier keeps the floor of
// applied LSNs, and its one durable home is the rep_applied marker records
// of the backup's own reply stream.  A cycle is appended as ONE group
// together with a marker naming its LSN (on a file volume: one commit-log
// frame, one fsync), so the floor is durable exactly when the cycle is.
// Markers never ship (ReplicatedBackend's resync strips them).  At or
// below the floor: a duplicate (a lossy link's retransmission),
// acknowledged without re-applying.  Exactly floor+1: applied.  Further
// ahead: a gap -- rejected with `conflict`, which the primary answers with
// a resync -- unless the frame images every stream, as a resync does: it
// then holds the whole volume, so it ADOPTS its LSN as the new floor.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "amoeba/common/error.hpp"
#include "amoeba/storage/backend.hpp"

namespace amoeba::storage {

class ReplicaApplier {
 public:
  /// Adopts `local` as the backup volume; restores the applied floor the
  /// previous incarnation persisted, the largest rep_applied marker in the
  /// reply stream (a restarted backup resumes exactly where its volume
  /// left off -- the primary's retransmits below the floor are
  /// acknowledged as duplicates).
  explicit ReplicaApplier(std::shared_ptr<Backend> local);

  /// Applies one encoded cycle frame (replication/wire.hpp).  Returns the
  /// applied floor on success and for suppressed duplicates;
  /// `invalid_argument` for a torn/corrupt frame or one naming a stream
  /// this volume lacks (nothing is appended), `conflict` for a gap that a
  /// frame imaging every stream would close, `immutable` once promoted.
  [[nodiscard]] Result<std::uint64_t> apply_cycle(
      std::span<const std::uint8_t> frame);

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
  /// The reply-stream run of one rep_applied marker naming `rep_lsn`.
  [[nodiscard]] ShardAppend floor_marker(std::uint64_t rep_lsn) const;

  mutable std::mutex mutex_;
  std::shared_ptr<Backend> local_;
  std::uint64_t applied_ = 0;
  /// Per stream, the highest record LSN the volume holds (its snapshot's,
  /// or its newest journal record's): a shipped run's journal records at
  /// or below it are already here.
  std::vector<std::uint64_t> held_;
  bool promoted_ = false;
};

}  // namespace amoeba::storage
