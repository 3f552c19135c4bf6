// The backup side of primary/backup replication (docs/PROTOCOL.md §9).
//
// A ReplicaApplier owns a local volume and applies the primary's shipments
// to it in shipment order: cycle frames append the primary's journal
// records (and metadata images) byte for byte, snapshot shipments replace
// one shard's snapshot exactly as local compaction would.  The volume a
// long-running applier maintains is therefore the same volume the primary
// would leave behind on its own disk -- secrets, reply-cache floors and
// all -- which is the whole failover story: promote the backup, construct
// servers over its volume, and every pre-crash capability validates with
// nothing re-minted.
//
// Idempotence is LSN-floor gated.  Every shipment carries a replication
// LSN assigned in primary ship order; the applier keeps the floor of
// applied LSNs.  A cycle is appended as ONE group together with a
// rep_applied marker record naming its LSN (on a file volume: one
// commit-log frame, one fsync), so the floor is durable exactly when the
// cycle is; a snapshot install persists the floor to the volume's own
// metadata area instead (`rep.applied`, AFTER the install -- safe, because
// replay is idempotent, so a shipment replayed across that crash window
// converges).  The marker lives in the backup's reply stream and never
// ships (ReplicatedBackend's resync strips it).  At or below
// the floor: a duplicate (a lossy link's retransmission), acknowledged
// without re-applying.  Exactly floor+1: applied.  Further ahead: a gap --
// rejected with `conflict`, which the primary answers with a full resync.
// Snapshot shipments ADOPT their LSN as the new floor instead of gap-
// checking: a snapshot subsumes all history behind it (that is what makes
// resync work), and FIFO in-order shipping guarantees everything below it
// was already offered.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>

#include "amoeba/common/error.hpp"
#include "amoeba/storage/backend.hpp"

namespace amoeba::storage {

/// Metadata keys the replication layer itself owns on a backup volume.
/// The primary never ships keys under this prefix (a resync must not
/// clobber the backup's own applied floor).
inline constexpr std::string_view kRepMetaPrefix = "rep.";
/// The applier's LSN floor as of its last snapshot install (u64, Writer
/// encoding); later cycles carry theirs as rep_applied records.
inline constexpr std::string_view kRepAppliedKey = "rep.applied";

class ReplicaApplier {
 public:
  /// Adopts `local` as the backup volume; restores the applied floor the
  /// previous incarnation persisted (a restarted backup resumes exactly
  /// where its volume left off -- the primary's retransmits below the
  /// floor are acknowledged as duplicates).
  explicit ReplicaApplier(std::shared_ptr<Backend> local);

  /// Applies one encoded cycle frame (replication/wire.hpp).  Returns the
  /// applied floor on success and for suppressed duplicates;
  /// `invalid_argument` for a torn/corrupt frame, `conflict` for a gap,
  /// `immutable` once promoted.
  [[nodiscard]] Result<std::uint64_t> apply_cycle(
      std::span<const std::uint8_t> frame);

  /// Applies one shipped shard snapshot (replaces the shard's snapshot and
  /// truncates its journal, like local compaction) and adopts `rep_lsn` as
  /// the floor.  Same duplicate/promoted answers as apply_cycle.
  [[nodiscard]] Result<std::uint64_t> install_snapshot(
      std::uint64_t rep_lsn, std::size_t shard,
      std::span<const std::uint8_t> bytes);

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
  void persist_floor_locked();

  mutable std::mutex mutex_;
  std::shared_ptr<Backend> local_;
  std::uint64_t applied_ = 0;
  bool promoted_ = false;
};

}  // namespace amoeba::storage
