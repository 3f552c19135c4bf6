// Replication shipment framing (docs/PROTOCOL.md §9.2).
//
// The primary ships each group-commit flush cycle to its backups as ONE
// cycle frame: a replication LSN and the per-stream runs -- snapshot
// records included, byte for byte what just became durable on the
// primary's own volume (the group-commit post-flush hook hands them over;
// nothing is re-encoded).  A resync is one such frame too, imaging every
// stream.  The frame is checksummed as a whole, so a backup applies an
// entire cycle or rejects it: the same all-or-nothing property the
// commit.log gives a local crash image, now carried across the wire.
//
// The rep LSN is a volume-wide shipment sequence number, assigned in ship
// order.  A backup keeps the floor of applied LSNs: frames at or below the
// floor are duplicates (acknowledged, not re-applied -- though re-applying
// would converge, journal replay being idempotent), frames more than one
// ahead are gaps (rejected, unless they image every stream; the primary
// answers with a full resync).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "amoeba/common/serial.hpp"
#include "amoeba/storage/record.hpp"

namespace amoeba::storage {

/// A decoded cycle frame (the backup's side).
struct CycleFrame {
  std::uint64_t rep_lsn = 0;
  std::vector<ShardAppend> appends;
};

/// Encodes one cycle frame: `length u32 | checksum u32 | body`, the body
/// `rep_lsn u64` and then a commit.log group body, the checksum FNV-1a
/// over the whole body (storage/record.hpp's frame_checksum, same as
/// journal records and commit-log groups).
[[nodiscard]] Buffer encode_cycle_frame(std::uint64_t rep_lsn,
                                        std::span<const ShardAppend> appends);

/// Decodes a cycle frame; false on truncation, checksum mismatch, or
/// malformed body (the backup then rejects the shipment wholesale).
[[nodiscard]] bool decode_cycle_frame(std::span<const std::uint8_t> bytes,
                                      CycleFrame& out);

}  // namespace amoeba::storage
