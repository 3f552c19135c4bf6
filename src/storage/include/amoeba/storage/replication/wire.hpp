// Replication shipment framing (docs/PROTOCOL.md §9.2).
//
// The primary ships each group-commit flush cycle to its backups as ONE
// cycle frame: a replication LSN, a metadata section (empty for a flush
// cycle; put_meta and resync fill it), and the per-shard journal
// appends -- byte for byte what just became
// durable on the primary's own volume (the group-commit post-flush hook
// hands them over; nothing is re-encoded).  The frame is checksummed as a
// whole, so a backup applies an entire cycle or rejects it: the same
// all-or-nothing property the commit.log gives a local crash image, now
// carried across the wire.
//
// The rep LSN is a volume-wide shipment sequence number, assigned in ship
// order.  A backup keeps the floor of applied LSNs: frames at or below the
// floor are duplicates (acknowledged, not re-applied -- though re-applying
// would converge, journal replay being idempotent), frames more than one
// ahead are gaps (rejected; the primary answers with a full resync).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "amoeba/common/serial.hpp"
#include "amoeba/storage/record.hpp"

namespace amoeba::storage {

/// One metadata write inside a cycle frame, by view (encoding side).
struct MetaImage {
  std::string_view key;
  std::span<const std::uint8_t> value;
};

/// A decoded cycle frame (the backup's side).
struct CycleFrame {
  std::uint64_t rep_lsn = 0;
  std::vector<std::pair<std::string, Buffer>> metas;
  std::vector<ShardAppend> appends;
};

/// Encodes one cycle frame: `length u32 | checksum u32 | body`, the
/// checksum FNV-1a over the whole body (storage/record.hpp's
/// frame_checksum, same as journal records and commit-log groups).
[[nodiscard]] Buffer encode_cycle_frame(std::uint64_t rep_lsn,
                                        std::span<const MetaImage> metas,
                                        std::span<const ShardAppend> appends);

/// Decodes a cycle frame; false on truncation, checksum mismatch, or
/// malformed body (the backup then rejects the shipment wholesale).
[[nodiscard]] bool decode_cycle_frame(std::span<const std::uint8_t> bytes,
                                      CycleFrame& out);

}  // namespace amoeba::storage
