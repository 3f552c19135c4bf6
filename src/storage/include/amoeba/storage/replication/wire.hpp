// Replication shipment framing (docs/PROTOCOL.md §9.2).
//
// The primary ships commit.log frames as written: the frame the
// group-commit flusher just wrote to the primary's own volume (the
// post-flush hook hands over its bytes; nothing is re-encoded), or, for a
// RESYNC, the primary's whole current log.  A shipment is those frames
// behind one flags byte:
//
//   shipment = flags:u8 | frames        flags bit 0 = resync
//
// Each frame carries its own checksum and the volume's frame sequence
// number (storage/record.hpp), so a backup checks every frame whole and
// applies exactly the one numbered above its floor -- or, for a resync,
// replaces its log with the shipment's frames.
#pragma once

#include <cstdint>
#include <span>

#include "amoeba/common/serial.hpp"

namespace amoeba::storage {

/// Encodes a shipment of whole encoded frames.
[[nodiscard]] Buffer encode_shipment(bool resync,
                                     std::span<const std::uint8_t> frames);

/// Splits a shipment into its resync flag and its frame bytes; false for
/// an empty shipment or one that sets an unknown flag.
[[nodiscard]] bool decode_shipment(std::span<const std::uint8_t> shipment,
                                   bool& resync,
                                   std::span<const std::uint8_t>& frames);

}  // namespace amoeba::storage
