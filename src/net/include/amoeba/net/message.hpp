// The standard Amoeba message format (§2.1-2.2).
//
// "The standard message format provides a place for one capability in the
// header, typically for the object being operated on ... The header also
// contains room for the operation code and some parameters."  Three port
// fields drive the F-box protocol: destination (a put-port, passed through
// on the wire), reply (submitted as a secret get-port, transformed to its
// put-port by the sender's F-box), and signature (submitted secret,
// transformed likewise -- receivers compare against the published F(S)).
//
// The capability travels as 16 raw bytes at this layer; amoeba/core gives
// it structure.  Layering note: net must not depend on core, which is why
// the header holds bytes, not a core::Capability.
#pragma once

#include <array>
#include <cstdint>

#include "amoeba/common/error.hpp"
#include "amoeba/common/serial.hpp"
#include "amoeba/common/types.hpp"

namespace amoeba::net {

/// Wire image of one capability (Fig. 2: 48 + 24 + 8 + 48 bits = 16 bytes).
using CapabilityBytes = std::array<std::uint8_t, 16>;

/// Header flag bits.  The batch bit marks envelope frames carrying many
/// sub-requests (or sub-replies) in the data field; the network counts
/// them separately so frame-level accounting stays honest when one frame
/// stands in for N transactions.
inline constexpr std::uint16_t kFlagBatch = 0x0001;
/// The frame carries at-most-once bookkeeping: (client, seq) identify the
/// transaction, the issuing transport retransmits it until acknowledged,
/// and the serving side suppresses duplicates through its reply cache.
inline constexpr std::uint16_t kFlagAtMostOnce = 0x0002;
/// Set on every copy after the first the transport puts on the wire for
/// one transaction (diagnostics and accounting only; receivers treat
/// retransmitted and original frames identically).
inline constexpr std::uint16_t kFlagRetransmit = 0x0004;

struct Header {
  Port dest;        // put-port of the addressed service
  Port reply;       // get-port when submitted; put-port once on the wire
  Port signature;   // optional sender signature; 0 = unsigned
  std::uint16_t opcode = 0;     // request: operation; reply: echo of it
  std::uint16_t flags = 0;      // kFlag* bits; passed through untransformed
  ErrorCode status = ErrorCode::ok;  // meaningful in replies
  CapabilityBytes capability{};      // object being operated on (may be 0)
  std::array<std::uint64_t, 4> params{};  // small scalar parameters
  // At-most-once transaction identity (docs/PROTOCOL.md §5).  client is
  // the issuing transport's random 64-bit id (0 = no at-most-once
  // semantics requested, the legacy frame shape); seq increases per
  // transaction on that transport.  Replies echo both so wire traces
  // correlate.  Neither field is secret; protection still rests entirely
  // on ports and capabilities.
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  // The serving instance's incarnation (docs/PROTOCOL.md §5.5).  A durable
  // server stamps its own on every reply; a transport stamps the last one
  // it heard from the destination port on every request (0: none heard,
  // or a server without a volume).
  std::uint64_t incarnation = 0;
};

struct Message {
  Header header;
  Buffer data;  // bulk payload; may carry further capabilities, names, ...
};

/// What the receiving NIC hands the process: the frame plus its stamped
/// (unforgeable) source machine.  Servers reply to `src`; the software
/// protection layer selects its matrix key by it.
struct Delivery {
  MachineId src;
  Message message;
};

/// Builds a reply message addressed to the request's (already transformed)
/// reply port, echoing the opcode and the at-most-once transaction
/// identity (client, seq) so wire traces correlate request and reply.
[[nodiscard]] inline Message make_reply(const Message& request,
                                        ErrorCode status) {
  Message reply;
  reply.header.dest = request.header.reply;
  reply.header.opcode = request.header.opcode;
  reply.header.status = status;
  reply.header.client = request.header.client;
  reply.header.seq = request.header.seq;
  return reply;
}

}  // namespace amoeba::net
