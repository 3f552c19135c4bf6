// Conventions shared by every Amoeba service in this repository.
//
// Requests carry the object capability in the message header (the paper's
// standard message format reserves that slot); additional capabilities --
// a transfer target, a segment list, a payment account -- travel in the
// data field, exactly as §2.1 describes ("users are free to put other
// capabilities in the data field as required").
//
// The six concrete servers declare their operations as rpc::Op
// descriptors (rpc/op.hpp) and dispatch through the typed layer
// (rpc/typed.hpp), and their client stubs bind those descriptors through
// rpc::ClientStub.  The raw helpers kept here serve the baseline
// comparison servers and the tests that build frames by hand.
#pragma once

#include <array>

#include "amoeba/common/serial.hpp"
#include "amoeba/core/capability.hpp"
#include "amoeba/core/object_store.hpp"
#include "amoeba/net/message.hpp"
#include "amoeba/rpc/server.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"

namespace amoeba::servers {

/// Places a capability into the header slot of a message.
inline void set_header_capability(net::Message& msg,
                                  const core::Capability& cap) {
  msg.header.capability = core::pack(cap);
}

/// Reads the header capability.
[[nodiscard]] inline core::Capability header_capability(
    const net::Message& msg) {
  return core::unpack(msg.header.capability);
}

/// Builds an error reply (no payload).
[[nodiscard]] inline net::Message error_reply(const net::Delivery& request,
                                              ErrorCode code) {
  return net::make_reply(request.message, code);
}

/// One raw client-side RPC: build the request, run the transaction,
/// surface transport errors and non-ok reply statuses as errors, hand back
/// the reply message otherwise.  Typed stubs use rpc::call instead; this
/// remains the vocabulary call for the baseline servers and for tests that
/// build frames by hand.
[[nodiscard]] inline Result<net::Message> call(
    rpc::Transport& transport, Port dest, std::uint16_t opcode,
    const core::Capability* cap = nullptr, Buffer data = {},
    std::array<std::uint64_t, 4> params = {}) {
  net::Message req;
  req.header.dest = dest;
  req.header.opcode = opcode;
  req.header.params = params;
  if (cap != nullptr) {
    set_header_capability(req, *cap);
  }
  req.data = std::move(data);
  auto reply = transport.trans(std::move(req));
  if (!reply.ok()) {
    return reply.error();
  }
  if (reply.value().message.header.status != ErrorCode::ok) {
    return reply.value().message.header.status;
  }
  return std::move(reply.value().message);
}

}  // namespace amoeba::servers
