// The batching envelope: N independent requests for one service packed
// into a single `batch` frame, answered by a single batched reply with
// per-entry status.
//
// Rationale (SpComm3D's lesson applied to §2.1 transactions): once the
// transport can pipeline, the remaining per-transaction cost is the frame
// itself -- one-shot port generation, F-box admission, two mailbox
// rendezvous.  Packing independent sub-requests into one frame amortizes
// all of it, and the server runs the sub-requests in order on one worker
// and waits for their durability once, before the batched reply.
//
// Wire format (all integers little-endian, see common/serial.hpp):
//
//   batch request frame            batch reply frame
//     header.opcode = kBatchOpcode   header.status  = envelope status
//     header.flags |= net::kFlagBatch
//     data:                          data:
//       u32  count                     u32  count
//       count x entry:                 count x entry:
//         u16  opcode                    u16  status (ErrorCode)
//         16B  capability                16B  capability
//         4x u64 params                  4x u64 params
//         u32+ data (length-prefixed)    u32+ data (length-prefixed)
//
// The envelope status reports frame-level failures (malformed envelope,
// permission_denied from signature checks); per-entry statuses report each
// sub-request's own outcome in add() order.
//
// At-most-once (docs/PROTOCOL.md §5): the envelope is ONE transaction.
// The transport stamps the whole frame with one (client, seq) pair and
// retransmits it as a unit; the service's duplicate-suppression table
// caches the whole batched reply under that pair, so on a lossy network
// every sub-request of the envelope executes exactly once or the whole
// envelope fails with a timeout -- sub-requests never partially repeat.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "amoeba/common/error.hpp"
#include "amoeba/common/serial.hpp"
#include "amoeba/net/message.hpp"
#include "amoeba/rpc/transport.hpp"

namespace amoeba::rpc {

/// Reserved opcode carrying a batch envelope; outside every service's own
/// opcode space (Service::on refuses to register it).
inline constexpr std::uint16_t kBatchOpcode = 0xFFFF;

/// Upper bound on entries per envelope; a decoded count beyond it marks
/// the envelope malformed (guards against hostile length fields).
inline constexpr std::size_t kMaxBatchEntries = 4096;

/// One sub-request inside a batch envelope: the header fields a normal
/// transaction would carry, minus the ports (the envelope owns those).
struct BatchRequest {
  std::uint16_t opcode = 0;
  net::CapabilityBytes capability{};
  std::array<std::uint64_t, 4> params{};
  Buffer data;
};

/// One sub-reply, in the same position as its sub-request.
struct BatchReply {
  ErrorCode status = ErrorCode::ok;
  net::CapabilityBytes capability{};
  std::array<std::uint64_t, 4> params{};
  Buffer data;
};

// Envelope codec.  Decoders return nullopt on any malformation (underflow,
// trailing bytes, count beyond kMaxBatchEntries).
[[nodiscard]] Buffer encode_batch(std::span<const BatchRequest> entries);
[[nodiscard]] Buffer encode_batch(std::span<const BatchReply> entries);
[[nodiscard]] std::optional<std::vector<BatchRequest>> decode_batch_request(
    std::span<const std::uint8_t> data);
[[nodiscard]] std::optional<std::vector<BatchReply>> decode_batch_reply(
    std::span<const std::uint8_t> data);

/// Client helper: queue independent requests for one service, send them as
/// a single batch frame, collect per-entry replies.
///
///   rpc::Batch batch(transport, bank.put_port());
///   for (const auto& t : transfers)
///     batch.add(opcode, &cap, payload(t), {t.currency, ...});
///   auto replies = batch.run();  // one round trip for all of them
///
/// run()/run_async() consume the queued entries, so one Batch can be
/// reused round trip after round trip.
class Batch {
 public:
  Batch(Transport& transport, Port dest)
      : transport_(&transport), dest_(dest) {}

  /// Queues one sub-request; returns its position (reply index).  Not
  /// thread-safe (a Batch belongs to one issuing thread, like a Message).
  std::size_t add(std::uint16_t opcode,
                  const net::CapabilityBytes* capability = nullptr,
                  Buffer data = {},
                  std::array<std::uint64_t, 4> params = {});

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  /// Sends the queued entries as one batch frame and waits; replies come
  /// back in add() order, and a success is guaranteed to carry exactly one
  /// reply per queued entry.  The frame is one at-most-once transaction:
  /// under loss it is retransmitted and duplicate-suppressed as a unit, so
  /// every entry executed exactly once on success and at most once on
  /// timeout.  An empty batch returns an empty vector without touching the
  /// network.
  [[nodiscard]] Result<std::vector<BatchReply>> run();
  [[nodiscard]] Result<std::vector<BatchReply>> run(
      std::chrono::milliseconds timeout);

  /// Pipelining: sends the queued entries without waiting (same
  /// whole-envelope at-most-once guarantee as run()).  Decode the eventual
  /// delivery with parse_reply().  An empty batch yields an invalid
  /// Future.
  [[nodiscard]] Future run_async();
  [[nodiscard]] Future run_async(std::chrono::milliseconds timeout);

  /// Unpacks a batched reply delivery (as resolved by run_async's future)
  /// into per-entry replies; surfaces transport and envelope-level
  /// failures as the error.  Unlike run(), this static path cannot know
  /// how many entries were sent -- run_async callers indexing by add()
  /// position must check the reply count themselves.
  [[nodiscard]] static Result<std::vector<BatchReply>> parse_reply(
      Result<net::Delivery> delivery);

 private:
  [[nodiscard]] net::Message build();

  Transport* transport_;
  Port dest_;
  std::vector<BatchRequest> entries_;
};

}  // namespace amoeba::rpc
