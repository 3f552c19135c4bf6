// The reply stream: a volume's persisted at-most-once state
// (docs/PROTOCOL.md §8.4).
//
// Every Backend reserves one journal stream next to its object shards
// (index Backend::reply_stream()).  rpc::Service writes three record types
// there, in the ordinary §8.2 record frame:
//
//   reply_floor(src, client, seq)        -- a claim of `seq` that journals
//   reply_body(src, client, seq, body)   -- the completed reply of `seq`
//   incarnation(n)                       -- a server boot drew number n
//
// Each record is O(1) bytes, so persisting a request no longer costs an
// image of every client the server has seen.  At a checkpoint the stream
// is imaged like an object shard: a snapshot record (the §8.3 image, one
// slot per client row plus one slot holding the incarnation) replaces
// every record at or below its LSN.
//
// Replay is a max-merge: a row's floor is the highest seq any record or
// snapshot row names, bodies are keyed by seq (the highest
// kReplyBodiesPerClient survive), and the incarnation is the highest any
// record or image names.  Record order therefore does not matter, and
// neither a floor nor the incarnation ever moves backwards.  Malformed
// records and rows are skipped whole, never half-applied.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>

#include "amoeba/common/serial.hpp"
#include "amoeba/storage/record.hpp"

namespace amoeba::storage {

class Backend;

/// Completed reply bodies persisted per client; older ones age out (their
/// duplicates still drop via the floor).
inline constexpr std::size_t kReplyBodiesPerClient = 8;
/// Replies whose data exceeds this are persisted floor-only.
inline constexpr std::size_t kReplyBodyMaxBytes = 4096;

/// One client's persisted suppression state.
struct ReplyRow {
  std::uint64_t floor = 0;                 // highest seq ever claimed
  std::map<std::uint64_t, Buffer> bodies;  // seq -> encoded reply body
};

/// (source machine, client id) -> row.
using ReplyRows = std::map<std::pair<std::uint32_t, std::uint64_t>, ReplyRow>;

/// Appends one framed reply_floor record with stream LSN `lsn` to `out`.
void encode_reply_floor(std::uint32_t src, std::uint64_t client,
                        std::uint64_t seq, std::uint64_t lsn, Buffer& out);

/// Appends one framed reply_body record with stream LSN `lsn` to `out`.
void encode_reply_body(std::uint32_t src, std::uint64_t client,
                       std::uint64_t seq, std::span<const std::uint8_t> body,
                       std::uint64_t lsn, Buffer& out);

/// Appends one framed incarnation record (payload `incarnation:u64`) with
/// stream LSN `lsn` to `out`.
void encode_reply_incarnation(std::uint64_t incarnation, std::uint64_t lsn,
                              Buffer& out);

/// The number a well-formed incarnation record names; nullopt for any
/// other record, a malformed payload or incarnation 0.
[[nodiscard]] std::optional<std::uint64_t> decode_reply_incarnation(
    const Record& record);

/// Folds one decoded reply-stream record into `rows`.  Returns false, and
/// leaves `rows` untouched, for a record that is not a well-formed
/// reply_floor / reply_body.
bool merge_reply_record(const Record& record, ReplyRows& rows);

/// Serializes `rows` as a reply-stream snapshot subsuming every stream
/// record with lsn <= `applied_lsn`.  A nonzero `incarnation` rides the
/// image as one more slot (object 1, payload `incarnation:u64`).
[[nodiscard]] Buffer encode_reply_snapshot(const ReplyRows& rows,
                                           std::uint64_t applied_lsn,
                                           std::uint64_t incarnation = 0);

/// Folds a reply-stream snapshot into `rows` and reports its applied LSN;
/// `incarnation`, when non-null, is raised to the image's.  An empty image
/// is an empty snapshot.  Malformed slots are skipped whole; returns false
/// (nothing merged) when the image's own framing is corrupt.
bool merge_reply_snapshot(std::span<const std::uint8_t> image,
                          ReplyRows& rows, std::uint64_t& applied_lsn,
                          std::uint64_t* incarnation = nullptr);

/// Everything `backend`'s reply stream holds: its snapshot, then every
/// journal record past the snapshot's applied LSN.  `last_lsn` receives the
/// highest stream LSN seen, and `incarnation`, when non-null, the highest
/// incarnation recorded (0 for none).  Throws UsageError on a corrupt
/// snapshot (the object store's rule: a volume that cannot be read must not
/// boot).
[[nodiscard]] ReplyRows read_reply_stream(const Backend& backend,
                                          std::uint64_t& last_lsn,
                                          std::uint64_t* incarnation = nullptr);

}  // namespace amoeba::storage
