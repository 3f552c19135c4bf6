// Journal record and snapshot framing for the durable object store.
//
// The write-ahead discipline (the recoverable-server treatment in Aspnes's
// notes, and Amoeba's durable bullet/directory servers in spirit): every
// state change of an object-store shard is first appended to that shard's
// journal as one self-delimiting record; a snapshot is a compact image of
// every live slot, after which the records it subsumes are dead.  Recovery
// replays snapshot-then-journal.  Records carry everything a capability
// needs to survive a crash -- the object number, the secret check-field
// number, and the serialized payload -- so capabilities issued before the
// crash validate unchanged after restart.
//
// Framing.  Each record is `length u32 | checksum u32 | body`, where the
// checksum is FNV-1a over the body.  A crash can tear the tail of an
// append-only journal; decode_journal() stops cleanly at the first
// truncated or corrupt frame instead of failing recovery, which is exactly
// the contract a torn final write needs.  Replay is idempotent: applying a
// prefix of the journal twice (a snapshot installed while the records it
// subsumes are still in the log) converges to the same table.
//
// Groups.  Records travel in groups of per-stream runs (ShardAppend): one
// group is one commit.log frame on a file volume and the append section
// of one replication cycle frame.  Both encode the group body with
// encode_group_body() and read it back with decode_group_body().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "amoeba/common/serial.hpp"
#include "amoeba/common/types.hpp"

namespace amoeba::storage {

/// One journaled state change of one object slot.
enum class RecordType : std::uint8_t {
  create = 1,   // slot became live: secret + payload
  mutate = 2,   // payload overwritten (secret unchanged)
  destroy = 3,  // slot freed; its number returns to the free list
  rotate = 4,   // secret replaced (revocation); payload unchanged
  delta = 5,    // payload patched in place: server-defined byte-range
                // patch applied by the Durability::apply_delta codec (a
                // one-page write no longer journals the whole file image)
  reply_floor = 6,  // reply stream only: a claimed (src, client, seq)
  reply_body = 7,   // reply stream only: a completed reply's body
                    // (storage/reply_stream.hpp)
  rep_applied = 8,  // backup volumes' reply stream only: the replication
                    // LSN of the cycle its commit frame applied
                    // (storage/replication/replica.hpp)
};

/// Decoded journal record.  `payload` is the server-defined serialized
/// object image (valid for create/mutate); `secret` is the check-field
/// secret (valid for create/rotate).  `lsn` is the shard-local log
/// sequence number: replay skips records at or below the snapshot's
/// applied LSN, so records a snapshot subsumes but the journal still holds
/// replay as no-ops instead of regressing payloads.
struct Record {
  RecordType type = RecordType::create;
  ObjectNumber object;
  std::uint64_t secret = 0;
  std::uint64_t lsn = 0;
  Buffer payload;
};

/// FNV-1a over `bytes`: the checksum every frame in the storage layer uses
/// (journal records here, commit-log frames, replication cycle frames).
[[nodiscard]] std::uint32_t frame_checksum(std::span<const std::uint8_t> bytes);

/// One stream-addressed run of framed records: an entry of a group.
struct ShardAppend {
  std::size_t shard = 0;
  Buffer bytes;
};

/// Appends a group body to `out`:
/// `count u32 | count x (stream u32 | run u32 + bytes)`.
void encode_group_body(std::span<const ShardAppend> appends, Buffer& out);

/// Encodes `appends` as one commit.log frame into `frame` (cleared first):
/// `length u32 | checksum u32 | group body`.
void encode_group_frame(std::span<const ShardAppend> appends, Buffer& frame);

/// Decodes a group body that fills `body` exactly.  False on a count
/// larger than the bytes left, a short entry, or trailing bytes.
[[nodiscard]] bool decode_group_body(std::span<const std::uint8_t> body,
                                     std::vector<ShardAppend>& out);

/// Appends one framed record to `out` (length + checksum + body).
void encode_record(const Record& record, Buffer& out);

/// Field-wise form of encode_record for the journaling hot path: the
/// payload arrives as a view (typically a reused scratch buffer), so one
/// append costs no intermediate allocations.
void encode_record_into(RecordType type, ObjectNumber object,
                        std::uint64_t secret, std::uint64_t lsn,
                        std::span<const std::uint8_t> payload, Buffer& out);

/// Parses a journal byte run into records, tolerating a torn tail: a
/// truncated or checksum-failing frame ends the parse (everything before
/// it is returned).  `torn_tail`, when non-null, reports whether the
/// journal ended mid-frame.
[[nodiscard]] std::vector<Record> decode_journal(
    std::span<const std::uint8_t> journal, bool* torn_tail = nullptr);

/// One live slot inside a shard snapshot.
struct SnapshotSlot {
  ObjectNumber object;
  std::uint64_t secret = 0;
  Buffer payload;
};

/// Serializes a shard snapshot (magic + version + applied LSN + slot
/// images).  `applied_lsn` is the LSN of the last journal record the
/// snapshot subsumes.
[[nodiscard]] Buffer encode_snapshot(const std::vector<SnapshotSlot>& slots,
                                     std::uint64_t applied_lsn);

/// Parses a shard snapshot; empty input decodes as an empty snapshot with
/// applied LSN 0.  Returns false on a malformed (non-empty,
/// non-conforming) image.
[[nodiscard]] bool decode_snapshot(std::span<const std::uint8_t> bytes,
                                   std::vector<SnapshotSlot>& out,
                                   std::uint64_t& applied_lsn);

/// Header-only read of a snapshot image's applied LSN (0 for an empty or
/// malformed image).  The file backend uses this as its commit-log GC
/// floor without paying for a full slot decode.
[[nodiscard]] std::uint64_t peek_snapshot_lsn(
    std::span<const std::uint8_t> bytes);

}  // namespace amoeba::storage
