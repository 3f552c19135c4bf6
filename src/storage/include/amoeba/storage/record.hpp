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
// prefix of the journal twice converges to the same table.
//
// Snapshot records.  A snapshot image travels as one more record type,
// `snapshot`, whose lsn is the image's applied LSN.  A stream's STATE is
// its newest snapshot record plus every non-snapshot record with a larger
// lsn; live_records() applies the rule for recovery.  Images are taken at
// a checkpoint, so a log holds them in its first frame only.
//
// Frames.  Records travel in groups of per-stream runs (ShardAppend); one
// group is one commit.log FRAME, numbered by the volume's frame sequence
// and flagged when it is a checkpoint.  A frame is written to the log and
// shipped to backups as the same bytes (encode_frame / decode_frame).
#pragma once

#include <cstdint>
#include <optional>
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
  // 8 is retired: format 6's rep_applied backup floor marker.
  snapshot = 9,     // any stream: payload is a whole snapshot image (the
                    // encode_snapshot() bytes), lsn its applied LSN
  incarnation = 10,  // reply stream only: the incarnation number a server
                     // boot drew (storage/reply_stream.hpp)
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
/// (journal records and commit.log frames).
[[nodiscard]] std::uint32_t frame_checksum(std::span<const std::uint8_t> bytes);

/// One stream-addressed run of framed records: an entry of a group.
struct ShardAppend {
  std::size_t shard = 0;
  Buffer bytes;
};

/// One decoded commit.log frame: the volume's frame sequence number, the
/// checkpoint flag, and the group's per-stream runs.
struct Frame {
  std::uint64_t seq = 0;
  bool checkpoint = false;
  std::vector<ShardAppend> appends;
};

/// Appends one frame to `out`: `length u32 | checksum u32 | body`, the body
/// `seq u64 | flags u8 | count u32 | count x (stream u32 | run u32 +
/// bytes)`, flags bit 0 the checkpoint flag, the checksum FNV-1a over the
/// body.
void encode_frame(std::uint64_t seq, bool checkpoint,
                  std::span<const ShardAppend> appends, Buffer& out);

/// Decodes the frame at the front of `bytes` (more may follow it).
/// Returns its size, or 0 when it is torn, fails its checksum, sets an
/// unknown flag, or its group body is malformed: a count larger than the
/// bytes left can hold (8 per entry), a short entry, or trailing bytes.
[[nodiscard]] std::size_t decode_frame(std::span<const std::uint8_t> bytes,
                                       Frame& out);

/// commit.log opens with `magic u32 ("AMCL") | version u16 (7)`, written
/// together with its first frame; an empty log has no header.
inline constexpr std::size_t kLogHeaderBytes = 6;
void encode_log_header(Buffer& out);
/// The frames of a whole log (what follows its header); empty for an
/// empty log or one without a format-7 header.
[[nodiscard]] std::span<const std::uint8_t> log_frames(
    std::span<const std::uint8_t> log);
/// True when `log` opens with the format-7 header; a non-empty log shorter
/// than the header must be a prefix of it (a torn first write).
[[nodiscard]] bool has_log_header(std::span<const std::uint8_t> log);

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

/// The frame size, type and LSN of the record framed at the front of a
/// journal byte run, read from the header alone (no checksum, no decode).
struct RecordHeader {
  std::size_t size = 0;  // the whole frame: length + checksum + body
  RecordType type = RecordType::create;
  std::uint64_t lsn = 0;
};
[[nodiscard]] std::optional<RecordHeader> peek_record(
    std::span<const std::uint8_t> bytes);

/// Appends one framed snapshot record carrying `image` to `out`; its lsn
/// is the image's applied LSN (0 for an empty image).
void encode_snapshot_record(std::span<const std::uint8_t> image, Buffer& out);

/// One stream's record run reduced to its state: the newest snapshot
/// record first, then, in run order, every non-snapshot record above its
/// lsn (all of them when it has none).  Stops at a malformed record, as
/// replay does.  This is what Backend::read_stream returns to recovery.
[[nodiscard]] Buffer live_records(std::span<const std::uint8_t> run);

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
/// malformed image): a snapshot record's lsn, without a full slot decode.
[[nodiscard]] std::uint64_t peek_snapshot_lsn(
    std::span<const std::uint8_t> bytes);

}  // namespace amoeba::storage
