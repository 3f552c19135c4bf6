// Journal record and snapshot encoding for the durable object store.
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
// Encoding (on-disk format 9).  A record is `type u8 | object varint |
// [secret u64, create and rotate only] | lsn varint | payload length
// varint + bytes`, with no length or checksum of its own: records only
// ever travel inside a commit.log frame (or a checkpoint frame), whose
// FNV-1a checksum covers them.  A crash can tear the tail of the log, and
// recovery drops the torn FRAME whole; inside an intact frame a record
// that does not parse is corruption, and the volume is refused.  Replay is
// idempotent: applying a prefix of the journal twice converges to the
// same table.
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
// The group committer may pad a frame with zero bytes to the end of the
// log page it ends in (pad_frame), so that the next frame starts on a
// fresh page; a flag says so, and the checksum covers the pad.
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

/// FNV-1a over `bytes`: the checksum of a commit.log frame.
[[nodiscard]] std::uint32_t frame_checksum(std::span<const std::uint8_t> bytes);

/// One stream-addressed run of encoded records: an entry of a group.
struct ShardAppend {
  std::size_t shard = 0;
  Buffer bytes;
};

/// One decoded commit.log frame: the volume's frame sequence number, the
/// checkpoint flag, the group's per-stream runs, and the zero bytes that
/// pad its body.
struct Frame {
  std::uint64_t seq = 0;
  bool checkpoint = false;
  std::vector<ShardAppend> appends;
  std::size_t pad = 0;
};

/// Appends one frame to `out`: `length u32 | checksum u32 | body`, the body
/// `seq u64 | flags u8 | count u32 | count x (stream varint | run length
/// varint + bytes) | pad`, flags bit 0 the checkpoint flag, the checksum
/// FNV-1a over the body.  The pad is empty here (see pad_frame).
void encode_frame(std::uint64_t seq, bool checkpoint,
                  std::span<const ShardAppend> appends, Buffer& out);

/// Pads `frame`, which holds exactly one unpadded encode_frame() frame,
/// with `pad` zero bytes: sets flags bit 1 and re-seals its length and
/// checksum over the padded body.  No-op for `pad` 0.
void pad_frame(Buffer& frame, std::size_t pad);

/// Decodes the frame at the front of `bytes` (more may follow it).
/// Returns its size, or 0 when it is torn, fails its checksum, sets an
/// unknown flag, or its group body is malformed: a count larger than the
/// bytes left can hold (2 per entry), a short entry, or bytes after the
/// entries that are not a pad.  A pad is one or more zero bytes, present
/// exactly when flags bit 1 is set.  The runs' records are not parsed
/// here (walk_frames checks them).
[[nodiscard]] std::size_t decode_frame(std::span<const std::uint8_t> bytes,
                                       Frame& out);

/// The on-disk format this build reads and writes.
inline constexpr std::uint16_t kLogFormat = 9;
/// commit.log opens with `magic u32 ("AMCL") | version u16 (kLogFormat)`,
/// written together with its first frame; an empty log has no header.
inline constexpr std::size_t kLogHeaderBytes = 6;
void encode_log_header(Buffer& out);
/// The frames of a whole log (what follows its header); empty for an
/// empty log or one without this format's header.
[[nodiscard]] std::span<const std::uint8_t> log_frames(
    std::span<const std::uint8_t> log);
/// True when `log` opens with this format's header; a non-empty log
/// shorter than the header must be a prefix of it (a torn first write).
[[nodiscard]] bool has_log_header(std::span<const std::uint8_t> log);
/// The version an `AMCL` header names (formats 7 and later); nullopt when
/// `log` does not open with a whole one.
[[nodiscard]] std::optional<std::uint16_t> log_version(
    std::span<const std::uint8_t> log);

/// Appends one record to `out`.  The payload arrives as a view (typically
/// a reused scratch buffer), so one append costs no intermediate
/// allocations.  `secret` is written only for create and rotate.
void encode_record_into(RecordType type, ObjectNumber object,
                        std::uint64_t secret, std::uint64_t lsn,
                        std::span<const std::uint8_t> payload, Buffer& out);

/// The size, type, LSN and payload offset of the record at the front of a
/// run, read from its header alone.  nullopt when the header does not
/// parse: a field runs past the bytes, a varint is overlong or wider than
/// its field (an object above ObjectNumber's 24 bits), the type is unknown
/// (0, 8, or above 10), or the payload length runs past the bytes.
struct RecordHeader {
  std::size_t size = 0;  // the whole record: header and payload
  RecordType type = RecordType::create;
  std::uint64_t lsn = 0;
  std::size_t payload = 0;  // where the payload starts
};
[[nodiscard]] std::optional<RecordHeader> peek_record(
    std::span<const std::uint8_t> bytes);

/// Decodes the record at the front of `bytes` into `out`; returns its size,
/// or 0 when peek_record refuses it.  A decoded record re-encodes to the
/// same bytes (secret 0 for a type that carries none).
[[nodiscard]] std::size_t decode_record(std::span<const std::uint8_t> bytes,
                                        Record& out);

/// True when `run` is a sequence of whole records, nothing left over.
[[nodiscard]] bool whole_records(std::span<const std::uint8_t> run);

/// Parses a run of records.  A record that does not parse is corruption
/// (a torn write tears its frame, never a record inside an intact one):
/// throws UsageError.
[[nodiscard]] std::vector<Record> decode_journal(
    std::span<const std::uint8_t> run);

/// Appends one snapshot record carrying `image` to `out`; its lsn is the
/// image's applied LSN (0 for an empty image).
void encode_snapshot_record(std::span<const std::uint8_t> image, Buffer& out);

/// One stream's record run reduced to its state: the newest snapshot
/// record first, then, in run order, every non-snapshot record above its
/// lsn (all of them when it has none).  Records are copied as opaque
/// spans, found by peek_record; a malformed one ends the run (walk_frames
/// refuses a frame holding one before a log gets here).  This is what
/// Backend::read_stream returns to recovery.
[[nodiscard]] Buffer live_records(std::span<const std::uint8_t> run);

/// One live slot inside a shard snapshot.
struct SnapshotSlot {
  ObjectNumber object;
  std::uint64_t secret = 0;
  Buffer payload;
};

/// Serializes a shard snapshot: `magic u32 | version u16 | applied_lsn
/// u64 | count u32 | count x (object varint | secret u64 | payload length
/// varint + bytes)`.  `applied_lsn` is the LSN of the last journal record
/// the snapshot subsumes.
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
