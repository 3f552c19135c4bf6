#include "amoeba/storage/record.hpp"

#include <algorithm>
#include <string>

#include "amoeba/common/error.hpp"

namespace amoeba::storage {
namespace {

constexpr std::uint32_t kSnapshotMagic = 0x414D534Eu;  // "AMSN"
constexpr std::uint16_t kSnapshotVersion = 2;
constexpr std::uint32_t kLogMagic = 0x4C434D41u;  // "AMCL"
constexpr std::uint8_t kCheckpointFlag = 0x01;
constexpr std::uint8_t kPadFlag = 0x02;  // the body ends in zero padding
/// Where a frame's flags byte sits: behind length, checksum and seq.
constexpr std::size_t kFlagsAt = 4 + 4 + 8;
/// The longest record header: type, object, secret, lsn, payload length.
constexpr std::size_t kMaxRecordHeader = 1 + 5 + 8 + 10 + 10;

[[nodiscard]] bool carries_secret(RecordType type) {
  return type == RecordType::create || type == RecordType::rotate;
}

[[nodiscard]] bool known_type(RecordType type) {
  // 8 is retired (format 6's rep_applied).
  return type >= RecordType::create && type <= RecordType::incarnation &&
         static_cast<int>(type) != 8;
}

}  // namespace

std::uint32_t frame_checksum(std::span<const std::uint8_t> bytes) {
  std::uint32_t h = 0x811C9DC5u;  // FNV-1a
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x01000193u;
  }
  return h;
}

namespace {

inline void put_u32(Buffer& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void put_u64(Buffer& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void patch_u32(Buffer& out, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace

void encode_record_into(RecordType type, ObjectNumber object,
                        std::uint64_t secret, std::uint64_t lsn,
                        std::span<const std::uint8_t> payload, Buffer& out) {
  // Encoded in place (this is the journaling hot path: no temporary
  // buffers).  Growth stays geometric when records accumulate into one
  // buffer (a checkpoint's images, recovery's runs): a bare reserve(size +
  // record) would reallocate -- and copy the whole run -- once per record.
  const std::size_t need = out.size() + kMaxRecordHeader + payload.size();
  if (out.capacity() < need) {
    out.reserve(std::max(need, out.capacity() * 2));
  }
  out.push_back(static_cast<std::uint8_t>(type));
  append_varint(out, object.value());
  if (carries_secret(type)) {
    put_u64(out, secret);
  }
  append_varint(out, lsn);
  append_varint(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
}

void encode_frame(std::uint64_t seq, bool checkpoint,
                  std::span<const ShardAppend> appends, Buffer& out) {
  std::size_t need = out.size() + 8 + 13;
  for (const ShardAppend& a : appends) {
    need += 20 + a.bytes.size();
  }
  out.reserve(need);
  const std::size_t frame_at = out.size();
  put_u32(out, 0);  // length placeholder
  put_u32(out, 0);  // checksum placeholder
  put_u64(out, seq);
  out.push_back(checkpoint ? kCheckpointFlag : 0);
  put_u32(out, static_cast<std::uint32_t>(appends.size()));
  for (const ShardAppend& a : appends) {
    append_varint(out, a.shard);
    append_varint(out, a.bytes.size());
    out.insert(out.end(), a.bytes.begin(), a.bytes.end());
  }
  const auto body = std::span<const std::uint8_t>(out.data() + frame_at + 8,
                                                  out.size() - frame_at - 8);
  patch_u32(out, frame_at, static_cast<std::uint32_t>(body.size()));
  patch_u32(out, frame_at + 4, frame_checksum(body));
}

void pad_frame(Buffer& frame, std::size_t pad) {
  if (pad == 0) {
    return;
  }
  frame.at(kFlagsAt) |= kPadFlag;
  frame.resize(frame.size() + pad, 0);
  const auto body =
      std::span<const std::uint8_t>(frame.data() + 8, frame.size() - 8);
  patch_u32(frame, 0, static_cast<std::uint32_t>(body.size()));
  patch_u32(frame, 4, frame_checksum(body));
}

std::size_t decode_frame(std::span<const std::uint8_t> bytes, Frame& out) {
  out.appends.clear();
  out.pad = 0;
  Reader header(bytes);
  const std::uint32_t length = header.u32();
  const std::uint32_t checksum = header.u32();
  if (!header.ok() || header.remaining() < length) {
    return 0;  // torn
  }
  const auto body = bytes.subspan(8, length);
  if (frame_checksum(body) != checksum) {
    return 0;
  }
  Reader r(body);
  out.seq = r.u64();
  const std::uint8_t flags = r.u8();
  out.checkpoint = (flags & kCheckpointFlag) != 0;
  const std::uint32_t count = r.u32();
  // Every entry takes at least 2 bytes (stream and run length): a hostile
  // count is rejected before it sizes an allocation.
  if (!r.ok() || (flags & ~(kCheckpointFlag | kPadFlag)) != 0 ||
      count > r.remaining() / 2) {
    return 0;
  }
  out.appends.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t shard = r.varint(UINT32_MAX);
    Buffer run = r.vbytes();
    if (!r.ok()) {
      return 0;
    }
    out.appends.push_back({static_cast<std::size_t>(shard), std::move(run)});
  }
  // What the entries leave of the body is the pad: flagged, non-empty and
  // all zero, or absent and unflagged.
  const auto pad = body.last(r.remaining());
  const bool padded = (flags & kPadFlag) != 0;
  if (padded == pad.empty() ||
      std::any_of(pad.begin(), pad.end(),
                  [](std::uint8_t b) { return b != 0; })) {
    return 0;
  }
  out.pad = pad.size();
  return 8 + std::size_t{length};
}

void encode_log_header(Buffer& out) {
  put_u32(out, kLogMagic);
  out.push_back(static_cast<std::uint8_t>(kLogFormat));
  out.push_back(static_cast<std::uint8_t>(kLogFormat >> 8));
}

std::optional<std::uint16_t> log_version(std::span<const std::uint8_t> log) {
  Reader r(log);
  const std::uint32_t magic = r.u32();
  const std::uint16_t version = r.u16();
  if (!r.ok() || magic != kLogMagic) {
    return std::nullopt;
  }
  return version;
}

bool has_log_header(std::span<const std::uint8_t> log) {
  Buffer header;
  encode_log_header(header);
  const std::size_t n = std::min(log.size(), header.size());
  return std::equal(log.begin(), log.begin() + static_cast<std::ptrdiff_t>(n),
                    header.begin());
}

std::span<const std::uint8_t> log_frames(std::span<const std::uint8_t> log) {
  if (log.size() < kLogHeaderBytes || !has_log_header(log)) {
    return {};
  }
  return log.subspan(kLogHeaderBytes);
}

std::optional<RecordHeader> peek_record(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  const auto type = static_cast<RecordType>(r.u8());
  r.varint(ObjectNumber::kMask);  // object
  if (carries_secret(type)) {
    r.u64();
  }
  const std::uint64_t lsn = r.varint();
  const std::uint64_t length = r.varint();
  if (!r.ok() || !known_type(type) || length > r.remaining()) {
    return std::nullopt;
  }
  const std::size_t payload = bytes.size() - r.remaining();
  return RecordHeader{payload + length, type, lsn, payload};
}

std::size_t decode_record(std::span<const std::uint8_t> bytes, Record& out) {
  const auto header = peek_record(bytes);
  if (!header) {
    return 0;
  }
  Reader r(bytes.subspan(1));
  out.type = header->type;
  out.object = ObjectNumber(static_cast<std::uint32_t>(r.varint()));
  out.secret = carries_secret(out.type) ? r.u64() : 0;
  out.lsn = header->lsn;
  out.payload.assign(bytes.begin() + header->payload,
                     bytes.begin() + header->size);
  return header->size;
}

bool whole_records(std::span<const std::uint8_t> run) {
  std::size_t pos = 0;
  while (pos < run.size()) {
    const auto record = peek_record(run.subspan(pos));
    if (!record) {
      return false;
    }
    pos += record->size;
  }
  return true;
}

std::vector<Record> decode_journal(std::span<const std::uint8_t> run) {
  std::vector<Record> records;
  std::size_t pos = 0;
  while (pos < run.size()) {
    Record record;
    const std::size_t size = decode_record(run.subspan(pos), record);
    if (size == 0) {
      throw UsageError("storage: a record at byte " + std::to_string(pos) +
                       " of a stream's run does not parse");
    }
    records.push_back(std::move(record));
    pos += size;
  }
  return records;
}

void encode_snapshot_record(std::span<const std::uint8_t> image, Buffer& out) {
  encode_record_into(RecordType::snapshot, ObjectNumber{}, 0,
                     peek_snapshot_lsn(image), image, out);
}

Buffer live_records(std::span<const std::uint8_t> run) {
  // First pass: where the newest snapshot record sits.  Records are
  // copied as opaque spans: no decode, no per-record allocation.
  std::optional<RecordHeader> image;
  std::size_t image_at = 0;
  std::size_t pos = 0;
  while (pos < run.size()) {
    const auto record = peek_record(run.subspan(pos));
    if (!record) {
      break;
    }
    if (record->type == RecordType::snapshot) {
      image = record;
      image_at = pos;
    }
    pos += record->size;
  }
  const std::size_t end = pos;
  const std::uint64_t floor = image ? image->lsn : 0;
  Buffer live;
  live.reserve(end);
  if (image) {
    live.insert(live.end(), run.begin() + image_at,
                run.begin() + image_at + image->size);
  }
  for (pos = 0; pos < end;) {
    const RecordHeader record = *peek_record(run.subspan(pos));
    if (record.type != RecordType::snapshot && record.lsn > floor) {
      live.insert(live.end(), run.begin() + pos,
                  run.begin() + pos + record.size);
    }
    pos += record.size;
  }
  return live;
}

Buffer encode_snapshot(const std::vector<SnapshotSlot>& slots,
                       std::uint64_t applied_lsn) {
  Writer w;
  w.u32(kSnapshotMagic);
  w.u16(kSnapshotVersion);
  w.u64(applied_lsn);
  w.u32(static_cast<std::uint32_t>(slots.size()));
  for (const SnapshotSlot& slot : slots) {
    w.varint(slot.object.value());
    w.u64(slot.secret);
    w.vbytes(slot.payload);
  }
  return w.take();
}

bool decode_snapshot(std::span<const std::uint8_t> bytes,
                     std::vector<SnapshotSlot>& out,
                     std::uint64_t& applied_lsn) {
  out.clear();
  applied_lsn = 0;
  if (bytes.empty()) {
    return true;  // fresh shard: no snapshot installed yet
  }
  Reader r(bytes);
  if (r.u32() != kSnapshotMagic || r.u16() != kSnapshotVersion) {
    return false;
  }
  applied_lsn = r.u64();
  const std::uint32_t count = r.u32();
  // A slot takes at least 10 bytes: a hostile count cannot force a huge
  // reserve before the reads below fail.
  out.reserve(std::min<std::size_t>(count, r.remaining() / 10));
  for (std::uint32_t i = 0; i < count; ++i) {
    SnapshotSlot slot;
    slot.object =
        ObjectNumber(static_cast<std::uint32_t>(r.varint(ObjectNumber::kMask)));
    slot.secret = r.u64();
    slot.payload = r.vbytes();
    if (!r.ok()) {
      out.clear();
      return false;
    }
    out.push_back(std::move(slot));
  }
  return r.exhausted();
}

std::uint64_t peek_snapshot_lsn(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  const std::uint32_t magic = r.u32();
  const std::uint16_t version = r.u16();
  const std::uint64_t applied_lsn = r.u64();
  if (!r.ok() || magic != kSnapshotMagic || version != kSnapshotVersion) {
    return 0;
  }
  return applied_lsn;
}

}  // namespace amoeba::storage
