#include "amoeba/storage/record.hpp"

#include <algorithm>

namespace amoeba::storage {
namespace {

constexpr std::uint32_t kSnapshotMagic = 0x414D534Eu;  // "AMSN"
constexpr std::uint16_t kSnapshotVersion = 1;
constexpr std::uint32_t kLogMagic = 0x4C434D41u;  // "AMCL"
constexpr std::uint16_t kLogVersion = 7;          // the on-disk format
constexpr std::uint8_t kCheckpointFlag = 0x01;

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
  // Framed in place (this is the journaling hot path: one reserve, no
  // temporary buffers): length u32 | checksum u32 | body, both patched
  // once the body is written.  Growth stays geometric when records
  // accumulate into one buffer (recovery merges, commit-log GC): a bare
  // reserve(size + frame) would reallocate -- and copy the whole journal
  // -- once per record.
  const std::size_t need = out.size() + 8 + 25 + payload.size();
  if (out.capacity() < need) {
    out.reserve(std::max(need, out.capacity() * 2));
  }
  const std::size_t frame_at = out.size();
  put_u32(out, 0);  // length placeholder
  put_u32(out, 0);  // checksum placeholder
  const std::size_t body_at = out.size();
  out.push_back(static_cast<std::uint8_t>(type));
  put_u32(out, object.value());
  put_u64(out, secret);
  put_u64(out, lsn);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  const auto body = std::span<const std::uint8_t>(out.data() + body_at,
                                                  out.size() - body_at);
  patch_u32(out, frame_at, static_cast<std::uint32_t>(body.size()));
  patch_u32(out, frame_at + 4, frame_checksum(body));
}

void encode_frame(std::uint64_t seq, bool checkpoint,
                  std::span<const ShardAppend> appends, Buffer& out) {
  std::size_t need = out.size() + 8 + 13;
  for (const ShardAppend& a : appends) {
    need += 8 + a.bytes.size();
  }
  out.reserve(need);
  const std::size_t frame_at = out.size();
  put_u32(out, 0);  // length placeholder
  put_u32(out, 0);  // checksum placeholder
  put_u64(out, seq);
  out.push_back(checkpoint ? kCheckpointFlag : 0);
  put_u32(out, static_cast<std::uint32_t>(appends.size()));
  for (const ShardAppend& a : appends) {
    put_u32(out, static_cast<std::uint32_t>(a.shard));
    put_u32(out, static_cast<std::uint32_t>(a.bytes.size()));
    out.insert(out.end(), a.bytes.begin(), a.bytes.end());
  }
  const auto body = std::span<const std::uint8_t>(out.data() + frame_at + 8,
                                                  out.size() - frame_at - 8);
  patch_u32(out, frame_at, static_cast<std::uint32_t>(body.size()));
  patch_u32(out, frame_at + 4, frame_checksum(body));
}

std::size_t decode_frame(std::span<const std::uint8_t> bytes, Frame& out) {
  out.appends.clear();
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
  // Every entry takes at least 8 bytes (stream and run length): a hostile
  // count is rejected before it sizes an allocation.
  if (!r.ok() || (flags & ~kCheckpointFlag) != 0 ||
      count > r.remaining() / 8) {
    return 0;
  }
  out.appends.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t shard = r.u32();
    Buffer run = r.bytes();
    if (!r.ok()) {
      return 0;
    }
    out.appends.push_back({static_cast<std::size_t>(shard), std::move(run)});
  }
  return r.exhausted() ? 8 + std::size_t{length} : 0;
}

void encode_log_header(Buffer& out) {
  put_u32(out, kLogMagic);
  out.push_back(static_cast<std::uint8_t>(kLogVersion));
  out.push_back(static_cast<std::uint8_t>(kLogVersion >> 8));
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

void encode_record(const Record& record, Buffer& out) {
  encode_record_into(record.type, record.object, record.secret, record.lsn,
                     record.payload, out);
}

std::vector<Record> decode_journal(std::span<const std::uint8_t> journal,
                                   bool* torn_tail) {
  std::vector<Record> records;
  if (torn_tail != nullptr) {
    *torn_tail = false;
  }
  std::size_t pos = 0;
  while (pos < journal.size()) {
    Reader frame(journal.subspan(pos));
    const std::uint32_t length = frame.u32();
    const std::uint32_t checksum = frame.u32();
    if (!frame.ok() || frame.remaining() < length) {
      if (torn_tail != nullptr) {
        *torn_tail = true;  // torn final append: recovery stops here
      }
      break;
    }
    const auto body = journal.subspan(pos + 8, length);
    if (frame_checksum(body) != checksum) {
      if (torn_tail != nullptr) {
        *torn_tail = true;
      }
      break;
    }
    Reader r(body);
    Record record;
    record.type = static_cast<RecordType>(r.u8());
    record.object = r.object();
    record.secret = r.u64();
    record.lsn = r.u64();
    record.payload = r.bytes();
    if (!r.ok() || record.type < RecordType::create ||
        record.type > RecordType::incarnation ||
        static_cast<int>(record.type) == 8) {
      if (torn_tail != nullptr) {
        *torn_tail = true;
      }
      break;
    }
    records.push_back(std::move(record));
    pos += 8 + length;
  }
  return records;
}

std::optional<RecordHeader> peek_record(std::span<const std::uint8_t> bytes) {
  // Frame: length u32 | checksum u32 | type u8 | object u32 | secret u64 |
  // lsn u64 | payload.
  Reader r(bytes);
  const std::uint32_t length = r.u32();
  r.u32();
  const auto type = static_cast<RecordType>(r.u8());
  r.u32();
  r.u64();
  const std::uint64_t lsn = r.u64();
  if (!r.ok() || length < 25 || bytes.size() - 8 < length) {
    return std::nullopt;
  }
  return RecordHeader{8 + std::size_t{length}, type, lsn};
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
  while (const auto record = peek_record(run.subspan(pos))) {
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
    w.object(slot.object);
    w.u64(slot.secret);
    w.bytes(slot.payload);
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
  // A slot takes at least 16 bytes: a hostile count cannot force a huge
  // reserve before the reads below fail.
  out.reserve(std::min<std::size_t>(count, r.remaining() / 16));
  for (std::uint32_t i = 0; i < count; ++i) {
    SnapshotSlot slot;
    slot.object = r.object();
    slot.secret = r.u64();
    slot.payload = r.bytes();
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
