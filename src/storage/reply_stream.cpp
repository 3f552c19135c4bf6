#include "amoeba/storage/reply_stream.hpp"

#include <algorithm>
#include <vector>

#include "amoeba/common/error.hpp"
#include "amoeba/storage/backend.hpp"

namespace amoeba::storage {
namespace {

/// The snapshot slot that carries the incarnation; client rows use object 0.
constexpr ObjectNumber kIncarnationSlot{1};

void merge_row(ReplyRows& rows, std::uint32_t src, std::uint64_t client,
               std::uint64_t floor,
               std::vector<std::pair<std::uint64_t, Buffer>>&& bodies) {
  ReplyRow& row = rows[{src, client}];
  row.floor = std::max(row.floor, floor);
  for (auto& [seq, body] : bodies) {
    row.floor = std::max(row.floor, seq);
    row.bodies.insert_or_assign(seq, std::move(body));
  }
  while (row.bodies.size() > kReplyBodiesPerClient) {
    row.bodies.erase(row.bodies.begin());
  }
}

/// A floor or body record's key: `src varint | client u64 | seq varint`.
void put_key(Writer& w, std::uint32_t src, std::uint64_t client,
             std::uint64_t seq) {
  w.varint(src);
  w.u64(client);
  w.varint(seq);
}

/// Reads `count` (seq, body) pairs; false on underflow or a hostile count.
bool read_bodies(Reader& r, std::uint64_t count,
                 std::vector<std::pair<std::uint64_t, Buffer>>& out) {
  if (count > r.remaining() / 2) {
    return false;  // each body takes at least 2 bytes: reject before reserve
  }
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t seq = r.varint();
    Buffer body = r.vbytes();
    if (!r.ok() || seq == 0) {
      return false;
    }
    out.emplace_back(seq, std::move(body));
  }
  return true;
}

}  // namespace

void encode_reply_floor(std::uint32_t src, std::uint64_t client,
                        std::uint64_t seq, std::uint64_t lsn, Buffer& out) {
  Writer payload;
  put_key(payload, src, client, seq);
  encode_record_into(RecordType::reply_floor, ObjectNumber{}, 0, lsn,
                     payload.buffer(), out);
}

void encode_reply_body(std::uint32_t src, std::uint64_t client,
                       std::uint64_t seq, std::span<const std::uint8_t> body,
                       std::uint64_t lsn, Buffer& out) {
  Writer payload;
  put_key(payload, src, client, seq);
  payload.raw(body);
  encode_record_into(RecordType::reply_body, ObjectNumber{}, 0, lsn,
                     payload.buffer(), out);
}

void encode_reply_incarnation(std::uint64_t incarnation, std::uint64_t lsn,
                              Buffer& out) {
  Writer payload;
  payload.varint(incarnation);
  encode_record_into(RecordType::incarnation, ObjectNumber{}, 0, lsn,
                     payload.buffer(), out);
}

std::optional<std::uint64_t> decode_reply_incarnation(const Record& record) {
  if (record.type != RecordType::incarnation) {
    return std::nullopt;
  }
  Reader r(record.payload);
  const std::uint64_t incarnation = r.varint();
  if (!r.exhausted() || incarnation == 0) {
    return std::nullopt;
  }
  return incarnation;
}

bool merge_reply_record(const Record& record, ReplyRows& rows) {
  if (record.type != RecordType::reply_floor &&
      record.type != RecordType::reply_body) {
    return false;
  }
  Reader r(record.payload);
  const auto src = static_cast<std::uint32_t>(r.varint(UINT32_MAX));
  const std::uint64_t client = r.u64();
  const std::uint64_t seq = r.varint();
  if (!r.ok() || seq == 0) {
    return false;
  }
  std::vector<std::pair<std::uint64_t, Buffer>> bodies;
  if (record.type == RecordType::reply_body) {
    // The body is the rest of the payload.
    Buffer body(r.remaining());
    r.raw(body);
    bodies.emplace_back(seq, std::move(body));
  }
  if (!r.exhausted()) {
    return false;
  }
  merge_row(rows, src, client, seq, std::move(bodies));
  return true;
}

Buffer encode_reply_snapshot(const ReplyRows& rows, std::uint64_t applied_lsn,
                             std::uint64_t incarnation) {
  std::vector<SnapshotSlot> slots;
  slots.reserve(rows.size() + 1);
  if (incarnation != 0) {
    Writer w;
    w.varint(incarnation);
    slots.push_back({kIncarnationSlot, 0, w.take()});
  }
  for (const auto& [key, row] : rows) {
    Writer w;
    put_key(w, key.first, key.second, row.floor);
    w.varint(row.bodies.size());
    for (const auto& [seq, body] : row.bodies) {
      w.varint(seq);
      w.vbytes(body);
    }
    slots.push_back({ObjectNumber{}, 0, w.take()});
  }
  return encode_snapshot(slots, applied_lsn);
}

bool merge_reply_snapshot(std::span<const std::uint8_t> image,
                          ReplyRows& rows, std::uint64_t& applied_lsn,
                          std::uint64_t* incarnation) {
  std::vector<SnapshotSlot> slots;
  if (!decode_snapshot(image, slots, applied_lsn)) {
    applied_lsn = 0;
    return false;
  }
  for (const SnapshotSlot& slot : slots) {
    Reader r(slot.payload);
    if (slot.object == kIncarnationSlot) {
      const std::uint64_t number = r.varint();
      if (r.exhausted() && incarnation != nullptr) {
        *incarnation = std::max(*incarnation, number);
      }
      continue;  // malformed: skipped whole
    }
    const auto src = static_cast<std::uint32_t>(r.varint(UINT32_MAX));
    const std::uint64_t client = r.u64();
    const std::uint64_t floor = r.varint();
    std::vector<std::pair<std::uint64_t, Buffer>> bodies;
    if (!read_bodies(r, r.varint(), bodies) || !r.exhausted()) {
      continue;  // malformed row: skipped whole
    }
    merge_row(rows, src, client, floor, std::move(bodies));
  }
  return true;
}

ReplyRows read_reply_stream(const Backend& backend, std::uint64_t& last_lsn,
                            std::uint64_t* incarnation) {
  ReplyRows rows;
  const std::size_t stream = backend.reply_stream();
  std::uint64_t applied = 0;
  std::uint64_t newest = 0;
  if (!merge_reply_snapshot(backend.read_snapshot(stream), rows, applied,
                            &newest)) {
    throw UsageError("reply stream: corrupt snapshot on recovery");
  }
  last_lsn = applied;
  // read_journal holds only the records above the image's LSN.
  for (const Record& record : decode_journal(backend.read_journal(stream))) {
    if (const auto number = decode_reply_incarnation(record)) {
      newest = std::max(newest, *number);
    } else {
      (void)merge_reply_record(record, rows);  // malformed: skipped whole
    }
    last_lsn = std::max(last_lsn, record.lsn);
  }
  if (incarnation != nullptr) {
    *incarnation = newest;
  }
  return rows;
}

}  // namespace amoeba::storage
