// A commit.log frame split into its on-disk fields (docs/PROTOCOL.md §8.2
// and §8.5, format 9), for field-level fuzzing.  A fuzzer splits a
// pristine frame, bends one field's bytes, and lays the frame out again:
// every length that encloses the bent field (a record's payload length, a
// run's length, the frame's length and checksum) is recomputed unless the
// bend is that length itself, so the bend reaches the decoder under test
// instead of tripping the checksum.  A frame's pad (zero bytes after its
// runs, announced by flags bit 1) is one more field.  The splitter reads
// only pristine frames; it is not the decoder under test.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/common/serial.hpp"
#include "amoeba/storage/record.hpp"

namespace amoeba::test {

/// One record's fields, each as encoded bytes.
struct RecordFields {
  Buffer type;
  Buffer object;
  Buffer secret;  // empty for a type that carries none
  Buffer lsn;
  Buffer length;  // laid out from `payload` unless `sized` is false
  Buffer payload;
  bool sized = true;
};

/// One stream's run: its header fields and its records.  A `tail` is laid
/// out after the records as it stands (a record cut short).
struct RunFields {
  Buffer stream;
  Buffer length;  // laid out from the records unless `sized` is false
  std::vector<RecordFields> records;
  Buffer tail;
  bool sized = true;
};

struct FrameFields {
  std::uint64_t seq = 0;
  std::uint8_t flags = 0;
  std::uint32_t count = 0;  // laid out as the run count unless `counted`
  bool counted = true;
  std::vector<RunFields> runs;
  Buffer pad;  // laid out after the runs: zero bytes, with flags bit 1
  /// Body bytes the frame's length leaves out at its end (a pad that runs
  /// past the length); the checksum still covers the whole body.
  std::uint32_t unsized = 0;
};

inline constexpr std::uint8_t kPadFlag = 0x02;

[[nodiscard]] inline Buffer varint_bytes(std::uint64_t v) {
  Buffer out;
  append_varint(out, v);
  return out;
}

/// The varint at the front of `bytes` (pristine: shortest form).
[[nodiscard]] inline std::size_t varint_size(std::span<const std::uint8_t> b) {
  std::size_t n = 0;
  while ((b[n] & 0x80) != 0) {
    ++n;
  }
  return n + 1;
}

/// Splits one pristine record run into its records' fields.
[[nodiscard]] inline std::vector<RecordFields> split_records(
    std::span<const std::uint8_t> run) {
  std::vector<RecordFields> records;
  std::size_t pos = 0;
  const auto take = [&](std::size_t n) {
    Buffer out(run.begin() + static_cast<std::ptrdiff_t>(pos),
               run.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
    return out;
  };
  while (pos < run.size()) {
    RecordFields r;
    r.type = take(1);
    const auto type = static_cast<storage::RecordType>(r.type[0]);
    r.object = take(varint_size(run.subspan(pos)));
    if (type == storage::RecordType::create ||
        type == storage::RecordType::rotate) {
      r.secret = take(8);
    }
    r.lsn = take(varint_size(run.subspan(pos)));
    r.length = take(varint_size(run.subspan(pos)));
    Reader length(r.length);
    r.payload = take(length.varint());
    records.push_back(std::move(r));
  }
  return records;
}

/// Splits one pristine encoded frame.
[[nodiscard]] inline FrameFields split_frame(
    std::span<const std::uint8_t> frame) {
  storage::Frame decoded;
  (void)storage::decode_frame(frame, decoded);
  FrameFields out;
  out.seq = decoded.seq;
  out.flags = static_cast<std::uint8_t>((decoded.checkpoint ? 1 : 0) |
                                        (decoded.pad > 0 ? kPadFlag : 0));
  out.count = static_cast<std::uint32_t>(decoded.appends.size());
  out.pad.assign(decoded.pad, 0);
  for (const storage::ShardAppend& a : decoded.appends) {
    RunFields run;
    run.stream = varint_bytes(a.shard);
    run.length = varint_bytes(a.bytes.size());
    run.records = split_records(a.bytes);
    out.runs.push_back(std::move(run));
  }
  return out;
}

/// A run's records (and tail) laid out.
[[nodiscard]] inline Buffer lay_out_records(const RunFields& run) {
  Buffer out;
  for (const RecordFields& r : run.records) {
    for (const Buffer* field : {&r.type, &r.object, &r.secret, &r.lsn}) {
      out.insert(out.end(), field->begin(), field->end());
    }
    const Buffer length = r.sized ? varint_bytes(r.payload.size()) : r.length;
    out.insert(out.end(), length.begin(), length.end());
    out.insert(out.end(), r.payload.begin(), r.payload.end());
  }
  out.insert(out.end(), run.tail.begin(), run.tail.end());
  return out;
}

/// The frame laid out and sealed: `length u32 | checksum u32 | body`.
[[nodiscard]] inline Buffer lay_out(const FrameFields& frame) {
  Writer body;
  body.u64(frame.seq);
  body.u8(frame.flags);
  body.u32(frame.counted ? static_cast<std::uint32_t>(frame.runs.size())
                         : frame.count);
  for (const RunFields& run : frame.runs) {
    const Buffer records = lay_out_records(run);
    body.raw(run.stream);
    body.raw(run.sized ? varint_bytes(records.size()) : run.length);
    body.raw(records);
  }
  body.raw(frame.pad);
  Writer out;
  out.u32(static_cast<std::uint32_t>(body.buffer().size() - frame.unsized));
  out.u32(storage::frame_checksum(body.buffer()));
  out.raw(body.buffer());
  return out.take();
}

/// Bends one varint field: an eleven-byte or a zero-group-padded
/// (overlong) form, a value just past 32 or 64 bits, or a nearby, zero or
/// random value.
inline void bend_varint(Buffer& field, Rng& rng) {
  Reader r(field);
  const std::uint64_t value = r.varint();
  switch (rng.below(7)) {
    case 0:
      field.assign(10, 0x80);
      field.push_back(0x01);  // eleven bytes
      break;
    case 1:
      field.back() |= 0x80;
      field.push_back(0x00);  // a final zero group
      break;
    case 2:
      field = varint_bytes(std::uint64_t{1} << 32);  // wider than a u32
      break;
    case 3:
      field.assign(9, 0xFF);
      field.push_back(0x7F);  // wider than a u64
      break;
    case 4:
      field = varint_bytes(value + 1 + rng.below(3));
      break;
    case 5:
      field = varint_bytes(value == 0 ? 0 : value - 1);
      break;
    default:
      field = varint_bytes(rng.below(2) == 0 ? 0 : rng.next());
      break;
  }
}

/// Bends one field of one record of `run`: its type (8, above 10, or
/// another known type), a varint (object, lsn, payload length), a secret
/// added to a type that carries none or taken from one that does, a
/// payload length past the end of the run, or the last record cut off
/// inside a varint at the run's end.
inline void bend_record(RunFields& run, Rng& rng) {
  if (run.records.empty()) {
    return;
  }
  RecordFields& r = run.records[rng.below(run.records.size())];
  switch (rng.below(7)) {
    case 0: {
      const std::uint8_t types[] = {8, 11, 0xFF, 0, 1, 2, 4, 6, 9};
      r.type = {types[rng.below(std::size(types))]};
      break;
    }
    case 1:
      bend_varint(r.object, rng);
      break;
    case 2:
      bend_varint(r.lsn, rng);
      break;
    case 3:
      r.sized = false;
      r.length = varint_bytes(r.payload.size());
      bend_varint(r.length, rng);
      break;
    case 4:
      if (r.secret.empty()) {
        r.secret.assign(8, static_cast<std::uint8_t>(rng.next()));
      } else {
        r.secret.clear();
      }
      break;
    case 5: {
      // A payload length past the end of the run.
      r.sized = false;
      r.length = varint_bytes(r.payload.size() + 1 + rng.below(300));
      break;
    }
    default: {
      // The run ends inside a varint: the last record's header stops at
      // a byte whose continuation bit is set.
      RecordFields& last = run.records.back();
      Buffer cut = last.type;
      const Buffer* fields[] = {&last.object, &last.lsn};
      const Buffer& field = *fields[rng.below(2)];
      if (&field == &last.lsn) {
        cut.insert(cut.end(), last.object.begin(), last.object.end());
        cut.insert(cut.end(), last.secret.begin(), last.secret.end());
      }
      cut.push_back(static_cast<std::uint8_t>(0x80 | field[0]));
      run.records.pop_back();
      run.tail = std::move(cut);
      break;
    }
  }
}

/// Bends the pad of `frame` to one no decoder may accept, as it would a
/// trailing byte: a non-zero pad byte, the pad flag with no pad bytes, pad
/// bytes without the flag, or a pad that runs past the frame's length.
inline void bend_pad(FrameFields& frame, Rng& rng) {
  if (frame.pad.empty()) {
    frame.pad.assign(1 + rng.below(40), 0);
  }
  switch (rng.below(4)) {
    case 0:
      frame.flags |= kPadFlag;
      frame.pad[rng.below(frame.pad.size())] =
          static_cast<std::uint8_t>(1 + rng.below(255));
      break;
    case 1:
      frame.flags |= kPadFlag;
      frame.pad.clear();
      break;
    case 2:
      frame.flags &= static_cast<std::uint8_t>(~kPadFlag);
      break;
    default:
      frame.flags |= kPadFlag;
      frame.unsized =
          static_cast<std::uint32_t>(1 + rng.below(frame.pad.size()));
      break;
  }
}

/// Whether `run` round-trips: decoded and re-encoded record by record, it
/// is the same bytes.
[[nodiscard]] inline bool round_trips(std::span<const std::uint8_t> run) {
  Buffer again;
  for (const storage::Record& r : storage::decode_journal(run)) {
    storage::encode_record_into(r.type, r.object, r.secret, r.lsn, r.payload,
                                again);
  }
  return std::equal(again.begin(), again.end(), run.begin(), run.end());
}

}  // namespace amoeba::test
