// Byte-level serialization for RPC message bodies.
//
// All integers travel little-endian.  Writer appends; Reader consumes and
// latches a failure flag on underflow so a malformed message is detected
// once at the end of parsing (checking `reader.ok()`) instead of at every
// field.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "amoeba/common/types.hpp"

namespace amoeba {

using Buffer = std::vector<std::uint8_t>;

/// Appends `v` as an unsigned LEB128 varint (Writer::varint) to `out`.
inline void append_varint(Buffer& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

class Writer {
 public:
  Writer() = default;

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u48(std::uint64_t v);  // low 48 bits
  void u64(std::uint64_t v);
  /// Two's-complement i64 (payload codecs: balances, deltas).
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void port(Port p) { u48(p.value()); }
  void object(ObjectNumber o) { u32(o.value()); }
  void rights(Rights r) { u8(r.bits()); }
  void check(CheckField c) { u48(c.value()); }
  /// Unsigned LEB128: 7 bits a byte, low group first, the high bit set on
  /// every byte but the last.  Always the shortest form (1 to 10 bytes).
  void varint(std::uint64_t v) { append_varint(out_, v); }
  /// Length-prefixed (u32) byte run.
  void bytes(std::span<const std::uint8_t> data);
  /// Length-prefixed (varint) byte run.
  void vbytes(std::span<const std::uint8_t> data);
  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view s);
  /// Unprefixed byte run for fields whose width both sides know statically
  /// (capability images inside the batch envelope).
  void raw(std::span<const std::uint8_t> data);

  [[nodiscard]] const Buffer& buffer() const { return out_; }
  [[nodiscard]] Buffer take() { return std::move(out_); }
  /// Empties the buffer, KEEPING its capacity -- lets hot paths (the
  /// journaling encoder) reuse one Writer without reallocating.
  void clear() { out_.clear(); }

 private:
  Buffer out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u48();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  Port port() { return Port(u48()); }
  ObjectNumber object() { return ObjectNumber(u32()); }
  Rights rights() { return Rights(u8()); }
  CheckField check() { return CheckField(u48()); }
  /// A varint (Writer::varint) no larger than `max`.  Fails on one that
  /// runs past the buffer, is longer than its shortest form (a final 0x00
  /// byte, or more than 10 bytes), or exceeds `max`: every value has one
  /// encoding, so whatever decodes re-encodes to the same bytes.
  std::uint64_t varint(std::uint64_t max = UINT64_MAX);
  Buffer bytes();
  /// A varint-length-prefixed byte run (Writer::vbytes).
  Buffer vbytes();
  std::string str();
  /// Unprefixed fixed-width byte run; fills `out` (zeroed on underflow).
  void raw(std::span<std::uint8_t> out);

  /// True when every read so far stayed inside the buffer.
  [[nodiscard]] bool ok() const { return !failed_; }
  /// True when the whole buffer was consumed and nothing underflowed.
  [[nodiscard]] bool exhausted() const { return ok() && pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool take(std::size_t n, const std::uint8_t** out);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace amoeba
