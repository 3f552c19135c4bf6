// Field-level fuzzing of the stream-socket frame codec (docs/PROTOCOL.md
// §10): the length prefix, the frame body of every kind, and inside a
// DATA frame every §1 header field, incarnation included.  A seeded
// mutator bends one field at a time -- or truncates, extends, or bends a
// length -- and the decoder must never crash, must refuse whatever does
// not fill its kind's layout exactly, and must decode everything else to
// the very bytes it was given.  AMOEBA_TEST_SEED picks the bends.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/net/socket_network.hpp"
#include "test_seed.hpp"

namespace amoeba::net {
namespace {

using Kind = SocketFrame::Kind;

[[nodiscard]] Rng& rng() {
  static Rng shared(test::seed_base(23) * 0x9E3779B97F4A7C15ULL + 23);
  return shared;
}

[[nodiscard]] std::uint64_t bits(int n) { return rng().bits(n); }

[[nodiscard]] Buffer random_bytes(std::size_t n) {
  Buffer out(n);
  for (std::uint8_t& b : out) {
    b = static_cast<std::uint8_t>(bits(8));
  }
  return out;
}

[[nodiscard]] SocketFrame random_frame(Kind kind) {
  SocketFrame frame;
  frame.kind = kind;
  switch (kind) {
    case Kind::data: {
      frame.src = MachineId(static_cast<std::uint32_t>(bits(32)));
      frame.dst = MachineId(static_cast<std::uint32_t>(bits(32)));
      Header& h = frame.message.header;
      h.dest = Port(bits(48));
      h.reply = Port(bits(48));
      h.signature = Port(bits(48));
      h.opcode = static_cast<std::uint16_t>(bits(16));
      h.flags = static_cast<std::uint16_t>(bits(16));
      h.status = static_cast<ErrorCode>(bits(16));
      for (std::uint8_t& b : h.capability) {
        b = static_cast<std::uint8_t>(bits(8));
      }
      for (std::uint64_t& p : h.params) {
        p = bits(64);
      }
      h.client = bits(64);
      h.seq = bits(64);
      h.incarnation = bits(64);
      frame.message.data = random_bytes(rng().below(24));
      break;
    }
    case Kind::locate_request:
      frame.port = Port(bits(48));
      frame.nonce = bits(64);
      break;
    case Kind::locate_reply:
      frame.port = Port(bits(48));
      frame.nonce = bits(64);
      frame.machine = MachineId(static_cast<std::uint32_t>(bits(31)) + 1);
      break;
    case Kind::hello:
      frame.machine_id_base = static_cast<std::uint32_t>(bits(32));
      break;
  }
  return frame;
}

/// One fixed-width field of an encoded body.
struct Field {
  const char* name;
  std::size_t at;
  std::size_t width;
};

/// The §10 body layout of `kind` (u8 kind | u32 src | u32 dst | payload),
/// and for DATA the §1 header inside it.  The data bytes' length word is
/// the last field; the bytes themselves follow it.
[[nodiscard]] std::vector<Field> layout(Kind kind) {
  std::vector<Field> fields = {{"kind", 0, 1}, {"src", 1, 4}, {"dst", 5, 4}};
  switch (kind) {
    case Kind::data:
      fields.insert(fields.end(), {{"dest", 9, 6},
                                   {"reply", 15, 6},
                                   {"signature", 21, 6},
                                   {"opcode", 27, 2},
                                   {"flags", 29, 2},
                                   {"status", 31, 2},
                                   {"capability", 33, 16},
                                   {"params[0]", 49, 8},
                                   {"params[1]", 57, 8},
                                   {"params[2]", 65, 8},
                                   {"params[3]", 73, 8},
                                   {"client", 81, 8},
                                   {"seq", 89, 8},
                                   {"incarnation", 97, 8},
                                   {"data length", 105, 4}});
      break;
    case Kind::locate_request:
      fields.insert(fields.end(), {{"port", 9, 6}, {"nonce", 15, 8}});
      break;
    case Kind::locate_reply:
      fields.insert(fields.end(),
                    {{"port", 9, 6}, {"nonce", 15, 8}, {"machine", 23, 4}});
      break;
    case Kind::hello:
      fields.push_back({"machine_id_base", 9, 4});
      break;
  }
  return fields;
}

[[nodiscard]] std::uint64_t read_le(std::span<const std::uint8_t> bytes,
                                    const Field& field) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < field.width && i < 8; ++i) {
    value |= std::uint64_t{bytes[field.at + i]} << (8 * i);
  }
  return value;
}

/// The decoded value of the field `name` names (the capability: its
/// first 8 bytes).
[[nodiscard]] std::uint64_t decoded(const SocketFrame& f,
                                    const std::string& name) {
  const Header& h = f.message.header;
  if (name == "kind") return static_cast<std::uint64_t>(f.kind);
  if (name == "src") return f.src.value();
  if (name == "dst") return f.dst.value();
  if (name == "dest") return h.dest.value();
  if (name == "reply") return h.reply.value();
  if (name == "signature") return h.signature.value();
  if (name == "opcode") return h.opcode;
  if (name == "flags") return h.flags;
  if (name == "status") return static_cast<std::uint16_t>(h.status);
  if (name == "capability") {
    return read_le(h.capability, Field{"", 0, 8});
  }
  if (name.starts_with("params[")) {
    return h.params.at(static_cast<std::size_t>(name[7] - '0'));
  }
  if (name == "client") return h.client;
  if (name == "seq") return h.seq;
  if (name == "incarnation") return h.incarnation;
  if (name == "data length") return f.message.data.size();
  if (name == "port") return f.port.value();
  if (name == "nonce") return f.nonce;
  if (name == "machine") return f.machine.value();
  if (name == "machine_id_base") return f.machine_id_base;
  ADD_FAILURE() << "no field " << name;
  return 0;
}

constexpr std::array<Kind, 4> kKinds = {Kind::data, Kind::locate_request,
                                        Kind::locate_reply, Kind::hello};

TEST(SocketFrameCodec, EveryKindRoundTripsFieldForField) {
  for (const Kind kind : kKinds) {
    for (int i = 0; i < 64; ++i) {
      const SocketFrame frame = random_frame(kind);
      const Buffer body = encode_socket_frame(frame);
      const std::vector<Field> fields = layout(kind);
      const Field& last = fields.back();
      ASSERT_EQ(body.size(), last.at + last.width +
                                 (kind == Kind::data
                                      ? frame.message.data.size()
                                      : 0))
          << "the layout table drifted from the codec";
      const auto back = decode_socket_frame(body);
      ASSERT_TRUE(back.has_value());
      for (const Field& field : fields) {
        EXPECT_EQ(decoded(*back, field.name), decoded(frame, field.name))
            << field.name;
        if (field.width <= 8 && std::string(field.name) != "data length") {
          EXPECT_EQ(read_le(body, field), decoded(frame, field.name))
              << field.name << " is not where the layout says";
        }
      }
      EXPECT_EQ(back->message.data, frame.message.data);
      EXPECT_EQ(back->message.header.capability,
                frame.message.header.capability);
    }
  }
}

TEST(SocketFrameFuzz, BentFieldsDecodeExactlyOrNotAtAll) {
  int decodes = 0;
  int refusals = 0;
  for (int iter = 0; iter < 4'000; ++iter) {
    const Kind kind = kKinds[rng().below(kKinds.size())];
    const Buffer pristine = encode_socket_frame(random_frame(kind));
    const std::vector<Field> fields = layout(kind);
    Buffer bent = pristine;
    // Bends that leave the layout intact -- new bytes in fixed-width
    // fields other than the kind and the data length -- must decode, each
    // field to exactly its new bytes.
    const Field* rewritten = nullptr;
    bool layout_kept = true;
    for (std::uint64_t m = 1 + rng().below(3); m > 0; --m) {
      const Field& field = fields[rng().below(fields.size())];
      switch (rng().below(6)) {
        case 0:  // random bytes
        case 1:  // one flipped bit
        case 2: {  // all zero or all ones
          const std::uint64_t how = rng().below(3);
          for (std::size_t i = 0; i < field.width; ++i) {
            std::uint8_t& b = bent[field.at + i];
            b = how == 0   ? static_cast<std::uint8_t>(bits(8))
                : how == 1 ? static_cast<std::uint8_t>(
                                 b ^ (i == 0 ? 1u << rng().below(8) : 0u))
                           : static_cast<std::uint8_t>(bits(1) ? 0xFF : 0);
          }
          rewritten = &field;
          const std::string name = field.name;
          layout_kept = layout_kept && name != "kind" &&
                        name != "data length" &&
                        !(kind == Kind::locate_reply && name == "machine" &&
                          read_le(bent, field) == 0);
          break;
        }
        case 3:  // truncated at a field boundary or anywhere
          bent.resize(bits(1) ? field.at : rng().below(bent.size() + 1));
          layout_kept = false;
          break;
        case 4:  // trailing bytes
          for (std::uint64_t n = 1 + rng().below(9); n > 0; --n) {
            bent.push_back(static_cast<std::uint8_t>(bits(8)));
          }
          layout_kept = false;
          break;
        default:  // an unknown kind
          if (!bent.empty()) {
            bent[0] = static_cast<std::uint8_t>(5 + rng().below(251));
          }
          layout_kept = false;
          break;
      }
      if (bent.size() < pristine.size()) {
        break;  // later bends would address bytes that are gone
      }
    }
    const auto frame = decode_socket_frame(bent);
    if (frame.has_value()) {
      ++decodes;
      EXPECT_EQ(encode_socket_frame(*frame), bent)
          << "a decoded frame does not re-encode to its bytes";
    } else {
      ++refusals;
    }
    if (layout_kept) {
      const std::string name = rewritten->name;
      ASSERT_TRUE(frame.has_value()) << "bent " << name << " refused";
      if (rewritten->width <= 8) {
        EXPECT_EQ(decoded(*frame, name), read_le(bent, *rewritten)) << name;
      }
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "iteration " << iter << " (seed base " << test::seed_base(23)
             << ")";
    }
  }
  // Neither outcome was vacuous.
  EXPECT_GT(decodes, 0);
  EXPECT_GT(refusals, 0);
  std::printf("bent socket frames: %d decoded, %d refused\n", decodes,
              refusals);
}

TEST(SocketFrameFuzz, LengthPrefixAcceptsOnlyTheFramingRange) {
  const auto prefix = [](std::uint32_t v) {
    return std::array<std::uint8_t, 4>{
        static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
        static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  };
  const std::uint32_t edges[] = {0, 1, kMaxSocketFrameBytes,
                                 kMaxSocketFrameBytes + 1, 0xFFFFFFFFu};
  for (const std::uint32_t v : edges) {
    const auto len = decode_socket_frame_length(prefix(v));
    EXPECT_EQ(len.has_value(), v != 0 && v <= kMaxSocketFrameBytes) << v;
  }
  for (int i = 0; i < 4'000; ++i) {
    const auto v = static_cast<std::uint32_t>(
        bits(1) ? bits(32) : rng().below(kMaxSocketFrameBytes + 2));
    const auto len = decode_socket_frame_length(prefix(v));
    ASSERT_EQ(len.has_value(), v != 0 && v <= kMaxSocketFrameBytes) << v;
    if (len.has_value()) {
      ASSERT_EQ(*len, v);
    }
  }
}

}  // namespace
}  // namespace amoeba::net
