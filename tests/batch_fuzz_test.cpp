// Field-level fuzzing of the batch envelope (docs/PROTOCOL.md §4): the
// entry count, and inside every entry the opcode, the capability, the four
// params and the data length.  A seeded mutator bends one to three fields
// of a well-formed envelope.  decode_batch_request must refuse the result
// or decode it to exactly the bytes it was given; a bend that leaves the
// layout intact must decode.  A bank then serves bent envelopes as
// at-most-once transactions: it must answer every one, and a duplicate of
// each must be re-answered from the reply cache -- an entry left
// `executing` would drop it.  AMOEBA_TEST_SEED picks the bends.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/batch.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/storage/backend.hpp"
#include "test_seed.hpp"

namespace amoeba::rpc {
namespace {

using namespace std::chrono_literals;

[[nodiscard]] Rng& rng() {
  static Rng shared(test::seed_base(29) * 0x9E3779B97F4A7C15ULL + 29);
  return shared;
}

[[nodiscard]] std::uint64_t bits(int n) { return rng().bits(n); }

/// One fixed-width field of an encoded envelope.
struct Field {
  std::string name;
  std::size_t at;
  std::size_t width;
};

/// §4's layout of `entries` encoded: u32 count, then per entry u16 opcode,
/// 16-byte capability, 4 x u64 params and a u32 data length followed by
/// the data bytes.
[[nodiscard]] std::vector<Field> layout(
    std::span<const BatchRequest> entries) {
  std::vector<Field> fields = {{"count", 0, 4}};
  std::size_t at = 4;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string entry = "entry[" + std::to_string(i) + "].";
    fields.push_back({entry + "opcode", at, 2});
    fields.push_back({entry + "capability", at + 2, 16});
    for (std::size_t p = 0; p < 4; ++p) {
      fields.push_back(
          {entry + "params[" + std::to_string(p) + "]", at + 18 + 8 * p, 8});
    }
    fields.push_back({entry + "data length", at + 50, 4});
    at += 54 + entries[i].data.size();
  }
  return fields;
}

[[nodiscard]] bool shapes_layout(const Field& field) {
  return field.name == "count" || field.name.ends_with("data length");
}

/// Up to six entries: opcodes drawn from `opcodes` (or any value), the
/// capability `capability` (or random bytes), random params and data.
[[nodiscard]] std::vector<BatchRequest> random_entries(
    std::span<const std::uint16_t> opcodes,
    const net::CapabilityBytes& capability) {
  std::vector<BatchRequest> entries(1 + rng().below(6));
  for (BatchRequest& e : entries) {
    e.opcode = opcodes.empty() || bits(3) == 0
                   ? static_cast<std::uint16_t>(bits(16))
                   : opcodes[rng().below(opcodes.size())];
    e.capability = capability;
    if (bits(2) == 0) {
      for (std::uint8_t& b : e.capability) {
        b = static_cast<std::uint8_t>(bits(8));
      }
    }
    for (std::uint64_t& p : e.params) {
      p = bits(1) ? rng().below(4) : bits(64);  // small values hit currencies
    }
    e.data.resize(rng().below(24));
    for (std::uint8_t& b : e.data) {
      b = static_cast<std::uint8_t>(bits(8));
    }
  }
  return entries;
}

/// Bends one to three fields of `bytes` in place; returns false when a
/// field that shapes the layout (the count, a data length) was bent.
bool bend(Buffer& bytes, std::span<const Field> fields) {
  bool layout_kept = true;
  for (std::uint64_t m = 1 + rng().below(3); m > 0; --m) {
    const Field& field = fields[rng().below(fields.size())];
    const std::uint64_t how = rng().below(3);
    for (std::size_t i = 0; i < field.width; ++i) {
      std::uint8_t& b = bytes[field.at + i];
      b = how == 0   ? static_cast<std::uint8_t>(bits(8))
          : how == 1 ? static_cast<std::uint8_t>(
                           b ^ (i == 0 ? 1u << rng().below(8) : 0u))
                     : static_cast<std::uint8_t>(bits(1) ? 0xFF : 0);
    }
    layout_kept = layout_kept && !shapes_layout(field);
  }
  return layout_kept;
}

TEST(BatchEnvelopeCodec, TheLayoutTableMatchesTheCodec) {
  for (int i = 0; i < 64; ++i) {
    const std::vector<BatchRequest> entries = random_entries({}, {});
    const Buffer bytes = encode_batch(entries);
    const std::vector<Field> fields = layout(entries);
    const Field& last = fields.back();
    ASSERT_EQ(bytes.size(), last.at + last.width + entries.back().data.size())
        << "the layout table drifted from the codec";
    const auto back = decode_batch_request(bytes);
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->size(), entries.size());
    for (std::size_t e = 0; e < entries.size(); ++e) {
      EXPECT_EQ((*back)[e].opcode, entries[e].opcode);
      EXPECT_EQ((*back)[e].capability, entries[e].capability);
      EXPECT_EQ((*back)[e].params, entries[e].params);
      EXPECT_EQ((*back)[e].data, entries[e].data);
    }
  }
}

TEST(BatchEnvelopeFuzz, BentFieldsDecodeExactlyOrNotAtAll) {
  int decodes = 0;
  int refusals = 0;
  for (int iter = 0; iter < 4'000; ++iter) {
    const std::vector<BatchRequest> entries = random_entries({}, {});
    const std::vector<Field> fields = layout(entries);
    Buffer bent = encode_batch(entries);
    const bool layout_kept = bend(bent, fields);
    const auto decoded = decode_batch_request(bent);
    if (decoded.has_value()) {
      ++decodes;
      EXPECT_EQ(encode_batch(*decoded), bent)
          << "iteration " << iter << " decoded to other bytes";
    } else {
      ++refusals;
      EXPECT_FALSE(layout_kept)
          << "iteration " << iter
          << ": a bend that kept the layout was refused";
    }
  }
  // Both outcomes must actually be exercised.
  EXPECT_GT(decodes, 0);
  EXPECT_GT(refusals, 0);
}

TEST(BatchEnvelopeFuzz, ServedBentEnvelopesAreAnsweredAndReansweredOnce) {
  net::Network net;
  net::Machine& bank_machine = net.add_machine("bank");
  net::Machine& client_machine = net.add_machine("client");
  const auto scheme = std::shared_ptr<const core::ProtectionScheme>([] {
    Rng scheme_rng(31);
    return core::make_scheme(core::SchemeKind::commutative, scheme_rng);
  }());
  servers::BankServer bank(bank_machine, Port(0xBA7C), scheme, 1,
                           std::make_shared<storage::MemoryBackend>(16));
  bank.start(2);
  Transport transport(client_machine, 23);
  servers::BankClient client(transport, bank.put_port());
  const core::Capability account = client.create_account().value();
  ASSERT_TRUE(client
                  .mint(bank.master_capability(), account,
                        servers::currency::kDollar, 1'000)
                  .ok());
  // Real opcodes, and an account capability that validates, so bent
  // entries reach handlers and not only the decode and rights gates.
  std::vector<std::uint16_t> opcodes;
  for (const OpInfo& op : bank.registered_ops()) {
    opcodes.push_back(op.opcode);
  }
  opcodes.push_back(kBatchOpcode);
  const net::CapabilityBytes capability =
      make_request(bank.put_port(), servers::bank_ops::kBalance, account,
                   {servers::currency::kDollar})
          .header.capability;

  const Port reply_get(0x5E5E);
  net::Receiver replies = client_machine.listen(reply_get);
  constexpr std::uint64_t kClient = 0xBA7C4;
  constexpr int kEnvelopes = 300;
  int refused = 0;
  for (int i = 0; i < kEnvelopes; ++i) {
    const std::vector<BatchRequest> entries =
        random_entries(opcodes, capability);
    Buffer bent = encode_batch(entries);
    (void)bend(bent, layout(entries));
    net::Message request;
    request.header.dest = bank.put_port();
    request.header.opcode = kBatchOpcode;
    request.header.flags = net::kFlagAtMostOnce | net::kFlagBatch;
    request.header.client = kClient;
    request.header.seq = static_cast<std::uint64_t>(i) + 1;
    request.header.incarnation = bits(1) ? bank.incarnation() : 0;
    request.header.reply = reply_get;
    request.data = std::move(bent);

    const std::uint64_t resent = bank.reply_cache_stats().replies_resent;
    const std::uint64_t served = bank.requests_served();
    ASSERT_TRUE(client_machine.transmit(request, bank_machine.id()));
    const auto first = replies.receive({}, 2'000ms);
    ASSERT_TRUE(first.has_value()) << "envelope " << i << " went unanswered";
    if (first->message.header.status == ErrorCode::invalid_argument) {
      ++refused;
    } else {
      ASSERT_EQ(first->message.header.status, ErrorCode::ok)
          << "envelope " << i;
      const auto sub = decode_batch_reply(first->message.data);
      ASSERT_TRUE(sub.has_value()) << "envelope " << i;
    }
    ASSERT_TRUE(client_machine.transmit(request, bank_machine.id()));
    const auto again = replies.receive({}, 2'000ms);
    ASSERT_TRUE(again.has_value())
        << "a duplicate of envelope " << i
        << " was dropped: its entry was left executing";
    EXPECT_EQ(again->message.header.status, first->message.header.status);
    EXPECT_EQ(again->message.data, first->message.data);
    EXPECT_EQ(bank.reply_cache_stats().replies_resent, resent + 1);
    EXPECT_EQ(bank.requests_served(), served + 1)
        << "a duplicate of envelope " << i << " ran again";
  }
  EXPECT_GT(refused, 0);
  EXPECT_LT(refused, kEnvelopes);
  // The bank still serves (a bent entry may have destroyed `account`).
  const auto fresh = client.create_account();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(client.balance(fresh.value(), servers::currency::kDollar).value(),
            0);
  bank.stop();
}

}  // namespace
}  // namespace amoeba::rpc
