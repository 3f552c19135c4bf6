// Field-level fuzzing of the slots inside a checkpoint frame
// (docs/PROTOCOL.md §8.3, §8.4): a real bank volume is checkpointed by the
// production imagers -- its shards' account images and its reply
// stream's client rows -- and then one slot field, or one field of a
// compact reply body, at a time is bent, with every enclosing length and
// the frame checksum laid out again so the bend reaches the decoders.  Recovery must refuse the volume with a UsageError or boot,
// and must never crash (the ASan+UBSan job runs this suite).
// AMOEBA_TEST_SEED picks the bends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "amoeba/common/error.hpp"
#include "amoeba/common/rng.hpp"
#include "amoeba/core/object_store.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/server.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/record.hpp"
#include "frame_fields.hpp"
#include "test_seed.hpp"

namespace amoeba {
namespace {

[[nodiscard]] std::shared_ptr<const core::ProtectionScheme> scheme() {
  static const std::shared_ptr<const core::ProtectionScheme> shared = [] {
    Rng rng(61);
    return std::shared_ptr<const core::ProtectionScheme>(
        core::make_scheme(core::SchemeKind::commutative, rng));
  }();
  return shared;
}

/// Payloads as opaque bytes: a store over any server's volume whose images
/// carry exactly the bytes that server's own images would.
[[nodiscard]] core::Durability<Buffer> opaque(
    std::shared_ptr<storage::GroupCommitter> committer) {
  core::Durability<Buffer> d;
  d.committer = std::move(committer);
  d.encode = [](Writer& w, const Buffer& v) { w.raw(v); };
  d.decode = [](Reader& r, Buffer& v) {
    v.resize(r.remaining());
    r.raw(v);
    return r.ok();
  };
  return d;
}

/// The reply stream's imager: a service attached to the volume.
class ReplyStreamOwner final : public rpc::Service {
 public:
  ReplyStreamOwner(net::Machine& machine,
                   std::shared_ptr<storage::GroupCommitter> committer)
      : Service(machine, Port(0xF0F0), "owner") {
    attach_durability(std::move(committer));
  }
};

[[nodiscard]] std::uint32_t get_u32(const Buffer& b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(b.at(at + i)) << (8 * i);
  }
  return v;
}

void put_u32(Buffer& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    b.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Takes `n` bytes from the front of `r` (pristine input: they are there).
[[nodiscard]] Buffer take(Reader& r, std::size_t n) {
  Buffer out(n);
  r.raw(out);
  return out;
}

/// Takes one varint's bytes from the front of `r`.
[[nodiscard]] Buffer take_varint(Reader& r, std::uint64_t* value = nullptr) {
  Buffer out;
  std::uint8_t b = 0;
  do {
    b = r.u8();
    out.push_back(b);
  } while ((b & 0x80) != 0);
  if (value != nullptr) {
    Reader again(out);
    *value = again.varint();
  }
  return out;
}

/// One snapshot slot's fields (docs/PROTOCOL.md §8.3): the payload length
/// is laid out from the payload unless `sized` is false.
struct SlotFields {
  Buffer object;
  Buffer secret;
  Buffer length;
  Buffer payload;
  bool sized = true;
};

/// A snapshot image: its fixed header (magic, version, applied LSN, slot
/// count) and its slots.
struct ImageFields {
  Buffer header;
  std::vector<SlotFields> slots;
};

[[nodiscard]] ImageFields split_image(const Buffer& image) {
  Reader r(image);
  ImageFields out;
  out.header = take(r, 18);
  for (std::uint32_t n = get_u32(out.header, 14); n > 0; --n) {
    SlotFields slot;
    slot.object = take_varint(r);
    slot.secret = take(r, 8);
    std::uint64_t length = 0;
    slot.length = take_varint(r, &length);
    slot.payload = take(r, length);
    out.slots.push_back(std::move(slot));
  }
  return out;
}

[[nodiscard]] Buffer lay_out_image(const ImageFields& image) {
  Buffer out = image.header;
  for (const SlotFields& slot : image.slots) {
    const Buffer length =
        slot.sized ? test::varint_bytes(slot.payload.size()) : slot.length;
    for (const Buffer* field :
         {&slot.object, &slot.secret, &length, &slot.payload}) {
      out.insert(out.end(), field->begin(), field->end());
    }
  }
  return out;
}

/// A bank volume after a few transfers, checkpointed by the production
/// imagers (the store's for the account shards, the service's for the
/// reply stream): its log is one checkpoint frame.
[[nodiscard]] Buffer checkpointed_bank_log(net::Machine& bank_machine,
                                           net::Machine& client_machine) {
  auto volume = std::make_shared<storage::MemoryBackend>(16);
  {
    servers::BankServer bank(bank_machine, Port(0xBA61), scheme(), 1, volume);
    bank.start(2);
    rpc::Transport transport(client_machine, 5);
    servers::BankClient client(transport, bank.put_port());
    const core::Capability alice = client.create_account().value();
    const core::Capability bob = client.create_account().value();
    EXPECT_TRUE(client
                    .mint(bank.master_capability(), alice,
                          servers::currency::kDollar, 1000)
                    .ok());
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(
          client.transfer(alice, bob, servers::currency::kDollar, 3).ok());
    }
    bank.stop();
  }
  {
    auto committer = std::make_shared<storage::GroupCommitter>(volume);
    core::ObjectStore<Buffer> accounts(scheme(), Port(0xBA61), 2, 16,
                                       opaque(committer));
    ReplyStreamOwner owner(bank_machine, committer);
    accounts.compact();
  }
  return volume->read_log();
}

/// Boots a bank over `frame` as its whole log: true when it recovered,
/// false when it refused the volume with a UsageError.
[[nodiscard]] bool boots(net::Machine& bank_machine, const Buffer& frame) {
  auto copy = std::make_shared<storage::MemoryBackend>(16);
  copy->replace_log(frame);
  try {
    servers::BankServer restarted(bank_machine, Port(0xBA61), scheme(), 3,
                                  copy);
    return true;
  } catch (const UsageError&) {
    return false;
  }
}

/// Where a snapshot record sits in a split frame.
struct ImageAt {
  std::size_t run = 0;
  std::size_t record = 0;
};

[[nodiscard]] std::vector<ImageAt> images_of(const test::FrameFields& frame) {
  std::vector<ImageAt> out;
  for (std::size_t run = 0; run < frame.runs.size(); ++run) {
    const auto& records = frame.runs[run].records;
    for (std::size_t record = 0; record < records.size(); ++record) {
      if (records[record].type[0] ==
          static_cast<std::uint8_t>(storage::RecordType::snapshot)) {
        out.push_back({run, record});
      }
    }
  }
  return out;
}

TEST(CheckpointFuzz, BentImageSlotsRefuseOrRecover) {
  Rng rng(test::seed_base(61) * 0x9E3779B97F4A7C15ULL + 22);
  net::Network net;
  net::Machine& bank_machine = net.add_machine("bank");
  net::Machine& client_machine = net.add_machine("client");
  const Buffer pristine = checkpointed_bank_log(bank_machine, client_machine);
  const auto frame_bytes = storage::log_frames(pristine);
  storage::Frame frame;
  ASSERT_EQ(storage::decode_frame(frame_bytes, frame), frame_bytes.size());
  ASSERT_TRUE(frame.checkpoint);
  const test::FrameFields fields = test::split_frame(frame_bytes);
  ASSERT_TRUE(std::ranges::equal(test::lay_out(fields), frame_bytes));

  // Every snapshot record of the frame and its slots' fields: the bank's
  // images (object, secret, account payload) and the reply stream's
  // (client rows and the incarnation slot).
  const std::vector<ImageAt> images = images_of(fields);
  ASSERT_EQ(images.size(), 17u);  // 16 shards and the reply stream
  std::size_t slots = 0;
  for (const ImageAt& at : images) {
    const auto& record = fields.runs[at.run].records[at.record];
    const ImageFields image = split_image(record.payload);
    ASSERT_EQ(lay_out_image(image), record.payload);
    slots += image.slots.size();
  }
  ASSERT_GE(slots, 4u) << "the images hold no slots to bend";

  const auto bent_u32 = [&](std::uint32_t original) -> std::uint32_t {
    const std::uint32_t choices[] = {original + 1, original - 1, 0, 1,
                                     0xFFFFFFFFu,
                                     static_cast<std::uint32_t>(rng.next())};
    return choices[rng.below(6)];
  };
  int recovered = 0;
  int refused = 0;
  for (int iter = 0; iter < 400; ++iter) {
    test::FrameFields bent_fields = fields;
    const ImageAt* at = &images[rng.below(images.size())];
    test::RecordFields* record =
        &bent_fields.runs[at->run].records[at->record];
    ImageFields image = split_image(record->payload);
    while (image.slots.empty()) {
      at = &images[rng.below(images.size())];
      record = &bent_fields.runs[at->run].records[at->record];
      image = split_image(record->payload);
    }
    SlotFields& slot = image.slots[rng.below(image.slots.size())];
    Buffer& payload = slot.payload;
    switch (rng.below(6)) {
      case 0:
        put_u32(image.header, 14, bent_u32(get_u32(image.header, 14)));
        break;
      case 1:
        test::bend_varint(slot.object, rng);
        break;
      case 2:  // the secret's low word
        put_u32(slot.secret, 0, static_cast<std::uint32_t>(rng.next()));
        break;
      case 3:
        slot.sized = false;
        slot.length = test::varint_bytes(payload.size());
        test::bend_varint(slot.length, rng);
        break;
      case 4:
        // A field inside the payload: a balance count or currency, a row's
        // floor or body count.
        if (payload.size() >= 4) {
          const std::size_t f = rng.below(payload.size() - 3);
          put_u32(payload, f, bent_u32(get_u32(payload, f)));
        }
        break;
      default:
        if (!payload.empty()) {
          payload[rng.below(payload.size())] ^=
              static_cast<std::uint8_t>(1 + rng.below(255));
        }
        break;
    }
    // Lay the image, its record and the frame out again, so the decoders
    // see the bend.
    record->payload = lay_out_image(image);
    if (boots(bank_machine, test::lay_out(bent_fields))) {
      ++recovered;
    } else {
      ++refused;
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "iteration " << iter << " (seed base " << test::seed_base(61)
             << ")";
    }
  }
  std::printf("bent image slots: %d recovered, %d refused\n", recovered,
              refused);
  // Neither outcome was vacuous.
  EXPECT_GT(recovered, 0);
  EXPECT_GT(refused, 0);
}

/// One reply-stream row (docs/PROTOCOL.md §8.4) split into its key and
/// bodies, each body into its compact fields.
struct BodyFields {
  Buffer seq;
  Buffer length;  // laid out from the fields unless `sized` is false
  Buffer flags;
  Buffer status;
  Buffer mask;
  Buffer capability;  // empty unless mask bit 4
  std::vector<Buffer> params;
  Buffer data_length;
  Buffer data;
  bool sized = true;
};

struct RowFields {
  Buffer key;  // src, client, floor
  Buffer count;
  std::vector<BodyFields> bodies;
};

[[nodiscard]] RowFields split_row(const Buffer& payload) {
  Reader r(payload);
  RowFields row;
  row.key = take_varint(r);
  const Buffer client = take(r, 8);
  row.key.insert(row.key.end(), client.begin(), client.end());
  const Buffer floor = take_varint(r);
  row.key.insert(row.key.end(), floor.begin(), floor.end());
  std::uint64_t count = 0;
  row.count = take_varint(r, &count);
  for (; count > 0; --count) {
    BodyFields body;
    body.seq = take_varint(r);
    body.length = take_varint(r);
    body.flags = take_varint(r);
    body.status = take_varint(r);
    body.mask = take(r, 1);
    if ((body.mask[0] & 0x10) != 0) {
      body.capability = take(r, 16);
    }
    for (int i = 0; i < 4; ++i) {
      if ((body.mask[0] & (1u << i)) != 0) {
        body.params.push_back(take_varint(r));
      }
    }
    std::uint64_t length = 0;
    body.data_length = take_varint(r, &length);
    body.data = take(r, length);
    row.bodies.push_back(std::move(body));
  }
  return row;
}

[[nodiscard]] Buffer lay_out_body(const BodyFields& body) {
  Buffer out;
  for (const Buffer* field : {&body.flags, &body.status, &body.mask,
                              &body.capability}) {
    out.insert(out.end(), field->begin(), field->end());
  }
  for (const Buffer& param : body.params) {
    out.insert(out.end(), param.begin(), param.end());
  }
  out.insert(out.end(), body.data_length.begin(), body.data_length.end());
  out.insert(out.end(), body.data.begin(), body.data.end());
  return out;
}

[[nodiscard]] Buffer lay_out_row(const RowFields& row) {
  Buffer out = row.key;
  out.insert(out.end(), row.count.begin(), row.count.end());
  for (const BodyFields& body : row.bodies) {
    const Buffer bytes = lay_out_body(body);
    const Buffer length =
        body.sized ? test::varint_bytes(bytes.size()) : body.length;
    for (const Buffer* field : {&body.seq, &length, &bytes}) {
      out.insert(out.end(), field->begin(), field->end());
    }
  }
  return out;
}

TEST(CheckpointFuzz, BentReplyBodiesRefuseOrRoundTrip) {
  // The compact reply bodies inside the reply stream's client rows: bend
  // a body's mask bits (an unknown bit, a param or capability bit without
  // its field, a field without its bit), its data length, its flags or
  // status (past u16, overlong), or its own length.  Each bent body is
  // refused by rpc::decode_reply_body or re-encodes to the same bytes,
  // and a bank booting over the bent checkpoint recovers or refuses the
  // volume -- never crashes.  AMOEBA_TEST_SEED picks the bends.
  Rng rng(test::seed_base(61) * 0x9E3779B97F4A7C15ULL + 24);
  net::Network net;
  net::Machine& bank_machine = net.add_machine("bank");
  net::Machine& client_machine = net.add_machine("client");
  const Buffer pristine = checkpointed_bank_log(bank_machine, client_machine);
  const test::FrameFields fields =
      test::split_frame(storage::log_frames(pristine));
  // The reply stream's image: the snapshot record on stream 16.
  const std::vector<ImageAt> images = images_of(fields);
  const auto reply_image_at =
      std::find_if(images.begin(), images.end(), [&](const ImageAt& at) {
        return fields.runs[at.run].stream == test::varint_bytes(16);
      });
  ASSERT_NE(reply_image_at, images.end());
  const ImageAt reply_at = *reply_image_at;
  const ImageFields reply_image = split_image(
      fields.runs[reply_at.run].records[reply_at.record].payload);
  std::vector<std::size_t> rows_with_bodies;
  for (std::size_t i = 0; i < reply_image.slots.size(); ++i) {
    const SlotFields& slot = reply_image.slots[i];
    if (slot.object == Buffer{0}) {
      const RowFields row = split_row(slot.payload);
      ASSERT_EQ(lay_out_row(row), slot.payload);
      if (!row.bodies.empty()) {
        rows_with_bodies.push_back(i);
      }
    }
  }
  ASSERT_FALSE(rows_with_bodies.empty()) << "the image holds no bodies";

  int round_tripped = 0;
  int refused_bodies = 0;
  int booted = 0;
  int refused_volumes = 0;
  for (int iter = 0; iter < 300; ++iter) {
    ImageFields image = reply_image;
    SlotFields& slot =
        image.slots[rows_with_bodies[rng.below(rows_with_bodies.size())]];
    RowFields row = split_row(slot.payload);
    BodyFields& body = row.bodies[rng.below(row.bodies.size())];
    switch (rng.below(7)) {
      case 0: {
        // An unknown mask bit, or a known bit flipped without its field.
        const std::uint8_t bits[] = {0x20, 0x40, 0x80, 0x01,
                                     0x02, 0x08, 0x10};
        body.mask[0] ^= bits[rng.below(std::size(bits))];
        break;
      }
      case 1:
        // A field without its bit: a capability or a param.
        if (rng.below(2) == 0) {
          body.capability.assign(16, static_cast<std::uint8_t>(rng.next()));
        } else {
          body.params.push_back(test::varint_bytes(1 + rng.below(1000)));
        }
        break;
      case 2:
        // A masked field that is zero.
        if (!body.params.empty()) {
          body.params.front() = {0};
        } else {
          body.mask[0] |= 0x10;
          body.capability.assign(16, 0);
        }
        break;
      case 3:
        test::bend_varint(body.data_length, rng);
        break;
      case 4:
        body.flags = test::varint_bytes(0x10000 + rng.below(8));
        break;
      case 5:
        test::bend_varint(rng.below(2) == 0 ? body.status : body.flags, rng);
        break;
      default:
        body.sized = false;
        body.length = test::varint_bytes(lay_out_body(body).size());
        test::bend_varint(body.length, rng);
        break;
    }
    const Buffer bytes = lay_out_body(body);
    if (const auto reply = rpc::decode_reply_body(bytes, 1, 2)) {
      Buffer again;
      rpc::encode_reply_body(*reply, again);
      EXPECT_EQ(again, bytes) << "a decoded body re-encodes differently";
      ++round_tripped;
    } else {
      ++refused_bodies;
    }
    slot.payload = lay_out_row(row);
    test::FrameFields bent_fields = fields;
    bent_fields.runs[reply_at.run].records[reply_at.record].payload =
        lay_out_image(image);
    ++(boots(bank_machine, test::lay_out(bent_fields)) ? booted
                                                       : refused_volumes);
    if (::testing::Test::HasFailure()) {
      FAIL() << "iteration " << iter << " (seed base " << test::seed_base(61)
             << ")";
    }
  }
  std::printf("bent reply bodies: %d round-tripped, %d refused; %d volumes "
              "booted, %d refused\n",
              round_tripped, refused_bodies, booted, refused_volumes);
  EXPECT_GT(round_tripped, 0);
  EXPECT_GT(refused_bodies, 0);
  EXPECT_GT(booted, 0);
}

}  // namespace
}  // namespace amoeba
