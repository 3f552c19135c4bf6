// Field-level fuzzing of the slots inside a checkpoint frame
// (docs/PROTOCOL.md §8.3, §8.4): a real bank volume is checkpointed by the
// production imagers -- its shards' account images and its reply
// stream's client rows -- and then one slot field at a time is bent, with
// the record and frame checksums recomputed so the bend reaches the
// decoders.  Recovery must refuse the volume with a UsageError or boot,
// and must never crash (the ASan+UBSan job runs this suite).
// AMOEBA_TEST_SEED picks the bends.
#include <gtest/gtest.h>

#include <cstdint>
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

/// Where one snapshot record and its image's fields sit in the log.
struct Image {
  std::size_t record = 0;  // the record frame
  std::size_t count = 0;   // the image's slot count
  struct Slot {
    std::size_t object;
    std::size_t payload;  // its length word; the bytes follow
  };
  std::vector<Slot> slots;
};

TEST(CheckpointFuzz, BentImageSlotsRefuseOrRecover) {
  Rng rng(test::seed_base(61) * 0x9E3779B97F4A7C15ULL + 22);
  net::Network net;
  net::Machine& bank_machine = net.add_machine("bank");
  net::Machine& client_machine = net.add_machine("client");
  auto volume = std::make_shared<storage::MemoryBackend>(16);
  {
    servers::BankServer bank(bank_machine, Port(0xBA61), scheme(), 1, volume);
    bank.start(2);
    rpc::Transport transport(client_machine, 5);
    servers::BankClient client(transport, bank.put_port());
    const core::Capability alice = client.create_account().value();
    const core::Capability bob = client.create_account().value();
    ASSERT_TRUE(client
                    .mint(bank.master_capability(), alice,
                          servers::currency::kDollar, 1000)
                    .ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          client.transfer(alice, bob, servers::currency::kDollar, 3).ok());
    }
    bank.stop();
  }
  {
    // The production imagers take the checkpoint: the store's for the
    // account shards, the service's for the reply stream.
    auto committer = std::make_shared<storage::GroupCommitter>(volume);
    core::ObjectStore<Buffer> accounts(scheme(), Port(0xBA61), 2, 16,
                                       opaque(committer));
    ReplyStreamOwner owner(bank_machine, committer);
    accounts.compact();
  }
  const Buffer pristine = volume->read_log();
  const std::size_t frame_at = storage::kLogHeaderBytes;
  storage::Frame frame;
  ASSERT_EQ(storage::decode_frame(storage::log_frames(pristine), frame),
            pristine.size() - frame_at);
  ASSERT_TRUE(frame.checkpoint);

  // Every snapshot record of the frame and its slots' fields: the bank's
  // images (object, secret, account payload) and the reply stream's
  // (client rows and the incarnation slot).
  std::vector<Image> images;
  std::size_t pos = frame_at + 21;  // length, checksum, seq, flags, count
  for (const storage::ShardAppend& run : frame.appends) {
    pos += 8;
    std::size_t in_run = 0;
    while (const auto r =
               storage::peek_record(std::span(run.bytes).subspan(in_run))) {
      if (r->type == storage::RecordType::snapshot) {
        Image image;
        image.record = pos + in_run;
        const std::size_t body = image.record + 33;  // the image's bytes
        image.count = body + 14;  // magic u32, version u16, lsn u64
        std::size_t slot = image.count + 4;
        for (std::uint32_t n = get_u32(pristine, image.count); n > 0; --n) {
          image.slots.push_back({slot, slot + 12});
          slot += 16 + get_u32(pristine, slot + 12);
        }
        images.push_back(std::move(image));
      }
      in_run += r->size;
    }
    pos += run.bytes.size();
  }
  ASSERT_EQ(images.size(), 17u);  // 16 shards and the reply stream
  std::size_t slots = 0;
  for (const Image& image : images) {
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
    Buffer bent = pristine;
    const Image* image = &images[rng.below(images.size())];
    while (image->slots.empty()) {
      image = &images[rng.below(images.size())];
    }
    const Image::Slot& slot = image->slots[rng.below(image->slots.size())];
    const std::uint32_t length = get_u32(bent, slot.payload);
    switch (rng.below(6)) {
      case 0:
        put_u32(bent, image->count, bent_u32(get_u32(bent, image->count)));
        break;
      case 1:
        put_u32(bent, slot.object, bent_u32(get_u32(bent, slot.object)));
        break;
      case 2:  // the secret's low word
        put_u32(bent, slot.object + 4,
                static_cast<std::uint32_t>(rng.next()));
        break;
      case 3:
        put_u32(bent, slot.payload, bent_u32(length));
        break;
      case 4:
        // A field inside the payload: a balance count or currency, a row's
        // floor or body count.
        if (length >= 4) {
          const std::size_t at = slot.payload + 4 + rng.below(length - 3);
          put_u32(bent, at, bent_u32(get_u32(bent, at)));
        }
        break;
      default:
        if (length > 0) {
          bent[slot.payload + 4 + rng.below(length)] ^=
              static_cast<std::uint8_t>(1 + rng.below(255));
        }
        break;
    }
    // Re-seal the snapshot record and the frame, so the decoders see the
    // bend.
    const std::uint32_t record_length = get_u32(bent, image->record);
    put_u32(bent, image->record + 4,
            storage::frame_checksum(
                std::span(bent).subspan(image->record + 8, record_length)));
    put_u32(bent, frame_at + 4,
            storage::frame_checksum(std::span(bent).subspan(frame_at + 8)));

    auto copy = std::make_shared<storage::MemoryBackend>(16);
    copy->replace_log(storage::log_frames(bent));
    try {
      servers::BankServer restarted(bank_machine, Port(0xBA61), scheme(), 3,
                                    copy);
      ++recovered;
    } catch (const UsageError&) {
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

}  // namespace
}  // namespace amoeba
