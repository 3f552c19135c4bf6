// The compiled capability table on its own, through the interface every
// ObjectStore<T> implements: which payload calls the live paths and the
// recovery replay make, and what a durable table refuses.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/capability_table.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"

namespace amoeba::core {
namespace {

constexpr Port kPort{0x7A7A7A7A7A7AULL};

std::shared_ptr<const ProtectionScheme> scheme() {
  Rng rng(23);
  return make_scheme(SchemeKind::one_way_xor, rng);
}

/// Int payloads in a map, recording each reset: 'r' plain, 'd' disposing.
class IntPayloads final : public CapabilityTable::Payloads {
 public:
  explicit IntPayloads(bool deltas = true) : deltas_(deltas) {}

  void encode(Writer& out, ObjectNumber object) override {
    out.u32(static_cast<std::uint32_t>(values[object.value()]));
  }
  bool decode(Reader& in, ObjectNumber object) override {
    values[object.value()] = static_cast<int>(in.u32());
    return in.ok();
  }
  bool apply_delta(Reader& in, ObjectNumber object) override {
    values[object.value()] += static_cast<int>(in.u32());
    return in.ok();
  }
  [[nodiscard]] bool applies_deltas() const override { return deltas_; }
  void reset(ObjectNumber object, bool dispose) override {
    values.erase(object.value());
    resets.emplace_back(dispose ? 'd' : 'r', object.value());
  }

  std::map<std::uint32_t, int> values;
  std::vector<std::pair<char, std::uint32_t>> resets;

 private:
  bool deltas_;
};

Capability create(CapabilityTable& table, IntPayloads& payloads, int value) {
  CapabilityTable::Lease lease = table.reserve();
  payloads.values[lease.object.value()] = value;
  return table.finish_create(std::move(lease), Rights::all());
}

[[nodiscard]] std::shared_ptr<storage::GroupCommitter> committer_on(
    const std::shared_ptr<storage::Backend>& volume) {
  return storage::GroupCommitter::create(volume);
}

TEST(CapabilityTable, DestroyResetsThePayloadAndKillsTheCapability) {
  IntPayloads payloads;
  CapabilityTable table(scheme(), kPort, 1, 4, nullptr, payloads);
  const Capability cap = create(table, payloads, 10);
  auto lease = table.open(cap, rights::kDestroy);
  ASSERT_TRUE(lease.ok());
  ASSERT_TRUE(table.destroy(std::move(lease.value())).ok());
  EXPECT_EQ(payloads.resets,
            (std::vector<std::pair<char, std::uint32_t>>{
                {'r', cap.object.value()}}));
  EXPECT_EQ(table.check(cap, Rights::none()).error(),
            ErrorCode::no_such_object);
  EXPECT_EQ(table.live_count(), 0u);
}

TEST(CapabilityTable, RecoveryReplaysThroughThePayloadInterface) {
  auto volume = std::make_shared<storage::MemoryBackend>(4);
  std::vector<Capability> caps;
  {
    IntPayloads payloads;
    CapabilityTable table(scheme(), kPort, 2, 4, committer_on(volume),
                          payloads);
    for (int i = 1; i <= 3; ++i) {
      caps.push_back(create(table, payloads, 10 * i));
    }
    {
      auto lease = table.open(caps[0], Rights::all());
      ASSERT_TRUE(lease.ok());
      payloads.values[caps[0].object.value()] = 11;
      lease.value().mark_dirty();
    }
    {
      auto lease = table.open(caps[1], Rights::all());
      ASSERT_TRUE(lease.ok());
      payloads.values[caps[1].object.value()] += 2;
      Writer patch;
      patch.u32(2);
      lease.value().mark_dirty_delta(patch.take());
    }
    auto doomed = table.open(caps[2], Rights::all());
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE(table.destroy(std::move(doomed.value())).ok());
    EXPECT_EQ(table.durability_stats().journal_records, 6u);
  }

  IntPayloads payloads;
  CapabilityTable recovered(scheme(), kPort, 3, 4, committer_on(volume),
                            payloads);
  EXPECT_TRUE(recovered.durability_stats().recovered);
  EXPECT_EQ(recovered.live_count(), 2u);
  EXPECT_EQ(payloads.values, (std::map<std::uint32_t, int>{
                                 {caps[0].object.value(), 11},
                                 {caps[1].object.value(), 22}}));
  // A create resets a dead slot; a mutate and a destroy of a live payload
  // release its resources first.
  EXPECT_EQ(payloads.resets, (std::vector<std::pair<char, std::uint32_t>>{
                                 {'r', caps[0].object.value()},
                                 {'d', caps[0].object.value()},
                                 {'r', caps[1].object.value()},
                                 {'r', caps[2].object.value()},
                                 {'d', caps[2].object.value()}}));
  EXPECT_TRUE(recovered.check(caps[0], Rights::all()).ok());
  EXPECT_TRUE(recovered.check(caps[1], Rights::all()).ok());
  EXPECT_EQ(recovered.check(caps[2], Rights::none()).error(),
            ErrorCode::no_such_object);
}

TEST(CapabilityTable, ASameShardPairJournalsBothImages) {
  auto volume = std::make_shared<storage::MemoryBackend>(4);
  std::vector<Capability> caps;
  {
    IntPayloads payloads;
    CapabilityTable table(scheme(), kPort, 4, 4, committer_on(volume),
                          payloads);
    for (int i = 0; i < 5; ++i) {
      caps.push_back(create(table, payloads, 100));
    }
    // Creates take the shards in turn: the first and the fifth share one.
    ASSERT_EQ(caps[0].object.value() % 4, caps[4].object.value() % 4);
    auto pair = table.open2(caps[0], Rights::all(), caps[4], Rights::all());
    ASSERT_TRUE(pair.ok());
    payloads.values[caps[0].object.value()] -= 30;
    payloads.values[caps[4].object.value()] += 30;
    pair.value().first.mark_dirty();
    pair.value().second.mark_dirty();
    CapabilityTable::Lease::release_pair(pair.value().first,
                                         pair.value().second);
  }
  IntPayloads payloads;
  const CapabilityTable recovered(scheme(), kPort, 5, 4,
                                  committer_on(volume), payloads);
  EXPECT_EQ(payloads.values[caps[0].object.value()], 70);
  EXPECT_EQ(payloads.values[caps[4].object.value()], 130);
}

TEST(CapabilityTable, ADurableTableWithoutADeltaCodecRefusesDeltaMarks) {
  IntPayloads payloads(/*deltas=*/false);
  const auto volume = std::make_shared<storage::MemoryBackend>(4);
  CapabilityTable table(scheme(), kPort, 6, 4, committer_on(volume),
                        payloads);
  const Capability cap = create(table, payloads, 1);
  auto lease = table.open(cap, Rights::all());
  ASSERT_TRUE(lease.ok());
  EXPECT_THROW(lease.value().mark_dirty_delta(Buffer{1}), UsageError);
}

}  // namespace
}  // namespace amoeba::core
