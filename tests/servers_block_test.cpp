// Tests for the simulated disk and the block server (§3.2).
#include <gtest/gtest.h>

#include "amoeba/common/rng.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/block_server.hpp"
#include "amoeba/servers/disk.hpp"

namespace amoeba::servers {
namespace {

// ---------------------------------------------------------------- SimDisk

TEST(SimDiskTest, AllocateWriteReadFree) {
  SimDisk disk(8, 64);
  const auto block = disk.allocate();
  ASSERT_TRUE(block.ok());
  const Buffer data = {1, 2, 3};
  ASSERT_TRUE(disk.write(block.value(), data).ok());
  const auto read = disk.read(block.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().size(), 64u);  // whole block, zero-padded
  EXPECT_EQ(read.value()[0], 1);
  EXPECT_EQ(read.value()[2], 3);
  EXPECT_EQ(read.value()[3], 0);
  ASSERT_TRUE(disk.free_block(block.value()).ok());
  EXPECT_EQ(disk.free_count(), 8u);
}

TEST(SimDiskTest, ExhaustionAndRecovery) {
  SimDisk disk(2, 16);
  const auto a = disk.allocate();
  const auto b = disk.allocate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(disk.allocate().error(), ErrorCode::no_space);
  ASSERT_TRUE(disk.free_block(a.value()).ok());
  EXPECT_TRUE(disk.allocate().ok());
}

TEST(SimDiskTest, FreedBlockRejectsAccess) {
  SimDisk disk(4, 16);
  const auto block = disk.allocate();
  ASSERT_TRUE(disk.free_block(block.value()).ok());
  EXPECT_EQ(disk.read(block.value()).error(), ErrorCode::no_such_object);
  EXPECT_EQ(disk.write(block.value(), Buffer{1}).error(),
            ErrorCode::no_such_object);
  EXPECT_EQ(disk.free_block(block.value()).error(),
            ErrorCode::no_such_object);
}

TEST(SimDiskTest, ReallocatedBlockIsZeroed) {
  SimDisk disk(1, 16);
  const auto a = disk.allocate();
  ASSERT_TRUE(disk.write(a.value(), Buffer{0xFF, 0xFF}).ok());
  ASSERT_TRUE(disk.free_block(a.value()).ok());
  const auto b = disk.allocate();
  const auto read = disk.read(b.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value()[0], 0);
}

TEST(SimDiskTest, OversizedWriteRejected) {
  SimDisk disk(1, 4);
  const auto block = disk.allocate();
  EXPECT_EQ(disk.write(block.value(), Buffer{1, 2, 3, 4, 5}).error(),
            ErrorCode::invalid_argument);
}

TEST(SimDiskTest, WriteOnceModeEnforced) {
  SimDisk disk(2, 16, /*write_once=*/true);
  const auto block = disk.allocate();
  ASSERT_TRUE(disk.write(block.value(), Buffer{1}).ok());
  EXPECT_EQ(disk.write(block.value(), Buffer{2}).error(),
            ErrorCode::immutable);
  // Free + realloc resets the write-once latch.
  ASSERT_TRUE(disk.free_block(block.value()).ok());
  const auto again = disk.allocate();
  EXPECT_TRUE(disk.write(again.value(), Buffer{3}).ok());
}

TEST(SimDiskTest, StatsTrackOperations) {
  SimDisk disk(4, 16);
  const auto block = disk.allocate();
  (void)disk.write(block.value(), Buffer{1});
  (void)disk.read(block.value());
  (void)disk.read(block.value());
  EXPECT_EQ(disk.stats().allocations, 1u);
  EXPECT_EQ(disk.stats().writes, 1u);
  EXPECT_EQ(disk.stats().reads, 2u);
}

TEST(SimDiskTest, ZeroGeometryRejected) {
  EXPECT_THROW(SimDisk(0, 16), UsageError);
  EXPECT_THROW(SimDisk(16, 0), UsageError);
}

// ------------------------------------------------------------ BlockServer

class BlockServerSuite : public ::testing::TestWithParam<core::SchemeKind> {
 protected:
  BlockServerSuite()
      : machine_(net_.add_machine("blocks")),
        client_machine_(net_.add_machine("client")),
        rng_(static_cast<std::uint64_t>(GetParam()) + 1) {
    BlockServer::Geometry geometry;
    geometry.block_count = 16;
    geometry.block_size = 128;
    server_ = std::make_unique<BlockServer>(
        machine_, Port(0xB10C), core::make_scheme(GetParam(), rng_), 7,
        geometry);
    server_->start();
    transport_ = std::make_unique<rpc::Transport>(client_machine_, 3);
    client_ = std::make_unique<BlockClient>(*transport_, server_->put_port());
  }

  net::Network net_;
  net::Machine& machine_;
  net::Machine& client_machine_;
  Rng rng_;
  std::unique_ptr<BlockServer> server_;
  std::unique_ptr<rpc::Transport> transport_;
  std::unique_ptr<BlockClient> client_;
};

TEST_P(BlockServerSuite, AllocateWriteReadFreeOverRpc) {
  const auto cap = client_->allocate();
  ASSERT_TRUE(cap.ok());
  EXPECT_EQ(cap.value().server_port, server_->put_port());
  const Buffer data = {'d', 'a', 't', 'a'};
  ASSERT_TRUE(client_->write(cap.value(), data).ok());
  const auto read = client_->read(cap.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().size(), 128u);
  EXPECT_EQ(read.value()[0], 'd');
  ASSERT_TRUE(client_->free_block(cap.value()).ok());
  EXPECT_EQ(client_->read(cap.value()).error(), ErrorCode::no_such_object);
}

TEST_P(BlockServerSuite, InfoReportsGeometry) {
  const auto info = client_->info();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().block_count, 16u);
  EXPECT_EQ(info.value().block_size, 128u);
  EXPECT_EQ(info.value().free_blocks, 16u);
  ASSERT_TRUE(client_->allocate().ok());
  EXPECT_EQ(client_->info().value().free_blocks, 15u);
}

TEST_P(BlockServerSuite, ForgedCapabilityRejected) {
  const auto cap = client_->allocate();
  ASSERT_TRUE(cap.ok());
  core::Capability forged = cap.value();
  forged.check = CheckField(forged.check.value() ^ 0x40);
  EXPECT_EQ(client_->read(forged).error(), ErrorCode::bad_capability);
}

TEST_P(BlockServerSuite, RestrictedCapabilityHonored) {
  if (GetParam() == core::SchemeKind::simple) {
    GTEST_SKIP() << "scheme 0 cannot narrow rights";
  }
  const auto cap = client_->allocate();
  ASSERT_TRUE(cap.ok());
  const auto read_only =
      rpc::std_restrict(*transport_, cap.value(), core::rights::kRead);
  ASSERT_TRUE(read_only.ok());
  EXPECT_TRUE(client_->read(read_only.value()).ok());
  EXPECT_EQ(client_->write(read_only.value(), Buffer{1}).error(),
            ErrorCode::permission_denied);
  EXPECT_EQ(client_->free_block(read_only.value()).error(),
            ErrorCode::permission_denied);
}

TEST_P(BlockServerSuite, RevokedCapabilityDies) {
  const auto cap = client_->allocate();
  ASSERT_TRUE(cap.ok());
  const auto fresh = rpc::std_revoke(*transport_, cap.value());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(client_->read(cap.value()).error(), ErrorCode::bad_capability);
  EXPECT_TRUE(client_->read(fresh.value()).ok());
}

TEST_P(BlockServerSuite, ServerExhaustionSurfacesNoSpace) {
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(client_->allocate().ok());
  }
  EXPECT_EQ(client_->allocate().error(), ErrorCode::no_space);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, BlockServerSuite,
                         ::testing::Values(core::SchemeKind::simple,
                                           core::SchemeKind::encrypted,
                                           core::SchemeKind::one_way_xor,
                                           core::SchemeKind::commutative),
                         [](const auto& info) {
                           return core::scheme_name(info.param);
                         });

}  // namespace
}  // namespace amoeba::servers
