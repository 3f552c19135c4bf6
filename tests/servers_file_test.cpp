// Tests for the flat file server (§3.3): byte-range IO across block
// boundaries, the block-server client relationship, delegation via
// restriction, revocation, and quota-by-pricing through the bank (§3.6).
#include <gtest/gtest.h>

#include <memory>

#include "amoeba/common/rng.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/servers/block_server.hpp"
#include "amoeba/servers/flat_file_server.hpp"

namespace amoeba::servers {
namespace {

/// Two machines, a block server feeding a flat file server, one client.
class FlatFileSuite : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kBlockSize = 64;

  FlatFileSuite()
      : storage_machine_(net_.add_machine("storage")),
        fs_machine_(net_.add_machine("fileserver")),
        client_machine_(net_.add_machine("client")),
        rng_(99) {
    BlockServer::Geometry geometry;
    geometry.block_count = 256;
    geometry.block_size = kBlockSize;
    const auto scheme = core::make_scheme(core::SchemeKind::one_way_xor, rng_);
    blocks_ = std::make_unique<BlockServer>(storage_machine_, Port(0xB10C),
                                            scheme, 1, geometry);
    blocks_->start();
    files_ = std::make_unique<FlatFileServer>(fs_machine_, Port(0xF17E),
                                              scheme, 2, blocks_->put_port());
    files_->start();
    transport_ = std::make_unique<rpc::Transport>(client_machine_, 3);
    client_ = std::make_unique<FlatFileClient>(*transport_,
                                               files_->put_port());
  }

  net::Network net_;
  net::Machine& storage_machine_;
  net::Machine& fs_machine_;
  net::Machine& client_machine_;
  Rng rng_;
  std::unique_ptr<BlockServer> blocks_;
  std::unique_ptr<FlatFileServer> files_;
  std::unique_ptr<rpc::Transport> transport_;
  std::unique_ptr<FlatFileClient> client_;
};

TEST_F(FlatFileSuite, CreateWriteReadRoundTrip) {
  const auto file = client_->create();
  ASSERT_TRUE(file.ok());
  const Buffer data = {'h', 'e', 'l', 'l', 'o'};
  ASSERT_TRUE(client_->write(file.value(), 0, data).ok());
  EXPECT_EQ(client_->size(file.value()).value(), 5u);
  const auto read = client_->read(file.value(), 0, 5);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), data);
}

TEST_F(FlatFileSuite, WritesSpanBlockBoundaries) {
  const auto file = client_->create();
  ASSERT_TRUE(file.ok());
  // 300 bytes crosses five 64-byte blocks.
  Buffer big(300);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i & 0xFF);
  }
  ASSERT_TRUE(client_->write(file.value(), 0, big).ok());
  const auto read = client_->read(file.value(), 0, 300);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), big);
  // An unaligned mid-file overwrite must leave the rest intact.
  const Buffer patch = {0xAA, 0xBB, 0xCC};
  ASSERT_TRUE(client_->write(file.value(), 100, patch).ok());
  const auto reread = client_->read(file.value(), 98, 8);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread.value(),
            (Buffer{98, 99, 0xAA, 0xBB, 0xCC, 103, 104, 105}));
}

TEST_F(FlatFileSuite, UnalignedPositionsAndEof) {
  const auto file = client_->create();
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(client_->write(file.value(), 70, Buffer{1, 2, 3}).ok());
  EXPECT_EQ(client_->size(file.value()).value(), 73u);
  // Bytes before the write position read as zero (allocated hole).
  const auto hole = client_->read(file.value(), 0, 70);
  ASSERT_TRUE(hole.ok());
  EXPECT_EQ(hole.value(), Buffer(70, 0));
  // Reads beyond EOF truncate; reads after EOF are empty.
  EXPECT_EQ(client_->read(file.value(), 71, 100).value(), (Buffer{2, 3}));
  EXPECT_TRUE(client_->read(file.value(), 200, 10).value().empty());
}

TEST_F(FlatFileSuite, OverflowingWritePositionRejected) {
  // A write position near 2^64 must not wrap the end-of-write arithmetic
  // into the existing allocation (out-of-bounds block indexing).
  const auto file = client_->create();
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(client_->write(file.value(), 0, Buffer(64, 1)).ok());
  EXPECT_EQ(client_->write(file.value(), ~std::uint64_t{0} - 4,
                           Buffer{1, 2, 3, 4, 5, 6, 7, 8})
                .error(),
            ErrorCode::invalid_argument);
  // Server intact: the file still reads back.
  EXPECT_EQ(client_->read(file.value(), 0, 64).value(), Buffer(64, 1));
}

TEST_F(FlatFileSuite, FileServerConsumesBlockServerBlocks) {
  const auto before = client_->create();
  ASSERT_TRUE(before.ok());
  const auto stats_before = blocks_->disk_stats();
  Buffer data(kBlockSize * 3);
  ASSERT_TRUE(client_->write(before.value(), 0, data).ok());
  const auto stats_after = blocks_->disk_stats();
  EXPECT_EQ(stats_after.allocations - stats_before.allocations, 3u);
}

TEST_F(FlatFileSuite, DestroyReleasesBlocks) {
  const auto file = client_->create();
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(client_->write(file.value(), 0, Buffer(kBlockSize * 2)).ok());
  const auto frees_before = blocks_->disk_stats().frees;
  ASSERT_TRUE(client_->destroy(file.value()).ok());
  EXPECT_EQ(blocks_->disk_stats().frees - frees_before, 2u);
  EXPECT_EQ(client_->size(file.value()).error(), ErrorCode::no_such_object);
}

TEST_F(FlatFileSuite, ReadOnlyDelegationEndToEnd) {
  // The paper's motivating example: create a file, write it, give another
  // client read-only access.
  const auto owner_cap = client_->create();
  ASSERT_TRUE(owner_cap.ok());
  ASSERT_TRUE(client_->write(owner_cap.value(), 0, Buffer{'s'}).ok());
  const auto reader_cap =
      client_->restrict(owner_cap.value(), core::rights::kRead);
  ASSERT_TRUE(reader_cap.ok());

  // "Another client" on its own machine, holding only the bit pattern.
  rpc::Transport other_transport(net_.add_machine("friend"), 9);
  FlatFileClient other(other_transport, files_->put_port());
  EXPECT_EQ(other.read(reader_cap.value(), 0, 1).value(), (Buffer{'s'}));
  EXPECT_EQ(other.write(reader_cap.value(), 0, Buffer{'x'}).error(),
            ErrorCode::permission_denied);
  EXPECT_EQ(other.destroy(reader_cap.value()).error(),
            ErrorCode::permission_denied);
}

TEST_F(FlatFileSuite, RevocationInvalidatesDelegatedCopies) {
  const auto owner_cap = client_->create();
  ASSERT_TRUE(owner_cap.ok());
  const auto reader_cap =
      client_->restrict(owner_cap.value(), core::rights::kRead);
  ASSERT_TRUE(reader_cap.ok());
  const auto fresh = client_->revoke(owner_cap.value());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(client_->read(reader_cap.value(), 0, 1).error(),
            ErrorCode::bad_capability);
  EXPECT_TRUE(client_->size(fresh.value()).ok());
}

// ------------------------------------------------------- pricing (§3.6)

class PricedFileSuite : public ::testing::Test {
 protected:
  static constexpr std::int64_t kPricePerBlock = 5;

  PricedFileSuite()
      : machine_(net_.add_machine("servers")),
        client_machine_(net_.add_machine("client")),
        rng_(7) {
    const auto scheme = core::make_scheme(core::SchemeKind::one_way_xor, rng_);
    BlockServer::Geometry geometry;
    geometry.block_count = 64;
    geometry.block_size = 64;
    blocks_ = std::make_unique<BlockServer>(machine_, Port(0xB10C), scheme, 1,
                                            geometry);
    blocks_->start();
    bank_ = std::make_unique<BankServer>(machine_, Port(0xBA7C), scheme, 2);
    bank_->start();

    // The file server owns a bank account and charges dollars per block.
    server_transport_ = std::make_unique<rpc::Transport>(machine_, 5);
    BankClient bank_client(*server_transport_, bank_->put_port());
    fs_account_ = bank_client.create_account().value();

    files_ = std::make_unique<FlatFileServer>(machine_, Port(0xF17E), scheme,
                                              3, blocks_->put_port());
    FlatFileServer::Pricing pricing;
    pricing.bank_port = bank_->put_port();
    pricing.server_account = fs_account_;
    pricing.currency = currency::kDollar;
    pricing.price_per_block = kPricePerBlock;
    files_->set_pricing(pricing);
    files_->start();

    transport_ = std::make_unique<rpc::Transport>(client_machine_, 4);
    client_ = std::make_unique<FlatFileClient>(*transport_,
                                               files_->put_port());
    bank_client_ = std::make_unique<BankClient>(*transport_,
                                                bank_->put_port());
    // Fund the client with 100 dollars from the mint.
    my_account_ = bank_client_->create_account().value();
    EXPECT_TRUE(bank_client_
                    ->mint(bank_->master_capability(), my_account_,
                           currency::kDollar, 100)
                    .ok());
  }

  net::Network net_;
  net::Machine& machine_;
  net::Machine& client_machine_;
  Rng rng_;
  std::unique_ptr<BlockServer> blocks_;
  std::unique_ptr<BankServer> bank_;
  std::unique_ptr<rpc::Transport> server_transport_;
  std::unique_ptr<FlatFileServer> files_;
  std::unique_ptr<rpc::Transport> transport_;
  std::unique_ptr<FlatFileClient> client_;
  std::unique_ptr<BankClient> bank_client_;
  core::Capability fs_account_;
  core::Capability my_account_;
};

TEST_F(PricedFileSuite, StorageGrowthIsCharged) {
  const auto file = client_->create(&my_account_);
  ASSERT_TRUE(file.ok());
  // Three blocks at 5 dollars each.
  ASSERT_TRUE(client_->write(file.value(), 0, Buffer(64 * 3)).ok());
  EXPECT_EQ(bank_client_->balance(my_account_, currency::kDollar).value(),
            100 - 3 * kPricePerBlock);
  EXPECT_EQ(bank_client_->balance(fs_account_, currency::kDollar).value(),
            3 * kPricePerBlock);
}

TEST_F(PricedFileSuite, CreateWithoutPaymentRejected) {
  EXPECT_EQ(client_->create().error(), ErrorCode::invalid_argument);
}

TEST_F(PricedFileSuite, QuotaEnforcedByEmptyAccount) {
  // "Quotas can be implemented by limiting how many dollars each client
  // has": 100 dollars buys exactly 20 blocks.
  const auto file = client_->create(&my_account_);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(client_->write(file.value(), 0, Buffer(64 * 20)).ok());
  EXPECT_EQ(bank_client_->balance(my_account_, currency::kDollar).value(), 0);
  const auto over = client_->write(file.value(), 64 * 20, Buffer(64));
  EXPECT_EQ(over.error(), ErrorCode::insufficient_funds);
}

TEST_F(PricedFileSuite, DestroyRefundsBlocks) {
  const auto file = client_->create(&my_account_);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(client_->write(file.value(), 0, Buffer(64 * 4)).ok());
  ASSERT_TRUE(client_->destroy(file.value()).ok());
  // "Returning the resource might result in the client getting his money
  // back" -- the full 4-block charge comes back.
  EXPECT_EQ(bank_client_->balance(my_account_, currency::kDollar).value(),
            100);
}

TEST_F(PricedFileSuite, PaymentCapabilityNeedsWithdrawRight) {
  const auto weak_account =
      rpc::std_restrict(*transport_, my_account_, core::rights::kRead);
  ASSERT_TRUE(weak_account.ok());
  const auto file = client_->create(&weak_account.value());
  ASSERT_TRUE(file.ok());  // creation is free; growth is charged
  EXPECT_EQ(client_->write(file.value(), 0, Buffer(64)).error(),
            ErrorCode::permission_denied);
}

}  // namespace
}  // namespace amoeba::servers
