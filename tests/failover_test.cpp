// Kill-the-primary failover (docs/PROTOCOL.md §9.4).  A bank runs over a
// replicated volume (ack-one journal shipping to a backup machine); the
// primary machine is killed mid-service; the backup is promoted and an
// ordinary BankServer is constructed over the promoted volume -- with the
// same get-port and protection scheme, and NOTHING re-minted.  The
// acceptance bar:
//
//   * 100% of pre-crash capabilities validate against the promoted
//     backup (the shipped journals carry the secrets),
//   * the recovered master capability is byte-identical to the
//     pre-crash master (zero re-minting, so old money still mints),
//   * a duplicate of an in-flight pre-crash transfer is suppressed (the
//     shipped reply-cache floors survive the failover),
//   * money is conserved and the promoted bank takes new transfers,
//   * a deposed primary, fenced by the promotion, answers a batch
//     envelope `internal` as a whole.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/replication.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/replication/replicated_backend.hpp"
#include "invariants.hpp"

namespace amoeba::servers {
namespace {

using namespace std::chrono_literals;

[[nodiscard]] std::shared_ptr<const core::ProtectionScheme> scheme() {
  static const std::shared_ptr<const core::ProtectionScheme> shared = [] {
    Rng rng(31);
    return std::shared_ptr<const core::ProtectionScheme>(
        core::make_scheme(core::SchemeKind::commutative, rng));
  }();
  return shared;
}

/// Polls until the service stops executing new requests (replayed
/// duplicates are fire-and-forget; suppressed ones answer nothing).
void quiesce(const rpc::Service& service) {
  std::uint64_t last = service.requests_served();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(5ms);
    const std::uint64_t now = service.requests_served();
    if (now == last && i > 3) {
      return;
    }
    last = now;
  }
}

class FailoverSuite : public ::testing::Test {
 protected:
  static constexpr std::int64_t kMint = 1'000'000;
  static constexpr std::int64_t kAmount = 7;
  static constexpr std::uint64_t kClient = 0xFA11;
  static constexpr int kTransfers = 30;
  static constexpr Port kBankPort{0xBA22};

  FailoverSuite()
      : primary_machine_(net_.add_machine("primary")),
        backup_machine_(net_.add_machine("backup")),
        client_machine_(net_.add_machine("client")),
        primary_volume_(std::make_shared<storage::MemoryBackend>(16)),
        backup_volume_(std::make_shared<storage::MemoryBackend>(16)) {
    replica_ = std::make_unique<rpc::ReplicaServer>(
        backup_machine_, Port(0x7B01), scheme(), 13, backup_volume_);
    replica_->start(2);
  }

  ~FailoverSuite() override {
    client_.reset();
    transport_.reset();
    if (bank_ != nullptr) {
      bank_->stop();
    }
    bank_.reset();
    replicated_.reset();
    if (replica_ != nullptr) {
      replica_->stop();
    }
  }

  /// Hand-stamped at-most-once transfer (client kClient, seq `seq`): the
  /// workload keeps its own identity so the EXACT pre-crash frames can be
  /// replayed against the promoted backup.
  [[nodiscard]] net::Message transfer_frame(std::uint64_t seq,
                                            Port reply_port) const {
    net::Message request = rpc::make_request(
        bank_->put_port(), bank_ops::kTransfer, alice_,
        {currency::kDollar, kAmount, bob_});
    request.header.flags |= net::kFlagAtMostOnce;
    request.header.client = kClient;
    request.header.seq = seq;
    request.header.reply = reply_port;
    return request;
  }

  [[nodiscard]] std::int64_t dollars(const core::Capability& account) {
    return client_->balance(account, currency::kDollar).value();
  }

  net::Network net_;
  net::Machine& primary_machine_;
  net::Machine& backup_machine_;
  net::Machine& client_machine_;
  std::shared_ptr<storage::MemoryBackend> primary_volume_;
  std::shared_ptr<storage::MemoryBackend> backup_volume_;
  std::unique_ptr<rpc::ReplicaServer> replica_;
  std::shared_ptr<storage::ReplicatedBackend> replicated_;
  std::unique_ptr<BankServer> bank_;
  std::unique_ptr<rpc::Transport> transport_;
  std::unique_ptr<BankClient> client_;
  core::Capability alice_;
  core::Capability bob_;
  std::uint64_t seed_ = 91;
};

TEST_F(FailoverSuite, PromotedBackupServesEveryPreCrashCapability) {
  // ---- Act 1: the replicated primary serves a real workload. ----
  replicated_ = rpc::replicate_to(
      primary_volume_, storage::AckMode::ack_one, primary_machine_, 17,
      {{"backup", replica_->volume_capability()}});
  bank_ = std::make_unique<BankServer>(primary_machine_, kBankPort,
                                       scheme(), 1, replicated_);
  bank_->start(2);
  transport_ = std::make_unique<rpc::Transport>(client_machine_, seed_++);
  client_ = std::make_unique<BankClient>(*transport_, bank_->put_port());

  alice_ = client_->create_account().value();
  bob_ = client_->create_account().value();
  std::vector<core::Capability> extras;
  for (int i = 0; i < 6; ++i) {
    extras.push_back(client_->create_account().value());
  }
  const core::Capability master = bank_->master_capability();
  ASSERT_TRUE(
      client_->mint(master, alice_, currency::kDollar, kMint).ok());

  const Port reply_get(0x4747);
  net::Receiver replies = client_machine_.listen(reply_get);
  for (int i = 1; i <= kTransfers; ++i) {
    ASSERT_TRUE(client_machine_.transmit(
        transfer_frame(static_cast<std::uint64_t>(i), reply_get),
        primary_machine_.id()));
    ASSERT_TRUE(replies.receive({}, 2'000ms).has_value()) << "transfer " << i;
  }
  // The in-flight transfer: executed on the primary, acknowledged durable
  // on the backup (ack-one), but its reply never reached the client --
  // the client will retransmit this exact frame after the failover.
  const net::Message in_flight =
      transfer_frame(static_cast<std::uint64_t>(kTransfers + 1), reply_get);
  ASSERT_TRUE(client_machine_.transmit(in_flight, primary_machine_.id()));
  ASSERT_TRUE(replies.receive({}, 2'000ms).has_value());

  const std::int64_t pre_crash_alice = dollars(alice_);
  const std::int64_t pre_crash_bob = dollars(bob_);
  EXPECT_EQ(pre_crash_bob, (kTransfers + 1) * kAmount);

  // ---- Act 2: the primary machine dies. ----
  client_.reset();
  bank_->stop();
  bank_.reset();
  replicated_.reset();  // the shipping queues die with the machine
  // ack-one: every frame the primary wrote reached the backup verbatim.
  test::expect_backup_is_prefix(*primary_volume_, *backup_volume_);

  // ---- Act 3: promote the backup, boot a bank over its volume. ----
  const auto floor = rpc::rep_promote(*transport_, replica_->volume_capability());
  ASSERT_TRUE(floor.ok());
  EXPECT_GT(floor.value(), 0u);

  // Same get-port, same scheme, the PROMOTED volume, a DIFFERENT machine.
  // Nothing is re-minted: the shipped journals carry every secret.
  bank_ = std::make_unique<BankServer>(backup_machine_, kBankPort, scheme(),
                                       99, replica_->backend());
  bank_->start(2);
  transport_->flush_cache();  // the old primary's locate entry is stale
  client_ = std::make_unique<BankClient>(*transport_, bank_->put_port());

  // ---- The acceptance bar. ----
  // 100% of pre-crash capabilities validate against the promoted backup.
  EXPECT_TRUE(client_->balance(alice_, currency::kDollar).ok());
  EXPECT_TRUE(client_->balance(bob_, currency::kDollar).ok());
  for (const core::Capability& extra : extras) {
    EXPECT_TRUE(client_->balance(extra, currency::kDollar).ok());
  }
  // Zero re-minting: the recovered master IS the pre-crash master.
  EXPECT_EQ(core::pack(bank_->master_capability()), core::pack(master));
  // Nothing was lost and nothing doubled: balances match the last
  // acknowledged pre-crash state exactly, and money is conserved.
  EXPECT_EQ(dollars(alice_), pre_crash_alice);
  EXPECT_EQ(dollars(bob_), pre_crash_bob);

  // The client retransmits the in-flight transfer (and, for good measure,
  // the whole pre-crash stream): every seq was claimed before the crash
  // and the floors shipped with the journals, so NOTHING re-executes.
  const auto served_before = bank_->requests_served();
  net::Message retry = in_flight;
  retry.header.dest = bank_->put_port();  // same value: the F-box is global
  ASSERT_TRUE(client_machine_.transmit(retry, backup_machine_.id()));
  for (int i = 1; i <= kTransfers; ++i) {
    net::Message dup = transfer_frame(static_cast<std::uint64_t>(i), reply_get);
    ASSERT_TRUE(client_machine_.transmit(dup, backup_machine_.id()));
  }
  quiesce(*bank_);
  EXPECT_EQ(bank_->requests_served(), served_before)
      << "a pre-crash transfer re-executed on the promoted backup";
  EXPECT_EQ(dollars(bob_), pre_crash_bob);
  EXPECT_EQ(dollars(alice_), pre_crash_alice);

  // And the promoted bank is a fully live primary: fresh mutations land.
  ASSERT_TRUE(client_->transfer(alice_, bob_, currency::kDollar, 100).ok());
  EXPECT_EQ(dollars(bob_), pre_crash_bob + 100);
  EXPECT_EQ(dollars(alice_) + dollars(bob_), kMint);
}

TEST_F(FailoverSuite, FencedDeposedPrimaryAnswersEnvelopesInternal) {
  // Split brain: the backup is promoted while the old primary still runs.
  // A payroll envelope sent to the deposed primary executes its entries,
  // but their effects can never become durable (the promoted backup
  // refuses the shipment, §9.4), so the whole envelope answers
  // `internal` -- never `ok`, not even per entry.
  replicated_ = rpc::replicate_to(
      primary_volume_, storage::AckMode::ack_one, primary_machine_, 23,
      {{"backup", replica_->volume_capability()}});
  bank_ = std::make_unique<BankServer>(primary_machine_, kBankPort,
                                       scheme(), 1, replicated_);
  bank_->start(2);
  transport_ = std::make_unique<rpc::Transport>(client_machine_, seed_++);
  client_ = std::make_unique<BankClient>(*transport_, bank_->put_port());
  alice_ = client_->create_account().value();
  bob_ = client_->create_account().value();
  ASSERT_TRUE(client_
                  ->mint(bank_->master_capability(), alice_,
                         currency::kDollar, kMint)
                  .ok());
  ASSERT_TRUE(
      rpc::rep_promote(*transport_, replica_->volume_capability()).ok());

  rpc::TypedBatch payroll(*transport_, bank_->put_port());
  for (int i = 0; i < 8; ++i) {
    (void)payroll.add(bank_ops::kTransfer, alice_,
                      {currency::kDollar, kAmount, bob_});
  }
  const auto replies = payroll.run();
  ASSERT_FALSE(replies.ok()) << "a fenced primary acknowledged an envelope";
  EXPECT_EQ(replies.error(), ErrorCode::internal);
  // The deposed primary's refused frames are its own: the backup holds a
  // prefix of its log.
  test::expect_backup_is_prefix(*primary_volume_, *backup_volume_,
                                /*whole=*/false);
}

TEST_F(FailoverSuite, PromotedVolumeCanReplicateOnward) {
  // Failover is not terminal: the promoted volume becomes the primary of
  // a NEW replication pair (chain repair after losing a machine).
  replicated_ = rpc::replicate_to(
      primary_volume_, storage::AckMode::ack_one, primary_machine_, 19,
      {{"backup", replica_->volume_capability()}});
  bank_ = std::make_unique<BankServer>(primary_machine_, kBankPort,
                                       scheme(), 1, replicated_);
  bank_->start(2);
  transport_ = std::make_unique<rpc::Transport>(client_machine_, seed_++);
  client_ = std::make_unique<BankClient>(*transport_, bank_->put_port());
  alice_ = client_->create_account().value();
  bob_ = client_->create_account().value();
  ASSERT_TRUE(client_
                  ->mint(bank_->master_capability(), alice_,
                         currency::kDollar, 500)
                  .ok());
  ASSERT_TRUE(client_->transfer(alice_, bob_, currency::kDollar, 123).ok());

  // Kill the primary; promote.
  client_.reset();
  bank_->stop();
  bank_.reset();
  replicated_.reset();
  test::expect_backup_is_prefix(*primary_volume_, *backup_volume_);
  ASSERT_TRUE(
      rpc::rep_promote(*transport_, replica_->volume_capability()).ok());

  // A fresh backup machine joins; the promoted volume ships to it (the
  // attach-time resync rebuilds it from scratch).
  net::Machine& second_machine = net_.add_machine("backup2");
  auto second_volume = std::make_shared<storage::MemoryBackend>(16);
  rpc::ReplicaServer second(second_machine, Port(0x7B02), scheme(), 23,
                            second_volume);
  second.start(2);
  auto promoted = rpc::replicate_to(
      replica_->backend(), storage::AckMode::ack_one, backup_machine_, 29,
      {{"backup2", second.volume_capability()}});
  bank_ = std::make_unique<BankServer>(backup_machine_, kBankPort, scheme(),
                                       77, promoted);
  bank_->start(2);
  transport_->flush_cache();
  client_ = std::make_unique<BankClient>(*transport_, bank_->put_port());

  // Old capabilities work through the re-replicated stack...
  EXPECT_EQ(dollars(bob_), 123);
  ASSERT_TRUE(client_->transfer(alice_, bob_, currency::kDollar, 7).ok());
  // ...and the new backup converges to the same bytes.
  for (int i = 0; i < 2000; ++i) {
    const auto stats = promoted->stats();
    bool synced = !stats.peers.empty();
    for (const auto& peer : stats.peers) {
      synced = synced && peer.backlog_bytes == 0 &&
               peer.acked_lsn >= stats.shipped_lsn;
    }
    if (synced) {
      break;
    }
    std::this_thread::sleep_for(2ms);
  }
  bank_->stop();
  bank_.reset();
  promoted.reset();
  test::expect_backup_is_prefix(*replica_->backend(), *second_volume);
  second.stop();
}

}  // namespace
}  // namespace amoeba::servers
