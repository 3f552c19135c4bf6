// At-most-once semantics over a lossy network (docs/PROTOCOL.md §5): the
// transport's (client, seq) stamping + backoff retransmission against the
// service's duplicate-suppression reply cache, exercised with injected
// frame drop, duplication, and reordering -- globally and per link.  The
// non-idempotent victims are bank.transfer (double execution mints money)
// and std_destroy (double execution double-frees the object).
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/servers/common.hpp"
#include "amoeba/storage/backend.hpp"
#include "test_seed.hpp"

namespace amoeba::servers {
namespace {

using namespace std::chrono_literals;

class LossySuite : public ::testing::Test {
 protected:
  LossySuite()
      : net_(net::Network::Config{.seed = test::seed_base(17)}),
        bank_machine_(net_.add_machine("bank")),
        client_machine_(net_.add_machine("client")),
        rng_(test::seed_base(17) + 1) {
    bank_ = std::make_unique<BankServer>(
        bank_machine_, Port(0x10AD),
        core::make_scheme(core::SchemeKind::commutative, rng_), 1);
    bank_->start(2);
    transport_ = std::make_unique<rpc::Transport>(client_machine_,
                                                  test::seed_base(17) + 2);
    // Fast backoff so lossy runs converge quickly; generous deadline so
    // 20% drop cannot realistically exhaust it.
    transport_->set_retransmit(5ms, 80ms);
    transport_->set_default_timeout(10'000ms);
    client_ = std::make_unique<BankClient>(*transport_, bank_->put_port());
    // Fault-free setup: accounts + seed money.
    alice_ = client_->create_account().value();
    bob_ = client_->create_account().value();
    EXPECT_TRUE(client_
                    ->mint(bank_->master_capability(), alice_,
                           currency::kDollar, 1'000'000)
                    .ok());
  }

  [[nodiscard]] std::int64_t dollars(const core::Capability& account) {
    return client_->balance(account, currency::kDollar).value();
  }

  net::Network net_;
  net::Machine& bank_machine_;
  net::Machine& client_machine_;
  Rng rng_;
  std::unique_ptr<BankServer> bank_;
  std::unique_ptr<rpc::Transport> transport_;
  std::unique_ptr<BankClient> client_;
  core::Capability alice_;
  core::Capability bob_;
};

TEST_F(LossySuite, TransfersSurviveDropAndDuplicationExactlyOnce) {
  net_.set_fault_injection(0.20, 0.10);
  constexpr int kTransfers = 100;
  constexpr std::int64_t kAmount = 7;
  for (int i = 0; i < kTransfers; ++i) {
    ASSERT_TRUE(
        client_->transfer(alice_, bob_, currency::kDollar, kAmount).ok())
        << "transfer " << i;
  }
  net_.set_fault_injection(0.0, 0.0);
  // Every transfer applied exactly once: not one lost to a dropped frame,
  // not one doubled by a retransmitted or duplicated frame.
  EXPECT_EQ(dollars(bob_), kTransfers * kAmount);
  EXPECT_EQ(dollars(alice_), 1'000'000 - kTransfers * kAmount);
  // The loss was real and the machinery engaged.
  EXPECT_GT(net_.stats().dropped.load(), 0u);
  EXPECT_GT(transport_->stats().retransmits, 0u);
  EXPECT_GT(bank_->reply_cache_stats().duplicates_suppressed, 0u);
}

TEST_F(LossySuite, DuplicatedTransferIsNeverAppliedTwice) {
  // 100% duplication: every request frame arrives twice.  Without the
  // reply cache the second copy would re-run the handler and bob would
  // end up with double the money.
  net_.set_fault_injection(0.0, 1.0);
  constexpr int kTransfers = 20;
  constexpr std::int64_t kAmount = 5;
  for (int i = 0; i < kTransfers; ++i) {
    ASSERT_TRUE(
        client_->transfer(alice_, bob_, currency::kDollar, kAmount).ok());
  }
  net_.set_fault_injection(0.0, 0.0);
  EXPECT_EQ(dollars(bob_), kTransfers * kAmount);
  EXPECT_EQ(dollars(alice_), 1'000'000 - kTransfers * kAmount);
  EXPECT_GE(bank_->reply_cache_stats().duplicates_suppressed,
            static_cast<std::uint64_t>(kTransfers));
}

TEST_F(LossySuite, StdDestroyUnderDuplicationFreesExactlyOnce) {
  const core::Capability doomed = client_->create_account().value();
  ASSERT_TRUE(client_
                  ->mint(bank_->master_capability(), doomed,
                         currency::kDollar, 50)
                  .ok());
  const auto suppressed_before =
      bank_->reply_cache_stats().duplicates_suppressed;
  net_.set_fault_injection(0.20, 1.0);
  // The duplicated destroy must report success (cached reply), not the
  // no_such_object a re-executed destroy would produce.
  ASSERT_TRUE(rpc::std_destroy(*transport_, doomed).ok());
  net_.set_fault_injection(0.0, 0.0);
  // The duplicate copy may still sit in the other worker's queue when the
  // reply resolves; give the suppression a moment to land.
  const auto deadline = std::chrono::steady_clock::now() + 5'000ms;
  while (bank_->reply_cache_stats().duplicates_suppressed <=
             suppressed_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GT(bank_->reply_cache_stats().duplicates_suppressed,
            suppressed_before);
  // The object is gone exactly once: a FRESH destroy (new transaction,
  // not a duplicate) is an error, not a crash or a second hook run.
  EXPECT_FALSE(rpc::std_destroy(*transport_, doomed).ok());
  EXPECT_FALSE(client_->balance(doomed, currency::kDollar).ok());
}

TEST_F(LossySuite, BatchEnvelopeRetransmitsAndSuppressesAsAUnit) {
  net_.set_fault_injection(0.20, 0.10);
  constexpr std::size_t kEntries = 16;
  constexpr std::int64_t kAmount = 3;
  std::vector<BankClient::Transfer> transfers(
      kEntries, {alice_, bob_, currency::kDollar, kAmount});
  const auto outcomes = client_->transfer_many(transfers);
  net_.set_fault_injection(0.0, 0.0);
  ASSERT_EQ(outcomes.size(), kEntries);
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok());
  }
  EXPECT_EQ(dollars(bob_), static_cast<std::int64_t>(kEntries) * kAmount);
  // The envelope was suppressed as a unit: each sub-request was unpacked
  // (and executed) exactly once no matter how often the frame arrived.
  EXPECT_EQ(bank_->batched_requests(), kEntries);
}

TEST_F(LossySuite, PerLinkFaultsHitOnlyTheirLink) {
  // Half the request frames die on the client->bank link; the reply
  // direction is clean.  Traffic still converges, and the drops all come
  // from the faulted link.
  net_.set_link_faults(client_machine_.id(), bank_machine_.id(),
                       {.drop = 0.5});
  constexpr int kTransfers = 30;
  for (int i = 0; i < kTransfers; ++i) {
    ASSERT_TRUE(client_->transfer(alice_, bob_, currency::kDollar, 1).ok());
  }
  net_.clear_link_faults();
  EXPECT_EQ(dollars(bob_), kTransfers);
  EXPECT_GT(net_.stats().dropped.load(), 0u);
  EXPECT_GT(transport_->stats().retransmits, 0u);
}

TEST_F(LossySuite, ReorderInjectionStaysExactlyOnce) {
  // Every request frame is held back until the next one on the link; the
  // retransmission timer is what keeps the pipeline moving (a retransmit
  // releases its held original, the server executes whichever copy lands
  // first and suppresses the other).
  net_.set_link_faults(client_machine_.id(), bank_machine_.id(),
                       {.reorder = 1.0});
  constexpr int kTransfers = 10;
  for (int i = 0; i < kTransfers; ++i) {
    ASSERT_TRUE(client_->transfer(alice_, bob_, currency::kDollar, 2).ok());
  }
  net_.clear_link_faults();
  EXPECT_EQ(dollars(bob_), kTransfers * 2);
  EXPECT_GT(net_.stats().reordered.load(), 0u);
}

TEST_F(LossySuite, RetransmissionDisabledRestoresBareTimeouts) {
  transport_->set_retransmit(0ms, 0ms);
  // Delta-based: a setup RPC may already have retransmitted on a slow
  // host (the fixture runs with the default timer); only transactions
  // issued AFTER disabling must add none.
  const auto retransmits_before = transport_->stats().retransmits;
  net_.set_fault_injection(1.0, 0.0);  // every frame lost
  net::Message req = rpc::make_request(bank_->put_port(),
                                       bank_ops::kBalance, alice_,
                                       {currency::kDollar});
  const auto reply = transport_->trans(req, 150ms);
  net_.set_fault_injection(0.0, 0.0);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error(), ErrorCode::timeout);
  EXPECT_EQ(transport_->stats().retransmits, retransmits_before);
}

TEST_F(LossySuite, HandBuiltDuplicateIsSuppressedDeterministically) {
  // Wire-level check without fault dice: the same stamped frame delivered
  // twice executes once and the second copy is answered from the cache
  // with an identical reply.
  net::Message request = rpc::make_request(bank_->put_port(),
                                           bank_ops::kBalance, alice_,
                                           {currency::kDollar});
  request.header.flags |= net::kFlagAtMostOnce;
  request.header.client = 0xC0FFEE;
  request.header.seq = 1;
  const Port reply_get(0x7777);
  net::Receiver replies = client_machine_.listen(reply_get);
  request.header.reply = reply_get;

  const auto served_before = bank_->requests_served();
  ASSERT_TRUE(client_machine_.transmit(request, bank_machine_.id()));
  const auto first = replies.receive({}, 2'000ms);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->message.header.status, ErrorCode::ok);

  ASSERT_TRUE(client_machine_.transmit(request, bank_machine_.id()));
  const auto second = replies.receive({}, 2'000ms);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->message.header.status, ErrorCode::ok);
  EXPECT_EQ(second->message.header.params, first->message.header.params);
  EXPECT_EQ(second->message.header.seq, 1u);

  // One execution, one resend.
  EXPECT_EQ(bank_->requests_served(), served_before + 1);
  EXPECT_GE(bank_->reply_cache_stats().replies_resent, 1u);
}

TEST_F(LossySuite, ClientEvictionLeavesAFloorTombstoneNeverReexecutes) {
  // With a one-client cap, a second client demotes the first to a
  // floor-only tombstone.  A duplicate of the demoted client's completed
  // transaction must then be DROPPED -- re-executing it would break
  // at-most-once; re-sending is impossible (the reply is gone).
  bank_->set_reply_cache_limits(8, 1);
  const Port reply_get(0x8888);
  net::Receiver replies = client_machine_.listen(reply_get);
  const auto request_from = [&](std::uint64_t client, std::uint64_t seq) {
    net::Message request = rpc::make_request(bank_->put_port(),
                                             bank_ops::kBalance, alice_,
                                             {currency::kDollar});
    request.header.flags |= net::kFlagAtMostOnce;
    request.header.client = client;
    request.header.seq = seq;
    request.header.reply = reply_get;
    return request;
  };

  ASSERT_TRUE(client_machine_.transmit(request_from(1, 1),
                                       bank_machine_.id()));
  ASSERT_TRUE(replies.receive({}, 2'000ms).has_value());
  ASSERT_TRUE(client_machine_.transmit(request_from(2, 1),
                                       bank_machine_.id()));  // demotes 1
  ASSERT_TRUE(replies.receive({}, 2'000ms).has_value());

  const auto served_before = bank_->requests_served();
  ASSERT_TRUE(client_machine_.transmit(request_from(1, 1),
                                       bank_machine_.id()));  // duplicate
  EXPECT_FALSE(replies.receive({}, 150ms).has_value());  // silence
  EXPECT_EQ(bank_->requests_served(), served_before);    // and no re-run
  bank_->set_reply_cache_limits(128, 4096);
}

TEST_F(LossySuite, RecreatedTransportGetsAFreshClientId) {
  // A transport recreated with the same machine and seed must not inherit
  // the old one's (client id, seq) stream: a surviving server would
  // answer its first transactions from the old transport's reply cache.
  const std::uint64_t first_id = transport_->client_id();
  rpc::Transport reborn(client_machine_,
                        test::seed_base(17) + 2);  // same machine, same seed
  EXPECT_NE(reborn.client_id(), first_id);
  EXPECT_NE(reborn.client_id(), 0u);
  // And it really does execute fresh transactions against the same bank.
  BankClient client(reborn, bank_->put_port());
  EXPECT_EQ(client.balance(alice_, currency::kDollar).value(), 1'000'000);
}

TEST_F(LossySuite, SeqZeroIsServedWithoutSuppressionNotSwallowed) {
  // seq 0 is outside the spec (sequences start at 1); such a frame must
  // be answered like a legacy frame -- executed, not silently dropped by
  // the floor check, and never cached.
  net::Message request = rpc::make_request(bank_->put_port(),
                                           bank_ops::kBalance, alice_,
                                           {currency::kDollar});
  request.header.flags |= net::kFlagAtMostOnce;
  request.header.client = 0xBAD;
  request.header.seq = 0;
  const Port reply_get(0x9999);
  net::Receiver replies = client_machine_.listen(reply_get);
  request.header.reply = reply_get;

  const auto served_before = bank_->requests_served();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client_machine_.transmit(request, bank_machine_.id()));
    const auto reply = replies.receive({}, 2'000ms);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->message.header.status, ErrorCode::ok);
  }
  // Both copies executed: no at-most-once semantics were applied.
  EXPECT_EQ(bank_->requests_served(), served_before + 2);
}

TEST_F(LossySuite, TombstonePoolIsBoundedAgainstClientIdChurn) {
  // The client id is a self-chosen wire field: a peer cycling fresh ids
  // must not grow the reply cache without limit.  With a 1-client cap the
  // table (live + tombstones) stays within 8x the cap + the newcomer.
  bank_->flush_reply_cache();
  bank_->set_reply_cache_limits(2, 1);
  const Port reply_get(0xAAAA);
  net::Receiver replies = client_machine_.listen(reply_get);
  for (std::uint64_t id = 1; id <= 40; ++id) {
    net::Message request = rpc::make_request(bank_->put_port(),
                                             bank_ops::kBalance, alice_,
                                             {currency::kDollar});
    request.header.flags |= net::kFlagAtMostOnce;
    request.header.client = id;
    request.header.seq = 1;
    request.header.reply = reply_get;
    ASSERT_TRUE(client_machine_.transmit(request, bank_machine_.id()));
    ASSERT_TRUE(replies.receive({}, 2'000ms).has_value());
  }
  const auto stats = bank_->reply_cache_stats();
  EXPECT_LE(stats.clients, 9u);  // 8 x max_clients + the newest entry
  EXPECT_GT(stats.evicted_clients, 0u);
  bank_->set_reply_cache_limits(128, 4096);
}

TEST_F(LossySuite, ReplyCacheWindowEvictsAndFlushes) {
  bank_->set_reply_cache_limits(4, 0);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(client_->transfer(alice_, bob_, currency::kDollar, 1).ok());
  }
  auto stats = bank_->reply_cache_stats();
  EXPECT_GT(stats.evicted_entries, 0u);
  EXPECT_LE(stats.entries, 4u * stats.clients);
  // The eviction hook: flushing empties the table and traffic goes on.
  bank_->flush_reply_cache();
  stats = bank_->reply_cache_stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.clients, 0u);
  EXPECT_TRUE(client_->transfer(alice_, bob_, currency::kDollar, 1).ok());
}

/// Handler executions of `op` on `service`.
[[nodiscard]] std::uint64_t calls_of(const rpc::Service& service,
                                     std::string_view op) {
  for (const auto& metrics : service.op_metrics()) {
    if (metrics.name == op) {
      return metrics.calls;
    }
  }
  return 0;
}

TEST(LossyRestartTest, DuplicatedFirstCopyAfterARestartNeverRuns) {
  // A fresh transport's first request to a server carries no incarnation
  // (it has heard none), so only its floor -- journaled at claim, before
  // the handler, for exactly that reason -- tells a late duplicate of it
  // from a new request.  The network duplicates every request frame; one
  // copy of each first request is replayed after a crash and restart, and
  // neither the write (create_account) nor the read (balance) runs again.
  net::Network net(net::Network::Config{.seed = test::seed_base(17) + 5});
  net::Machine& bank_machine = net.add_machine("bank");
  net::Machine& client_machine = net.add_machine("client");
  Rng rng(test::seed_base(17) + 6);
  const std::shared_ptr<const core::ProtectionScheme> scheme =
      core::make_scheme(core::SchemeKind::commutative, rng);
  constexpr Port kPort{0x10AE};
  auto volume = std::make_shared<storage::MemoryBackend>(16);
  auto bank =
      std::make_unique<BankServer>(bank_machine, kPort, scheme, 1, volume);
  bank->start(2);
  const Port put_port = bank->put_port();
  core::Capability account;
  {
    rpc::Transport setup(client_machine, test::seed_base(17) + 7);
    BankClient client(setup, put_port);
    account = client.create_account().value();
    ASSERT_TRUE(client
                    .mint(bank->master_capability(), account,
                          currency::kDollar, 9)
                    .ok());
  }

  std::mutex tapped_mutex;
  std::map<std::uint64_t, net::Message> first_copies;  // by client id
  net::TapHandle tap = net.attach_tap([&](const net::TapRecord& record) {
    if (record.kind == net::FrameKind::data &&
        record.src == client_machine.id() &&
        record.dst == bank_machine.id()) {
      const std::lock_guard lock(tapped_mutex);
      first_copies.try_emplace(record.message.header.client, record.message);
    }
  });
  net.set_link_faults(client_machine.id(), bank_machine.id(),
                      {.duplicate = 1.0});
  rpc::Transport writer(client_machine, test::seed_base(17) + 8);
  rpc::Transport reader(client_machine, test::seed_base(17) + 9);
  ASSERT_TRUE(BankClient(writer, put_port).create_account().ok());
  ASSERT_EQ(BankClient(reader, put_port).balance(account, currency::kDollar)
                .value(),
            9);
  net.clear_link_faults();
  tap = net::TapHandle();
  ASSERT_EQ(first_copies.size(), 2u);
  for (const auto& [client, copy] : first_copies) {
    EXPECT_EQ(copy.header.incarnation, 0u) << "a first copy was stamped";
  }
  // The duplicated frames may still sit in the bank's queue when the
  // calls return; once drained, each was suppressed.
  for (int i = 0;
       i < 2'000 && bank->reply_cache_stats().duplicates_suppressed < 2; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(bank->reply_cache_stats().duplicates_suppressed, 2u);

  // Crash, restart on what the volume held, and deliver the late copies.
  const auto image = volume->capture();
  bank.reset();
  bank = std::make_unique<BankServer>(bank_machine, kPort, scheme, 2, image);
  bank->start(2);
  for (const auto& [client, copy] : first_copies) {
    ASSERT_TRUE(client_machine.transmit(copy, bank_machine.id()));
  }
  for (int i = 0;
       i < 2'000 && bank->reply_cache_stats().duplicates_suppressed < 2; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(bank->reply_cache_stats().duplicates_suppressed, 2u);
  EXPECT_EQ(calls_of(*bank, "bank.create_account"), 0u)
      << "a late duplicate of a first write ran after the restart";
  EXPECT_EQ(calls_of(*bank, "bank.balance"), 0u)
      << "a late duplicate of a first read ran after the restart";
  EXPECT_EQ(bank->requests_served(), 0u);
}

}  // namespace
}  // namespace amoeba::servers
