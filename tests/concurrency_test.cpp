// Concurrency and stress tests: many clients against multi-worker
// services, invariant preservation under parallel mutation (conservation
// of money, file consistency, commit linearization), and races between
// delegation, revocation, and use.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/servers/block_server.hpp"
#include "amoeba/servers/flat_file_server.hpp"
#include "amoeba/servers/multiversion_server.hpp"

namespace amoeba {
namespace {

using namespace std::chrono_literals;

TEST(ConcurrencyTest, MoneyIsConservedUnderParallelTransfers) {
  net::Network net;
  net::Machine& host = net.add_machine("bank");
  Rng rng(1);
  servers::BankServer bank(host, Port(0xBA7C),
                           core::make_scheme(core::SchemeKind::one_way_xor, rng),
                           1);
  bank.start(4);  // four tellers

  rpc::Transport setup(net.add_machine("setup"), 2);
  servers::BankClient setup_client(setup, bank.put_port());
  constexpr int kAccounts = 8;
  constexpr std::int64_t kInitial = 10'000;
  std::vector<core::Capability> accounts;
  for (int i = 0; i < kAccounts; ++i) {
    accounts.push_back(setup_client.create_account().value());
    ASSERT_TRUE(setup_client
                    .mint(bank.master_capability(), accounts.back(),
                          servers::currency::kDollar, kInitial)
                    .ok());
  }

  // Eight threads shuffle money between random account pairs.
  constexpr int kThreads = 8;
  constexpr int kTransfersPerThread = 100;
  std::atomic<int> completed{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        net::Machine& m = net.add_machine("client" + std::to_string(t));
        rpc::Transport transport(m, static_cast<std::uint64_t>(t) + 10);
        servers::BankClient client(transport, bank.put_port());
        Rng local(static_cast<std::uint64_t>(t) + 100);
        for (int i = 0; i < kTransfersPerThread; ++i) {
          const auto& from = accounts[local.below(kAccounts)];
          const auto& to = accounts[local.below(kAccounts)];
          const auto amount = static_cast<std::int64_t>(local.below(50)) + 1;
          const auto result =
              client.transfer(from, to, servers::currency::kDollar, amount);
          if (result.ok() ||
              result.error() == ErrorCode::insufficient_funds) {
            completed.fetch_add(1);
          }
        }
      });
    }
  }
  EXPECT_EQ(completed.load(), kThreads * kTransfersPerThread);

  // Conservation: the total across all accounts is untouched.
  std::int64_t total = 0;
  for (const auto& account : accounts) {
    total += setup_client.balance(account, servers::currency::kDollar).value();
  }
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST(ConcurrencyTest, ParallelFileWritersStayIsolated) {
  net::Network net;
  net::Machine& host = net.add_machine("host");
  Rng rng(2);
  const auto scheme = core::make_scheme(core::SchemeKind::encrypted, rng);
  servers::BlockServer::Geometry geometry;
  geometry.block_count = 2048;
  geometry.block_size = 128;
  servers::BlockServer blocks(host, Port(0xB10C), scheme, 1, geometry);
  blocks.start();
  servers::FlatFileServer files(host, Port(0xF17E), scheme, 2,
                                blocks.put_port());
  files.start(4);

  constexpr int kThreads = 6;
  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        net::Machine& m = net.add_machine("writer" + std::to_string(t));
        rpc::Transport transport(m, static_cast<std::uint64_t>(t) + 30);
        servers::FlatFileClient client(transport, files.put_port());
        const auto file = client.create();
        if (!file.ok()) {
          failures.fetch_add(1);
          return;
        }
        const auto tag = static_cast<std::uint8_t>('A' + t);
        for (int round = 0; round < 20; ++round) {
          const Buffer payload(300, tag);
          if (!client.write(file.value(),
                            static_cast<std::uint64_t>(round) * 300, payload)
                   .ok()) {
            failures.fetch_add(1);
            return;
          }
        }
        // Verify nobody else's bytes leaked into this file.
        const auto content = client.read(file.value(), 0, 20 * 300);
        if (!content.ok() || content.value().size() != 20 * 300) {
          failures.fetch_add(1);
          return;
        }
        for (const auto byte : content.value()) {
          if (byte != tag) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, CommitLinearizesUnderContention) {
  net::Network net;
  net::Machine& host = net.add_machine("archive");
  Rng rng(3);
  servers::MultiVersionServer server(
      host, Port(0x3171), core::make_scheme(core::SchemeKind::commutative, rng),
      1, 64);
  server.start(4);

  rpc::Transport setup(net.add_machine("setup"), 4);
  servers::MultiVersionClient setup_client(setup, server.put_port());
  const auto file = setup_client.create_file().value();

  constexpr int kThreads = 6;
  constexpr int kAttemptsPerThread = 15;
  std::atomic<int> wins{0};
  std::atomic<int> conflicts{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        net::Machine& m = net.add_machine("committer" + std::to_string(t));
        rpc::Transport transport(m, static_cast<std::uint64_t>(t) + 50);
        servers::MultiVersionClient client(transport, server.put_port());
        for (int i = 0; i < kAttemptsPerThread; ++i) {
          const auto draft = client.new_version(file);
          if (!draft.ok()) continue;
          (void)client.write_page(draft.value(), 0,
                                  Buffer{static_cast<std::uint8_t>(t)});
          const auto result = client.commit(draft.value());
          if (result.ok()) {
            wins.fetch_add(1);
          } else if (result.error() == ErrorCode::conflict) {
            conflicts.fetch_add(1);
            (void)client.abort(draft.value());
          }
        }
      });
    }
  }
  // Every win extended the linear history by exactly one version.
  const auto versions = setup_client.history(file).value();
  EXPECT_EQ(versions, 1u + static_cast<std::uint64_t>(wins.load()));
  EXPECT_GT(wins.load(), 0);
  // All attempts resolved one way or the other.
  EXPECT_EQ(wins.load() + conflicts.load(), kThreads * kAttemptsPerThread);
}

TEST(ConcurrencyTest, RevocationRacesWithUse) {
  // Readers hammer a delegated capability while the owner revokes midway:
  // every read must either succeed (before) or fail with bad_capability
  // (after) -- never crash, never partially succeed.
  net::Network net;
  net::Machine& host = net.add_machine("host");
  Rng rng(4);
  const auto scheme = core::make_scheme(core::SchemeKind::one_way_xor, rng);
  servers::BlockServer::Geometry geometry;
  geometry.block_count = 16;
  geometry.block_size = 64;
  servers::BlockServer blocks(host, Port(0xB10C), scheme, 1, geometry);
  blocks.start(2);

  rpc::Transport owner_transport(net.add_machine("owner"), 5);
  servers::BlockClient owner(owner_transport, blocks.put_port());
  const auto cap = owner.allocate().value();
  ASSERT_TRUE(owner.write(cap, Buffer{1}).ok());
  const auto shared =
      rpc::std_restrict(owner_transport, cap, core::rights::kRead).value();

  std::atomic<bool> revoked{false};
  std::atomic<int> anomalies{0};
  {
    std::vector<std::jthread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&, t] {
        net::Machine& m = net.add_machine("reader" + std::to_string(t));
        rpc::Transport transport(m, static_cast<std::uint64_t>(t) + 70);
        servers::BlockClient client(transport, blocks.put_port());
        for (int i = 0; i < 50; ++i) {
          // Sample the flag BEFORE sending: only a read issued strictly
          // after the revocation completed must fail (a reply already in
          // flight when the secret rotated may legitimately succeed).
          const bool issued_after_revoke =
              revoked.load(std::memory_order_acquire);
          const auto result = client.read(shared);
          if (result.ok()) {
            if (issued_after_revoke) {
              anomalies.fetch_add(1);
            }
          } else if (result.error() != ErrorCode::bad_capability) {
            anomalies.fetch_add(1);
          }
        }
      });
    }
    std::this_thread::sleep_for(5ms);
    const auto fresh = rpc::std_revoke(owner_transport, cap);
    ASSERT_TRUE(fresh.ok());
    revoked.store(true, std::memory_order_release);
  }
  EXPECT_EQ(anomalies.load(), 0);
}

TEST(ConcurrencyTest, ManyMachinesManyServices) {
  // A wider deployment: 16 machines, four services, all clients active at
  // once; exercises the network registry and locate under contention.
  net::Network net;
  Rng rng(5);
  const auto scheme = core::make_scheme(core::SchemeKind::simple, rng);
  std::vector<std::unique_ptr<servers::BlockServer>> services;
  for (int s = 0; s < 4; ++s) {
    net::Machine& m = net.add_machine("server" + std::to_string(s));
    servers::BlockServer::Geometry geometry;
    geometry.block_count = 64;
    geometry.block_size = 64;
    services.push_back(std::make_unique<servers::BlockServer>(
        m, Port(static_cast<std::uint64_t>(0x1000 + s)), scheme,
        static_cast<std::uint64_t>(s), geometry));
    services.back()->start();
  }
  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < 12; ++c) {
      clients.emplace_back([&, c] {
        net::Machine& m = net.add_machine("client" + std::to_string(c));
        rpc::Transport transport(m, static_cast<std::uint64_t>(c) + 90);
        servers::BlockClient client(
            transport, services[static_cast<std::size_t>(c) % 4]->put_port());
        for (int i = 0; i < 10; ++i) {
          const auto cap = client.allocate();
          if (!cap.ok() || !client.write(cap.value(), Buffer{1}).ok() ||
              !client.free_block(cap.value()).ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace amoeba
