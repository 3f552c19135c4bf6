// Crash/restart harness for the durable server stack (docs/PROTOCOL.md
// §8).  The MemoryBackend's append hook injects JOURNAL BARRIERS: at
// chosen barriers mid-workload the volume is capture()d -- byte-for-byte
// the disk image a machine losing power at that instant would leave.
// "Killing" the server is then stopping it and constructing a fresh one
// from a captured image; the tests assert, for EVERY captured barrier:
//
//   * full capability survival -- every capability issued before the
//     barrier still validates against the recovered table,
//   * state invariants -- money is conserved (pair mutations journal
//     atomically, so a transfer can never be torn in half),
//   * at-most-once effects -- replaying the full pre-crash request stream
//     (same client id, same seqs) against the restarted server never
//     re-executes anything the persisted reply-cache floors cover, and a
//     second replay changes nothing at all (exactly-once across the
//     crash).
//
// A read needs no floor to survive a crash (docs/PROTOCOL.md §5.5): a
// retransmitted read stamped with the killed server's incarnation is
// answered `restarted` by its successor and re-issued by the transport,
// so it runs once, under the new seq.
//
// The per-server restart paths (bank master re-mint, simulated-disk
// rebuild, page-tree rebuild, memory-budget recompute) and a FileBackend
// end-to-end round trip are covered at the bottom.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/kernel/memory_server.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/batch.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/servers/block_server.hpp"
#include "amoeba/servers/common.hpp"
#include "amoeba/servers/directory_server.hpp"
#include "amoeba/servers/flat_file_server.hpp"
#include "amoeba/servers/multiversion_server.hpp"
#include "amoeba/storage/backend.hpp"

namespace amoeba::servers {
namespace {

using namespace std::chrono_literals;

/// One shared protection scheme: the scheme (its one-way function / keys)
/// is server CONFIGURATION, not run-time state -- a restarted server is
/// booted with the same scheme, and the journaled secrets do the rest.
[[nodiscard]] std::shared_ptr<const core::ProtectionScheme> scheme() {
  static const std::shared_ptr<const core::ProtectionScheme> shared = [] {
    Rng rng(29);
    return std::shared_ptr<const core::ProtectionScheme>(
        core::make_scheme(core::SchemeKind::commutative, rng));
  }();
  return shared;
}

/// Polls until the service stops executing new requests (the replayed
/// frame stream is fire-and-forget; suppressed duplicates answer nothing).
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

class BankCrashSuite : public ::testing::Test {
 protected:
  static constexpr std::int64_t kMint = 1'000'000;
  static constexpr std::int64_t kAmount = 7;
  static constexpr std::uint64_t kClient = 0xC1C1;
  static constexpr int kTransfers = 40;

  BankCrashSuite()
      : bank_machine_(net_.add_machine("bank")),
        client_machine_(net_.add_machine("client")),
        backend_(std::make_shared<storage::MemoryBackend>(16)) {}

  /// Boots a bank on `backend`, runs `setup` against it, and returns the
  /// capabilities minted during setup.
  void boot(std::shared_ptr<storage::Backend> backend) {
    bank_ = std::make_unique<BankServer>(bank_machine_, Port(0xBA22),
                                         scheme(), 1, std::move(backend));
    bank_->start(2);
    transport_ = std::make_unique<rpc::Transport>(client_machine_, seed_++);
    client_ = std::make_unique<BankClient>(*transport_, bank_->put_port());
  }

  void shutdown() {
    client_.reset();
    transport_.reset();
    if (bank_ != nullptr) {
      bank_->stop();
    }
    bank_.reset();
  }

  /// Hand-stamped at-most-once transfer frame (client kClient, seq `seq`):
  /// the workload keeps its own identity so the crash tests can REPLAY the
  /// exact pre-crash stream against a restarted server.
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

  /// Sum of every account's dollar balance -- the conservation invariant
  /// (transfers move money; only the journaled mint created any).
  [[nodiscard]] std::int64_t total_money() {
    return dollars(alice_) + dollars(bob_);
  }

  net::Network net_;
  net::Machine& bank_machine_;
  net::Machine& client_machine_;
  std::shared_ptr<storage::MemoryBackend> backend_;
  std::unique_ptr<BankServer> bank_;
  std::unique_ptr<rpc::Transport> transport_;
  std::unique_ptr<BankClient> client_;
  core::Capability alice_;
  core::Capability bob_;
  std::uint64_t seed_ = 77;
};

TEST_F(BankCrashSuite, KilledAtEveryJournalBarrierRecoversConsistently) {
  boot(backend_);
  alice_ = client_->create_account().value();
  bob_ = client_->create_account().value();
  ASSERT_TRUE(client_
                  ->mint(bank_->master_capability(), alice_,
                         currency::kDollar, kMint)
                  .ok());

  // Arm the journal barriers AFTER setup: every captured image holds the
  // accounts and the mint; the workload's transfers land mid-flight.
  // The hook fires once per backend append -- with group commit that is
  // once per FLUSH GROUP, so every captured image sits exactly on a
  // group boundary (whole groups or nothing; a waiter is never told
  // "durable" for a record these images lack).
  std::mutex images_mutex;
  std::vector<std::shared_ptr<storage::MemoryBackend>> images;
  std::uint64_t groups_seen = 0;  // guarded by images_mutex
  backend_->set_append_hook([&](std::uint64_t) {
    const std::lock_guard lock(images_mutex);
    if (++groups_seen % 7 == 2) {  // barrier every 7 flush groups
      images.push_back(backend_->capture());
    }
  });

  // Workload: the pre-crash request stream, executed while barriers fire.
  const Port reply_get(0x4444);
  net::Receiver replies = client_machine_.listen(reply_get);
  for (int i = 1; i <= kTransfers; ++i) {
    ASSERT_TRUE(client_machine_.transmit(
        transfer_frame(static_cast<std::uint64_t>(i), reply_get),
        bank_machine_.id()));
    ASSERT_TRUE(replies.receive({}, 2'000ms).has_value()) << "transfer " << i;
  }
  backend_->set_append_hook(nullptr);
  shutdown();
  ASSERT_GE(images.size(), 2u) << "workload produced no journal barriers";

  for (std::size_t img = 0; img < images.size(); ++img) {
    SCOPED_TRACE("crash image " + std::to_string(img));
    boot(images[img]);
    // Full capability survival: both accounts validate and answer.
    ASSERT_TRUE(client_->balance(alice_, currency::kDollar).ok());
    ASSERT_TRUE(client_->balance(bob_, currency::kDollar).ok());
    // Conservation: a transfer's debit+credit journal as one atomic
    // group, so no image can hold half of one.
    EXPECT_EQ(total_money(), kMint);
    const std::int64_t recovered_bob = dollars(bob_);
    EXPECT_EQ(recovered_bob % kAmount, 0);

    // Replay the ENTIRE pre-crash stream.  Seqs the crashed server had
    // claimed are covered by the persisted floors and must drop;
    // never-claimed seqs execute for the first time (that is at-most-once,
    // not a violation).
    const Port replay_get(0x4545);
    net::Receiver replay_replies = client_machine_.listen(replay_get);
    for (int i = 1; i <= kTransfers; ++i) {
      ASSERT_TRUE(client_machine_.transmit(
          transfer_frame(static_cast<std::uint64_t>(i), replay_get),
          bank_machine_.id()));
    }
    quiesce(*bank_);
    const std::int64_t after_first_replay = dollars(bob_);
    EXPECT_EQ(total_money(), kMint);
    EXPECT_GE(after_first_replay, recovered_bob);
    EXPECT_LE(after_first_replay, kTransfers * kAmount);

    // Run forward past the crash: the frames the recovered server appended
    // behind the image's must recover too (ALICE, Pillai et al., OSDI
    // 2014).
    shutdown();
    boot(images[img]);
    EXPECT_EQ(dollars(bob_), after_first_replay)
        << "what ran after the recovery was lost by the next one";

    // Exactly-once across the crash: a SECOND identical replay must be
    // fully suppressed -- if any transfer double-executed, bob's balance
    // would move.
    for (int i = 1; i <= kTransfers; ++i) {
      ASSERT_TRUE(client_machine_.transmit(
          transfer_frame(static_cast<std::uint64_t>(i), replay_get),
          bank_machine_.id()));
    }
    quiesce(*bank_);
    EXPECT_EQ(dollars(bob_), after_first_replay)
        << "a pre-crash transfer re-executed after restart";
    EXPECT_EQ(total_money(), kMint);
    shutdown();
  }
}

TEST_F(BankCrashSuite, PayrollEnvelopeKilledAtEveryJournalBarrier) {
  // A payroll (BankClient::transfer_many) is ONE request: its floor is
  // enqueued first, and its entries' effects settle together after the
  // last entry.  Image the volume at EVERY flush group while payrolls run:
  // each image must conserve money, and replaying every payroll envelope
  // after the restart must never pay anyone twice -- an envelope whose
  // floor the image holds drops or is re-answered, never re-executed.
  constexpr int kStaff = 6;
  constexpr int kPayrolls = 5;
  boot(backend_);
  alice_ = client_->create_account().value();
  std::vector<core::Capability> staff;
  for (int i = 0; i < kStaff; ++i) {
    staff.push_back(client_->create_account().value());
  }
  ASSERT_TRUE(client_
                  ->mint(bank_->master_capability(), alice_,
                         currency::kDollar, kMint)
                  .ok());
  std::vector<BankClient::Transfer> payroll;
  for (const core::Capability& member : staff) {
    payroll.push_back({alice_, member, currency::kDollar, kAmount});
  }

  std::mutex images_mutex;
  std::vector<std::shared_ptr<storage::MemoryBackend>> images;
  backend_->set_append_hook([&](std::uint64_t) {
    const std::lock_guard lock(images_mutex);
    images.push_back(backend_->capture());
  });
  // The envelopes exactly as the transport stamped them (client id, seq),
  // so the restarted bank sees true duplicates.
  std::mutex envelopes_mutex;
  std::vector<net::Message> envelopes;
  {
    const net::TapHandle tap = net_.attach_tap([&](const net::TapRecord& rec) {
      if (rec.kind == net::FrameKind::data &&
          rec.src == client_machine_.id() &&
          rec.message.header.opcode == rpc::kBatchOpcode &&
          (rec.message.header.flags & net::kFlagRetransmit) == 0) {
        const std::lock_guard lock(envelopes_mutex);
        envelopes.push_back(rec.message);
      }
    });
    for (int p = 0; p < kPayrolls; ++p) {
      for (const Result<void>& paid : client_->transfer_many(payroll)) {
        ASSERT_TRUE(paid.ok()) << "payroll " << p;
      }
    }
  }
  backend_->set_append_hook(nullptr);
  shutdown();
  ASSERT_EQ(envelopes.size(), static_cast<std::size_t>(kPayrolls));
  ASSERT_GE(images.size(), 2u) << "payrolls produced no journal barriers";

  const auto staff_dollars = [&] {
    std::vector<std::int64_t> out;
    for (const core::Capability& member : staff) {
      out.push_back(dollars(member));
    }
    return out;
  };
  const auto conserved = [&](const std::vector<std::int64_t>& paid) {
    std::int64_t total = dollars(alice_);
    for (const std::int64_t amount : paid) {
      total += amount;
    }
    return total == kMint;
  };
  for (std::size_t img = 0; img < images.size(); ++img) {
    SCOPED_TRACE("crash image " + std::to_string(img));
    boot(images[img]);
    const std::vector<std::int64_t> recovered = staff_dollars();
    EXPECT_TRUE(conserved(recovered));

    const Port replay_get(0x4848);
    net::Receiver replay_replies = client_machine_.listen(replay_get);
    const auto replay = [&] {
      for (net::Message frame : envelopes) {
        frame.header.reply = replay_get;
        ASSERT_TRUE(client_machine_.transmit(frame, bank_machine_.id()));
      }
      quiesce(*bank_);
    };
    replay();
    const std::vector<std::int64_t> after_first_replay = staff_dollars();
    EXPECT_TRUE(conserved(after_first_replay));
    for (int i = 0; i < kStaff; ++i) {
      EXPECT_GE(after_first_replay[i], recovered[i]);
      EXPECT_LE(after_first_replay[i], kPayrolls * kAmount)
          << "a payroll envelope re-executed after restart (staff " << i
          << ")";
      EXPECT_EQ(after_first_replay[i] % kAmount, 0);
    }
    // Run forward past the crash: what ran after the recovery recovers.
    shutdown();
    boot(images[img]);
    EXPECT_EQ(staff_dollars(), after_first_replay)
        << "what ran after the recovery was lost by the next one";
    replay();
    EXPECT_EQ(staff_dollars(), after_first_replay)
        << "a replayed payroll envelope re-executed";
    shutdown();
  }
}

TEST_F(BankCrashSuite, StdDestroyNeverReexecutesAcrossRestart) {
  boot(backend_);
  alice_ = client_->create_account().value();
  bob_ = client_->create_account().value();
  const core::Capability doomed = client_->create_account().value();
  ASSERT_TRUE(client_
                  ->mint(bank_->master_capability(), doomed,
                         currency::kDollar, 50)
                  .ok());

  // Destroy with a hand-stamped identity so the duplicate can be replayed
  // post-restart.
  net::Message destroy_frame = rpc::make_request(
      bank_->put_port(), rpc::kStdDestroy, doomed);
  destroy_frame.header.flags |= net::kFlagAtMostOnce;
  destroy_frame.header.client = 0xD00D;
  destroy_frame.header.seq = 1;
  const Port reply_get(0x4646);
  net::Receiver replies = client_machine_.listen(reply_get);
  destroy_frame.header.reply = reply_get;
  ASSERT_TRUE(client_machine_.transmit(destroy_frame, bank_machine_.id()));
  const auto reply = replies.receive({}, 2'000ms);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->message.header.status, ErrorCode::ok);

  // The destroy's reply body is persisted best effort (enqueued, not
  // awaited).  A subsequent at-most-once claim persists ITS floor with a
  // durability wait, and the body record was enqueued before that floor,
  // so after this balance call the body is durably on the volume -- the
  // capture below is deterministic.
  ASSERT_TRUE(client_->balance(alice_, currency::kDollar).ok());

  // Crash now; restart from the image.
  const auto image = backend_->capture();
  shutdown();
  boot(image);

  // The object stayed destroyed across the crash...
  EXPECT_FALSE(client_->balance(doomed, currency::kDollar).ok());
  // ...and the replayed duplicate is RE-ANSWERED from the restored reply
  // cache (the completed reply's body rides the reply stream)
  // without re-executing the handler: requests_served must not move.
  const auto served_before = bank_->requests_served();
  ASSERT_TRUE(client_machine_.transmit(destroy_frame, bank_machine_.id()));
  const auto dup_reply = replies.receive({}, 2'000ms);
  ASSERT_TRUE(dup_reply.has_value())
      << "post-restart duplicate of a completed destroy should be "
         "re-answered from the restored cache, not time out";
  EXPECT_EQ(dup_reply->message.header.status, ErrorCode::ok);
  EXPECT_EQ(bank_->requests_served(), served_before);
  // A genuinely fresh destroy is an error, not a second hook run.
  EXPECT_FALSE(rpc::std_destroy(*transport_, doomed).ok());
  shutdown();
}

TEST_F(BankCrashSuite, RevocationHoldsAfterRestart) {
  boot(backend_);
  alice_ = client_->create_account().value();
  const auto replacement = rpc::std_revoke(*transport_, alice_);
  ASSERT_TRUE(replacement.ok());
  const auto image = backend_->capture();
  shutdown();
  boot(image);
  // The revoked capability must not resurrect; the replacement works.
  EXPECT_FALSE(client_->balance(alice_, currency::kDollar).ok());
  EXPECT_TRUE(
      client_->balance(replacement.value(), currency::kDollar).ok());
  shutdown();
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

TEST(IncarnationTest, ReadRetransmittedAcrossAKillRunsOnceUnderANewSeq) {
  net::Network net;
  net::Machine& bank_machine = net.add_machine("bank");
  net::Machine& client_machine = net.add_machine("client");
  auto volume = std::make_shared<storage::MemoryBackend>(16);
  auto bank = std::make_unique<BankServer>(bank_machine, Port(0xBA33),
                                           scheme(), 1, volume);
  bank->start(2);
  rpc::Transport transport(client_machine, 41);
  transport.set_retransmit(10ms, 40ms);
  BankClient client(transport, bank->put_port());
  const core::Capability account = client.create_account().value();
  ASSERT_TRUE(
      client.mint(bank->master_capability(), account, currency::kDollar, 42)
          .ok());
  // The transport has heard the bank's incarnation: reads are stamped and
  // journal nothing from here on.
  ASSERT_EQ(client.balance(account, currency::kDollar).value(), 42);
  const std::uint64_t killed = bank->incarnation();
  const std::uint64_t floorless = bank->reply_cache_stats().floorless_claims;

  // The read reaches the bank and runs; every reply is lost.
  net.set_link_faults(bank_machine.id(), client_machine.id(), {.drop = 1.0});
  auto read = rpc::call_async(transport, bank->put_port(), bank_ops::kBalance,
                              account, {currency::kDollar});
  for (int i = 0; i < 2'000 && calls_of(*bank, "bank.balance") < 2; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(calls_of(*bank, "bank.balance"), 2u);
  EXPECT_EQ(bank->reply_cache_stats().floorless_claims, floorless + 1)
      << "the read journaled a floor";

  // SIGKILL: the volume keeps what was durable, the reply cache is gone.
  const auto image = volume->capture();
  bank.reset();
  net.clear_link_faults();
  bank = std::make_unique<BankServer>(bank_machine, Port(0xBA33), scheme(), 2,
                                      image);
  bank->start(2);
  EXPECT_GT(bank->incarnation(), killed);

  // The next retransmit names the killed incarnation and a seq the new
  // bank never saw: refused, re-issued under a fresh seq, run once.
  const auto answer = read.get();
  ASSERT_TRUE(answer.ok()) << to_string(answer.error());
  EXPECT_EQ(answer.value().balance, 42);
  EXPECT_EQ(calls_of(*bank, "bank.balance"), 1u);
  EXPECT_EQ(transport.stats().reissues, 1u);
  // Later reads carry the new incarnation and run at once.
  EXPECT_EQ(client.balance(account, currency::kDollar).value(), 42);
  EXPECT_EQ(transport.stats().reissues, 1u);
  EXPECT_EQ(calls_of(*bank, "bank.balance"), 2u);
}

// ---------------------------------------------------------------------
// Per-server restart paths.

class ServerRestartSuite : public ::testing::Test {
 protected:
  ServerRestartSuite()
      : server_machine_(net_.add_machine("server")),
        client_machine_(net_.add_machine("client")),
        transport_(client_machine_, 5) {}

  net::Network net_;
  net::Machine& server_machine_;
  net::Machine& client_machine_;
  rpc::Transport transport_;
};

TEST_F(ServerRestartSuite, DirectoryRecoversNameSpace) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  core::Capability root;
  core::Capability sub;
  {
    DirectoryServer dir(server_machine_, Port(0xD1E), scheme(), 3, backend);
    dir.start(1);
    DirectoryClient client(transport_, dir.put_port());
    root = client.create_dir().value();
    sub = client.create_dir().value();
    ASSERT_TRUE(client.enter(root, "bin", sub).ok());
    ASSERT_TRUE(client.enter(root, "tmp", sub).ok());
    ASSERT_TRUE(client.enter(sub, "deep", root).ok());
    ASSERT_TRUE(client.remove(root, "tmp").ok());
    // A name removed and entered again under another capability: replay
    // must end on the second capability, not the first or neither.
    ASSERT_TRUE(client.enter(root, "etc", sub).ok());
    ASSERT_TRUE(client.remove(root, "etc").ok());
    ASSERT_TRUE(client.enter(root, "etc", root).ok());
  }
  const auto image = backend->capture();
  DirectoryServer dir(server_machine_, Port(0xD1E), scheme(), 99, image);
  dir.start(1);
  transport_.flush_cache();
  DirectoryClient client(transport_, dir.put_port());
  // The walk works against recovered state, through pre-crash caps.
  const auto hit = client.lookup(root, "bin");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value(), sub);
  EXPECT_FALSE(client.lookup(root, "tmp").ok());  // the remove survived
  const auto reentered = client.lookup(root, "etc");
  ASSERT_TRUE(reentered.ok());
  EXPECT_EQ(reentered.value(), root);
  const auto names = client.list(root);
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names.value().size(), 2u);  // bin and etc
  const auto entries = client.list(sub);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 1u);
  EXPECT_EQ(entries.value()[0].name, "deep");
  // resolve_path hops still work on the recovered server.
  const auto resolved = resolve_path(transport_, root, "bin/deep");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value(), root);
}

TEST_F(ServerRestartSuite, BlockAndFlatFileRecoverAcrossServers) {
  auto block_backend = std::make_shared<storage::MemoryBackend>(16);
  auto file_backend = std::make_shared<storage::MemoryBackend>(16);
  core::Capability file_cap;
  Buffer payload(3000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  {
    BlockServer blocks(server_machine_, Port(0xB10C), scheme(), 4,
                       {.block_count = 128, .block_size = 512},
                       block_backend);
    blocks.start(1);
    FlatFileServer files(server_machine_, Port(0xF17E), scheme(), 5,
                         blocks.put_port(), file_backend);
    files.start(1);
    FlatFileClient client(transport_, files.put_port());
    file_cap = client.create().value();
    ASSERT_TRUE(client.write(file_cap, 100, payload).ok());
    // An allocate+free pair journaled before the crash: its disk block
    // must come back FREE after replay (the dispose hook returns it),
    // not leak as an orphan allocation.
    BlockClient raw(transport_, blocks.put_port());
    const auto scratch = raw.allocate().value();
    ASSERT_TRUE(raw.write(scratch, Buffer{42}).ok());
    ASSERT_TRUE(raw.free_block(scratch).ok());
  }
  // Crash BOTH servers; restart both from their volumes.
  const auto block_image = block_backend->capture();
  const auto file_image = file_backend->capture();
  BlockServer blocks(server_machine_, Port(0xB10C), scheme(), 40,
                     {.block_count = 128, .block_size = 512}, block_image);
  blocks.start(1);
  FlatFileServer files(server_machine_, Port(0xF17E), scheme(), 50,
                       blocks.put_port(), file_image);
  files.start(1);
  transport_.flush_cache();
  FlatFileClient client(transport_, files.put_port());
  // The file capability survived the file server's crash, its inode's
  // BLOCK capabilities survived the block server's crash, and the block
  // content came back out of the journaled disk.
  EXPECT_EQ(client.size(file_cap).value(), 3100u);
  const auto read_back = client.read(file_cap, 100, payload.size());
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), payload);
  // Holes read as zeros, as before the crash.
  const auto hole = client.read(file_cap, 0, 10);
  ASSERT_TRUE(hole.ok());
  EXPECT_EQ(hole.value(), Buffer(10, 0));
  // Free-count exactness across the crash: the 3100-byte file holds 7
  // 512-byte blocks; the freed scratch block was returned during replay.
  BlockClient raw(transport_, blocks.put_port());
  EXPECT_EQ(raw.info().value().free_blocks, 128u - 7u);
  // And the recovered stack still takes writes.
  EXPECT_TRUE(client.write(file_cap, 0, Buffer{1, 2, 3}).ok());
}

TEST_F(ServerRestartSuite, MultiversionRecoversVersionsAndDrafts) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  core::Capability file;
  core::Capability draft;
  const Buffer v1_page(64, 0xAB);
  const Buffer draft_page(64, 0xCD);
  {
    MultiVersionServer mv(server_machine_, Port(0x3141), scheme(), 6, 256,
                          backend);
    mv.start(1);
    MultiVersionClient client(transport_, mv.put_port());
    file = client.create_file().value();
    const auto d1 = client.new_version(file).value();
    ASSERT_TRUE(client.write_page(d1, 2, v1_page).ok());
    ASSERT_TRUE(client.commit(d1).ok());
    draft = client.new_version(file).value();
    ASSERT_TRUE(client.write_page(draft, 3, draft_page).ok());
    // Crash with the draft still in flight.
  }
  const auto image = backend->capture();
  MultiVersionServer mv(server_machine_, Port(0x3141), scheme(), 60, 256,
                        image);
  mv.start(1);
  transport_.flush_cache();
  MultiVersionClient client(transport_, mv.put_port());
  // Committed history survived, content-exact.
  EXPECT_EQ(client.history(file).value(), 2u);
  auto page = client.read_page(file, 2, 1);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(Buffer(page.value().begin(), page.value().begin() + 64), v1_page);
  // The in-flight draft survived too: its pages read back and it commits.
  page = client.read_page(draft, 3);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(Buffer(page.value().begin(), page.value().begin() + 64),
            draft_page);
  ASSERT_TRUE(client.commit(draft).ok());
  EXPECT_EQ(client.history(file).value(), 3u);
}

TEST_F(ServerRestartSuite, MemoryServerRecoversSegmentsAndBudget) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  core::Capability segment;
  core::Capability process;
  {
    kernel::MemoryServer mem(server_machine_, Port(0x3E3), scheme(), 7,
                             1 << 20, backend);
    mem.start(1);
    kernel::MemoryClient client(transport_, mem.put_port());
    segment = client.create_segment(4096).value();
    ASSERT_TRUE(client.write(segment, 10, Buffer{1, 2, 3, 4}).ok());
    const std::vector<core::Capability> image_segments{segment};
    process = client.make_process(image_segments).value();
    ASSERT_TRUE(client.start(process).ok());
    EXPECT_EQ(mem.memory_in_use(), 4096u);
  }
  const auto image = backend->capture();
  kernel::MemoryServer mem(server_machine_, Port(0x3E3), scheme(), 70,
                           1 << 20, image);
  mem.start(1);
  transport_.flush_cache();
  kernel::MemoryClient client(transport_, mem.put_port());
  // Budget is derived state, recomputed from the recovered segments.
  EXPECT_EQ(mem.memory_in_use(), 4096u);
  const auto bytes = client.read(segment, 10, 4);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), (Buffer{1, 2, 3, 4}));
  const auto info = client.process_info(process);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().state, kernel::ProcessState::running);
  EXPECT_EQ(info.value().segment_count, 1u);
  // Deleting the recovered segment returns its budget.
  ASSERT_TRUE(client.delete_segment(segment).ok());
  EXPECT_EQ(mem.memory_in_use(), 0u);
}

TEST_F(ServerRestartSuite, FileBackendSurvivesRealProcessBoundaryShape) {
  // The FileBackend round trip: everything above used MemoryBackend
  // captures; this is the on-disk shape a real restart would use.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("amoeba-crash-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  core::Capability account;
  core::Capability master;
  {
    auto backend = std::make_shared<storage::FileBackend>(dir, 16);
    BankServer bank(server_machine_, Port(0xF11E), scheme(), 8, backend);
    bank.start(1);
    BankClient client(transport_, bank.put_port());
    account = client.create_account().value();
    master = bank.master_capability();
    ASSERT_TRUE(
        client.mint(master, account, currency::kDollar, 123).ok());
  }
  {
    auto backend = std::make_shared<storage::FileBackend>(dir, 16);
    BankServer bank(server_machine_, Port(0xF11E), scheme(), 80, backend);
    bank.start(1);
    transport_.flush_cache();
    BankClient client(transport_, bank.put_port());
    EXPECT_EQ(client.balance(account, currency::kDollar).value(), 123);
    // The recovered master capability still mints.
    EXPECT_EQ(core::pack(bank.master_capability()), core::pack(master));
    EXPECT_TRUE(
        client.mint(master, account, currency::kDollar, 1).ok());
    EXPECT_EQ(client.balance(account, currency::kDollar).value(), 124);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace amoeba::servers
