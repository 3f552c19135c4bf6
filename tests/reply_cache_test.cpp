// rpc::ReplyCache on its own, with no network and no service
// (docs/PROTOCOL.md §5.2-§5.4): requests are hand-built deliveries, and a
// test plays the worker's part -- claim, then publish.
//
//   * eviction is least recently used: a touched old client keeps its
//     replies, the untouched one is demoted to a floor-only tombstone;
//   * a tombstone ranks by its last touch -- a duplicate it dropped -- or
//     else its demotion, so an idle tombstone is erased first, and a
//     client passed over while executing ranks by its later demotion;
//   * a restore from a stream that holds more clients than the limits
//     ends within them, keeping the most recently restored;
//   * concurrent claims at the cap keep both bounds (up to the claims in
//     flight) and leave no entry executing;
//   * the running entry count stats() reports equals a recount after
//     claims, trims, evictions, a restore and a flush;
//   * a zero window is refused.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "amoeba/common/error.hpp"
#include "amoeba/net/message.hpp"
#include "amoeba/rpc/reply_cache.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"

namespace amoeba {
namespace {

using Verdict = rpc::ReplyCache::Verdict;

/// An at-most-once request from `client` with sequence number `seq`.
[[nodiscard]] net::Delivery request(std::uint64_t client, std::uint64_t seq) {
  net::Delivery delivery;
  delivery.src = MachineId(1);
  delivery.message.header.flags = net::kFlagAtMostOnce;
  delivery.message.header.client = client;
  delivery.message.header.seq = seq;
  return delivery;
}

/// Claims `client`'s `seq`; a fresh claim is published at once, with a
/// reply whose data names the client.
Verdict serve(rpc::ReplyCache& cache, std::uint64_t client,
              std::uint64_t seq = 1, bool journal_body = false) {
  const net::Delivery delivery = request(client, seq);
  net::Message cached;
  const Verdict verdict = cache.claim(delivery, cached);
  if (verdict == Verdict::fresh) {
    net::Message reply = net::make_reply(delivery.message, ErrorCode::ok);
    const std::string name = std::to_string(client);
    reply.data.assign(name.begin(), name.end());
    cache.publish(delivery, reply, journal_body);
  }
  return verdict;
}

TEST(ReplyCacheTest, ATouchedOldClientSurvivesAndTheUntouchedOneIsDemoted) {
  rpc::ReplyCache cache;
  cache.set_limits(4, 2);
  ASSERT_EQ(serve(cache, 1), Verdict::fresh);
  ASSERT_EQ(serve(cache, 2), Verdict::fresh);
  ASSERT_EQ(serve(cache, 1), Verdict::resend);  // 1 is now the newer
  ASSERT_EQ(serve(cache, 3), Verdict::fresh);   // over the cap: demotes 2

  const rpc::ReplyCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evicted_clients, 1u);
  EXPECT_EQ(stats.evicted_entries, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.clients, 3u);
  EXPECT_EQ(serve(cache, 1), Verdict::resend);
  EXPECT_EQ(serve(cache, 3), Verdict::resend);
  // A tombstone keeps its floor: the demoted transaction never re-runs.
  EXPECT_EQ(serve(cache, 2), Verdict::drop);
}

TEST(ReplyCacheTest, ATombstoneStillHearingDuplicatesOutlivesAnIdleOne) {
  // One live client, so at most 8 entries in all.  Clients 1..8 leave
  // 1..7 as tombstones, 1 the oldest; then every new client erases one
  // tombstone.  Client 1 hears a duplicate before each, so the erased
  // ones are the idle 2, 3, ...
  rpc::ReplyCache cache;
  cache.set_limits(4, 1);
  for (std::uint64_t client = 1; client <= 8; ++client) {
    ASSERT_EQ(serve(cache, client), Verdict::fresh);
  }
  for (std::uint64_t client = 9; client <= 24; ++client) {
    ASSERT_EQ(serve(cache, 1), Verdict::drop) << "before client " << client;
    ASSERT_EQ(serve(cache, client), Verdict::fresh);
    EXPECT_LE(cache.stats().clients, 8u);
  }
  EXPECT_EQ(serve(cache, 1), Verdict::drop);
  // An erased tombstone's floor is forgotten (PROTOCOL §5.4).
  EXPECT_EQ(serve(cache, 2), Verdict::fresh);
}

TEST(ReplyCacheTest, ATombstoneRanksByItsDemotionNotItsLastClaim) {
  // One live client, so at most 8 entries in all.  Client 1's request is
  // still executing when client 3 arrives, so the idle client 2 is demoted
  // first and client 1 only later, though 1 was claimed first.
  rpc::ReplyCache cache;
  cache.set_limits(4, 1);
  const net::Delivery first = request(1, 1);
  net::Message cached;
  ASSERT_EQ(cache.claim(first, cached), Verdict::fresh);  // executing
  ASSERT_EQ(serve(cache, 2), Verdict::fresh);
  ASSERT_EQ(serve(cache, 3), Verdict::fresh);  // demotes 2, passes over 1
  cache.publish(first, net::make_reply(first.message, ErrorCode::ok), false);
  ASSERT_EQ(serve(cache, 4), Verdict::fresh);  // demotes 1, then 3
  for (std::uint64_t client = 5; client <= 9; ++client) {
    ASSERT_EQ(serve(cache, client), Verdict::fresh);
  }
  // Nine clients: the oldest tombstone, 2, was erased; 1 was not.
  EXPECT_EQ(cache.stats().clients, 8u);
  EXPECT_EQ(serve(cache, 1), Verdict::drop);
  EXPECT_EQ(serve(cache, 2), Verdict::fresh);
}

TEST(ReplyCacheTest, ARestoreBeyondTheLimitsEndsWithinThem) {
  constexpr std::size_t kMaxClients = 8;
  constexpr std::uint64_t kClients = 200;  // > 8 x kMaxClients
  auto volume = std::make_shared<storage::MemoryBackend>(4);
  {
    rpc::ReplyCache writer;
    writer.set_limits(4, 0);  // unbounded: the stream names every client
    writer.attach(std::make_shared<storage::GroupCommitter>(volume));
    for (std::uint64_t client = 1; client <= kClients; ++client) {
      ASSERT_EQ(serve(writer, client, 1, /*journal_body=*/true),
                Verdict::fresh);
    }
    EXPECT_EQ(writer.stats().clients, kClients);
  }  // the committer's destructor drains its queue

  rpc::ReplyCache restored;
  restored.set_limits(4, kMaxClients);
  restored.attach(std::make_shared<storage::GroupCommitter>(volume));
  const rpc::ReplyCache::Stats stats = restored.stats();
  // Every restored client holds one reply, so entries count the loaded.
  EXPECT_EQ(stats.entries, kMaxClients);
  EXPECT_EQ(stats.clients, 8 * kMaxClients);
  EXPECT_EQ(restored.incarnation(), 2u);
  // Rows restore in key order: the highest clients keep their replies,
  // the next ones their floors, and the lowest are forgotten.
  const net::Delivery newest = request(kClients, 1);
  net::Message cached;
  ASSERT_EQ(restored.claim(newest, cached), Verdict::resend);
  EXPECT_EQ(cached.data, Buffer({'2', '0', '0'}));
  EXPECT_EQ(serve(restored, kClients - kMaxClients), Verdict::drop);
  EXPECT_EQ(serve(restored, 1), Verdict::fresh);
}

TEST(ReplyCacheTest, ConcurrentClaimsAtTheCapKeepTheBounds) {
  constexpr std::size_t kMaxClients = 16;
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 2'000;
  rpc::ReplyCache cache;
  cache.set_limits(4, kMaxClients);
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      const std::uint64_t first = (t + 1) << 32;
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        (void)serve(cache, first + i);
        if (i % 3 == 2) {
          (void)serve(cache, first + i - 1);  // a duplicate: a touch
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const rpc::ReplyCache::Stats stats = cache.stats();
  EXPECT_LE(stats.clients, 8 * kMaxClients + kThreads);
  EXPECT_LE(stats.entries, kMaxClients + kThreads);  // one reply each
  EXPECT_GT(stats.evicted_clients, 0u);
  // An entry left executing could not be demoted: with a cap of one,
  // a last client would then leave more than its own reply behind.
  cache.set_limits(4, 1);
  ASSERT_EQ(serve(cache, 1), Verdict::fresh);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ReplyCacheTest, TheEntryCountMatchesARecount) {
  // stats() sums per-stripe running counts; after claims, window trims,
  // demotions, tombstone erasures, a restore and a flush they still equal
  // a walk over every client.
  const auto check = [](const rpc::ReplyCache& cache, const char* after) {
    EXPECT_EQ(cache.stats().entries, cache.recount_entries()) << after;
  };
  auto volume = std::make_shared<storage::MemoryBackend>(4);
  {
    rpc::ReplyCache writer;
    writer.set_limits(3, 0);
    writer.attach(std::make_shared<storage::GroupCommitter>(volume));
    for (std::uint64_t client = 1; client <= 40; ++client) {
      for (std::uint64_t seq = 1; seq <= client % 5; ++seq) {
        ASSERT_EQ(serve(writer, client, seq, /*journal_body=*/true),
                  Verdict::fresh);
      }
    }
    check(writer, "claims and window trims");
  }

  rpc::ReplyCache cache;
  cache.set_limits(3, 6);
  cache.attach(std::make_shared<storage::GroupCommitter>(volume));
  check(cache, "a restore beyond the limits");
  ASSERT_GT(cache.stats().entries, 0u);
  const net::Delivery executing = request(100, 1);
  net::Message cached;
  ASSERT_EQ(cache.claim(executing, cached), Verdict::fresh);
  for (std::uint64_t client = 200; client < 300; ++client) {
    for (std::uint64_t seq = 1; seq <= 1 + client % 4; ++seq) {
      (void)serve(cache, client, seq);
    }
    if (client % 7 == 0) {
      (void)serve(cache, client - 3, 1);  // a duplicate or a tombstone's
    }
  }
  check(cache, "demotions and erasures with one request executing");
  EXPECT_GT(cache.stats().evicted_clients, 0u);
  cache.publish(executing, net::make_reply(executing.message, ErrorCode::ok),
                false);
  check(cache, "a late publish");
  cache.flush();
  check(cache, "a flush");
  EXPECT_EQ(cache.stats().entries, 0u);
  ASSERT_EQ(serve(cache, 7, 1), Verdict::fresh);
  check(cache, "a claim after the flush");
}

TEST(ReplyCacheTest, AZeroWindowIsRefused) {
  rpc::ReplyCache cache;
  EXPECT_THROW(cache.set_limits(0, 16), UsageError);
  cache.set_limits(1, 0);  // a one-reply window, no client cap
  ASSERT_EQ(serve(cache, 7, 1), Verdict::fresh);
  ASSERT_EQ(serve(cache, 7, 2), Verdict::fresh);  // ages seq 1 out
  EXPECT_EQ(serve(cache, 7, 1), Verdict::drop);
  EXPECT_EQ(serve(cache, 7, 2), Verdict::resend);
}

}  // namespace
}  // namespace amoeba
