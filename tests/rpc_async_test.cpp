// Tests for the completion-based RPC core: pipelined trans_async with
// out-of-order completion, the one-shot completion registry, the
// generation-guarded (port -> machine) cache under pipelining, concurrent
// set_default_timeout, and the batch envelope (codec, dispatch, per-entry
// status).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

#include "amoeba/net/network.hpp"
#include "amoeba/rpc/batch.hpp"
#include "amoeba/rpc/server.hpp"
#include "amoeba/rpc/transport.hpp"

namespace amoeba::rpc {
namespace {

using namespace std::chrono_literals;

constexpr std::uint16_t kFast = 2;
constexpr std::uint16_t kSlow = 3;  // handler stalls before answering

/// Echoes params[0]+1 and the request data; kSlow stalls first.
class SluggishEcho final : public Service {
 public:
  using Service::Service;
  ~SluggishEcho() override { stop(); }

 protected:
  net::Message handle(const net::Delivery& request) override {
    if (request.message.header.opcode == kSlow) {
      std::this_thread::sleep_for(400ms);
    }
    net::Message reply = net::make_reply(request.message, ErrorCode::ok);
    reply.header.params[0] = request.message.header.params[0] + 1;
    reply.data = request.message.data;
    return reply;
  }
};

net::Message request_to(Port dest, std::uint16_t opcode, std::uint64_t tag) {
  net::Message req;
  req.header.dest = dest;
  req.header.opcode = opcode;
  req.header.params[0] = tag;
  return req;
}

TEST(PipelineTest, SingleThreadKeepsManyTransactionsInFlight) {
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  SluggishEcho service(sm, Port(0x2001), "echo");
  service.start();
  Transport transport(cm, 1);

  constexpr std::uint64_t kWindow = 64;
  std::vector<Future> futures;
  futures.reserve(kWindow);
  for (std::uint64_t i = 0; i < kWindow; ++i) {
    futures.push_back(
        transport.trans_async(request_to(service.put_port(), kFast, i)));
  }
  // All of them were issued before any was collected: one thread, many
  // outstanding transactions.
  for (std::uint64_t i = 0; i < kWindow; ++i) {
    auto reply = futures[i].get();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().message.header.params[0], i + 1);
  }
  EXPECT_EQ(service.requests_served(), kWindow);
  EXPECT_EQ(transport.in_flight(), 0u);
  EXPECT_EQ(transport.stats().transactions, kWindow);
}

TEST(PipelineTest, CompletionsArriveOutOfIssueOrderWithoutCrossWiring) {
  // Pipeline slow and fast requests; with two workers the fast ones
  // complete while the slow ones are still stalled, and every future must
  // resolve with its OWN reply (the completion registry keys on the
  // one-shot reply port, so nothing can cross-wire).
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  SluggishEcho service(sm, Port(0x2002), "echo");
  service.start(2);
  Transport transport(cm, 1);

  // Alternate slow/fast so round-robin delivery parks all slow requests on
  // one worker and all fast ones on the other.
  std::vector<Future> slow;
  std::vector<Future> fast;
  for (std::uint64_t i = 0; i < 3; ++i) {
    slow.push_back(transport.trans_async(
        request_to(service.put_port(), kSlow, 100 + i), 10'000ms));
    fast.push_back(transport.trans_async(
        request_to(service.put_port(), kFast, 200 + i), 10'000ms));
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    auto reply = fast[i].get();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().message.header.params[0], 200 + i + 1);
  }
  // Issued first, still cooking: the last slow reply needs ~3 stall
  // periods of worker time, the fast gets above took milliseconds.
  EXPECT_FALSE(slow[2].ready());
  for (std::uint64_t i = 0; i < 3; ++i) {
    auto reply = slow[i].get();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().message.header.params[0], 100 + i + 1);
  }
}

TEST(PipelineTest, FutureIsOneShotAndInvalidWhenEmpty) {
  Future empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.ready());
  EXPECT_THROW((void)empty.get(), UsageError);

  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  SluggishEcho service(sm, Port(0x2003), "echo");
  service.start();
  Transport transport(cm, 1);
  Future future =
      transport.trans_async(request_to(service.put_port(), kFast, 7));
  EXPECT_TRUE(future.valid());
  ASSERT_TRUE(future.get().ok());
  EXPECT_FALSE(future.valid());  // consumed
  EXPECT_THROW((void)future.get(), UsageError);
}

TEST(PipelineTest, AsyncToUnknownPortFailsFast) {
  net::Network net;
  net::Machine& cm = net.add_machine("client");
  Transport transport(cm, 1);
  Future future = transport.trans_async(request_to(Port(0xDEAD), kFast, 0));
  ASSERT_TRUE(future.wait_for(1'000ms));  // resolved, not timed out
  EXPECT_EQ(future.get().error(), ErrorCode::no_such_port);
}

TEST(PipelineTest, PipelinedTimeoutsAllFire) {
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  SluggishEcho service(sm, Port(0x2004), "echo");
  service.start();
  Transport transport(cm, 1);

  std::vector<Future> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(transport.trans_async(
        request_to(service.put_port(), kSlow, 0), 50ms));
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().error(), ErrorCode::timeout);
  }
  EXPECT_EQ(transport.stats().timeouts, 4u);
}

TEST(PipelineTest, LostReplyTimesOutUnderContinuousTraffic) {
  // A transaction whose reply never comes must hit its deadline even
  // while other replies keep the completion pump busy (the pump checks
  // deadlines after every reap, not only on idle ticks).
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  SluggishEcho service(sm, Port(0x2010), "echo");
  service.start(2);
  Transport transport(cm, 1);

  // A bare GET with no service loop behind it: the frame is admitted
  // (transmit succeeds) but no reply ever comes -- a lost-reply stand-in.
  net::Receiver black_hole = sm.listen(Port(0x2FFF));
  net::Message swallowed;
  swallowed.header.dest = black_hole.put_port();
  Future lost = transport.trans_async(std::move(swallowed), 300ms);

  const auto begin = std::chrono::steady_clock::now();
  bool timed_out_under_traffic = false;
  std::deque<Future> window;
  while (std::chrono::steady_clock::now() - begin < 5'000ms) {
    while (window.size() < 4) {
      window.push_back(
          transport.trans_async(request_to(service.put_port(), kFast, 1)));
    }
    ASSERT_TRUE(window.front().get().ok());
    window.pop_front();
    if (lost.ready()) {
      timed_out_under_traffic = true;
      break;
    }
  }
  EXPECT_TRUE(timed_out_under_traffic);
  while (!window.empty()) {
    ASSERT_TRUE(window.front().get().ok());
    window.pop_front();
  }
  EXPECT_EQ(lost.get().error(), ErrorCode::timeout);
  EXPECT_EQ(transport.stats().timeouts, 1u);
}

TEST(CacheTest, RebindMidFlightInvalidatesExactlyOnce) {
  // Many transactions resolved through one stale cache entry must produce
  // ONE invalidation and ONE re-LOCATE, not a storm (the entries carry
  // generation stamps; LOCATEs are single-flight).
  net::Network net;
  net::Machine& a = net.add_machine("a");
  net::Machine& b = net.add_machine("b");
  net::Machine& cm = net.add_machine("client");
  SluggishEcho service(a, Port(0x2005), "echo");
  service.start();
  Transport transport(cm, 1);

  ASSERT_TRUE(transport.trans(request_to(service.put_port(), kFast, 0)).ok());
  ASSERT_EQ(net.stats().locates.load(), 1u);

  service.stop();
  service.rebind(b);
  service.start();

  constexpr std::uint64_t kWindow = 16;
  std::vector<Future> futures;
  for (std::uint64_t i = 0; i < kWindow; ++i) {
    futures.push_back(
        transport.trans_async(request_to(service.put_port(), kFast, i)));
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());
  }
  const auto stats = transport.stats();
  EXPECT_EQ(stats.cache_invalidations, 1u);
  EXPECT_EQ(net.stats().locates.load(), 2u);  // warm-up + one re-LOCATE
  EXPECT_EQ(service.machine().id(), b.id());
}

TEST(CacheTest, ConcurrentClientsAfterRebindShareOneRelocate) {
  net::Network net;
  net::Machine& a = net.add_machine("a");
  net::Machine& b = net.add_machine("b");
  net::Machine& cm = net.add_machine("client");
  SluggishEcho service(a, Port(0x2006), "echo");
  service.start(2);
  Transport transport(cm, 1);

  ASSERT_TRUE(transport.trans(request_to(service.put_port(), kFast, 0)).ok());
  service.stop();
  service.rebind(b);
  service.start(2);

  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&] {
        if (!transport.trans(request_to(service.put_port(), kFast, 1), 5'000ms)
                 .ok()) {
          failures.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  const auto stats = transport.stats();
  EXPECT_EQ(stats.cache_invalidations, 1u);
  EXPECT_EQ(net.stats().locates.load(), 2u);
}

TEST(TransportConfigTest, SetDefaultTimeoutRacesTransSafely) {
  // The header promises full thread-safety; the default timeout is an
  // atomic so this loop is a TSan regression test, not just a smoke test.
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  SluggishEcho service(sm, Port(0x2007), "echo");
  service.start(2);
  Transport transport(cm, 1);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 50 && !done.load(); ++i) {
          if (!transport.trans(request_to(service.put_port(), kFast, 1)).ok()) {
            failures.fetch_add(1);
          }
        }
        done.store(true);
      });
    }
    while (!done.load()) {
      transport.set_default_timeout(1'000ms + 1ms * (failures.load() % 7));
      std::this_thread::yield();
    }
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(transport.default_timeout(), 1'000ms);
}

// ----------------------------------------------------------------- batching

TEST(BatchCodecTest, RoundTripsRequestsAndReplies) {
  std::vector<BatchRequest> requests(2);
  requests[0].opcode = 7;
  requests[0].capability[3] = 0xAB;
  requests[0].params = {1, 2, 3, 4};
  requests[0].data = {9, 9, 9};
  requests[1].opcode = 8;

  const Buffer wire = encode_batch(requests);
  const auto decoded = decode_batch_request(wire);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].opcode, 7u);
  EXPECT_EQ((*decoded)[0].capability[3], 0xAB);
  EXPECT_EQ((*decoded)[0].params, (std::array<std::uint64_t, 4>{1, 2, 3, 4}));
  EXPECT_EQ((*decoded)[0].data, (Buffer{9, 9, 9}));
  EXPECT_EQ((*decoded)[1].opcode, 8u);

  std::vector<BatchReply> replies(1);
  replies[0].status = ErrorCode::insufficient_funds;
  replies[0].params = {42, 0, 0, 0};
  const auto reply_decoded = decode_batch_reply(encode_batch(replies));
  ASSERT_TRUE(reply_decoded.has_value());
  EXPECT_EQ((*reply_decoded)[0].status, ErrorCode::insufficient_funds);
  EXPECT_EQ((*reply_decoded)[0].params[0], 42u);
}

TEST(BatchCodecTest, MalformedEnvelopesRejected) {
  EXPECT_FALSE(decode_batch_request(Buffer{1, 2}).has_value());  // short count
  Writer huge;
  huge.u32(1u << 24);  // count far beyond kMaxBatchEntries
  EXPECT_FALSE(decode_batch_request(huge.buffer()).has_value());
  Writer truncated;
  truncated.u32(1);
  truncated.u16(5);  // entry cut off after the opcode
  EXPECT_FALSE(decode_batch_request(truncated.buffer()).has_value());
  Buffer trailing = encode_batch(std::vector<BatchRequest>(1));
  trailing.push_back(0);  // garbage after the last entry
  EXPECT_FALSE(decode_batch_request(trailing).has_value());
  // The empty envelope is well-formed.
  const auto empty = decode_batch_request(encode_batch(std::vector<BatchRequest>{}));
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(BatchTest, PerEntryStatusesComeBackInOrder) {
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  Service service(sm, Port(0x2008), "table");
  service.on(1, [](const net::Delivery& request) {
    net::Message reply = net::make_reply(request.message, ErrorCode::ok);
    reply.header.params[0] = request.message.header.params[0] * 2;
    reply.data = request.message.data;
    return reply;
  });
  service.start();
  Transport transport(cm, 1);

  Batch batch(transport, service.put_port());
  EXPECT_EQ(batch.add(1, nullptr, {5, 5}, {21, 0, 0, 0}), 0u);
  EXPECT_EQ(batch.add(9), 1u);            // no handler for opcode 9
  EXPECT_EQ(batch.add(kBatchOpcode), 2u);  // nested envelopes are refused
  EXPECT_EQ(batch.add(1, nullptr, {}, {4, 0, 0, 0}), 3u);
  auto replies = batch.run();
  ASSERT_TRUE(replies.ok());
  ASSERT_EQ(replies.value().size(), 4u);
  EXPECT_EQ(replies.value()[0].status, ErrorCode::ok);
  EXPECT_EQ(replies.value()[0].params[0], 42u);
  EXPECT_EQ(replies.value()[0].data, (Buffer{5, 5}));
  EXPECT_EQ(replies.value()[1].status, ErrorCode::no_such_operation);
  EXPECT_EQ(replies.value()[2].status, ErrorCode::invalid_argument);
  EXPECT_EQ(replies.value()[3].status, ErrorCode::ok);
  EXPECT_EQ(replies.value()[3].params[0], 8u);

  // One frame each way carried all four sub-requests.
  EXPECT_EQ(net.stats().batch_frames.load(), 2u);
  EXPECT_EQ(service.requests_served(), 1u);       // one envelope
  EXPECT_EQ(service.batched_requests(), 4u);      // four sub-requests
  EXPECT_TRUE(batch.empty());  // run() consumed the queue
}

TEST(BatchTest, EmptyBatchSkipsTheNetwork) {
  net::Network net;
  net::Machine& cm = net.add_machine("client");
  Transport transport(cm, 1);
  Batch batch(transport, Port(0x2009));
  auto replies = batch.run();
  ASSERT_TRUE(replies.ok());
  EXPECT_TRUE(replies.value().empty());
  EXPECT_EQ(net.stats().unicasts.load(), 0u);
  EXPECT_FALSE(batch.run_async().valid());
}

TEST(BatchTest, MalformedEnvelopeGetsEnvelopeLevelError) {
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  Service service(sm, Port(0x200A), "table");
  service.start();
  Transport transport(cm, 1);

  net::Message bogus;
  bogus.header.dest = service.put_port();
  bogus.header.opcode = kBatchOpcode;
  bogus.data = {0xFF, 0xFF};  // not a valid envelope
  auto reply = transport.trans(std::move(bogus));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().message.header.status, ErrorCode::invalid_argument);
}

TEST(BatchTest, RunAsyncPipelinesWholeEnvelopes) {
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  Service service(sm, Port(0x200B), "table");
  service.on(1, [](const net::Delivery& request) {
    net::Message reply = net::make_reply(request.message, ErrorCode::ok);
    reply.header.params[0] = request.message.header.params[0] + 1;
    return reply;
  });
  service.start(2);
  Transport transport(cm, 1);

  Batch batch(transport, service.put_port());
  std::vector<Future> envelopes;
  for (std::uint64_t round = 0; round < 4; ++round) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      batch.add(1, nullptr, {}, {round * 100 + i, 0, 0, 0});
    }
    envelopes.push_back(batch.run_async());  // consumes; batch is reusable
  }
  for (std::uint64_t round = 0; round < 4; ++round) {
    auto replies = Batch::parse_reply(envelopes[round].get());
    ASSERT_TRUE(replies.ok());
    ASSERT_EQ(replies.value().size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i) {
      EXPECT_EQ(replies.value()[i].params[0], round * 100 + i + 1);
    }
  }
  EXPECT_EQ(service.batched_requests(), 32u);
}

TEST(BatchTest, ReservedOpcodeCannotBeRegistered) {
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  Service service(sm, Port(0x200D), "table");
  EXPECT_THROW(
      service.on(kBatchOpcode,
                 [](const net::Delivery& request) {
                   return net::make_reply(request.message, ErrorCode::ok);
                 }),
      UsageError);
}

}  // namespace
}  // namespace amoeba::rpc
