// The reply stream (docs/PROTOCOL.md §8.4): rpc::Service persists its
// at-most-once state as O(1)-byte reply_floor / reply_body records in a
// reserved journal stream of the volume, compacted into snapshots of the
// bounded in-memory cache.  These tests pin the properties that design
// promises:
//
//   * bytes written per request stay flat as clients churn;
//   * a restarted server never recovers more rows than the cache's own
//     tombstone bound;
//   * a legacy whole-volume `reply-floors` image is migrated, then emptied;
//   * the decoders survive field-level mutation (AMOEBA_TEST_SEED);
//   * a request -- a whole batch envelope included -- waits for
//     durability once, after its handler, and its reply never leaves
//     before its floor and effects are durable;
//   * a handler's outgoing call never leaves before its effects do;
//   * a shard snapshot installed while a request's floor is still queued
//     never leaves its effect without that floor, on the primary or on a
//     backup that applied the shipped snapshot.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/object_store.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/batch.hpp"
#include "amoeba/rpc/server.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/servers/common.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/record.hpp"
#include "amoeba/storage/replication/replica.hpp"
#include "amoeba/storage/replication/replicated_backend.hpp"
#include "amoeba/storage/reply_stream.hpp"
#include "test_seed.hpp"

namespace amoeba {
namespace {

using namespace std::chrono_literals;

/// Forwards to another volume and counts every byte handed to it for
/// writing: journal runs (plus their commit-log frame headers), snapshots
/// and metadata.  `after_install`, when set, runs after each snapshot
/// install with the stream's index.
class CountingBackend final : public storage::Backend {
 public:
  explicit CountingBackend(std::shared_ptr<storage::Backend> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::uint64_t bytes() const { return bytes_.load(); }

  std::function<void(std::size_t)> after_install;

  [[nodiscard]] std::size_t shard_count() const override {
    return inner_->shard_count();
  }
  void submit_append_group(std::vector<storage::ShardAppend>&& appends,
                           storage::AppendCompletion complete) override {
    count(appends);
    inner_->submit_append_group(std::move(appends), std::move(complete));
  }
  [[nodiscard]] Buffer read_journal(std::size_t shard) const override {
    return inner_->read_journal(shard);
  }
  void install_snapshot(std::size_t shard,
                        std::span<const std::uint8_t> bytes) override {
    bytes_ += bytes.size();
    inner_->install_snapshot(shard, bytes);
    if (after_install) {
      after_install(shard);
    }
  }
  [[nodiscard]] Buffer read_snapshot(std::size_t shard) const override {
    return inner_->read_snapshot(shard);
  }
  void put_meta(std::string_view key,
                std::span<const std::uint8_t> value) override {
    bytes_ += value.size();
    inner_->put_meta(key, value);
  }
  [[nodiscard]] Buffer get_meta(std::string_view key) const override {
    return inner_->get_meta(key);
  }
  [[nodiscard]] std::vector<std::string> meta_keys() const override {
    return inner_->meta_keys();
  }
  [[nodiscard]] bool empty() const override { return inner_->empty(); }

 private:
  void count(const std::vector<storage::ShardAppend>& appends) {
    std::uint64_t total = 12;  // commit-log frame: length, checksum, count
    for (const storage::ShardAppend& a : appends) {
      total += 8 + a.bytes.size();
    }
    bytes_ += total;
  }

  std::shared_ptr<storage::Backend> inner_;
  std::atomic<std::uint64_t> bytes_{0};
};

/// A minimal durable service.  kEcho answers with the request's data;
/// kEffect first journals one record on object shard 0 and waits for it
/// (a mutating handler's shape).  Both count their executions.
class CountingService final : public rpc::Service {
 public:
  static constexpr std::uint16_t kEcho = 0x0101;
  static constexpr std::uint16_t kEffect = 0x0102;

  CountingService(net::Machine& machine, Port port,
                  std::shared_ptr<storage::Backend> volume,
                  std::size_t window, std::size_t max_clients)
      : Service(machine, port, "counting"),
        committer_(std::make_shared<storage::GroupCommitter>(volume)) {
    set_reply_cache_limits(window, max_clients);
    attach_durability(volume, committer_);
    on(kEcho, [this](const net::Delivery& request) {
      ++executions;
      net::Message reply = net::make_reply(request.message, ErrorCode::ok);
      reply.data = request.message.data;
      return reply;
    });
    on(kEffect, [this](const net::Delivery& request) {
      ++executions;
      Buffer record;
      storage::encode_record_into(storage::RecordType::mutate, ObjectNumber(1),
                                  0, ++effect_lsn_, {}, record);
      committer_->wait_durable(committer_->enqueue(0, record));
      return net::make_reply(request.message, ErrorCode::ok);
    });
  }
  ~CountingService() override { stop(); }

  [[nodiscard]] storage::GroupCommitter& committer() { return *committer_; }

  std::atomic<int> executions{0};

 private:
  std::shared_ptr<storage::GroupCommitter> committer_;
  std::atomic<std::uint64_t> effect_lsn_{0};
};

/// One hand-stamped at-most-once request from `client`/`seq`.
[[nodiscard]] net::Message stamped(Port dest, std::uint16_t opcode,
                                   std::uint64_t client, std::uint64_t seq,
                                   Port reply, Buffer data = {}) {
  net::Message request;
  request.header.dest = dest;
  request.header.opcode = opcode;
  request.header.flags = net::kFlagAtMostOnce;
  request.header.client = client;
  request.header.seq = seq;
  request.header.reply = reply;
  request.data = std::move(data);
  return request;
}

[[nodiscard]] Buffer bytes_of(std::string_view text) {
  return Buffer(text.begin(), text.end());
}

[[nodiscard]] std::shared_ptr<const core::ProtectionScheme> scheme() {
  static const std::shared_ptr<const core::ProtectionScheme> shared = [] {
    Rng rng(31);
    return std::shared_ptr<const core::ProtectionScheme>(
        core::make_scheme(core::SchemeKind::commutative, rng));
  }();
  return shared;
}

TEST(ReplyStreamTest, BytesPerRequestStayFlatAsClientsChurn) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("amoeba_reply_stream_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    net::Network net;
    net::Machine& bank_machine = net.add_machine("bank");
    net::Machine& client_machine = net.add_machine("client");
    auto volume = std::make_shared<CountingBackend>(
        std::make_shared<storage::FileBackend>(dir));
    servers::BankServer bank(bank_machine, Port(0xBA77), scheme(), 1, volume);
    // 16 live clients, 128 rows in all: the bound is reached early, so the
    // two windows compare steady states, not a growing live set.
    bank.set_reply_cache_limits(8, 16);
    bank.start(2);
    rpc::Transport transport(client_machine, 5);
    servers::BankClient client(transport, bank.put_port());
    const core::Capability account = client.create_account().value();

    const Port reply_get(0x5151);
    net::Receiver replies = client_machine.listen(reply_get);
    constexpr int kClients = 2000;
    constexpr int kWindow = 500;
    std::vector<std::uint64_t> written;  // volume bytes every kWindow
    for (int i = 0; i < kClients; ++i) {
      if (i % kWindow == 0) {
        written.push_back(volume->bytes());
      }
      net::Message request = rpc::make_request(
          bank.put_port(), servers::bank_ops::kBalance, account,
          {servers::currency::kDollar});
      request.header.flags |= net::kFlagAtMostOnce;
      request.header.client = 0x100000 + static_cast<std::uint64_t>(i);
      request.header.seq = 1;
      request.header.reply = reply_get;
      ASSERT_TRUE(client_machine.transmit(request, bank_machine.id()));
      ASSERT_TRUE(replies.receive({}, 2'000ms).has_value()) << "client " << i;
    }
    written.push_back(volume->bytes());
    const double first = static_cast<double>(written[1] - written[0]) / kWindow;
    const double last = static_cast<double>(written[4] - written[3]) / kWindow;
    std::printf("bytes per request: first 500 clients %.1f, last 500 %.1f\n",
                first, last);
    EXPECT_LE(last, 1.25 * first);
    // The whole-image scheme this replaces rewrote every row per request:
    // >= 128 rows x 20 bytes here, and growing without bound.
    EXPECT_LT(last, 2048.0);

    // Handler timing accumulates nanoseconds: 2,000 cached reads that
    // each take well under a microsecond still add up to a nonzero total.
    bool timed = false;
    for (const auto& op : bank.op_metrics()) {
      if (op.name == "bank.balance") {
        timed = true;
        EXPECT_EQ(op.calls, static_cast<std::uint64_t>(kClients));
        EXPECT_GT(op.total_ns, 0u);
        EXPECT_GE(op.total_ns, op.max_ns);
      }
    }
    EXPECT_TRUE(timed);
    bank.stop();
  }
  std::filesystem::remove_all(dir);
}

TEST(ReplyStreamTest, RecoveredRowsNeverExceedTheTombstoneBound) {
  constexpr std::size_t kMaxClients = 8;
  constexpr std::size_t kBound = 8 * kMaxClients;  // kTombstoneFactor x
  net::Network net;
  net::Machine& server_machine = net.add_machine("server");
  net::Machine& client_machine = net.add_machine("client");
  auto volume = std::make_shared<storage::MemoryBackend>(4);
  const Port reply_get(0x5252);
  net::Receiver replies = client_machine.listen(reply_get);
  constexpr std::uint64_t kFirstClient = 0x2000;
  constexpr int kClients = 640;
  {
    CountingService service(server_machine, Port(0xC0C0), volume, 4,
                            kMaxClients);
    service.start(1);
    for (int i = 0; i < kClients; ++i) {
      ASSERT_TRUE(client_machine.transmit(
          stamped(service.put_port(), CountingService::kEcho,
                  kFirstClient + static_cast<std::uint64_t>(i), 1, reply_get,
                  bytes_of("x")),
          server_machine.id()));
      ASSERT_TRUE(replies.receive({}, 2'000ms).has_value());
      if (i % 80 == 79) {
        // Crash here: a server restarted from this image holds no more
        // rows than the bound, however many clients the journal names.
        net::Network probe_net;
        CountingService probe(probe_net.add_machine("probe"), Port(0xC0C1),
                              volume->capture(), 4, kMaxClients);
        EXPECT_LE(probe.reply_cache_stats().clients, kBound)
            << "after " << i + 1 << " clients";
      }
    }
    EXPECT_LE(service.reply_cache_stats().clients, kBound);
    service.committer().drain();
  }
  // The stream compacted at least once, and its snapshot is bounded like
  // the cache it images.
  storage::ReplyRows snapshot;
  std::uint64_t applied = 0;
  ASSERT_TRUE(storage::merge_reply_snapshot(
      volume->read_snapshot(volume->reply_stream()), snapshot, applied));
  EXPECT_GT(applied, 0u);
  EXPECT_LE(snapshot.size(), kBound);

  // The newest client survives the restart: its duplicate is re-answered,
  // not re-executed.
  CountingService restarted(server_machine, Port(0xC0C0), volume, 4,
                            kMaxClients);
  EXPECT_LE(restarted.reply_cache_stats().clients, kBound);
  restarted.start(1);
  ASSERT_TRUE(client_machine.transmit(
      stamped(restarted.put_port(), CountingService::kEcho,
              kFirstClient + kClients - 1, 1, reply_get, bytes_of("x")),
      server_machine.id()));
  const auto resent = replies.receive({}, 2'000ms);
  ASSERT_TRUE(resent.has_value());
  EXPECT_EQ(resent->message.data, bytes_of("x"));
  EXPECT_EQ(restarted.executions.load(), 0);
}

/// A reply body in the wire-independent form the reply stream (and the
/// legacy image before it) persists: flags, status, capability, params,
/// data.
[[nodiscard]] Buffer reply_body(std::string_view data) {
  Writer w;
  w.u16(0);
  w.u16(static_cast<std::uint16_t>(ErrorCode::ok));
  w.raw(net::CapabilityBytes{});
  for (int i = 0; i < 4; ++i) {
    w.u64(0);
  }
  w.bytes(bytes_of(data));
  return w.take();
}

TEST(ReplyStreamTest, LegacyReplyFloorsImageIsMigrated) {
  net::Network net;
  net::Machine& server_machine = net.add_machine("server");
  net::Machine& client_machine = net.add_machine("client");
  auto volume = std::make_shared<storage::MemoryBackend>(4);
  constexpr std::uint64_t kClient = 0xAB;
  // The RCV2 image of earlier versions: client kClient claimed up to seq 5;
  // seqs 4 and 5 completed with persisted bodies.
  Writer image;
  image.u32(0x52435632u);  // "RCV2"
  image.u32(1);
  image.u32(client_machine.id().value());
  image.u64(kClient);
  image.u64(5);
  image.u32(2);
  image.u64(4);
  image.bytes(reply_body("four"));
  image.u64(5);
  image.bytes(reply_body("five"));
  volume->put_meta("reply-floors", image.buffer());

  const Port reply_get(0x5353);
  net::Receiver replies = client_machine.listen(reply_get);
  const auto send = [&](const rpc::Service& service, std::uint64_t seq) {
    ASSERT_TRUE(client_machine.transmit(
        stamped(service.put_port(), CountingService::kEcho, kClient, seq,
                reply_get, bytes_of("fresh")),
        server_machine.id()));
  };
  {
    CountingService service(server_machine, Port(0xC1C1), volume, 16, 64);
    // Attaching folded the image into the reply stream's first snapshot,
    // then emptied the blob.
    EXPECT_TRUE(volume->get_meta("reply-floors").empty());
    EXPECT_FALSE(volume->read_snapshot(volume->reply_stream()).empty());
    service.start(1);
    send(service, 5);  // body persisted: re-answered
    auto reply = replies.receive({}, 2'000ms);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->message.data, bytes_of("five"));
    send(service, 3);  // floor only: dropped
    EXPECT_FALSE(replies.receive({}, 150ms).has_value());
    EXPECT_EQ(service.executions.load(), 0);
    send(service, 6);  // above the floor: a fresh transaction
    reply = replies.receive({}, 2'000ms);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->message.data, bytes_of("fresh"));
    EXPECT_EQ(service.executions.load(), 1);
    service.committer().drain();
  }
  // Second restart, from the reply stream alone: every seq is still
  // suppressed -- re-answered where a body survives, dropped otherwise.
  CountingService service(server_machine, Port(0xC1C1), volume, 16, 64);
  service.start(1);
  const std::map<std::uint64_t, std::string_view> answered = {
      {4, "four"}, {5, "five"}, {6, "fresh"}};
  for (const std::uint64_t seq : {1, 3, 4, 5, 6}) {
    send(service, seq);
    const auto it = answered.find(seq);
    const auto reply =
        replies.receive({}, it == answered.end() ? 150ms : 2'000ms);
    if (it == answered.end()) {
      EXPECT_FALSE(reply.has_value()) << "seq " << seq;
    } else {
      ASSERT_TRUE(reply.has_value()) << "seq " << seq;
      EXPECT_EQ(reply->message.data, bytes_of(it->second));
    }
  }
  EXPECT_EQ(service.executions.load(), 0);
}

// ---------------------------------------------------------------------
// Field-level fuzzing of the reply-stream decoders.

/// One wire field: a fixed-width little-endian integer, or (width 0) a raw
/// byte run.  Mutations act on whole fields, so a mutated record still
/// frames and checksums correctly and reaches the decoder under test.
struct Field {
  int width = 0;
  std::uint64_t value = 0;
  Buffer raw;
};

[[nodiscard]] Buffer serialize(const std::vector<Field>& fields) {
  Buffer out;
  for (const Field& f : fields) {
    if (f.width == 0) {
      out.insert(out.end(), f.raw.begin(), f.raw.end());
    }
    for (int i = 0; i < f.width; ++i) {
      out.push_back(static_cast<std::uint8_t>(f.value >> (8 * i)));
    }
  }
  return out;
}

void mutate(std::vector<Field>& fields, Rng& rng) {
  if (fields.empty()) {
    return;
  }
  const std::size_t i = rng.below(fields.size());
  Field& f = fields[i];
  std::uint64_t mask = ~std::uint64_t{0};
  if (f.width < 8) {
    mask = (std::uint64_t{1} << (8 * f.width)) - 1;
  }
  switch (rng.below(7)) {
    case 0:
      f.value = 0;
      break;
    case 1:
      f.value = mask;  // all ones: hostile counts and lengths
      break;
    case 2:
      f.value = rng.next() & mask;
      break;
    case 3:
      f.value = (f.value + 1) & mask;
      break;
    case 4:
      f.value = (f.value - 1) & mask;
      break;
    case 5:
      fields.erase(fields.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    default:
      if (f.width == 0 && !f.raw.empty()) {
        f.raw.resize(rng.below(f.raw.size()));
      } else {
        fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(i), f);
      }
      break;
  }
}

[[nodiscard]] std::vector<Field> row_fields(std::uint32_t src,
                                            std::uint64_t client,
                                            std::uint64_t floor,
                                            const std::vector<Buffer>& bodies) {
  std::vector<Field> fields = {{4, src, {}}, {8, client, {}}, {8, floor, {}}};
  fields.push_back({4, bodies.size(), {}});
  std::uint64_t seq = floor;
  for (const Buffer& body : bodies) {
    fields.push_back({8, seq--, {}});
    fields.push_back({4, body.size(), {}});
    fields.push_back({0, 0, body});
  }
  return fields;
}

/// What replay must never do, whatever the input: lower a floor, keep more
/// than the per-client body window, or hold a body above its own floor.
void expect_sane(const storage::ReplyRows& before,
                 const storage::ReplyRows& after) {
  for (const auto& [key, row] : before) {
    const auto it = after.find(key);
    ASSERT_NE(it, after.end());
    EXPECT_GE(it->second.floor, row.floor) << "a floor moved backwards";
  }
  for (const auto& [key, row] : after) {
    EXPECT_LE(row.bodies.size(), storage::kReplyBodiesPerClient);
    if (!row.bodies.empty()) {
      EXPECT_GE(row.floor, row.bodies.rbegin()->first);
    }
  }
}

[[nodiscard]] bool same_rows(const storage::ReplyRows& a,
                             const storage::ReplyRows& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (const auto& [key, row] : a) {
    const auto it = b.find(key);
    if (it == b.end() || it->second.floor != row.floor ||
        it->second.bodies != row.bodies) {
      return false;
    }
  }
  return true;
}

TEST(ReplyStreamFuzz, MutatedRecordsAndImagesNeverHalfApply) {
  Rng rng(test::seed_base(12) * 0x9E3779B97F4A7C15ULL + 12);
  storage::ReplyRows base;
  base[{1, 10}].floor = 7;
  base[{1, 10}].bodies[7] = reply_body("seven");
  base[{2, 20}].floor = 3;
  const std::vector<Buffer> bodies = {reply_body("a"), reply_body("bb")};

  for (int iter = 0; iter < 3000; ++iter) {
    storage::ReplyRows rows = base;
    switch (iter % 4) {
      case 0:
      case 1: {
        // One reply_floor / reply_body record with a mutated payload.
        std::vector<Field> payload = {
            {4, 1, {}}, {8, 10 + rng.below(3), {}}, {8, 1 + rng.below(9), {}}};
        const bool body = iter % 4 == 1;
        if (body) {
          payload.push_back({4, bodies[1].size(), {}});
          payload.push_back({0, 0, bodies[1]});
        }
        for (std::uint64_t m = 1 + rng.below(3); m > 0; --m) {
          mutate(payload, rng);
        }
        Buffer framed;
        storage::encode_record_into(body ? storage::RecordType::reply_body
                                         : storage::RecordType::reply_floor,
                                    ObjectNumber{}, 0, 1, serialize(payload),
                                    framed);
        for (const storage::Record& record : storage::decode_journal(framed)) {
          const storage::ReplyRows unchanged = rows;
          if (!storage::merge_reply_record(record, rows)) {
            EXPECT_TRUE(same_rows(rows, unchanged)) << "half-applied record";
          }
        }
        break;
      }
      case 2: {
        // A reply-stream snapshot: mutate the header, a slot frame, or a
        // row inside a slot.
        std::vector<Field> image = {{4, 0x414D534Eu, {}},
                                    {2, 1, {}},
                                    {8, 40, {}},
                                    {4, 2, {}}};
        for (int r = 0; r < 2; ++r) {
          std::vector<Field> row = row_fields(
              1, 10 + static_cast<std::uint64_t>(r), 5 + rng.below(5), bodies);
          if (rng.below(2) == 0) {
            mutate(row, rng);
          }
          const Buffer payload = serialize(row);
          image.push_back({4, 0, {}});  // object
          image.push_back({8, 0, {}});  // secret
          image.push_back({4, payload.size(), {}});
          image.push_back({0, 0, payload});
        }
        if (rng.below(2) == 0) {
          mutate(image, rng);
        }
        const storage::ReplyRows unchanged = rows;
        std::uint64_t applied = 0;
        if (!storage::merge_reply_snapshot(serialize(image), rows, applied)) {
          EXPECT_TRUE(same_rows(rows, unchanged)) << "half-applied image";
        }
        break;
      }
      default: {
        // The legacy metadata image the migration reads.
        std::vector<Field> image = {{4, 0x52435632u, {}}, {4, 1, {}}};
        for (Field& f : row_fields(2, 20, 4 + rng.below(4), bodies)) {
          image.push_back(std::move(f));
        }
        for (std::uint64_t m = 1 + rng.below(3); m > 0; --m) {
          mutate(image, rng);
        }
        storage::merge_legacy_reply_image(serialize(image), rows);
        break;
      }
    }
    expect_sane(base, rows);
    if (::testing::Test::HasFailure()) {
      FAIL() << "iteration " << iter << " (seed base "
             << test::seed_base(12) << ")";
    }
  }
}

TEST(ReplyStreamFuzz, MutatedStreamsNeverCrashARestart) {
  // End to end: a restart over a volume whose reply stream holds mutated
  // bytes either recovers or refuses to boot -- never crashes.
  Rng rng(test::seed_base(12) + 99);
  net::Network net;
  net::Machine& machine = net.add_machine("server");
  const std::vector<Buffer> bodies = {reply_body("a")};
  for (int iter = 0; iter < 60; ++iter) {
    auto volume = std::make_shared<storage::MemoryBackend>(2);
    std::vector<Field> row = row_fields(3, 30, 9, bodies);
    mutate(row, rng);
    const Buffer payload = serialize(row);
    std::vector<Field> image = {{4, 0x414D534Eu, {}}, {2, 1, {}},
                                {8, 4, {}},           {4, 1, {}},
                                {4, 0, {}},           {8, 0, {}},
                                {4, payload.size(), {}}, {0, 0, payload}};
    if (iter % 2 == 0) {
      mutate(image, rng);
    }
    volume->install_snapshot(volume->reply_stream(), serialize(image));
    Buffer journal;
    std::vector<Field> record = {{4, 3, {}}, {8, 30, {}}, {8, 12, {}}};
    mutate(record, rng);
    storage::encode_record_into(storage::RecordType::reply_floor,
                                ObjectNumber{}, 0, 5, serialize(record),
                                journal);
    volume->append_journal(volume->reply_stream(), journal);
    try {
      CountingService service(machine, Port(0xC2C2), volume, 8, 16);
      EXPECT_LE(service.reply_cache_stats().clients, 2u);
    } catch (const UsageError&) {
      // A corrupt snapshot frame refuses to boot, like an object shard's.
    }
  }
}

TEST(ReplyStreamTest, SnapshotInstallKeepsRecordsPastItsLsn) {
  // rpc::Service installs a committed volume's reply-stream snapshot while
  // other workers go on appending: a record past the snapshot's LSN that
  // reached the volume first must survive the install.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("amoeba_reply_install_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    const std::vector<std::shared_ptr<storage::Backend>> volumes = {
        std::make_shared<storage::MemoryBackend>(2),
        std::make_shared<storage::FileBackend>(dir, 2)};
    for (const auto& volume : volumes) {
      storage::GroupCommitter committer(volume);
      const std::size_t stream = volume->reply_stream();
      for (std::uint64_t seq = 1; seq <= 4; ++seq) {
        Buffer record;
        storage::encode_reply_floor(1, 0xAA, seq, /*lsn=*/seq, record);
        committer.wait_durable(committer.enqueue(stream, record));
      }
      storage::ReplyRows rows;
      rows[{1, 0xAA}].floor = 2;
      volume->install_snapshot(stream, storage::encode_reply_snapshot(rows, 2));
      std::uint64_t last_lsn = 0;
      const storage::ReplyRows recovered =
          storage::read_reply_stream(*volume, last_lsn);
      EXPECT_EQ(last_lsn, 4u);
      ASSERT_EQ(recovered.size(), 1u);
      EXPECT_EQ(recovered.begin()->second.floor, 4u)
          << "the install dropped records its snapshot does not hold";
    }
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// One durability wait per request; no reply before its floor.

TEST(ReplyStreamTest, OneDurabilityWaitPerRequestAfterTheHandler) {
  net::Network net;
  net::Machine& server_machine = net.add_machine("server");
  net::Machine& client_machine = net.add_machine("client");
  auto volume = std::make_shared<storage::MemoryBackend>(2);
  CountingService service(server_machine, Port(0xC3C3), volume, 16, 64);
  // A gate on the acknowledgement point: while closed, no flush cycle is
  // reported durable (the hook runs after the backend write, before any
  // waiter releases -- where replication acks would be awaited).
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool open = true;
  service.committer().set_post_flush_hook([&](const auto&) {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return open; });
  });
  service.start(2);
  const Port reply_get(0x5454);
  net::Receiver replies = client_machine.listen(reply_get);
  constexpr std::uint64_t kClient = 0xC11E;

  // A read: the handler runs at once -- no wait before it -- but its reply
  // is held until the floor's cycle is durable.
  {
    const std::lock_guard lock(gate_mutex);
    open = false;
  }
  ASSERT_TRUE(client_machine.transmit(
      stamped(service.put_port(), CountingService::kEcho, kClient, 1,
              reply_get, bytes_of("r")),
      server_machine.id()));
  for (int i = 0; i < 200 && service.executions.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(service.executions.load(), 1) << "the handler waited first";
  EXPECT_FALSE(replies.receive({}, 100ms).has_value())
      << "a reply left before its floor was durable";
  {
    const std::lock_guard lock(gate_mutex);
    open = true;
  }
  gate_cv.notify_all();
  ASSERT_TRUE(replies.receive({}, 2'000ms).has_value());

  // Reads and mutates alike block on durability at most once each.
  std::uint64_t seq = 2;
  for (int i = 0; i < 40; ++i, ++seq) {
    const std::uint16_t opcode =
        i % 2 == 0 ? CountingService::kEcho : CountingService::kEffect;
    const std::uint64_t waits_before =
        service.committer().stats().blocking_waits;
    ASSERT_TRUE(client_machine.transmit(
        stamped(service.put_port(), opcode, kClient, seq, reply_get),
        server_machine.id()));
    ASSERT_TRUE(replies.receive({}, 2'000ms).has_value());
    EXPECT_LE(service.committer().stats().blocking_waits - waits_before, 1u)
        << (opcode == CountingService::kEcho ? "read" : "mutate") << " #" << i;
    // The floor of a replied request is already on the volume.
    std::uint64_t last_lsn = 0;
    const storage::ReplyRows rows =
        storage::read_reply_stream(*volume, last_lsn);
    const auto row = rows.find({client_machine.id().value(), kClient});
    ASSERT_NE(row, rows.end());
    EXPECT_GE(row->second.floor, seq);
  }
  EXPECT_EQ(service.executions.load(), 41);

  // A 32-entry envelope of mutates is one request: its entries' effects
  // and its floor settle in one wait after the last entry, not one each,
  // and the envelope's reply waits for all of them.
  constexpr std::size_t kEntries = 32;
  const auto envelope = [&](std::uint64_t envelope_seq) {
    std::vector<rpc::BatchRequest> entries(kEntries);
    for (rpc::BatchRequest& entry : entries) {
      entry.opcode = CountingService::kEffect;
    }
    net::Message request =
        stamped(service.put_port(), rpc::kBatchOpcode, kClient, envelope_seq,
                reply_get, rpc::encode_batch(entries));
    request.header.flags |= net::kFlagBatch;
    return request;
  };
  const auto expect_all_ok = [&](const net::Message& reply) {
    EXPECT_EQ(reply.header.status, ErrorCode::ok);
    const auto subs = rpc::decode_batch_reply(reply.data);
    ASSERT_TRUE(subs.has_value());
    ASSERT_EQ(subs->size(), kEntries);
    for (const rpc::BatchReply& sub : *subs) {
      EXPECT_EQ(sub.status, ErrorCode::ok);
    }
  };
  {
    const std::lock_guard lock(gate_mutex);
    open = false;
  }
  const int before_envelope = service.executions.load();
  ASSERT_TRUE(
      client_machine.transmit(envelope(seq++), server_machine.id()));
  for (int i = 0; i < 200 && service.executions.load() <
                                 before_envelope + static_cast<int>(kEntries);
       ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(service.executions.load(),
            before_envelope + static_cast<int>(kEntries))
      << "an entry blocked on durability before the next one ran";
  EXPECT_FALSE(replies.receive({}, 100ms).has_value())
      << "an envelope reply left before its effects were durable";
  {
    const std::lock_guard lock(gate_mutex);
    open = true;
  }
  gate_cv.notify_all();
  const auto gated = replies.receive({}, 2'000ms);
  ASSERT_TRUE(gated.has_value());
  expect_all_ok(gated->message);

  for (int i = 0; i < 8; ++i, ++seq) {
    const std::uint64_t waits_before =
        service.committer().stats().blocking_waits;
    ASSERT_TRUE(client_machine.transmit(envelope(seq), server_machine.id()));
    const auto reply = replies.receive({}, 2'000ms);
    ASSERT_TRUE(reply.has_value());
    expect_all_ok(reply->message);
    EXPECT_LE(service.committer().stats().blocking_waits - waits_before, 1u)
        << "envelope #" << i;
  }
  EXPECT_EQ(service.executions.load(), 41 + 9 * static_cast<int>(kEntries));
}

// ---------------------------------------------------------------------
// No outgoing call before the effects it may depend on.

/// A plain service that counts the requests it receives.
class SinkService final : public rpc::Service {
 public:
  static constexpr std::uint16_t kPing = 0x0201;

  SinkService(net::Machine& machine, Port port)
      : Service(machine, port, "sink") {
    on(kPing, [this](const net::Delivery& request) {
      ++received;
      return net::make_reply(request.message, ErrorCode::ok);
    });
  }
  ~SinkService() override { stop(); }

  std::atomic<int> received{0};
};

/// kForward journals one effect, then calls `downstream` through its own
/// Transport before replying (the flat-file server's shape, which calls
/// the block server mid-handler).
class ForwardingService final : public rpc::Service {
 public:
  static constexpr std::uint16_t kForward = 0x0202;

  ForwardingService(net::Machine& machine, Port port,
                    std::shared_ptr<storage::Backend> volume, Port downstream)
      : Service(machine, port, "forwarding"),
        committer_(std::make_shared<storage::GroupCommitter>(volume)),
        transport_(machine, 17) {
    attach_durability(volume, committer_);
    on(kForward, [this, downstream](const net::Delivery& request) {
      Buffer record;
      storage::encode_record_into(storage::RecordType::mutate, ObjectNumber(1),
                                  0, ++effect_lsn_, {}, record);
      committer_->wait_durable(committer_->enqueue(0, record));
      net::Message ping;
      ping.header.dest = downstream;
      ping.header.opcode = SinkService::kPing;
      const auto answer = transport_.trans(std::move(ping), 2'000ms);
      return net::make_reply(request.message,
                             answer.ok() ? answer.value().message.header.status
                                         : answer.error());
    });
  }
  ~ForwardingService() override { stop(); }

  [[nodiscard]] storage::GroupCommitter& committer() { return *committer_; }

 private:
  std::shared_ptr<storage::GroupCommitter> committer_;
  rpc::Transport transport_;
  std::atomic<std::uint64_t> effect_lsn_{0};
};

TEST(ReplyStreamTest, OutgoingCallWaitsForTheHandlersEffects) {
  net::Network net;
  net::Machine& server_machine = net.add_machine("server");
  net::Machine& sink_machine = net.add_machine("sink");
  net::Machine& client_machine = net.add_machine("client");
  SinkService sink(sink_machine, Port(0xC5C5));
  sink.start(1);
  // Declared before the service: its committer's last cycles run the hook.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool open = false;
  ForwardingService service(server_machine, Port(0xC6C6),
                            std::make_shared<storage::MemoryBackend>(2),
                            sink.put_port());
  service.committer().set_post_flush_hook([&](const auto&) {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return open; });
  });
  service.start(1);
  const Port reply_get(0x5656);
  net::Receiver replies = client_machine.listen(reply_get);

  ASSERT_TRUE(client_machine.transmit(
      stamped(service.put_port(), ForwardingService::kForward, 0xF0F0, 1,
              reply_get),
      server_machine.id()));
  std::this_thread::sleep_for(150ms);
  EXPECT_EQ(sink.received.load(), 0)
      << "the downstream call left before the handler's effect was durable";
  {
    const std::lock_guard lock(gate_mutex);
    open = true;
  }
  gate_cv.notify_all();
  const auto reply = replies.receive({}, 2'000ms);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->message.header.status, ErrorCode::ok);
  EXPECT_EQ(sink.received.load(), 1);
}

// ---------------------------------------------------------------------
// Shard compaction against queued floors.

/// A durable service over an object store that compacts after every
/// journal record: kBump increments one counter object, so each request's
/// effect is folded into a shard snapshot -- installed outside the commit
/// queue -- the moment its handler releases the object.
class CompactingService final : public rpc::Service {
 public:
  static constexpr std::uint16_t kBump = 0x0103;

  CompactingService(net::Machine& machine, Port port,
                    std::shared_ptr<storage::Backend> volume,
                    std::optional<core::Capability> counter = std::nullopt)
      : Service(machine, port, "compacting"),
        committer_(std::make_shared<storage::GroupCommitter>(volume)),
        store_(scheme(), port, 5, 1, durability(volume, committer_)),
        counter_(counter.has_value() ? *counter : store_.create(0)) {
    attach_durability(volume, committer_);
    on(kBump, [this](const net::Delivery& request) {
      auto opened = store_.open(counter_, Rights::all());
      if (!opened.ok()) {
        return net::make_reply(request.message, opened.error());
      }
      ++*opened.value().value;
      opened.value().mark_dirty();
      return net::make_reply(request.message, ErrorCode::ok);
    });
  }
  ~CompactingService() override { stop(); }

  [[nodiscard]] const core::Capability& counter() const { return counter_; }
  [[nodiscard]] int value() {
    auto opened = store_.open(counter_, Rights::all());
    return opened.ok() ? *opened.value().value : -1;
  }

 private:
  [[nodiscard]] static core::Durability<int> durability(
      std::shared_ptr<storage::Backend> volume,
      std::shared_ptr<storage::GroupCommitter> committer) {
    core::Durability<int> d;
    d.backend = std::move(volume);
    d.committer = std::move(committer);
    d.encode = [](Writer& w, const int& v) {
      w.u32(static_cast<std::uint32_t>(v));
    };
    d.decode = [](Reader& r, int& v) {
      v = static_cast<int>(r.u32());
      return r.ok();
    };
    d.compact_after = 1;
    return d;
  }

  std::shared_ptr<storage::GroupCommitter> committer_;
  core::ObjectStore<int> store_;
  core::Capability counter_;
};

/// Hands shipments straight to a backup's applier, and images the backup
/// volume right after each object-shard snapshot it applies -- before any
/// later cycle frame can land.
class ImagingLink final : public storage::ReplicationLink {
 public:
  explicit ImagingLink(std::shared_ptr<storage::MemoryBackend> volume)
      : volume_(volume), applier_(volume) {}

  [[nodiscard]] std::string peer_name() const override { return "backup"; }
  [[nodiscard]] Result<std::uint64_t> ship_cycle(
      std::span<const std::uint8_t> frame) override {
    return applier_.apply_cycle(frame);
  }
  [[nodiscard]] Result<std::uint64_t> ship_snapshot(
      std::uint64_t rep_lsn, std::size_t shard,
      std::span<const std::uint8_t> bytes) override {
    const Result<std::uint64_t> applied =
        applier_.install_snapshot(rep_lsn, shard, bytes);
    if (shard < volume_->shard_count()) {
      const std::lock_guard lock(mutex_);
      images_.push_back(volume_->capture());
    }
    return applied;
  }
  [[nodiscard]] Result<std::uint64_t> heartbeat(std::uint64_t) override {
    return applier_.applied();
  }

  [[nodiscard]] std::vector<std::shared_ptr<storage::MemoryBackend>>
  take_images() {
    const std::lock_guard lock(mutex_);
    return std::exchange(images_, {});
  }

 private:
  std::shared_ptr<storage::MemoryBackend> volume_;
  storage::ReplicaApplier applier_;
  std::mutex mutex_;
  std::vector<std::shared_ptr<storage::MemoryBackend>> images_;
};

TEST(ReplyStreamTest, ShardSnapshotNeverHoldsAnEffectWithoutItsFloor) {
  // Each bump's floor is queued, not yet durable, when its handler's
  // effect triggers a compaction; the snapshot install bypasses the queue
  // and ships to the backup at once.  Image the primary right after each
  // install, and the backup right after it applies each shipped snapshot:
  // a server restarted (or promoted) from any of those images must not
  // run a bump whose effect the image already holds a second time.
  auto local = std::make_shared<storage::MemoryBackend>(1);
  auto tapped = std::make_shared<CountingBackend>(local);
  std::mutex images_mutex;
  std::vector<std::shared_ptr<storage::MemoryBackend>> images;
  tapped->after_install = [&](std::size_t shard) {
    if (shard < local->shard_count()) {
      const std::lock_guard lock(images_mutex);
      images.push_back(local->capture());
    }
  };
  auto link = std::make_shared<ImagingLink>(
      std::make_shared<storage::MemoryBackend>(1));
  auto primary = std::make_shared<storage::ReplicatedBackend>(
      tapped, storage::AckMode::ack_one);
  primary->attach_peer(link);

  constexpr std::uint64_t kClient = 0xB0B;
  constexpr int kBumps = 3;
  std::optional<core::Capability> counter;
  std::size_t primary_images = 0;
  {
    net::Network net;
    net::Machine& server_machine = net.add_machine("server");
    net::Machine& client_machine = net.add_machine("client");
    CompactingService service(server_machine, Port(0xC4C4), primary);
    counter = service.counter();
    service.start(1);
    const Port reply_get(0x5555);
    net::Receiver replies = client_machine.listen(reply_get);
    {
      const std::lock_guard lock(images_mutex);
      images.clear();
    }
    // The counter's create compacted at once, and that snapshot ships
    // without an ack wait: let it land before clearing, or its image (a
    // counter of 0, before any bump) would be checked as a bump's.
    for (int i = 0; i < 1000; ++i) {
      const auto stats = primary->stats();
      if (stats.peers[0].queued == 0 &&
          stats.peers[0].acked_lsn >= stats.shipped_lsn) {
        break;
      }
      std::this_thread::sleep_for(1ms);
    }
    (void)link->take_images();
    for (std::uint64_t seq = 1; seq <= kBumps; ++seq) {
      ASSERT_TRUE(client_machine.transmit(
          stamped(service.put_port(), CompactingService::kBump, kClient, seq,
                  reply_get),
          server_machine.id()));
      const auto reply = replies.receive({}, 2'000ms);
      ASSERT_TRUE(reply.has_value());
      EXPECT_EQ(reply->message.header.status, ErrorCode::ok);
    }
    EXPECT_EQ(service.value(), kBumps);
  }
  std::vector<std::shared_ptr<storage::MemoryBackend>> backup_images;
  for (int i = 0; i < 1000 && backup_images.size() < kBumps; ++i) {
    for (auto& image : link->take_images()) {
      backup_images.push_back(std::move(image));
    }
    std::this_thread::sleep_for(2ms);
  }
  {
    const std::lock_guard lock(images_mutex);
    primary_images = images.size();
    for (auto& image : backup_images) {
      images.push_back(std::move(image));
    }
  }
  EXPECT_GE(primary_images, static_cast<std::size_t>(kBumps));
  EXPECT_GE(backup_images.size(), static_cast<std::size_t>(kBumps));

  for (std::size_t i = 0; i < images.size(); ++i) {
    const char* where = i < primary_images ? "primary" : "backup";
    net::Network net;
    net::Machine& server_machine = net.add_machine("server");
    net::Machine& client_machine = net.add_machine("client");
    CompactingService restarted(server_machine, Port(0xC4C4), images[i],
                                counter);
    const int held = restarted.value();
    ASSERT_GE(held, 1) << where << " image " << i << " lacks its effect";
    restarted.start(1);
    const Port dup_get(0x5656);
    const Port fresh_get(0x5757);
    net::Receiver dup_replies = client_machine.listen(dup_get);
    net::Receiver fresh_replies = client_machine.listen(fresh_get);
    // Re-send every bump the image holds, then one fresh bump from another
    // client: one worker serves them in order, so its reply means every
    // duplicate has been dealt with.
    for (std::uint64_t seq = 1; seq <= static_cast<std::uint64_t>(held);
         ++seq) {
      ASSERT_TRUE(client_machine.transmit(
          stamped(restarted.put_port(), CompactingService::kBump, kClient,
                  seq, dup_get),
          server_machine.id()));
    }
    ASSERT_TRUE(client_machine.transmit(
        stamped(restarted.put_port(), CompactingService::kBump, kClient + 1,
                1, fresh_get),
        server_machine.id()));
    ASSERT_TRUE(fresh_replies.receive({}, 2'000ms).has_value());
    EXPECT_EQ(restarted.value(), held + 1)
        << "a duplicate ran twice after restarting from the " << where
        << " image " << i;
  }
}

}  // namespace
}  // namespace amoeba
