// The reply stream (docs/PROTOCOL.md §8.4): rpc::Service persists its
// at-most-once state as O(1)-byte reply_floor / reply_body records in a
// reserved journal stream of the volume, imaged at each checkpoint from
// the bounded in-memory cache.  These tests pin the properties that design
// promises:
//
//   * bytes written per request stay flat as clients churn;
//   * a restarted server never recovers more rows than the cache's own
//     tombstone bound;
//   * the decoders survive field-level mutation (AMOEBA_TEST_SEED);
//   * a request -- a whole batch envelope included -- waits for
//     durability once, after its handler, and its reply never leaves
//     before its floor and effects are durable;
//   * that wait is the replier's: one worker handles request after
//     request while their replies wait for a shared flush, a failed
//     flush answers every parked reply `internal`, destroying the server
//     sends what is parked, and only the committer's flusher takes the
//     reply stream's checkpoint image;
//   * a handler's outgoing call never leaves before its effects do;
//   * a checkpoint taken while a request's floor and effect are queued
//     never leaves the effect without its floor, on the primary or on a
//     backup that applied the checkpoint frame;
//   * a read journals nothing (§5.5): 1,000 balance calls leave a file
//     volume untouched, a read racing a transfer whose flush fails never
//     reports that transfer, and a read-through call still journals its
//     floor before it leaves;
//   * the incarnation survives a checkpoint and a resync, and a promoted
//     backup's server draws a higher one.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/object_store.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/batch.hpp"
#include "amoeba/rpc/replication.hpp"
#include "amoeba/rpc/server.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/servers/block_server.hpp"
#include "amoeba/servers/common.hpp"
#include "amoeba/servers/flat_file_server.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/record.hpp"
#include "amoeba/storage/replication/replica.hpp"
#include "amoeba/storage/replication/replicated_backend.hpp"
#include "amoeba/storage/replication/wire.hpp"
#include "amoeba/storage/reply_stream.hpp"
#include "test_seed.hpp"
#include "volumes.hpp"

namespace amoeba {
namespace {

using namespace std::chrono_literals;

/// Forwards to another volume and counts every byte handed to it for
/// writing: whole frames, images included.  `after_checkpoint`, when set,
/// runs after each log replacement (a checkpoint frame).
class CountingBackend final : public storage::Backend {
 public:
  explicit CountingBackend(std::shared_ptr<storage::Backend> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::uint64_t bytes() const { return bytes_.load(); }

  std::function<void()> after_checkpoint;

  [[nodiscard]] std::size_t shard_count() const override {
    return inner_->shard_count();
  }
  void append_frames(std::span<const std::uint8_t> frames) override {
    bytes_ += frames.size();
    inner_->append_frames(frames);
  }
  void replace_log(std::span<const std::uint8_t> frames) override {
    bytes_ += frames.size();
    inner_->replace_log(frames);
    if (after_checkpoint) {
      after_checkpoint();
    }
  }
  [[nodiscard]] Buffer read_log() const override { return inner_->read_log(); }
  [[nodiscard]] std::uint64_t last_seq() const override {
    return inner_->last_seq();
  }
  [[nodiscard]] std::uint64_t log_bytes() const override {
    return inner_->log_bytes();
  }
  [[nodiscard]] Buffer read_stream(std::size_t stream) const override {
    return inner_->read_stream(stream);
  }

 private:
  std::shared_ptr<storage::Backend> inner_;
  std::atomic<std::uint64_t> bytes_{0};
};

/// A minimal durable service.  kEcho answers with the request's data;
/// kEffect first journals one record on object shard 0 and waits for it
/// (a mutating handler's shape).  Both count their executions and note
/// the thread they ran on.
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
    attach_durability(committer_);
    on(kEcho, [this](const net::Delivery& request) {
      ++executions;
      handler_thread = std::this_thread::get_id();
      net::Message reply = net::make_reply(request.message, ErrorCode::ok);
      reply.data = request.message.data;
      return reply;
    });
    on(kEffect, [this](const net::Delivery& request) {
      ++executions;
      handler_thread = std::this_thread::get_id();
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
  std::atomic<std::thread::id> handler_thread{};

 private:
  std::shared_ptr<storage::GroupCommitter> committer_;
  std::atomic<std::uint64_t> effect_lsn_{0};
};

/// A memory volume whose journal writes wait at a gate: while it is
/// closed, a flush cycle stays in its backend write, and once it opens
/// the write goes through -- or throws, when opened with `fail`.
class GatedBackend final : public storage::Backend {
 public:
  explicit GatedBackend(std::size_t shards)
      : inner_(std::make_shared<storage::MemoryBackend>(shards)) {}

  void close() {
    const std::lock_guard lock(mutex_);
    open_ = false;
  }
  void open(bool fail = false) {
    {
      const std::lock_guard lock(mutex_);
      open_ = true;
      fail_ = fail;
    }
    cv_.notify_all();
  }

  [[nodiscard]] std::size_t shard_count() const override {
    return inner_->shard_count();
  }
  void append_frames(std::span<const std::uint8_t> frames) override {
    pass_gate();
    inner_->append_frames(frames);
  }
  void replace_log(std::span<const std::uint8_t> frames) override {
    pass_gate();
    inner_->replace_log(frames);
  }
  [[nodiscard]] Buffer read_log() const override { return inner_->read_log(); }
  [[nodiscard]] std::uint64_t last_seq() const override {
    return inner_->last_seq();
  }
  [[nodiscard]] std::uint64_t log_bytes() const override {
    return inner_->log_bytes();
  }
  [[nodiscard]] Buffer read_stream(std::size_t stream) const override {
    return inner_->read_stream(stream);
  }

 private:
  void pass_gate() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return open_; });
    if (fail_) {
      throw std::runtime_error("GatedBackend: write failed");
    }
  }

  std::shared_ptr<storage::MemoryBackend> inner_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = true;
  bool fail_ = false;
};

/// Polls until `done()` holds or two seconds pass; returns done().
template <typename Pred>
[[nodiscard]] bool eventually(Pred done) {
  for (int i = 0; i < 2'000 && !done(); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  return done();
}

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
    service.committer().checkpoint();
  }  // the committer's destructor drains its queue
  // The checkpoint imaged the stream, bounded like the cache it images.
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

  for (int iter = 0; iter < 4000; ++iter) {
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
        // An incarnation record with a mutated payload: it names exactly
        // its one nonzero u64 or nothing, and never touches a row.
        std::vector<Field> payload = {{8, 1 + rng.below(9), {}}};
        for (std::uint64_t m = 1 + rng.below(2); m > 0; --m) {
          mutate(payload, rng);
        }
        const Buffer bytes = serialize(payload);
        Buffer framed;
        storage::encode_record_into(storage::RecordType::incarnation,
                                    ObjectNumber{}, 0, 1, bytes, framed);
        for (const storage::Record& record : storage::decode_journal(framed)) {
          const auto number = storage::decode_reply_incarnation(record);
          const bool well_formed = payload.size() == 1 &&
                                   payload[0].width == 8 &&
                                   payload[0].value != 0;
          EXPECT_EQ(number.has_value(), well_formed);
          if (number.has_value()) {
            EXPECT_EQ(*number, payload[0].value);
          }
          const storage::ReplyRows unchanged = rows;
          EXPECT_FALSE(storage::merge_reply_record(record, rows));
          EXPECT_TRUE(same_rows(rows, unchanged))
              << "an incarnation made a row";
        }
        break;
      }
      default: {
        // A reply-stream snapshot: mutate the header, a slot frame, or a
        // row inside a slot.
        std::vector<Field> image = {{4, 0x414D534Eu, {}},
                                    {2, 1, {}},
                                    {8, 40, {}},
                                    {4, 3, {}}};
        std::vector<Field> incarnation_slot = {{8, 3 + rng.below(9), {}}};
        if (rng.below(2) == 0) {
          mutate(incarnation_slot, rng);
        }
        const Buffer number = serialize(incarnation_slot);
        image.push_back({4, 1, {}});  // object 1: the incarnation
        image.push_back({8, 0, {}});  // secret
        image.push_back({4, number.size(), {}});
        image.push_back({0, 0, number});
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
        constexpr std::uint64_t kKnown = 5;
        std::uint64_t incarnation = kKnown;
        if (!storage::merge_reply_snapshot(serialize(image), rows, applied,
                                           &incarnation)) {
          EXPECT_TRUE(same_rows(rows, unchanged)) << "half-applied image";
          EXPECT_EQ(incarnation, kKnown) << "half-applied image";
        }
        EXPECT_GE(incarnation, kKnown) << "the incarnation moved backwards";
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
    Buffer journal;
    storage::encode_snapshot_record(serialize(image), journal);
    std::vector<Field> record = {{4, 3, {}}, {8, 30, {}}, {8, 12, {}}};
    mutate(record, rng);
    storage::encode_record_into(storage::RecordType::reply_floor,
                                ObjectNumber{}, 0, 5, serialize(record),
                                journal);
    test::append_run(*volume, volume->reply_stream(), journal);
    try {
      CountingService service(machine, Port(0xC2C2), volume, 8, 16);
      EXPECT_LE(service.reply_cache_stats().clients, 2u);
    } catch (const UsageError&) {
      // A corrupt snapshot frame refuses to boot, like an object shard's.
    }
  }
}

TEST(ReplyStreamTest, SnapshotInstallKeepsRecordsPastItsLsn) {
  // rpc::Service queues a committed volume's reply-stream snapshot while
  // other workers go on appending: a record past the snapshot's LSN that
  // reached the volume first must survive the image.
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
      committer.install_snapshot(stream,
                                 storage::encode_reply_snapshot(rows, 2));
      committer.wait_durable(committer.issued());
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
// Replies wait on the replier, not on a worker.

/// A `kEntries`-entry envelope of kEffect entries from `client`/`seq`.
[[nodiscard]] net::Message effect_envelope(Port dest, std::uint64_t client,
                                           std::uint64_t seq, Port reply,
                                           std::size_t entries) {
  std::vector<rpc::BatchRequest> subs(entries);
  for (rpc::BatchRequest& sub : subs) {
    sub.opcode = CountingService::kEffect;
  }
  net::Message request = stamped(dest, rpc::kBatchOpcode, client, seq, reply,
                                 rpc::encode_batch(subs));
  request.header.flags |= net::kFlagBatch;
  return request;
}

TEST(ReplyStreamTest, OneWorkerHandlesEveryRequestWhileRepliesWaitForAFlush) {
  // One worker, and a flush cycle held at the acknowledgement point: the
  // worker must go on handling the other clients' requests instead of
  // waiting for the first one's durability, and once the cycle completes
  // every reply leaves after at most one more cycle.  The gate lets
  // exactly two cycles through once it opens and holds any third, so the
  // replies must share those two.
  net::Network net;
  net::Machine& server_machine = net.add_machine("server");
  net::Machine& client_machine = net.add_machine("client");
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  int passes = -1;  // cycles the gate still lets through; -1: unlimited
  CountingService service(server_machine, Port(0xC7C7),
                          std::make_shared<storage::MemoryBackend>(2), 16, 64);
  struct OpenOnExit {  // the server's destructor must not hang on the gate
    std::mutex& mutex;
    std::condition_variable& cv;
    int& passes;
    ~OpenOnExit() {
      {
        const std::lock_guard lock(mutex);
        passes = -1;
      }
      cv.notify_all();
    }
  } open_on_exit{gate_mutex, gate_cv, passes};
  service.committer().set_post_flush_hook([&](const auto&) {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return passes != 0; });
    if (passes > 0) {
      --passes;
    }
  });
  service.start(1);
  const Port reply_get(0x5858);
  net::Receiver replies = client_machine.listen(reply_get);

  constexpr int kClients = 8;
  const std::uint64_t groups_before = service.committer().stats().groups;
  {
    const std::lock_guard lock(gate_mutex);
    passes = 0;
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(client_machine.transmit(
        stamped(service.put_port(), CountingService::kEffect, 0xD000 + c, 1,
                reply_get),
        server_machine.id()));
  }
  EXPECT_TRUE(eventually([&] { return service.executions.load() == kClients; }))
      << "the worker waited for a flush: " << service.executions.load()
      << " of " << kClients << " handlers ran";
  EXPECT_FALSE(replies.receive({}, 100ms).has_value())
      << "a reply left before its flush was durable";
  {
    const std::lock_guard lock(gate_mutex);
    passes = 2;
  }
  gate_cv.notify_all();
  for (int c = 0; c < kClients; ++c) {
    const auto reply = replies.receive({}, 2'000ms);
    ASSERT_TRUE(reply.has_value()) << "reply " << c;
    EXPECT_EQ(reply->message.header.status, ErrorCode::ok);
  }
  EXPECT_LE(service.committer().stats().groups - groups_before, 2u)
      << "the parked replies did not share their flushes";
}

TEST(ReplyStreamTest, ParkedRepliesAnswerInternalWhenTheFlushFails) {
  // A single request and a 32-entry envelope are parked behind a cycle
  // whose backend write then throws: the committer latches failed, both
  // answer `internal` -- no envelope entry reads ok -- and a retransmit
  // of either is answered from the reply cache, not executed again.
  net::Network net;
  net::Machine& server_machine = net.add_machine("server");
  net::Machine& client_machine = net.add_machine("client");
  auto volume = std::make_shared<GatedBackend>(2);
  CountingService service(server_machine, Port(0xC8C8), volume, 16, 64);
  struct FailOnExit {  // a failed assertion must not leave the gate shut
    GatedBackend& volume;
    ~FailOnExit() { volume.open(/*fail=*/true); }
  } fail_on_exit{*volume};
  service.start(1);
  const Port reply_get(0x5959);
  net::Receiver replies = client_machine.listen(reply_get);
  constexpr std::uint64_t kSingle = 0xE001;
  constexpr std::uint64_t kPayroll = 0xE002;
  constexpr std::size_t kEntries = 32;

  volume->close();
  const net::Message single =
      stamped(service.put_port(), CountingService::kEffect, kSingle, 1,
              reply_get);
  const net::Message payroll =
      effect_envelope(service.put_port(), kPayroll, 1, reply_get, kEntries);
  ASSERT_TRUE(client_machine.transmit(single, server_machine.id()));
  ASSERT_TRUE(eventually([&] { return service.executions.load() == 1; }));
  ASSERT_TRUE(client_machine.transmit(payroll, server_machine.id()));
  ASSERT_TRUE(eventually([&] {
    return service.executions.load() == 1 + static_cast<int>(kEntries);
  }));
  EXPECT_FALSE(replies.receive({}, 100ms).has_value())
      << "a reply left before its flush was durable";
  volume->open(/*fail=*/true);

  const auto expect_internal = [&](const net::Message& reply) {
    EXPECT_EQ(reply.header.status, ErrorCode::internal);
    const auto entries = rpc::decode_batch_reply(reply.data);
    if (entries.has_value()) {
      for (const rpc::BatchReply& entry : *entries) {
        EXPECT_NE(entry.status, ErrorCode::ok) << "an entry read ok";
      }
    }
  };
  for (int i = 0; i < 2; ++i) {
    const auto reply = replies.receive({}, 2'000ms);
    ASSERT_TRUE(reply.has_value()) << "reply " << i;
    expect_internal(reply->message);
  }
  const int executed = service.executions.load();
  ASSERT_TRUE(client_machine.transmit(single, server_machine.id()));
  ASSERT_TRUE(client_machine.transmit(payroll, server_machine.id()));
  for (int i = 0; i < 2; ++i) {
    const auto reply = replies.receive({}, 2'000ms);
    ASSERT_TRUE(reply.has_value()) << "retransmit " << i;
    expect_internal(reply->message);
  }
  EXPECT_EQ(service.executions.load(), executed) << "a retransmit ran again";
  EXPECT_EQ(service.reply_cache_stats().replies_resent, 2u);
}

TEST(ReplyStreamTest, DestroyingAServerSendsItsParkedReplies) {
  // The server is destroyed while its replies are parked behind a closed
  // gate that another thread opens: destruction waits for them, sends
  // them, and only then lets the committer they wait on go.
  net::Network net;
  net::Machine& server_machine = net.add_machine("server");
  net::Machine& client_machine = net.add_machine("client");
  const Port reply_get(0x5A5A);
  net::Receiver replies = client_machine.listen(reply_get);
  auto volume = std::make_shared<GatedBackend>(2);
  constexpr int kClients = 4;
  std::jthread opener;
  {
    CountingService service(server_machine, Port(0xC9C9), volume, 16, 64);
    // Destroyed just before the server: the gate opens from `opener`
    // while the server's destructor is already waiting.
    struct OpenLater {
      std::jthread& opener;
      GatedBackend& volume;
      ~OpenLater() {
        opener = std::jthread([&gate = volume] {
          std::this_thread::sleep_for(50ms);
          gate.open();
        });
      }
    } open_later{opener, *volume};
    service.start(1);
    volume->close();
    for (int c = 0; c < kClients; ++c) {
      ASSERT_TRUE(client_machine.transmit(
          stamped(service.put_port(), CountingService::kEffect, 0xF000 + c,
                  1, reply_get),
          server_machine.id()));
    }
    ASSERT_TRUE(
        eventually([&] { return service.executions.load() == kClients; }));
    EXPECT_FALSE(replies.receive({}, 50ms).has_value())
        << "a reply left before its flush was durable";
  }
  opener.join();
  for (int c = 0; c < kClients; ++c) {
    const auto reply = replies.receive({}, 2'000ms);
    ASSERT_TRUE(reply.has_value()) << "parked reply " << c << " was lost";
    EXPECT_EQ(reply->message.header.status, ErrorCode::ok);
  }
}

TEST(ReplyStreamTest, OnlyTheFlusherTakesTheReplyStreamImage) {
  // Reply bodies are appended by the replier while checkpoints are
  // requested from outside: each image is taken and written on the
  // committer's flusher -- the thread that runs the post-flush hook --
  // never on the replier every parked reply waits behind, nor on a
  // worker.
  auto volume = std::make_shared<CountingBackend>(
      std::make_shared<storage::MemoryBackend>(2));
  std::mutex installers_mutex;
  std::vector<std::thread::id> installers;
  volume->after_checkpoint = [&] {
    const std::lock_guard lock(installers_mutex);
    installers.push_back(std::this_thread::get_id());
  };
  net::Network net;
  net::Machine& server_machine = net.add_machine("server");
  net::Machine& client_machine = net.add_machine("client");
  CountingService service(server_machine, Port(0xCACA), volume, 16, 64);
  std::atomic<std::thread::id> flusher{};
  service.committer().set_post_flush_hook(
      [&](const auto&) { flusher = std::this_thread::get_id(); });
  service.start(1);
  const Port reply_get(0x5B5B);
  net::Receiver replies = client_machine.listen(reply_get);
  const Buffer body(1024, 0x5A);
  for (std::uint64_t seq = 1; seq <= 300; ++seq) {
    ASSERT_TRUE(client_machine.transmit(
        stamped(service.put_port(), CountingService::kEcho, 0xABC, seq,
                reply_get, body),
        server_machine.id()));
    ASSERT_TRUE(replies.receive({}, 2'000ms).has_value()) << "seq " << seq;
    if (seq % 100 == 0) {
      service.committer().checkpoint();
    }
  }
  service.stop();
  const std::thread::id worker = service.handler_thread.load();
  ASSERT_NE(flusher.load(), std::thread::id{}) << "no cycle ran the hook";
  const std::lock_guard lock(installers_mutex);
  EXPECT_EQ(installers.size(), 3u);
  for (const std::thread::id installer : installers) {
    EXPECT_EQ(installer, flusher.load())
        << "a checkpoint was written off the flusher";
    EXPECT_NE(installer, worker) << "a worker wrote a checkpoint";
  }
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
    attach_durability(committer_);
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

/// A group-committed int store's codec on `committer`'s volume.
[[nodiscard]] core::Durability<int> counter_durability(
    std::shared_ptr<storage::GroupCommitter> committer) {
  core::Durability<int> d;
  d.committer = std::move(committer);
  d.encode = [](Writer& w, const int& v) {
    w.u32(static_cast<std::uint32_t>(v));
  };
  d.decode = [](Reader& r, int& v) {
    v = static_cast<int>(r.u32());
    return r.ok();
  };
  return d;
}

/// A durable service over an object store whose kBump increments one
/// counter object and then takes a checkpoint of the volume, while its
/// floor and effect are queued and not yet durable.
class CheckpointingService final : public rpc::Service {
 public:
  static constexpr std::uint16_t kBump = 0x0103;

  CheckpointingService(net::Machine& machine, Port port,
                       std::shared_ptr<storage::Backend> volume,
                       std::optional<core::Capability> counter = std::nullopt)
      : Service(machine, port, "checkpointing"),
        committer_(std::make_shared<storage::GroupCommitter>(volume)),
        store_(scheme(), port, 5, 1, counter_durability(committer_)),
        counter_(counter.has_value() ? *counter : store_.create(0)) {
    attach_durability(committer_);
    on(kBump, [this](const net::Delivery& request) {
      {
        auto opened = store_.open(counter_, Rights::all());
        if (!opened.ok()) {
          return net::make_reply(request.message, opened.error());
        }
        ++*opened.value().value;
        opened.value().mark_dirty();
      }  // released: journaled behind the request's floor
      committer_->checkpoint();
      return net::make_reply(request.message, ErrorCode::ok);
    });
  }
  ~CheckpointingService() override { stop(); }

  [[nodiscard]] storage::GroupCommitter& committer() { return *committer_; }

  [[nodiscard]] const core::Capability& counter() const { return counter_; }
  [[nodiscard]] int value() {
    auto opened = store_.open(counter_, Rights::all());
    return opened.ok() ? *opened.value().value : -1;
  }

 private:
  std::shared_ptr<storage::GroupCommitter> committer_;
  core::ObjectStore<int> store_;
  core::Capability counter_;
};

/// kHold bumps one counter object and, still holding its shard lock,
/// waits for release() and then calls `downstream` through its own
/// Transport (the flat-file server's shape: it holds an inode across its
/// block-server calls).
class ShardHoldingService final : public rpc::Service {
 public:
  static constexpr std::uint16_t kHold = 0x0104;

  ShardHoldingService(net::Machine& machine, Port port,
                      std::shared_ptr<storage::Backend> volume,
                      Port downstream)
      : Service(machine, port, "holding"),
        committer_(std::make_shared<storage::GroupCommitter>(volume)),
        store_(scheme(), port, 7, 1, counter_durability(committer_)),
        counter_(store_.create(0)),
        transport_(machine, 19) {
    attach_durability(committer_);
    on(kHold, [this, downstream](const net::Delivery& request) {
      auto opened = store_.open(counter_, Rights::all());
      if (!opened.ok()) {
        return net::make_reply(request.message, opened.error());
      }
      ++*opened.value().value;
      opened.value().mark_dirty();
      {
        std::unique_lock lock(gate_mutex_);
        holding_ = true;
        gate_cv_.notify_all();
        gate_cv_.wait(lock, [&] { return released_; });
      }
      net::Message ping;
      ping.header.dest = downstream;
      ping.header.opcode = SinkService::kPing;
      const auto answer = transport_.trans(std::move(ping), 2'000ms);
      return net::make_reply(request.message,
                             answer.ok() ? answer.value().message.header.status
                                         : answer.error());
    });
  }
  ~ShardHoldingService() override {
    release();
    stop();
  }

  [[nodiscard]] storage::GroupCommitter& committer() { return *committer_; }

  /// Blocks until a kHold handler holds the counter's shard lock.
  void wait_holding() {
    std::unique_lock lock(gate_mutex_);
    gate_cv_.wait(lock, [&] { return holding_; });
  }
  void release() {
    {
      const std::lock_guard lock(gate_mutex_);
      released_ = true;
    }
    gate_cv_.notify_all();
  }
  [[nodiscard]] int value() {
    auto opened = store_.open(counter_, Rights::all());
    return opened.ok() ? *opened.value().value : -1;
  }

 private:
  std::shared_ptr<storage::GroupCommitter> committer_;
  core::ObjectStore<int> store_;
  core::Capability counter_;
  rpc::Transport transport_;
  std::mutex gate_mutex_;
  std::condition_variable gate_cv_;
  bool holding_ = false;
  bool released_ = false;
};

TEST(ReplyStreamTest, ACheckpointNeverWaitsOnAShardHeldAcrossACall) {
  // A handler holding a shard lock across an outgoing call first waits
  // for its request's floor, which only the flusher writes.  A checkpoint
  // requested while the lock is held must not wait for it on the flusher:
  // it finds the shard busy, flushes the floor's cycle, and retries once
  // the handler is done.  Both the request and the checkpoint finish.
  net::Network net;
  net::Machine& server_machine = net.add_machine("server");
  net::Machine& sink_machine = net.add_machine("sink");
  net::Machine& client_machine = net.add_machine("client");
  SinkService sink(sink_machine, Port(0xC8C8));
  sink.start(1);
  ShardHoldingService service(server_machine, Port(0xC7C7),
                              std::make_shared<storage::MemoryBackend>(1),
                              sink.put_port());
  service.start(1);
  const Port reply_get(0x5757);
  net::Receiver replies = client_machine.listen(reply_get);

  ASSERT_TRUE(client_machine.transmit(
      stamped(service.put_port(), ShardHoldingService::kHold, 0xF1F1, 1,
              reply_get),
      server_machine.id()));
  service.wait_holding();
  auto checkpoint = std::async(std::launch::async,
                               [&] { service.committer().checkpoint(); });
  // Let the flusher reach the held shard before the handler moves on (a
  // flusher that blocks on the lock never counts a retry).
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (service.committer().stats().checkpoint_retries == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  service.release();
  const auto reply = replies.receive({}, 5'000ms);
  if (!reply.has_value() ||
      checkpoint.wait_for(5s) != std::future_status::ready) {
    // A deadlocked flusher cannot be joined: fail without unwinding.
    std::fprintf(stderr, "handler and checkpoint deadlocked\n");
    std::_Exit(1);
  }
  EXPECT_EQ(reply->message.header.status, ErrorCode::ok);
  EXPECT_NO_THROW(checkpoint.get());
  EXPECT_EQ(sink.received.load(), 1);
  const auto stats = service.committer().stats();
  EXPECT_GE(stats.checkpoint_retries, 1u);
  EXPECT_EQ(stats.checkpoints, 1u);
  EXPECT_EQ(service.value(), 1);
}

/// Hands shipments straight to a backup's applier, and images the backup
/// volume right after it applies a checkpoint frame -- before any later
/// frame can land.
class ImagingLink final : public storage::ReplicationLink {
 public:
  explicit ImagingLink(std::shared_ptr<storage::MemoryBackend> volume)
      : volume_(volume), applier_(volume) {}

  [[nodiscard]] std::string peer_name() const override { return "backup"; }
  [[nodiscard]] Result<std::uint64_t> ship_cycle(
      std::span<const std::uint8_t> shipment) override {
    const std::uint64_t before = applier_.applied();
    const Result<std::uint64_t> applied = applier_.apply_shipment(shipment);
    bool resync = false;
    std::span<const std::uint8_t> frames;
    storage::Frame frame;
    if (applied.ok() && applied.value() > before &&
        storage::decode_shipment(shipment, resync, frames) && !resync &&
        storage::decode_frame(frames, frame) > 0 && frame.checkpoint) {
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

TEST(ReplyStreamTest, CheckpointNeverHoldsAnEffectWithoutItsFloor) {
  // Each bump's floor and effect are queued, not yet durable, when its
  // handler requests a checkpoint: the flusher images the shard, then the
  // reply stream, and the checkpoint frame ships to the backup.  Image
  // the primary right after each checkpoint, and the backup right after
  // it applies each one: a server restarted (or promoted) from any of
  // those images must not run a bump whose effect the image already holds
  // a second time.
  auto local = std::make_shared<storage::MemoryBackend>(1);
  auto tapped = std::make_shared<CountingBackend>(local);
  std::mutex images_mutex;
  std::vector<std::shared_ptr<storage::MemoryBackend>> images;
  tapped->after_checkpoint = [&] {
    const std::lock_guard lock(images_mutex);
    images.push_back(local->capture());
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
    CheckpointingService service(server_machine, Port(0xC4C4), primary);
    counter = service.counter();
    service.start(1);
    const Port reply_get(0x5555);
    net::Receiver replies = client_machine.listen(reply_get);
    for (std::uint64_t seq = 1; seq <= kBumps; ++seq) {
      ASSERT_TRUE(client_machine.transmit(
          stamped(service.put_port(), CheckpointingService::kBump, kClient,
                  seq, reply_get),
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
  EXPECT_EQ(primary_images, static_cast<std::size_t>(kBumps));
  EXPECT_EQ(backup_images.size(), static_cast<std::size_t>(kBumps));

  for (std::size_t i = 0; i < images.size(); ++i) {
    const char* where = i < primary_images ? "primary" : "backup";
    net::Network net;
    net::Machine& server_machine = net.add_machine("server");
    net::Machine& client_machine = net.add_machine("client");
    CheckpointingService restarted(server_machine, Port(0xC4C4), images[i],
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
          stamped(restarted.put_port(), CheckpointingService::kBump, kClient,
                  seq, dup_get),
          server_machine.id()));
    }
    ASSERT_TRUE(client_machine.transmit(
        stamped(restarted.put_port(), CheckpointingService::kBump,
                kClient + 1, 1, fresh_get),
        server_machine.id()));
    ASSERT_TRUE(fresh_replies.receive({}, 2'000ms).has_value());
    EXPECT_EQ(restarted.value(), held + 1)
        << "a duplicate ran twice after restarting from the " << where
        << " image " << i;
  }
}

// ---------------------------------------------------------------------
// A read touches no disk (docs/PROTOCOL.md §5.5).

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

/// The number after `key=` in a std_info detail line.
[[nodiscard]] std::uint64_t detail_value(const std::string& line,
                                         const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  EXPECT_NE(at, std::string::npos) << key << " missing from: " << line;
  return at == std::string::npos
             ? 0
             : std::stoull(line.substr(at + key.size() + 2));
}

TEST(ReplyStreamTest, BalanceReadsLeaveAFileVolumeUntouched) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("amoeba_reads_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    net::Network net;
    net::Machine& bank_machine = net.add_machine("bank");
    net::Machine& client_machine = net.add_machine("client");
    servers::BankServer bank(bank_machine, Port(0xBA78), scheme(), 1,
                             std::make_shared<storage::FileBackend>(dir));
    bank.start(2);
    rpc::Transport transport(client_machine, 7);
    servers::BankClient client(transport, bank.put_port());
    const core::Capability account = client.create_account().value();
    ASSERT_TRUE(client
                    .mint(bank.master_capability(), account,
                          servers::currency::kDollar, 5)
                    .ok());
    // A read may find the mint's reply body still queued: its barrier
    // flushes it.  Once a read parks on nothing, the volume is idle.
    for (int i = 0; i < 5; ++i) {
      const std::uint64_t parks = bank.reply_cache_stats().barrier_parks;
      ASSERT_EQ(client.balance(account, servers::currency::kDollar).value(), 5);
      if (bank.reply_cache_stats().barrier_parks == parks) {
        break;
      }
    }
    const auto log = dir / "commit.log";
    const std::uintmax_t size = std::filesystem::file_size(log);
    const std::string before = bank.info_detail();
    const rpc::Service::ReplyCacheStats stats = bank.reply_cache_stats();
    constexpr int kReads = 1'000;
    for (int i = 0; i < kReads; ++i) {
      ASSERT_EQ(client.balance(account, servers::currency::kDollar).value(), 5)
          << "read " << i;
    }
    const std::string after = bank.info_detail();
    EXPECT_EQ(std::filesystem::file_size(log), size);
    EXPECT_EQ(detail_value(after, "gc.groups"),
              detail_value(before, "gc.groups"));
    EXPECT_EQ(detail_value(after, "gc.records"),
              detail_value(before, "gc.records"));
    EXPECT_EQ(bank.reply_cache_stats().floorless_claims,
              stats.floorless_claims + kReads);
    EXPECT_EQ(bank.reply_cache_stats().barrier_parks, stats.barrier_parks);
    EXPECT_EQ(detail_value(after, "reply.floorless_claims"),
              stats.floorless_claims + kReads);
    bank.stop();
  }
  std::filesystem::remove_all(dir);
}

TEST(ReplyStreamTest, AReadRacingATransferWhoseFlushFailsNeverSeesIt) {
  // The transfer's cycle is held in its backend write; the read that
  // follows runs its handler and sees the new balance in memory.  The
  // read journals nothing, so only the barrier -- the newest ticket
  // issued, the transfer's -- keeps its reply in; the write then fails,
  // and the read must answer `internal`, never the transferred balance.
  net::Network net;
  net::Machine& bank_machine = net.add_machine("bank");
  net::Machine& client_machine = net.add_machine("client");
  auto volume = std::make_shared<GatedBackend>(16);
  struct FailOnExit {  // a failed assertion must not leave the gate shut
    GatedBackend& volume;
    ~FailOnExit() { volume.open(/*fail=*/true); }
  } fail_on_exit{*volume};
  servers::BankServer bank(bank_machine, Port(0xBA79), scheme(), 1, volume);
  bank.start(2);
  rpc::Transport transport(client_machine, 11);
  servers::BankClient client(transport, bank.put_port());
  const core::Capability alice = client.create_account().value();
  const core::Capability bob = client.create_account().value();
  ASSERT_TRUE(client
                  .mint(bank.master_capability(), alice,
                        servers::currency::kDollar, 100)
                  .ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(client.balance(bob, servers::currency::kDollar).value(), 0);
  }
  const std::uint64_t reads = calls_of(bank, "bank.balance");
  const std::uint64_t parks = bank.reply_cache_stats().barrier_parks;

  volume->close();
  auto transfer =
      rpc::call_async(transport, bank.put_port(), servers::bank_ops::kTransfer,
                      alice, {servers::currency::kDollar, 30, bob});
  ASSERT_TRUE(
      eventually([&] { return calls_of(bank, "bank.transfer") == 1; }));
  auto read =
      rpc::call_async(transport, bank.put_port(), servers::bank_ops::kBalance,
                      bob, {servers::currency::kDollar});
  ASSERT_TRUE(
      eventually([&] { return calls_of(bank, "bank.balance") == reads + 1; }));
  EXPECT_FALSE(read.wait_for(100ms))
      << "a read left before the transfer it saw was durable";
  EXPECT_EQ(bank.reply_cache_stats().barrier_parks, parks + 1);
  volume->open(/*fail=*/true);

  const auto seen = read.get();
  if (seen.ok()) {
    ADD_FAILURE() << "the read answered ok, balance " << seen.value().balance;
  } else {
    EXPECT_EQ(seen.error(), ErrorCode::internal);
  }
  const auto moved = transfer.get();
  EXPECT_FALSE(moved.ok());
}

TEST(ReplyStreamTest, AReadThroughCallJournalsItsFloorBeforeItLeaves) {
  // A flat-file read writes nothing on the file server's volume; its one
  // side effect is the call to the block server.  The floor it deferred
  // must be durable before that call leaves the worker.
  net::Network net;
  net::Machine& block_machine = net.add_machine("blocks");
  net::Machine& file_machine = net.add_machine("files");
  net::Machine& client_machine = net.add_machine("client");
  servers::BlockServer::Geometry geometry;
  geometry.block_count = 64;
  geometry.block_size = 64;
  servers::BlockServer blocks(block_machine, Port(0xB10D), scheme(), 3,
                              geometry);
  blocks.start(1);
  auto volume = std::make_shared<storage::MemoryBackend>(16);
  servers::FlatFileServer files(file_machine, Port(0xF11F), scheme(), 4,
                                blocks.put_port(), volume);
  files.start(1);
  rpc::Transport transport(client_machine, 13);
  servers::FlatFileClient client(transport, files.put_port());
  const core::Capability file = client.create().value();
  ASSERT_TRUE(client.write(file, 0, bytes_of("read me")).ok());
  ASSERT_TRUE(client.read(file, 0, 4).ok());  // stamped from here on

  std::atomic<std::uint64_t> seq{0};
  std::atomic<int> calls{0};
  std::atomic<int> covered{0};
  const std::pair<std::uint32_t, std::uint64_t> row_key{
      client_machine.id().value(), transport.client_id()};
  net::TapHandle tap = net.attach_tap([&](const net::TapRecord& record) {
    if (record.kind != net::FrameKind::data) {
      return;
    }
    if (record.src == client_machine.id() && record.dst == file_machine.id()) {
      seq = record.message.header.seq;
    } else if (record.src == file_machine.id() &&
               record.dst == block_machine.id()) {
      ++calls;
      std::uint64_t last_lsn = 0;
      const storage::ReplyRows rows =
          storage::read_reply_stream(*volume, last_lsn);
      const auto row = rows.find(row_key);
      if (row != rows.end() && row->second.floor >= seq.load()) {
        ++covered;
      }
    }
  });
  const std::uint64_t floorless = files.reply_cache_stats().floorless_claims;
  const auto data = client.read(file, 0, 7);
  tap = net::TapHandle();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), bytes_of("read me"));
  EXPECT_GT(calls.load(), 0) << "the read made no call to the block server";
  EXPECT_EQ(covered.load(), calls.load())
      << "a call left before the request's floor was durable";
  EXPECT_EQ(files.reply_cache_stats().floorless_claims, floorless);
}

TEST(ReplyStreamTest, IncarnationSurvivesACheckpoint) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("amoeba_incarnation_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  net::Network net;
  net::Machine& server_machine = net.add_machine("server");
  net::Machine& client_machine = net.add_machine("client");
  const Port reply_get(0x5C5C);
  net::Receiver replies = client_machine.listen(reply_get);
  std::uint64_t first = 0;
  {
    auto volume = std::make_shared<storage::FileBackend>(dir, 2);
    CountingService service(server_machine, Port(0xCBCB), volume, 16, 64);
    first = service.incarnation();
    EXPECT_GE(first, 1u);
    service.start(1);
    // Unstamped 1 KiB echoes journal floors and bodies; a checkpoint then
    // images the stream, incarnation included, into a fresh log.
    const Buffer body(1024, 0x17);
    for (std::uint64_t seq = 1; seq <= 300; ++seq) {
      ASSERT_TRUE(client_machine.transmit(
          stamped(service.put_port(), CountingService::kEcho, 0xABD, seq,
                  reply_get, body),
          server_machine.id()));
      ASSERT_TRUE(replies.receive({}, 2'000ms).has_value()) << "seq " << seq;
    }
    service.committer().checkpoint();
    EXPECT_EQ(service.committer().stats().checkpoints, 1u);
    service.stop();
  }
  {
    auto volume = std::make_shared<storage::FileBackend>(dir, 2);
    // The boot's own record is folded away; the image carries the number.
    const std::size_t stream = volume->reply_stream();
    for (const storage::Record& record :
         storage::decode_journal(volume->read_journal(stream))) {
      EXPECT_NE(record.type, storage::RecordType::incarnation)
          << "the stream never imaged the incarnation record";
    }
    storage::ReplyRows rows;
    std::uint64_t applied = 0;
    std::uint64_t imaged = 0;
    ASSERT_TRUE(storage::merge_reply_snapshot(volume->read_snapshot(stream),
                                              rows, applied, &imaged));
    EXPECT_EQ(imaged, first);
    CountingService service(server_machine, Port(0xCBCB), volume, 16, 64);
    EXPECT_EQ(service.incarnation(), first + 1);
  }
  {
    // The second boot's record, never imaged, rides the log alone.
    auto volume = std::make_shared<storage::FileBackend>(dir, 2);
    CountingService service(server_machine, Port(0xCBCB), volume, 16, 64);
    EXPECT_EQ(service.incarnation(), first + 2);
  }
  std::filesystem::remove_all(dir);
}

TEST(ReplyStreamTest, IncarnationSurvivesAResyncAndPromotionDrawsAboveIt) {
  net::Network net;
  net::Machine& primary_machine = net.add_machine("primary");
  net::Machine& backup_machine = net.add_machine("backup");
  net::Machine& client_machine = net.add_machine("client");
  const Port reply_get(0x5D5D);
  net::Receiver replies = client_machine.listen(reply_get);
  const auto echo = [&](rpc::Service& service, std::uint64_t client) {
    ASSERT_TRUE(client_machine.transmit(
        stamped(service.put_port(), CountingService::kEcho, client, 1,
                reply_get),
        service.machine().id()));
    ASSERT_TRUE(replies.receive({}, 2'000ms).has_value());
  };
  auto primary_volume = std::make_shared<storage::MemoryBackend>(2);
  std::uint64_t first = 0;
  {
    CountingService boot(primary_machine, Port(0xCDCD), primary_volume, 16,
                         64);
    first = boot.incarnation();
    boot.start(1);
    echo(boot, 0xE1);
  }
  // A backup attaches after the fact: the attach resync brings it the
  // first boot's incarnation with the rest of the stream.
  rpc::ReplicaServer replica(backup_machine, Port(0x7B02), scheme(), 13,
                             std::make_shared<storage::MemoryBackend>(2));
  replica.start(1);
  const auto backup_incarnation = [&] {
    std::uint64_t last_lsn = 0;
    std::uint64_t incarnation = 0;
    (void)storage::read_reply_stream(*replica.backend(), last_lsn,
                                     &incarnation);
    return incarnation;
  };
  std::uint64_t second = 0;
  {
    auto replicated = rpc::replicate_to(
        primary_volume, storage::AckMode::ack_one, primary_machine, 17,
        {{"backup", replica.volume_capability()}});
    EXPECT_TRUE(eventually([&] { return backup_incarnation() == first; }))
        << "the resync lost the incarnation: " << backup_incarnation();
    CountingService boot(primary_machine, Port(0xCDCD), replicated, 16, 64);
    second = boot.incarnation();
    EXPECT_EQ(second, first + 1);
    boot.start(1);
    echo(boot, 0xE2);  // ack-one: its reply waited for the backup
    EXPECT_EQ(backup_incarnation(), second);
  }
  rpc::Transport transport(client_machine, 19);
  ASSERT_TRUE(rpc::rep_promote(transport, replica.volume_capability()).ok());
  CountingService promoted(backup_machine, Port(0xCDCD), replica.backend(), 16,
                           64);
  EXPECT_GT(promoted.incarnation(), second);
}

}  // namespace
}  // namespace amoeba
