// Primary/backup replication (docs/PROTOCOL.md §9): the cycle-frame
// codec, the replica applier's LSN-floor idempotence, the post-flush
// shipping hook's ordering contract, and the full primary -> backup
// pipeline over the in-process network -- including PR-4 link faults on
// the replication link (drop/duplicate/reorder must never tear a group
// or double-apply an LSN) and the deposed-primary fence.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "amoeba/common/error.hpp"
#include "amoeba/common/rng.hpp"
#include "amoeba/core/object_store.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/replication.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/replication/replica.hpp"
#include "amoeba/storage/replication/replicated_backend.hpp"
#include "amoeba/storage/replication/wire.hpp"
#include "amoeba/storage/reply_stream.hpp"
#include "test_seed.hpp"

namespace amoeba::storage {
namespace {

using namespace std::chrono_literals;

[[nodiscard]] Buffer bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

[[nodiscard]] Buffer sample_frame(std::uint64_t lsn) {
  const std::vector<ShardAppend> appends = {{0, bytes_of("rec-a")},
                                            {3, bytes_of("rec-b")}};
  return encode_cycle_frame(lsn, appends);
}

/// One framed mutate record (what a real store journals).
[[nodiscard]] Buffer record(std::uint32_t object, std::uint64_t lsn) {
  Buffer out;
  encode_record({RecordType::mutate, ObjectNumber(object), 0x5EC2E7, lsn,
                 Buffer{static_cast<std::uint8_t>(object & 0xFF)}},
                out);
  return out;
}

/// A cycle frame carrying one record on `stream`.
[[nodiscard]] Buffer one_run_frame(std::uint64_t lsn, std::size_t stream) {
  const std::vector<ShardAppend> appends = {
      {stream, record(static_cast<std::uint32_t>(lsn), lsn)}};
  return encode_cycle_frame(lsn, appends);
}

void store_u32(Buffer& bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void store_u64(Buffer& bytes, std::size_t at, std::uint64_t v) {
  store_u32(bytes, at, static_cast<std::uint32_t>(v));
  store_u32(bytes, at + 4, static_cast<std::uint32_t>(v >> 32));
}

/// Rewrites a cycle frame's length and checksum over its (bent) body, so
/// the checksum cannot mask a bent field from the decoder.
void reseal(Buffer& frame) {
  const std::span<const std::uint8_t> body(frame.data() + 8,
                                           frame.size() - 8);
  store_u32(frame, 0, static_cast<std::uint32_t>(body.size()));
  store_u32(frame, 4, frame_checksum(body));
}

/// Every journal of `volume`, by stream.
[[nodiscard]] std::vector<Buffer> journals(const Backend& volume) {
  std::vector<Buffer> out;
  for (std::size_t s = 0; s < volume.stream_count(); ++s) {
    out.push_back(volume.read_journal(s));
  }
  return out;
}

TEST(ReplicationWireTest, CycleFrameRoundTrips) {
  const Buffer frame = sample_frame(7);
  CycleFrame decoded;
  ASSERT_TRUE(decode_cycle_frame(frame, decoded));
  EXPECT_EQ(decoded.rep_lsn, 7u);
  ASSERT_EQ(decoded.appends.size(), 2u);
  EXPECT_EQ(decoded.appends[0].shard, 0u);
  EXPECT_EQ(decoded.appends[0].bytes, bytes_of("rec-a"));
  EXPECT_EQ(decoded.appends[1].shard, 3u);
  EXPECT_EQ(decoded.appends[1].bytes, bytes_of("rec-b"));
}

TEST(ReplicationWireTest, RejectsTornAndCorruptFrames) {
  const Buffer frame = sample_frame(1);
  CycleFrame decoded;
  // Truncation at every prefix length: a torn shipment never half-applies.
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(decode_cycle_frame(
        std::span(frame.data(), len), decoded))
        << "prefix " << len;
  }
  // Trailing garbage is not "one whole frame" either.
  Buffer padded = frame;
  padded.push_back(0x5A);
  EXPECT_FALSE(decode_cycle_frame(padded, decoded));
  // Any single corrupted body byte trips the whole-frame checksum.
  for (std::size_t i = 8; i < frame.size(); ++i) {
    Buffer bent = frame;
    bent[i] ^= 0x01;
    EXPECT_FALSE(decode_cycle_frame(bent, decoded)) << "byte " << i;
  }
}

TEST(ReplicaApplierTest, FloorGatesDuplicatesAndGaps) {
  auto backend = std::make_shared<MemoryBackend>(4);
  ReplicaApplier applier(backend);
  EXPECT_EQ(applier.applied(), 0u);

  const auto first = applier.apply_cycle(sample_frame(1));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 1u);
  const Buffer once = backend->read_journal(0);

  // Duplicate (a lossy link's retransmission): acked, not re-applied.
  const auto dup = applier.apply_cycle(sample_frame(1));
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup.value(), 1u);
  EXPECT_EQ(backend->read_journal(0), once) << "duplicate re-applied";

  // Gap: rejected with conflict (the primary answers with a resync).
  const auto gap = applier.apply_cycle(sample_frame(3));
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.error(), ErrorCode::conflict);
  EXPECT_EQ(applier.applied(), 1u);

  // The successor applies.
  const auto next = applier.apply_cycle(sample_frame(2));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 2u);

  // Garbage is invalid_argument, not a crash and not an apply.
  const auto bad = applier.apply_cycle(bytes_of("not a frame"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), ErrorCode::invalid_argument);
}

TEST(ReplicaApplierTest, FloorSurvivesRestart) {
  // A restarted backup resumes at its persisted floor -- the reply
  // stream's last rep_applied marker, whatever the last shipment was --
  // so the primary's retransmissions of applied shipments stay duplicates.
  const auto expect_resumes_at = [](const std::shared_ptr<Backend>& volume,
                                    std::uint64_t floor) {
    ReplicaApplier restarted(volume);
    EXPECT_EQ(restarted.applied(), floor);
    const std::vector<Buffer> before = journals(*volume);
    const auto dup = restarted.apply_cycle(one_run_frame(floor, 0));
    ASSERT_TRUE(dup.ok());
    EXPECT_EQ(dup.value(), floor);
    EXPECT_EQ(journals(*volume), before) << "duplicate re-applied";
  };
  {
    SCOPED_TRACE("cycle frames");
    auto backend = std::make_shared<MemoryBackend>(4);
    {
      ReplicaApplier applier(backend);
      ASSERT_TRUE(applier.apply_cycle(sample_frame(1)).ok());
      ASSERT_TRUE(applier.apply_cycle(sample_frame(2)).ok());
    }
    expect_resumes_at(backend, 2);
  }
  for (const std::size_t stream : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(stream == 4 ? "snapshot on the reply stream"
                             : "snapshot on an object shard");
    auto backend = std::make_shared<MemoryBackend>(4);
    ASSERT_EQ(backend->reply_stream(), 4u);
    {
      ReplicaApplier applier(backend);
      ASSERT_TRUE(applier.apply_cycle(sample_frame(1)).ok());
      ASSERT_TRUE(applier.apply_cycle(sample_frame(2)).ok());
      ASSERT_TRUE(
          applier.install_snapshot(3, stream, encode_snapshot({}, 9)).ok());
    }
    expect_resumes_at(backend, 3);
  }
  {
    // A snapshot whose install rewrites commit.log (the log has crossed
    // its 8 MiB GC threshold): the rewrite drops every earlier marker, so
    // the floor survives only in the marker written after the install.
    SCOPED_TRACE("snapshot install that rewrites commit.log");
    const auto dir = std::filesystem::temp_directory_path() /
                     ("amoeba-replica-gc-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    constexpr std::uint64_t kRecords = 160000;
    {
      auto volume = std::make_shared<FileBackend>(dir, 2);
      ReplicaApplier applier(volume);
      Buffer run;
      for (std::uint64_t lsn = 1; lsn <= kRecords; ++lsn) {
        encode_record({RecordType::mutate, ObjectNumber(100), 0x5EC2E7, lsn,
                       Buffer(24, 0xAB)},
                      run);
      }
      std::vector<ShardAppend> big;
      big.push_back({0, std::move(run)});
      ASSERT_TRUE(applier.apply_cycle(encode_cycle_frame(1, big)).ok());
      ASSERT_TRUE(applier.apply_cycle(one_run_frame(2, 1)).ok());
      ASSERT_GT(std::filesystem::file_size(dir / "commit.log"),
                std::uint64_t{8} << 20);
      ASSERT_TRUE(
          applier.install_snapshot(3, 0, encode_snapshot({}, kRecords)).ok());
      EXPECT_LT(std::filesystem::file_size(dir / "commit.log"), 4096u)
          << "the install did not rewrite commit.log";
    }
    expect_resumes_at(std::make_shared<FileBackend>(dir, 2), 3);
    std::filesystem::remove_all(dir);
  }
}

TEST(ReplicaApplierTest, ResyncedTailsAppendOnlyWhatAStreamLacks) {
  // A backup holding records 1..3 of stream 0 adopts a snapshot at 2 (a
  // resync's, or a compaction shipped after the cycle that carried 3),
  // then receives the primary's journal tail 3..4: it appends 4 alone, so
  // its journal matches the primary's instead of holding 3 twice.
  const auto run = [](std::uint64_t from, std::uint64_t to) {
    Buffer out;
    for (std::uint64_t lsn = from; lsn <= to; ++lsn) {
      const Buffer one = record(static_cast<std::uint32_t>(lsn), lsn);
      out.insert(out.end(), one.begin(), one.end());
    }
    return std::vector<ShardAppend>{{0, out}};
  };
  auto backend = std::make_shared<MemoryBackend>(4);
  ReplicaApplier applier(backend);
  ASSERT_TRUE(applier.apply_cycle(encode_cycle_frame(1, run(1, 3))).ok());
  ASSERT_TRUE(applier.install_snapshot(2, 0, encode_snapshot({}, 2)).ok());
  ASSERT_TRUE(applier.apply_cycle(encode_cycle_frame(3, run(3, 4))).ok());
  EXPECT_EQ(backend->read_journal(0), run(3, 4)[0].bytes);
  // A restarted applier learns what each stream holds from the volume.
  ReplicaApplier restarted(backend);
  ASSERT_TRUE(restarted.apply_cycle(encode_cycle_frame(4, run(4, 5))).ok());
  EXPECT_EQ(backend->read_journal(0), run(3, 5)[0].bytes);
}

TEST(ReplicaApplierTest, OutOfRangeStreamIsRefusedBeforeAnyAppend) {
  // A frame naming a stream this volume lacks is hostile input: refused
  // as invalid_argument, with nothing of it appended.  The bent frame is
  // re-sealed, so the checksum does not mask the bad index.
  auto backend = std::make_shared<MemoryBackend>(4);
  ReplicaApplier applier(backend);
  ASSERT_TRUE(applier.apply_cycle(sample_frame(1)).ok());
  const std::vector<Buffer> before = journals(*backend);
  // sample_frame's body: rep_lsn u64 | count u32 | stream u32 | length
  // u32 | "rec-a" | stream u32 | ...: the second run's stream is at 33.
  const Buffer good = sample_frame(2);
  constexpr std::size_t kSecondStream = 8 + 8 + 4 + 8 + 5;
  for (const std::uint32_t stream : {5u, 6u, 0xFFFFFFFFu}) {
    SCOPED_TRACE("stream " + std::to_string(stream));
    Buffer bent = good;
    store_u32(bent, kSecondStream, stream);
    reseal(bent);
    CycleFrame decoded;
    ASSERT_TRUE(decode_cycle_frame(bent, decoded));
    ASSERT_EQ(decoded.appends.at(1).shard, stream);
    const auto refused = applier.apply_cycle(bent);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error(), ErrorCode::invalid_argument);
    EXPECT_EQ(applier.applied(), 1u);
    EXPECT_EQ(journals(*backend), before) << "a refused cycle appended";
  }
  // The unbent frame still applies on top.
  const auto applied = applier.apply_cycle(good);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value(), 2u);
}

TEST(ReplicationWireFuzz, BentFieldsNeverCrashOrHalfApply) {
  // Field-level mutation of cycle frames (docs/PROTOCOL.md §9.2): bend
  // rep_lsn, the append count, a stream index or a run length, re-seal
  // the checksum so the bend reaches the decoder, and offer the frame to
  // an applier at floor 1.  The frame is either applied whole -- every
  // run plus the marker, nothing else -- or leaves every journal byte for
  // byte as it was; and the decoder never sizes an allocation by more
  // entries than its input can hold.  AMOEBA_TEST_SEED picks the bends.
  Rng rng(test::seed_base(43) * 0x9E3779B97F4A7C15ULL + 18);
  // Runs on two object shards and the reply stream (index 4).
  const std::vector<ShardAppend> appends = {
      {0, record(1, 5)}, {2, record(2, 5)}, {4, record(3, 5)}};
  const Buffer pristine = encode_cycle_frame(2, appends);
  constexpr std::size_t kRepLsn = 8;
  constexpr std::size_t kCount = 16;
  std::vector<std::size_t> stream_at;
  std::size_t pos = 20;
  for (const ShardAppend& a : appends) {
    stream_at.push_back(pos);
    pos += 8 + a.bytes.size();
  }
  ASSERT_EQ(pos, pristine.size());
  const auto bent_u32 = [&](std::uint32_t original) -> std::uint32_t {
    switch (rng.below(6)) {
      case 0:
        return original + 1;
      case 1:
        return original - 1;
      case 2:
        return static_cast<std::uint32_t>(rng.below(8));
      case 3:
        return static_cast<std::uint32_t>(rng.below(pristine.size() + 1));
      case 4:
        return 0xFFFFFFFFu - static_cast<std::uint32_t>(rng.below(4));
      default:
        return static_cast<std::uint32_t>(rng.next());
    }
  };
  int applied_whole = 0;
  int refused = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    Buffer bent = pristine;
    for (std::uint64_t m = 1 + rng.below(2); m > 0; --m) {
      const std::size_t run = rng.below(appends.size());
      switch (rng.below(4)) {
        case 0: {
          const std::uint64_t choices[] = {0, 1, 2, 3, ~std::uint64_t{0},
                                           rng.next()};
          store_u64(bent, kRepLsn, choices[rng.below(6)]);
          break;
        }
        case 1:
          store_u32(bent, kCount, bent_u32(3));
          break;
        case 2:
          store_u32(bent, stream_at[run],
                    bent_u32(static_cast<std::uint32_t>(appends[run].shard)));
          break;
        default:
          store_u32(bent, stream_at[run] + 4,
                    bent_u32(static_cast<std::uint32_t>(
                        appends[run].bytes.size())));
          break;
      }
    }
    reseal(bent);
    CycleFrame decoded;
    const bool decodes = decode_cycle_frame(bent, decoded);
    EXPECT_LE(decoded.appends.capacity(), bent.size() / 8)
        << "an allocation sized past the input";

    auto volume = std::make_shared<MemoryBackend>(4);
    ReplicaApplier applier(volume);
    ASSERT_TRUE(applier.apply_cycle(one_run_frame(1, 1)).ok());
    const std::vector<Buffer> before = journals(*volume);
    const auto result = applier.apply_cycle(bent);
    const std::vector<Buffer> after = journals(*volume);
    if (applier.applied() == 1) {
      ++refused;
      EXPECT_EQ(after, before) << "a rejected frame touched a journal";
    } else {
      ++applied_whole;
      ASSERT_TRUE(decodes);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(decoded.rep_lsn, 2u);
      EXPECT_EQ(applier.applied(), 2u);
      std::vector<Buffer> expected = before;
      for (const ShardAppend& a : decoded.appends) {
        expected.at(a.shard).insert(expected.at(a.shard).end(),
                                    a.bytes.begin(), a.bytes.end());
      }
      Writer floor;
      floor.u64(2);
      encode_record_into(RecordType::rep_applied, ObjectNumber{}, 0, 0,
                         floor.buffer(), expected.at(volume->reply_stream()));
      EXPECT_EQ(after, expected) << "a frame was applied in part";
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "iteration " << iter << " (seed base "
             << test::seed_base(43) << ")";
    }
  }
  // Neither outcome was vacuous.
  EXPECT_GT(applied_whole, 0);
  EXPECT_GT(refused, 0);
}

TEST(ReplicaApplierTest, SnapshotAdoptsItsLsnAsFloor) {
  auto backend = std::make_shared<MemoryBackend>(4);
  ReplicaApplier applier(backend);
  // A resync snapshot lands on any floor -- no gap check.
  const Buffer image = bytes_of("snapshot-image");
  const auto adopted = applier.install_snapshot(10, 2, image);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(adopted.value(), 10u);
  EXPECT_EQ(backend->read_snapshot(2), image);
  // The stream continues right behind it...
  EXPECT_TRUE(applier.apply_cycle(sample_frame(11)).ok());
  // ...and everything at or below the adopted floor is a duplicate.
  const auto stale = applier.install_snapshot(5, 1, image);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale.value(), 11u);
  EXPECT_TRUE(backend->read_snapshot(1).empty());
  // Out-of-range shards are hostile input, not a crash.
  const auto bad = applier.install_snapshot(12, 99, image);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), ErrorCode::invalid_argument);
}

TEST(ReplicaApplierTest, PromoteFencesFurtherShipments) {
  auto backend = std::make_shared<MemoryBackend>(4);
  ReplicaApplier applier(backend);
  ASSERT_TRUE(applier.apply_cycle(sample_frame(1)).ok());
  EXPECT_EQ(applier.promote(), 1u);
  EXPECT_TRUE(applier.promoted());
  const auto refused = applier.apply_cycle(sample_frame(2));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error(), ErrorCode::immutable);
  const auto refused_snap = applier.install_snapshot(9, 0, bytes_of("x"));
  ASSERT_FALSE(refused_snap.ok());
  EXPECT_EQ(refused_snap.error(), ErrorCode::immutable);
}

/// A link straight into an in-process applier whose first
/// `failed_probes` heartbeats time out.
class DirectLink final : public ReplicationLink {
 public:
  DirectLink(ReplicaApplier& applier, int failed_probes)
      : applier_(&applier), failed_probes_(failed_probes) {}

  [[nodiscard]] std::string peer_name() const override { return "backup"; }
  [[nodiscard]] Result<std::uint64_t> ship_cycle(
      std::span<const std::uint8_t> frame) override {
    return applier_->apply_cycle(frame);
  }
  [[nodiscard]] Result<std::uint64_t> ship_snapshot(
      std::uint64_t rep_lsn, std::size_t shard,
      std::span<const std::uint8_t> bytes) override {
    return applier_->install_snapshot(rep_lsn, shard, bytes);
  }
  [[nodiscard]] Result<std::uint64_t> heartbeat(std::uint64_t) override {
    if (failed_probes_ > 0) {
      --failed_probes_;
      return ErrorCode::timeout;
    }
    return applier_->applied();
  }

 private:
  ReplicaApplier* applier_;
  int failed_probes_;
};

TEST(ReplicatedBackendTest, StaleBackupFloorIsNumberedAbove) {
  // The backup outlived an earlier primary; the new primary's numbering
  // starts at 1, and every shipment at or below the backup's floor would
  // be acked as a duplicate never applied.  The shipper's first
  // heartbeats time out: it must retry, learn the floor, and number above
  // it before offering anything.  Floor 1 equals the first snapshot's
  // LSN, whose duplicate ack would look exactly like an apply.
  for (const std::uint64_t stale_floor : {1, 40}) {
    SCOPED_TRACE("stale floor " + std::to_string(stale_floor));
    auto backup = std::make_shared<MemoryBackend>(4);
    ReplicaApplier applier(backup);
    ASSERT_TRUE(
        applier.install_snapshot(stale_floor, 0, bytes_of("stale")).ok());
    auto local = std::make_shared<MemoryBackend>(4);
    local->append_journal(1, bytes_of("rec-1"));

    auto primary = std::make_shared<ReplicatedBackend>(local, AckMode::ack_one);
    primary->attach_peer(std::make_shared<DirectLink>(applier, 3));
    bool synced = false;
    for (int i = 0; i < 2000 && !synced; ++i) {
      const auto stats = primary->stats();
      synced = stats.peers[0].queued == 0 &&
               stats.peers[0].acked_lsn >= stats.shipped_lsn;
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_TRUE(synced) << "parked shipments were never acknowledged";
    EXPECT_GT(applier.applied(), stale_floor);
    // ack_one: durable once the backup applied it, above the old floor.
    GroupCommitter committer(primary);
    committer.wait_durable(committer.enqueue(2, bytes_of("rec-2")));
    // Object shards only: the backup's reply stream adds its own
    // rep_applied markers.
    for (std::size_t s = 0; s < local->shard_count(); ++s) {
      EXPECT_EQ(backup->read_journal(s), local->read_journal(s))
          << "journal " << s;
      EXPECT_EQ(backup->read_snapshot(s), local->read_snapshot(s))
          << "snapshot " << s;
    }
  }
}

/// Forwards to an in-process applier and logs every shipment it newly
/// applies (its floor moved to exactly that shipment's LSN), then runs
/// `after_apply` (when set) with the shipment's kind.
class RecordingLink final : public ReplicationLink {
 public:
  struct Applied {
    std::uint64_t rep_lsn = 0;
    bool snapshot = false;
    std::size_t shard = 0;
    Buffer bytes;  // snapshot image
    std::vector<ShardAppend> runs;  // cycle frames
  };

  explicit RecordingLink(ReplicaApplier& applier) : applier_(&applier) {}

  std::function<void(bool snapshot)> after_apply;  // set before attaching

  [[nodiscard]] std::string peer_name() const override { return "backup"; }
  [[nodiscard]] Result<std::uint64_t> ship_cycle(
      std::span<const std::uint8_t> frame) override {
    const auto floor = applier_->apply_cycle(frame);
    CycleFrame cycle;
    if (floor.ok() && decode_cycle_frame(frame, cycle) &&
        floor.value() == cycle.rep_lsn) {
      log({cycle.rep_lsn, false, 0, {}, std::move(cycle.appends)});
    }
    return floor;
  }
  [[nodiscard]] Result<std::uint64_t> ship_snapshot(
      std::uint64_t rep_lsn, std::size_t shard,
      std::span<const std::uint8_t> bytes) override {
    const auto floor = applier_->install_snapshot(rep_lsn, shard, bytes);
    if (floor.ok() && floor.value() == rep_lsn) {
      log({rep_lsn, true, shard, Buffer(bytes.begin(), bytes.end()), {}});
    }
    return floor;
  }
  [[nodiscard]] Result<std::uint64_t> heartbeat(std::uint64_t) override {
    return applier_->applied();
  }

  [[nodiscard]] std::vector<Applied> applied() const {
    const std::lock_guard lock(mutex_);
    return applied_;
  }

 private:
  void log(Applied shipment) {
    const bool snapshot = shipment.snapshot;
    {
      const std::lock_guard lock(mutex_);
      applied_.push_back(std::move(shipment));
    }
    if (after_apply) {
      after_apply(snapshot);
    }
  }

  ReplicaApplier* applier_;
  mutable std::mutex mutex_;
  std::vector<Applied> applied_;
};

/// True when `image` holds all of `shipment`: its snapshot, or every run
/// of its cycle inside the run's journal.
[[nodiscard]] bool holds(const MemoryBackend& image,
                         const RecordingLink::Applied& shipment) {
  if (shipment.snapshot) {
    return image.read_snapshot(shipment.shard) == shipment.bytes;
  }
  return std::all_of(
      shipment.runs.begin(), shipment.runs.end(), [&](const ShardAppend& a) {
        const Buffer journal = image.read_journal(a.shard);
        return std::search(journal.begin(), journal.end(), a.bytes.begin(),
                           a.bytes.end()) != journal.end();
      });
}

TEST(ReplicaApplierTest, ResyncImagesNeverHoldAFloorAheadOfTheirContent) {
  // Crash the backup at every journal barrier of a full resync and reopen
  // an applier on each image: its floor must never exceed the last
  // shipment that image fully holds.  Every stream of the primary has a
  // distinct non-empty snapshot and a journal tail, so each shipment
  // leaves a trace an image can be checked for.
  auto local = std::make_shared<MemoryBackend>(4);
  for (std::size_t s = 0; s < local->stream_count(); ++s) {
    const auto object = static_cast<std::uint32_t>(s + 1);
    local->install_snapshot(
        s, encode_snapshot({{ObjectNumber(object), 0x5EC2E7, Buffer{7}}}, 10));
    local->append_journal(s, record(object, 11));
  }
  auto backup = std::make_shared<MemoryBackend>(4);
  ReplicaApplier applier(backup);
  std::mutex images_mutex;
  std::vector<std::shared_ptr<MemoryBackend>> images;
  backup->set_append_hook([&](std::uint64_t) {
    auto image = backup->capture();
    const std::lock_guard lock(images_mutex);
    images.push_back(std::move(image));
  });
  auto link = std::make_shared<RecordingLink>(applier);
  {
    ReplicatedBackend primary(local, AckMode::ack_one);
    primary.attach_peer(link);
    bool synced = false;
    for (int i = 0; i < 2000 && !synced; ++i) {
      const auto stats = primary.stats();
      synced = stats.peers[0].queued == 0 &&
               stats.peers[0].acked_lsn >= stats.shipped_lsn;
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_TRUE(synced) << "the resync never landed";
  }
  backup->set_append_hook(nullptr);
  const std::vector<RecordingLink::Applied> shipped = link->applied();
  // One snapshot per stream, then the catch-all cycle frame.
  ASSERT_EQ(shipped.size(), local->stream_count() + 1);
  const std::lock_guard lock(images_mutex);
  // Each shipment ends in exactly one journal barrier: a cycle's group,
  // or the floor marker a snapshot install appends after itself.
  ASSERT_EQ(images.size(), shipped.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    SCOPED_TRACE("barrier " + std::to_string(i));
    std::uint64_t held = 0;
    for (const RecordingLink::Applied& shipment : shipped) {
      if (holds(*images[i], shipment)) {
        held = std::max(held, shipment.rep_lsn);
      }
    }
    const ReplicaApplier reopened(images[i]);
    EXPECT_LE(reopened.applied(), held) << "the floor ran ahead of the image";
    EXPECT_EQ(reopened.applied(), shipped[i].rep_lsn);
  }
}

/// The counter a snapshot image of shard 0 holds (0 when it holds none).
[[nodiscard]] std::uint32_t image_counter(const Buffer& image) {
  std::vector<SnapshotSlot> slots;
  std::uint64_t lsn = 0;
  if (!decode_snapshot(image, slots, lsn) || slots.empty()) {
    return 0;
  }
  Reader r(slots.front().payload);
  return r.u32();
}

/// The floor reply-stream records `records` give client (1, 1), folded
/// into `rows`.
[[nodiscard]] std::uint64_t fold_floor(std::span<const std::uint8_t> records,
                                       ReplyRows& rows) {
  for (const Record& record : decode_journal(records)) {
    (void)merge_reply_record(record, rows);
  }
  const auto it = rows.find({1, 1});
  return it == rows.end() ? 0 : it->second.floor;
}

TEST(ReplicationOrderTest, SnapshotsShipAfterTheFloorsOfTheirEffects) {
  // Each "request" enqueues its floor on the reply stream, then sets a
  // counter to its sequence number in a store that compacts after every
  // record, so each effect is folded into an image queued right behind
  // it.  The backup must apply every image after the cycle frame that
  // carries the floors of the effects it holds, and no image of either
  // volume -- the primary's captured inside the post-flush hook, the
  // backup's right after each snapshot it applies -- may hold an effect
  // without its floor.
  constexpr std::uint64_t kRequests = 24;
  auto local = std::make_shared<MemoryBackend>(1);
  auto backup = std::make_shared<MemoryBackend>(1);
  ReplicaApplier applier(backup);
  auto link = std::make_shared<RecordingLink>(applier);
  std::mutex images_mutex;
  std::vector<std::shared_ptr<MemoryBackend>> images;
  // ack_one: a cycle frame is applied while the flusher waits for its ack
  // inside the hook, so the primary's capture is taken inside the hook.
  link->after_apply = [&](bool snapshot) {
    auto image = snapshot ? backup->capture() : local->capture();
    const std::lock_guard lock(images_mutex);
    images.push_back(std::move(image));
  };
  auto primary = std::make_shared<ReplicatedBackend>(local, AckMode::ack_one);
  primary->attach_peer(link);
  const auto synced = [&] {
    for (int i = 0; i < 2000; ++i) {
      const auto stats = primary->stats();
      if (stats.peers[0].queued == 0 &&
          stats.peers[0].acked_lsn >= stats.shipped_lsn) {
        return true;
      }
      std::this_thread::sleep_for(1ms);
    }
    return false;
  };
  ASSERT_TRUE(synced()) << "the attach resync never landed";
  auto committer = std::make_shared<GroupCommitter>(primary);
  {
    core::Durability<int> durability;
    durability.committer = committer;
    durability.encode = [](Writer& w, const int& v) {
      w.u32(static_cast<std::uint32_t>(v));
    };
    durability.decode = [](Reader& r, int& v) {
      v = static_cast<int>(r.u32());
      return r.ok();
    };
    durability.compact_after = 1;
    Rng rng(7);
    const std::shared_ptr<const core::ProtectionScheme> scheme =
        core::make_scheme(core::SchemeKind::one_way_xor, rng);
    core::ObjectStore<int> store(scheme, Port(0x0D0D), 1, 1,
                                 std::move(durability));
    const core::Capability counter = store.create(0);
    for (std::uint64_t seq = 1; seq <= kRequests; ++seq) {
      RequestScope scope;  // a request's shape: floor, effect, one wait
      Buffer floor;
      encode_reply_floor(1, 1, seq, seq, floor);
      committer->wait_durable(committer->enqueue(local->reply_stream(), floor));
      {
        auto opened = store.open(counter, Rights::all());
        ASSERT_TRUE(opened.ok());
        *opened.value().value = static_cast<int>(seq);
        opened.value().mark_dirty();
      }
      scope.settle();
    }
    store.compact();  // returns with every image installed
  }
  ASSERT_TRUE(synced()) << "the snapshot shipments never landed";
  // The create's image, one per request, and compact()'s.
  EXPECT_EQ(committer->stats().installs, kRequests + 2);

  // Apply order: every image after the floors of the effects it holds.
  ReplyRows shipped_rows;
  std::uint64_t shipped_floor = 0;
  std::size_t images_shipped = 0;
  for (const RecordingLink::Applied& shipment : link->applied()) {
    if (!shipment.snapshot) {
      for (const ShardAppend& run : shipment.runs) {
        if (run.shard == local->reply_stream()) {
          shipped_floor = fold_floor(run.bytes, shipped_rows);
        }
      }
    } else if (shipment.shard == 0) {
      ++images_shipped;
      EXPECT_LE(image_counter(shipment.bytes), shipped_floor)
          << "snapshot " << shipment.rep_lsn << " shipped before its floor";
    }
  }
  EXPECT_GE(images_shipped, kRequests + 2);

  // Crash images: no image holds an effect its reply stream lacks a
  // floor for.
  const std::lock_guard lock(images_mutex);
  ASSERT_GE(images.size(), kRequests);
  for (std::size_t i = 0; i < images.size(); ++i) {
    std::uint64_t last_lsn = 0;
    const ReplyRows rows = read_reply_stream(*images[i], last_lsn);
    const auto row = rows.find({1, 1});
    const std::uint64_t floor = row == rows.end() ? 0 : row->second.floor;
    EXPECT_LE(image_counter(images[i]->read_snapshot(0)), floor)
        << "image " << i << " holds an effect without its floor";
  }

  // The backup compacted with the primary: same image, and the shipped
  // snapshot dropped the journal records it subsumes.
  EXPECT_EQ(backup->read_snapshot(0), local->read_snapshot(0));
  EXPECT_TRUE(local->read_journal(0).empty());
  EXPECT_TRUE(backup->read_journal(0).empty())
      << "a shipped snapshot must truncate the backup's journal too";
  EXPECT_EQ(image_counter(backup->read_snapshot(0)), kRequests);
}

TEST(GroupCommitHookTest, HookSeesCycleBytesBeforeWaitersRelease) {
  // The §8.5 acknowledgement order on a real volume, over many cycles:
  // the hook (what replication ships from) fires only once the cycle's
  // commit.log frame is on the volume, strictly in ticket order, and
  // before any waiter the cycle covers is released.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("amoeba-hook-order-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    auto backend = std::make_shared<FileBackend>(dir, 4);
    GroupCommitter committer(backend);
    std::mutex mutex;
    std::vector<GroupCommitter::Ticket> hooked;  // guarded by `mutex`
    std::uint64_t hook_bytes = 0;                // guarded by `mutex`
    committer.set_post_flush_hook(
        [&](const GroupCommitter::FlushCycle& cycle) {
          ASSERT_NE(cycle.appends, nullptr);
          std::uint64_t seen = 0;
          for (const ShardAppend& a : *cycle.appends) {
            seen += a.bytes.size();
            // The cycle's frame is already in commit.log: each stream's
            // recovered journal ends with exactly these bytes.
            const Buffer journal = backend->read_journal(a.shard);
            ASSERT_GE(journal.size(), a.bytes.size()) << "stream " << a.shard;
            EXPECT_TRUE(std::equal(a.bytes.begin(), a.bytes.end(),
                                   journal.end() - static_cast<std::ptrdiff_t>(
                                                       a.bytes.size())))
                << "hook fired before stream " << a.shard << " was written";
          }
          EXPECT_EQ(seen, cycle.bytes);
          const std::lock_guard lock(mutex);
          if (!hooked.empty()) {
            EXPECT_GT(cycle.ticket, hooked.back()) << "out of ticket order";
          }
          hooked.push_back(cycle.ticket);
          hook_bytes += seen;
        });
    // One subscriber only.
    EXPECT_THROW(committer.set_post_flush_hook([](const auto&) {}),
                 UsageError);

    constexpr std::uint32_t kCycles = 8;
    std::uint64_t enqueued = 0;
    for (std::uint32_t i = 0; i < kCycles; ++i) {
      const Buffer record = bytes_of("framed-record-" + std::to_string(i));
      // A single-stream record, then a two-stream group in the same wait.
      (void)committer.enqueue(i % 4, record);
      std::vector<ShardAppend> group;
      group.push_back({(i + 1) % 4, record});
      group.push_back({(i + 2) % 4, record});
      const auto ticket = committer.enqueue_group(std::move(group));
      enqueued += 3 * record.size();
      committer.wait_durable(ticket);
      // The hook for the covering cycle ran BEFORE the wait released.
      const std::lock_guard lock(mutex);
      ASSERT_FALSE(hooked.empty());
      EXPECT_GE(hooked.back(), ticket);
    }
    // The last wait covered every enqueue: tickets are one sequence.
    const std::lock_guard lock(mutex);
    EXPECT_GE(hooked.size(), std::size_t{kCycles});
    EXPECT_EQ(hook_bytes, enqueued);
    EXPECT_EQ(committer.stats().flush_cycle_bytes, enqueued);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace amoeba::storage

namespace amoeba::servers {
namespace {

using namespace std::chrono_literals;

[[nodiscard]] std::shared_ptr<const core::ProtectionScheme> scheme() {
  static const std::shared_ptr<const core::ProtectionScheme> shared = [] {
    Rng rng(43);
    return std::shared_ptr<const core::ProtectionScheme>(
        core::make_scheme(core::SchemeKind::commutative, rng));
  }();
  return shared;
}

/// Primary bank + one backup replica machine + a client, the standard
/// replication deployment the tests drive.
class ReplicationSuite : public ::testing::Test {
 protected:
  ReplicationSuite()
      : bank_machine_(net_.add_machine("bank")),
        backup_machine_(net_.add_machine("backup")),
        client_machine_(net_.add_machine("client")),
        local_(std::make_shared<storage::MemoryBackend>(16)),
        backup_backend_(std::make_shared<storage::MemoryBackend>(16)) {
    replica_ = std::make_unique<rpc::ReplicaServer>(
        backup_machine_, Port(0x7B01), scheme(), 11, backup_backend_);
    replica_->start(2);
  }

  ~ReplicationSuite() override {
    shutdown();
    if (replica_ != nullptr) {
      replica_->stop();
    }
  }

  /// Boots the primary bank on `local_` (recovering whatever it holds).
  /// `link_seed` names the replication link's at-most-once client; a
  /// restarted primary is a new client to the backup.
  void boot(storage::AckMode mode, std::uint64_t link_seed = 21) {
    replicated_ = rpc::replicate_to(
        local_, mode, bank_machine_, link_seed,
        {{"backup", replica_->volume_capability()}});
    bank_ = std::make_unique<BankServer>(bank_machine_, Port(0xBA22),
                                         scheme(), 1, replicated_);
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
    replicated_.reset();
  }

  /// Polls until every queued shipment is acked (async-mode catch-up).
  [[nodiscard]] bool wait_synced() {
    for (int i = 0; i < 2000; ++i) {
      replicated_->heartbeat();
      const auto stats = replicated_->stats();
      bool synced = true;
      for (const auto& peer : stats.peers) {
        synced = synced && peer.queued == 0 &&
                 peer.acked_lsn >= stats.shipped_lsn;
      }
      if (synced) {
        return true;
      }
      std::this_thread::sleep_for(2ms);
    }
    return false;
  }

  /// The whole point of journal shipping: the backup volume is
  /// byte-equivalent to the primary's own disk (object shards; the
  /// backup's reply stream adds its private floor markers).
  void expect_volumes_equal() {
    for (std::size_t s = 0; s < local_->shard_count(); ++s) {
      EXPECT_EQ(local_->read_journal(s), backup_backend_->read_journal(s))
          << "journal shard " << s;
      EXPECT_EQ(local_->read_snapshot(s), backup_backend_->read_snapshot(s))
          << "snapshot shard " << s;
    }
  }

  void workload(int transfers) {
    alice_ = client_->create_account().value();
    bob_ = client_->create_account().value();
    ASSERT_TRUE(client_
                    ->mint(bank_->master_capability(), alice_,
                           currency::kDollar, 1'000'000)
                    .ok());
    for (int i = 0; i < transfers; ++i) {
      ASSERT_TRUE(
          client_->transfer(alice_, bob_, currency::kDollar, 7).ok())
          << "transfer " << i;
    }
  }

  // AMOEBA_TEST_SEED reseeds the in-process network's fault dice and the
  // client transports in one go (logged at startup for replay).
  net::Network net_{net::Network::Config{.seed = test::seed_base(43)}};
  net::Machine& bank_machine_;
  net::Machine& backup_machine_;
  net::Machine& client_machine_;
  std::shared_ptr<storage::MemoryBackend> local_;
  std::shared_ptr<storage::MemoryBackend> backup_backend_;
  std::unique_ptr<rpc::ReplicaServer> replica_;
  std::shared_ptr<storage::ReplicatedBackend> replicated_;
  std::unique_ptr<BankServer> bank_;
  std::unique_ptr<rpc::Transport> transport_;
  std::unique_ptr<BankClient> client_;
  core::Capability alice_;
  core::Capability bob_;
  std::uint64_t seed_ = test::seed_base(43) + 55;
};

TEST_F(ReplicationSuite, AckOneShipsEveryFlushCycleToTheBackup) {
  boot(storage::AckMode::ack_one);
  workload(25);
  // ack_one: every replied mutation's cycle was acknowledged durable on
  // the backup before the client saw the reply -- nothing to wait for
  // beyond stray async snapshot shipments.
  ASSERT_TRUE(wait_synced());
  expect_volumes_equal();
  EXPECT_GT(replica_->applier().applied(), 0u);
}

TEST_F(ReplicationSuite, PrimaryRestartKeepsTheBackupAPrefix) {
  boot(storage::AckMode::ack_one);
  workload(25);
  ASSERT_TRUE(wait_synced());
  const std::uint64_t floor_before = replica_->applier().applied();
  shutdown();
  // The bank restarts on its own volume.  Its shipment numbering starts
  // over, below the floor the backup already holds: the restarted
  // primary must learn that floor and number above it, or the backup
  // answers every shipment as a duplicate without applying it.
  boot(storage::AckMode::ack_one, 22);
  workload(3);
  ASSERT_TRUE(wait_synced());
  EXPECT_GT(replica_->applier().applied(), floor_before);
  expect_volumes_equal();
}

TEST_F(ReplicationSuite, AsyncModeCatchesUpAndConverges) {
  boot(storage::AckMode::async);
  workload(25);
  ASSERT_TRUE(wait_synced());
  expect_volumes_equal();
}

TEST_F(ReplicationSuite, LinkFaultsNeverTearAGroupOrDoubleApply) {
  boot(storage::AckMode::ack_one);
  // PR-4 faults on the replication link, both directions: shipments and
  // acks drop, duplicate, and reorder.  The at-most-once transaction
  // layer absorbs what it can; the replica's LSN floor suppresses the
  // rest.  Client <-> bank links stay clean (the subject here is the
  // replication link).
  net_.set_link_faults(bank_machine_.id(), backup_machine_.id(),
                       {.drop = 0.15, .duplicate = 0.10, .reorder = 0.15});
  net_.set_link_faults(backup_machine_.id(), bank_machine_.id(),
                       {.drop = 0.15, .duplicate = 0.10, .reorder = 0.15});
  workload(30);
  net_.clear_link_faults();
  ASSERT_TRUE(wait_synced());
  // Byte equality is the strong form of both properties: a torn group or
  // a double-applied LSN would leave the backup's journals differing
  // from the primary's.
  expect_volumes_equal();
}

TEST_F(ReplicationSuite, StdInfoReportsRolesAndLag) {
  boot(storage::AckMode::ack_one);
  workload(5);
  ASSERT_TRUE(wait_synced());
  const auto primary_info =
      rpc::std_info(*transport_, bank_->master_capability(), true);
  ASSERT_TRUE(primary_info.ok());
  EXPECT_NE(primary_info.value().find("role=primary"), std::string::npos)
      << primary_info.value();
  EXPECT_NE(primary_info.value().find("peers=1"), std::string::npos);
  EXPECT_NE(primary_info.value().find("backup.lag=0"), std::string::npos)
      << primary_info.value();

  const auto backup_info =
      rpc::std_info(*transport_, replica_->volume_capability(), true);
  ASSERT_TRUE(backup_info.ok());
  EXPECT_NE(backup_info.value().find("role=backup"), std::string::npos)
      << backup_info.value();
  EXPECT_NE(backup_info.value().find("applied="), std::string::npos);

  // An unreplicated service stays a standalone.
  net::Machine& standalone_machine = net_.add_machine("standalone");
  BankServer standalone(standalone_machine, Port(0xBA33), scheme(), 3);
  standalone.start(1);
  rpc::Transport probe(client_machine_, seed_++);
  const auto info =
      rpc::std_info(probe, standalone.master_capability(), true);
  ASSERT_TRUE(info.ok());
  EXPECT_NE(info.value().find("role=standalone"), std::string::npos)
      << info.value();
  standalone.stop();
}

TEST_F(ReplicationSuite, PromotedBackupFencesTheDeposedPrimary) {
  boot(storage::AckMode::ack_one);
  workload(5);
  ASSERT_TRUE(wait_synced());
  // Promote the backup while the old primary still runs (the split-brain
  // shape).  The backup refuses further shipments...
  const auto floor =
      rpc::rep_promote(*transport_, replica_->volume_capability());
  ASSERT_TRUE(floor.ok());
  EXPECT_TRUE(replica_->applier().promoted());
  const auto backup_info =
      rpc::std_info(*transport_, replica_->volume_capability(), true);
  ASSERT_TRUE(backup_info.ok());
  EXPECT_NE(backup_info.value().find("role=promoted"), std::string::npos);
  // ...and the deposed primary's next ack-one mutation fails loudly
  // instead of reporting durability the cluster no longer honors.
  const auto fenced = client_->transfer(alice_, bob_, currency::kDollar, 7);
  EXPECT_FALSE(fenced.ok());
}

TEST_F(ReplicationSuite, AttachPeerRacesPromotionUnderFlushStorm) {
  // The failover drill's natural shape, compressed into one process so
  // TSan can watch every interleaving: a committer-driven flush storm on
  // the primary, a backup attaching mid-stream (full resync broadcast),
  // and a concurrent promotion of that same backup.  Each mutation must
  // end in exactly one of two legal states -- durably acked, or refused
  // by the committer's failed latch once the shipper is fenced -- and
  // the storm threads must always terminate (a promoted backup answers
  // `immutable`, which fences the primary and fails every pending and
  // future durability wait instead of retrying forever).
  auto primary = std::make_shared<storage::ReplicatedBackend>(
      local_, storage::AckMode::ack_one);
  storage::GroupCommitter committer(primary);

  std::atomic<int> durable{0};
  std::atomic<int> fenced_waits{0};
  auto storm = [&](std::size_t shard) {
    const Buffer record = {0x11, 0x22, 0x33, 0x44};
    while (true) {
      try {
        committer.wait_durable(committer.enqueue(shard, record));
        durable.fetch_add(1);
      } catch (const std::exception&) {
        fenced_waits.fetch_add(1);
        return;  // fence latched: every later wait throws too
      }
    }
  };
  std::jthread storm_a(storm, 0);
  std::jthread storm_b(storm, 3);

  // Let the storm establish a stream of flush cycles first (with no peer
  // attached, ack_one waits release on local durability alone).
  while (durable.load() < 8) {
    std::this_thread::sleep_for(1ms);
  }

  rpc::Transport promote_transport(client_machine_, seed_++);
  const std::uint64_t link_seed = seed_++;
  {
    std::jthread attacher([&] {
      primary->attach_peer(std::make_shared<rpc::TransportReplicationLink>(
          bank_machine_, link_seed, "backup", replica_->volume_capability()));
    });
    std::jthread promoter([&] {
      const auto floor = rpc::rep_promote(promote_transport,
                                          replica_->volume_capability());
      EXPECT_TRUE(floor.ok());
    });
  }  // both joined

  // Whatever the interleaving, the promoted backup eventually refuses a
  // shipment, the shipper fences, and both storm threads exit loudly.
  storm_a.join();
  storm_b.join();
  EXPECT_TRUE(replica_->applier().promoted());
  EXPECT_EQ(fenced_waits.load(), 2);
  EXPECT_GE(durable.load(), 8);
}

TEST_F(ReplicationSuite, LateAttachResyncsAWholeVolume) {
  // Build primary state BEFORE any peer is attached...
  auto solo = std::make_shared<storage::ReplicatedBackend>(
      local_, storage::AckMode::ack_one);
  bank_ = std::make_unique<BankServer>(bank_machine_, Port(0xBA22),
                                       scheme(), 1, solo);
  bank_->start(2);
  transport_ = std::make_unique<rpc::Transport>(client_machine_, seed_++);
  client_ = std::make_unique<BankClient>(*transport_, bank_->put_port());
  replicated_ = solo;
  workload(10);
  // ...then attach: the resync broadcast must rebuild the backup from
  // scratch (snapshots reset, journals follow).
  solo->attach_peer(std::make_shared<rpc::TransportReplicationLink>(
      bank_machine_, 61, "backup", replica_->volume_capability()));
  ASSERT_TRUE(wait_synced());
  expect_volumes_equal();
  // And the stream continues past the resync.
  ASSERT_TRUE(client_->transfer(alice_, bob_, currency::kDollar, 7).ok());
  ASSERT_TRUE(wait_synced());
  expect_volumes_equal();
}

}  // namespace
}  // namespace amoeba::servers
