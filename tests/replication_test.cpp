// Primary/backup replication (docs/PROTOCOL.md §9): commit.log frames
// and shipments, the replica applier's frame-number floor, resyncs that
// adopt a primary's whole log, the post-flush shipping hook's ordering
// contract, and the full primary -> backup pipeline over the in-process
// network -- including PR-4 link faults on the replication link
// (drop/duplicate/reorder must never tear a frame or double-apply one)
// and the deposed-primary fence.  Every pipeline scenario ends with the
// backup's commit.log byte-identical to its primary's.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
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
#include "invariants.hpp"
#include "test_seed.hpp"
#include "volumes.hpp"

namespace amoeba::storage {
namespace {

using namespace std::chrono_literals;

[[nodiscard]] Buffer bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

/// One encoded frame.
[[nodiscard]] Buffer frame_of(std::uint64_t seq,
                              const std::vector<ShardAppend>& appends,
                              bool checkpoint = false) {
  Buffer out;
  encode_frame(seq, checkpoint, appends, out);
  return out;
}

[[nodiscard]] Buffer sample_frame(std::uint64_t seq) {
  return frame_of(seq, {{0, bytes_of("rec-a")}, {3, bytes_of("rec-b")}});
}

/// A regular shipment of one frame.
[[nodiscard]] Buffer ship(const Buffer& frame) {
  return encode_shipment(/*resync=*/false, frame);
}

/// One framed mutate record (what a real store journals).
[[nodiscard]] Buffer record(std::uint32_t object, std::uint64_t lsn) {
  Buffer out;
  encode_record({RecordType::mutate, ObjectNumber(object), 0x5EC2E7, lsn,
                 Buffer{static_cast<std::uint8_t>(object & 0xFF)}},
                out);
  return out;
}

/// A frame carrying one record on `stream`.
[[nodiscard]] Buffer one_run_frame(std::uint64_t seq, std::size_t stream) {
  return frame_of(seq, {{stream, record(static_cast<std::uint32_t>(seq),
                                        seq)}});
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

/// Rewrites the checksum of the frame at `at` over its (bent) body, so
/// the checksum cannot mask a bent field from the decoder.
void reseal(Buffer& bytes, std::size_t at = 0) {
  const std::span<const std::uint8_t> body(bytes.data() + at + 8,
                                           bytes.size() - at - 8);
  store_u32(bytes, at, static_cast<std::uint32_t>(body.size()));
  store_u32(bytes, at + 4, frame_checksum(body));
}

/// `a` followed by `b`: record runs concatenate.
[[nodiscard]] Buffer operator+(Buffer a, const Buffer& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// `image` as one framed snapshot record.
[[nodiscard]] Buffer snapshot_record(const Buffer& image) {
  Buffer out;
  encode_snapshot_record(image, out);
  return out;
}

/// A resync of `volume`: its whole log, flagged.
[[nodiscard]] Buffer resync_of(const Backend& volume) {
  const Buffer log = volume.read_log();
  return encode_shipment(/*resync=*/true, log_frames(log));
}

TEST(ReplicationWireTest, FramesAndShipmentsRoundTrip) {
  const Buffer frame = frame_of(7, {{0, bytes_of("rec-a")},
                                    {3, bytes_of("rec-b")}},
                                /*checkpoint=*/true);
  Frame decoded;
  ASSERT_EQ(decode_frame(frame, decoded), frame.size());
  EXPECT_EQ(decoded.seq, 7u);
  EXPECT_TRUE(decoded.checkpoint);
  ASSERT_EQ(decoded.appends.size(), 2u);
  EXPECT_EQ(decoded.appends[0].shard, 0u);
  EXPECT_EQ(decoded.appends[0].bytes, bytes_of("rec-a"));
  EXPECT_EQ(decoded.appends[1].shard, 3u);
  EXPECT_EQ(decoded.appends[1].bytes, bytes_of("rec-b"));
  for (const bool resync : {false, true}) {
    const Buffer shipment = encode_shipment(resync, frame);
    bool flagged = !resync;
    std::span<const std::uint8_t> frames;
    ASSERT_TRUE(decode_shipment(shipment, flagged, frames));
    EXPECT_EQ(flagged, resync);
    EXPECT_TRUE(std::equal(frames.begin(), frames.end(), frame.begin(),
                           frame.end()));
  }
  bool flagged = false;
  std::span<const std::uint8_t> frames;
  EXPECT_FALSE(decode_shipment({}, flagged, frames));
  const Buffer unknown_flag = {0x02};
  EXPECT_FALSE(decode_shipment(unknown_flag, flagged, frames));
}

TEST(ReplicationWireTest, RejectsTornAndCorruptFrames) {
  const Buffer frame = sample_frame(1);
  Frame decoded;
  // Truncation at every prefix length: a torn shipment never half-applies.
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_EQ(decode_frame(std::span(frame.data(), len), decoded), 0u)
        << "prefix " << len;
  }
  // Any single corrupted body byte trips the whole-frame checksum.
  for (std::size_t i = 8; i < frame.size(); ++i) {
    Buffer bent = frame;
    bent[i] ^= 0x01;
    EXPECT_EQ(decode_frame(bent, decoded), 0u) << "byte " << i;
  }
  // A flag no format defines is malformed even when sealed.
  Buffer flagged = frame;
  flagged[16] = 0x02;
  reseal(flagged);
  EXPECT_EQ(decode_frame(flagged, decoded), 0u);
}

TEST(ReplicaApplierTest, FloorGatesDuplicatesAndGaps) {
  auto backend = std::make_shared<MemoryBackend>(4);
  ReplicaApplier applier(backend);
  EXPECT_EQ(applier.applied(), 0u);

  const auto first = applier.apply_shipment(ship(sample_frame(1)));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 1u);
  const Buffer once = backend->read_log();

  // Duplicate (a lossy link's retransmission): acked, not re-applied.
  const auto dup = applier.apply_shipment(ship(sample_frame(1)));
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup.value(), 1u);
  EXPECT_EQ(backend->read_log(), once) << "duplicate re-applied";

  // Gap: rejected with conflict (the primary answers with a resync).
  const auto gap = applier.apply_shipment(ship(sample_frame(3)));
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.error(), ErrorCode::conflict);
  EXPECT_EQ(applier.applied(), 1u);

  // The successor applies, verbatim.
  const Buffer second = sample_frame(2);
  const auto next = applier.apply_shipment(ship(second));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 2u);
  Buffer expected = once;
  expected.insert(expected.end(), second.begin(), second.end());
  EXPECT_EQ(backend->read_log(), expected);

  // Garbage is invalid_argument, not a crash and not an apply.
  for (const Buffer& bad : {bytes_of("not a frame"), Buffer{},
                            encode_shipment(false, {})}) {
    const auto refused = applier.apply_shipment(bad);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error(), ErrorCode::invalid_argument);
  }
  EXPECT_EQ(backend->read_log(), expected);
}

TEST(ReplicaApplierTest, FloorSurvivesRestart) {
  // A restarted backup resumes at its log's last frame, whatever the last
  // shipment was -- a checkpoint frame included -- so the primary's
  // retransmissions of applied frames stay duplicates.
  const auto expect_resumes_at = [](const std::shared_ptr<Backend>& volume,
                                    std::uint64_t floor) {
    ReplicaApplier restarted(volume);
    EXPECT_EQ(restarted.applied(), floor);
    const Buffer before = volume->read_log();
    const auto dup = restarted.apply_shipment(ship(one_run_frame(floor, 0)));
    ASSERT_TRUE(dup.ok());
    EXPECT_EQ(dup.value(), floor);
    EXPECT_EQ(volume->read_log(), before) << "duplicate re-applied";
  };
  {
    SCOPED_TRACE("regular frames");
    auto backend = std::make_shared<MemoryBackend>(4);
    {
      ReplicaApplier applier(backend);
      ASSERT_TRUE(applier.apply_shipment(ship(sample_frame(1))).ok());
      ASSERT_TRUE(applier.apply_shipment(ship(sample_frame(2))).ok());
    }
    expect_resumes_at(backend, 2);
  }
  {
    SCOPED_TRACE("a checkpoint frame starts the file backup's log");
    const auto dir = std::filesystem::temp_directory_path() /
                     ("amoeba-replica-ckpt-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    const Buffer checkpoint = frame_of(
        3,
        {{0, snapshot_record(encode_snapshot({{ObjectNumber(4), 9, Buffer{4}}},
                                             5))},
         {1, snapshot_record(encode_snapshot({}, 0))},
         {2, snapshot_record(encode_snapshot({}, 7))}},
        /*checkpoint=*/true);
    {
      auto volume = std::make_shared<FileBackend>(dir, 2);
      ReplicaApplier applier(volume);
      ASSERT_TRUE(applier.apply_shipment(ship(one_run_frame(1, 0))).ok());
      ASSERT_TRUE(applier.apply_shipment(ship(one_run_frame(2, 1))).ok());
      ASSERT_TRUE(applier.apply_shipment(ship(checkpoint)).ok());
      Buffer expected;
      encode_log_header(expected);
      expected.insert(expected.end(), checkpoint.begin(), checkpoint.end());
      EXPECT_EQ(volume->read_log(), expected)
          << "the checkpoint did not start the backup's log";
    }
    expect_resumes_at(std::make_shared<FileBackend>(dir, 2), 3);
    std::filesystem::remove_all(dir);
  }
}

TEST(ReplicaApplierTest, OutOfRangeStreamIsRefusedBeforeAnyAppend) {
  // A frame naming a stream this volume lacks is hostile input: refused
  // as invalid_argument, with nothing of it appended.  The bent frame is
  // re-sealed, so the checksum does not mask the bad index.
  auto backend = std::make_shared<MemoryBackend>(4);
  ReplicaApplier applier(backend);
  ASSERT_TRUE(applier.apply_shipment(ship(sample_frame(1))).ok());
  const Buffer before = backend->read_log();
  // sample_frame: length u32 | checksum u32 | seq u64 | flags u8 | count
  // u32 | stream u32 | length u32 | "rec-a" | stream u32 | ...
  const Buffer good = sample_frame(2);
  constexpr std::size_t kSecondStream = 8 + 8 + 1 + 4 + 8 + 5;
  for (const std::uint32_t stream : {5u, 6u, 0xFFFFFFFFu}) {
    SCOPED_TRACE("stream " + std::to_string(stream));
    Buffer bent = good;
    store_u32(bent, kSecondStream, stream);
    reseal(bent);
    Frame decoded;
    ASSERT_EQ(decode_frame(bent, decoded), bent.size());
    ASSERT_EQ(decoded.appends.at(1).shard, stream);
    const auto refused = applier.apply_shipment(ship(bent));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error(), ErrorCode::invalid_argument);
    EXPECT_EQ(applier.applied(), 1u);
    EXPECT_EQ(backend->read_log(), before) << "a refused frame was written";
  }
  // The unbent frame still applies on top.
  const auto applied = applier.apply_shipment(ship(good));
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value(), 2u);
}

TEST(ReplicaApplierTest, UnflaggedFrameImagingEveryStreamIsRefusedAtAGap) {
  // A frame whose runs image every stream, shipped as an ordinary frame,
  // may hold an image whose LSN is below reply records that sit in a
  // frame the gapped backup never received: adopting it would lose them,
  // and a promoted backup could then re-execute those requests.  Only a
  // shipment flagged as a resync -- a whole log -- lands on a gap.
  auto backend = std::make_shared<MemoryBackend>(1);
  ReplicaApplier applier(backend);
  ASSERT_TRUE(applier.apply_shipment(ship(one_run_frame(1, 0))).ok());
  const Buffer before = backend->read_log();
  // Frame 2 (never shipped to this backup) holds a reply record at LSN 6;
  // frame 3 images every stream, the reply stream's at LSN 5.
  for (const bool checkpoint : {false, true}) {
    SCOPED_TRACE(checkpoint ? "checkpoint frame" : "regular frame");
    const Buffer imaging = frame_of(
        3,
        {{0, snapshot_record(encode_snapshot({}, 1))},
         {1, snapshot_record(encode_snapshot({}, 5))}},
        checkpoint);
    const auto gap = applier.apply_shipment(ship(imaging));
    ASSERT_FALSE(gap.ok());
    EXPECT_EQ(gap.error(), ErrorCode::conflict);
    EXPECT_EQ(applier.applied(), 1u);
    EXPECT_EQ(backend->read_log(), before);
  }
}

TEST(ReplicaApplierTest, ResyncAdoptsAWholeLogAtAnyFloor) {
  // The primary's log: frames 1 to 4.
  auto primary = std::make_shared<MemoryBackend>(2);
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    test::append_run(*primary, seq % 3, record(static_cast<std::uint32_t>(seq),
                                            seq));
  }
  {
    SCOPED_TRACE("a backup holding a prefix gains only the rest");
    auto backup = std::make_shared<MemoryBackend>(2);
    ReplicaApplier applier(backup);
    const Buffer log = primary->read_log();
    Frame head;
    const std::span<const std::uint8_t> frames = log_frames(log);
    const std::size_t first = decode_frame(frames, head);
    ASSERT_GT(first, 0u);
    ASSERT_TRUE(applier
                    .apply_shipment(encode_shipment(
                        false, frames.subspan(0, first)))
                    .ok());
    const std::uint64_t writes = backup->append_count();
    const auto floor = applier.apply_shipment(resync_of(*primary));
    ASSERT_TRUE(floor.ok());
    EXPECT_EQ(floor.value(), 4u);
    EXPECT_EQ(backup->append_count(), writes + 1) << "one append, no rewrite";
    test::expect_backup_is_prefix(*primary, *backup);
  }
  for (const std::uint64_t foreign : {1, 40}) {
    SCOPED_TRACE("another volume's log at floor " + std::to_string(foreign));
    auto backup = std::make_shared<MemoryBackend>(2);
    ReplicaApplier applier(backup);
    for (std::uint64_t seq = 1; seq <= foreign; ++seq) {
      ASSERT_TRUE(applier.apply_shipment(ship(one_run_frame(seq, 0))).ok());
    }
    const auto floor = applier.apply_shipment(resync_of(*primary));
    ASSERT_TRUE(floor.ok());
    EXPECT_EQ(floor.value(), 4u);
    test::expect_backup_is_prefix(*primary, *backup);
    // And the stream continues right behind it.
    EXPECT_TRUE(applier.apply_shipment(ship(one_run_frame(5, 1))).ok());
    EXPECT_EQ(applier.applied(), 5u);
  }
  {
    SCOPED_TRACE("a resync that does not start a log is refused");
    auto backup = std::make_shared<MemoryBackend>(2);
    ReplicaApplier applier(backup);
    ASSERT_TRUE(applier.apply_shipment(ship(one_run_frame(1, 0))).ok());
    const Buffer before = backup->read_log();
    const auto refused =
        applier.apply_shipment(encode_shipment(true, one_run_frame(3, 0)));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error(), ErrorCode::invalid_argument);
    EXPECT_EQ(backup->read_log(), before);
    // An empty primary's resync empties a stale backup.
    const auto emptied = applier.apply_shipment(encode_shipment(true, {}));
    ASSERT_TRUE(emptied.ok());
    EXPECT_EQ(emptied.value(), 0u);
    EXPECT_TRUE(backup->empty());
  }
}

TEST(ReplicaApplierTest, PromoteFencesFurtherShipments) {
  auto backend = std::make_shared<MemoryBackend>(4);
  ReplicaApplier applier(backend);
  ASSERT_TRUE(applier.apply_shipment(ship(sample_frame(1))).ok());
  EXPECT_EQ(applier.promote(), 1u);
  EXPECT_TRUE(applier.promoted());
  const auto refused = applier.apply_shipment(ship(sample_frame(2)));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error(), ErrorCode::immutable);
}

/// Offers a shipment to `applier` and returns the outcome the rules of
/// docs/PROTOCOL.md §9.2 predict, with the log the backup must then hold:
/// the oracle the wire fuzz checks the applier against.
struct Expected {
  bool refused = false;  // invalid_argument or conflict: log unchanged
  std::uint64_t floor = 0;
  Buffer log;
};
[[nodiscard]] Expected predict(const Buffer& shipment, const Buffer& log,
                               std::uint64_t floor, std::size_t streams) {
  Expected out{true, floor, log};
  bool resync = false;
  std::span<const std::uint8_t> frames;
  if (!decode_shipment(shipment, resync, frames)) {
    return out;
  }
  Frame frame;
  const std::size_t size = decode_frame(frames, frame);
  if (size == 0 || size != frames.size() ||
      std::any_of(frame.appends.begin(), frame.appends.end(),
                  [&](const ShardAppend& a) { return a.shard >= streams; })) {
    return out;
  }
  Buffer fresh;
  encode_log_header(fresh);
  fresh.insert(fresh.end(), frames.begin(), frames.end());
  if (resync) {
    if (!frame.checkpoint && frame.seq != 1) {
      return out;
    }
    return {false, frame.seq, fresh};
  }
  if (frame.seq <= floor) {
    return {false, floor, log};  // a duplicate
  }
  if (frame.seq != floor + 1) {
    return out;  // a gap
  }
  if (frame.checkpoint) {
    return {false, frame.seq, fresh};
  }
  Buffer appended = log;
  appended.insert(appended.end(), frames.begin(), frames.end());
  return {false, frame.seq, appended};
}

TEST(ReplicationWireFuzz, BentFieldsNeverCrashOrHalfApply) {
  // Field-level mutation of shipments (docs/PROTOCOL.md §9.2): bend the
  // resync flag, the frame's sequence number or flags, the group count, a
  // stream index or a run length, re-seal the frame checksum so the bend
  // reaches the decoder, and offer the shipment to an applier at floor 1.
  // The backup's log must then be exactly what the §9.2 rules predict --
  // the frame appended whole, a log started by it, or the log untouched
  // -- and the decoder never sizes an allocation by more entries than its
  // input can hold.  AMOEBA_TEST_SEED picks the bends.
  Rng rng(test::seed_base(43) * 0x9E3779B97F4A7C15ULL + 18);
  // Runs on two object shards and the reply stream (index 4).
  const std::vector<ShardAppend> appends = {
      {0, record(1, 5)}, {2, record(2, 5)}, {4, record(3, 5)}};
  const Buffer pristine = ship(frame_of(2, appends));
  // Offsets in the shipment: flags 0, then the frame at 1.
  constexpr std::size_t kFrame = 1;
  constexpr std::size_t kSeq = kFrame + 8;
  constexpr std::size_t kFlags = kFrame + 16;
  constexpr std::size_t kCount = kFrame + 17;
  std::vector<std::size_t> stream_at;
  std::size_t pos = kFrame + 21;
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
  int applied = 0;
  int refused = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    Buffer bent = pristine;
    for (std::uint64_t m = 1 + rng.below(2); m > 0; --m) {
      const std::size_t run = rng.below(appends.size());
      switch (rng.below(6)) {
        case 0: {
          const std::uint64_t choices[] = {0, 1, 2, 3, ~std::uint64_t{0},
                                           rng.next()};
          store_u64(bent, kSeq, choices[rng.below(6)]);
          break;
        }
        case 1:
          bent[kFlags] = static_cast<std::uint8_t>(
              rng.below(2) == 0 ? rng.below(3) : rng.next());
          break;
        case 2:
          bent[0] = static_cast<std::uint8_t>(
              rng.below(2) == 0 ? rng.below(3) : rng.next());
          break;
        case 3:
          store_u32(bent, kCount, bent_u32(3));
          break;
        case 4:
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
    reseal(bent, kFrame);
    Frame decoded;
    (void)decode_frame(std::span(bent).subspan(kFrame), decoded);
    EXPECT_LE(decoded.appends.capacity(), bent.size() / 8)
        << "an allocation sized past the input";

    auto volume = std::make_shared<MemoryBackend>(4);
    ReplicaApplier applier(volume);
    ASSERT_TRUE(applier.apply_shipment(ship(one_run_frame(1, 1))).ok());
    const Expected expected =
        predict(bent, volume->read_log(), 1, volume->stream_count());
    const auto result = applier.apply_shipment(bent);
    EXPECT_EQ(result.ok(), !expected.refused);
    EXPECT_EQ(applier.applied(), expected.floor);
    EXPECT_EQ(volume->read_log(), expected.log)
        << "the backup's log is not what the shipment rules predict";
    ++(expected.refused ? refused : applied);
    if (::testing::Test::HasFailure()) {
      FAIL() << "iteration " << iter << " (seed base "
             << test::seed_base(43) << ")";
    }
  }
  // Neither outcome was vacuous.
  EXPECT_GT(applied, 0);
  EXPECT_GT(refused, 0);
}

/// A link straight into an in-process applier whose first
/// `failed_ships` shipments time out.
class DirectLink final : public ReplicationLink {
 public:
  DirectLink(ReplicaApplier& applier, int failed_ships)
      : applier_(&applier), failed_ships_(failed_ships) {}

  [[nodiscard]] std::string peer_name() const override { return "backup"; }
  [[nodiscard]] Result<std::uint64_t> ship_cycle(
      std::span<const std::uint8_t> shipment) override {
    if (failed_ships_ > 0) {
      --failed_ships_;
      return ErrorCode::timeout;
    }
    return applier_->apply_shipment(shipment);
  }
  [[nodiscard]] Result<std::uint64_t> heartbeat(std::uint64_t) override {
    return applier_->applied();
  }

 private:
  ReplicaApplier* applier_;
  int failed_ships_;
};

/// Polls until every peer of `primary` acknowledged everything queued.
[[nodiscard]] bool synced(const ReplicatedBackend& primary) {
  for (int i = 0; i < 2000; ++i) {
    const auto stats = primary.stats();
    if (std::all_of(stats.peers.begin(), stats.peers.end(),
                    [&](const auto& peer) {
                      return peer.queued == 0 &&
                             peer.acked_lsn >= stats.shipped_lsn;
                    })) {
      return true;
    }
    std::this_thread::sleep_for(1ms);
  }
  return false;
}

TEST(ReplicatedBackendTest, BackupHoldingAnotherVolumesFloorConverges) {
  // The backup outlived an earlier primary, or holds another volume: its
  // floor (1, equal to the new primary's first frame, or 40, far above
  // it) names frames this primary never wrote.  The attach resync is
  // offered first, retried through timeouts, and adopted whatever the
  // floor; the frames after it then apply in order.
  for (const std::uint64_t stale_floor : {1, 40}) {
    SCOPED_TRACE("stale floor " + std::to_string(stale_floor));
    auto backup = std::make_shared<MemoryBackend>(4);
    ReplicaApplier applier(backup);
    for (std::uint64_t seq = 1; seq <= stale_floor; ++seq) {
      ASSERT_TRUE(applier.apply_shipment(ship(one_run_frame(seq, 0))).ok());
    }
    auto local = std::make_shared<MemoryBackend>(4);
    test::append_run(*local, 1, record(1, 1));

    auto primary = std::make_shared<ReplicatedBackend>(local, AckMode::ack_one);
    primary->attach_peer(std::make_shared<DirectLink>(applier, 3));
    ASSERT_TRUE(synced(*primary)) << "the resync was never acknowledged";
    EXPECT_EQ(applier.applied(), 1u);
    // ack_one: durable once the backup applied it.
    GroupCommitter committer(primary);
    committer.wait_durable(committer.enqueue(2, record(2, 1)));
    EXPECT_EQ(applier.applied(), 2u);
    test::expect_backup_is_prefix(*local, *backup);
  }
}

TEST(ReplicaApplierTest, ResyncIsOneBarrierHoldingTheWholeLog) {
  // A resync onto an empty backup is ONE shipment the backup lands as one
  // write: the crash image taken there is the primary's log, whole, and
  // its floor is the primary's last frame.
  auto local = std::make_shared<MemoryBackend>(4);
  for (std::size_t s = 0; s < local->stream_count(); ++s) {
    const auto object = static_cast<std::uint32_t>(s + 1);
    test::append_run(*local, 
        s, snapshot_record(encode_snapshot(
               {{ObjectNumber(object), 0x5EC2E7, Buffer{7}}}, 10)) +
               record(object, 11));
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
  {
    ReplicatedBackend primary(local, AckMode::ack_one);
    primary.attach_peer(std::make_shared<DirectLink>(applier, 0));
    ASSERT_TRUE(synced(primary)) << "the resync never landed";
  }
  backup->set_append_hook(nullptr);
  const std::lock_guard lock(images_mutex);
  ASSERT_EQ(images.size(), 1u);
  {
    ReplicaApplier reopened(images[0]);
    EXPECT_EQ(reopened.applied(), local->last_seq());
    test::expect_backup_is_prefix(*local, *images[0]);
    // Run forward past the barrier: the next frame lands behind the
    // resync's, and a backup reopened after it resumes above it.
    const Buffer next = one_run_frame(local->last_seq() + 1, 1);
    ASSERT_TRUE(reopened.apply_shipment(ship(next)).ok());
    local->append_frames(next);
  }
  const ReplicaApplier forward(images[0]);
  EXPECT_EQ(forward.applied(), local->last_seq());
  test::expect_backup_is_prefix(*local, *images[0]);
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
          Frame decoded;
          ASSERT_EQ(decode_frame(cycle.frame, decoded), cycle.frame.size());
          EXPECT_EQ(decoded.seq, cycle.seq);
          std::uint64_t seen = 0;
          for (const ShardAppend& a : decoded.appends) {
            seen += a.bytes.size();
          }
          // The cycle's frame, as encoded once, is the log's last frame.
          const Buffer log = backend->read_log();
          ASSERT_GE(log.size(), cycle.frame.size());
          EXPECT_TRUE(std::equal(cycle.frame.begin(), cycle.frame.end(),
                                 log.end() - static_cast<std::ptrdiff_t>(
                                                 cycle.frame.size())))
              << "hook fired before the frame was written";
          EXPECT_EQ(cycle.seq, backend->last_seq());
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
      const Buffer record = storage::record(i, i + 1);
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

  /// Every scenario ends checking the backup against its primary, byte
  /// for byte: the whole log, or a prefix of it where the scenario leaves
  /// shipments unacknowledged (a fenced primary, async teardown).
  void TearDown() override {
    shutdown();
    test::expect_backup_is_prefix(*local_, *backup_backend_, whole_at_end_);
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

  /// The whole point of shipping frames as written: the backup's
  /// commit.log is the primary's, byte for byte.
  void expect_volumes_equal() {
    test::expect_backup_is_prefix(*local_, *backup_backend_);
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
  bool whole_at_end_ = true;
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
  shutdown();  // its last flush ships too (pending reply bodies)
  const std::uint64_t floor_down = replica_->applier().applied();
  // While the bank is down its volume gains a frame the backup never saw:
  // a reply-stream image at the stream's last LSN.
  {
    std::uint64_t last_lsn = 0;
    const storage::ReplyRows rows =
        storage::read_reply_stream(*local_, last_lsn);
    const Buffer image = storage::encode_reply_snapshot(rows, last_lsn);
    storage::GroupCommitter committer(local_);
    committer.install_snapshot(local_->reply_stream(), image);
    committer.wait_durable(committer.issued());
  }
  // The bank restarts on its own volume, numbering its frames on from
  // its log.  Its attach resync ships that log; the backup holds a prefix
  // of it and appends only the frame it lacks.
  boot(storage::AckMode::ack_one, 22);
  ASSERT_TRUE(wait_synced());
  EXPECT_EQ(replica_->applier().applied(), floor_down + 1);
  expect_volumes_equal();
  EXPECT_FALSE(backup_backend_->read_snapshot(local_->reply_stream()).empty());
  workload(3);
  ASSERT_TRUE(wait_synced());
  EXPECT_GT(replica_->applier().applied(), floor_down + 1);
  expect_volumes_equal();
}

TEST_F(ReplicationSuite, AsyncModeCatchesUpAndConverges) {
  whole_at_end_ = false;  // teardown's last frames ship without a wait
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
  // Byte equality is the strong form of both properties: a torn frame or
  // a double-applied one would leave the backup's log differing from the
  // primary's.
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
  whole_at_end_ = false;  // the deposed primary's last frames are its own
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
  whole_at_end_ = false;  // the fenced storm's last frames stay local
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
  // ...then attach: the resync must rebuild the backup from scratch.
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
