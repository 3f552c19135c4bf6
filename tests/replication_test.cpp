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
#include <fstream>
#include <functional>
#include <iterator>
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

/// `run` less its rep_applied markers (a backup's private records).
[[nodiscard]] Buffer without_markers(const Buffer& run) {
  Buffer out;
  for (const Record& record : decode_journal(run)) {
    if (record.type != RecordType::rep_applied) {
      encode_record(record, out);
    }
  }
  return out;
}

/// A resync's runs over `volume`: every stream's state, an empty image
/// standing in for a stream without one.
[[nodiscard]] std::vector<ShardAppend> resync_runs(const Backend& volume) {
  std::vector<ShardAppend> runs;
  for (std::size_t s = 0; s < volume.stream_count(); ++s) {
    runs.push_back({s, snapshot_record(volume.read_snapshot(s)) +
                           volume.read_journal(s)});
  }
  return runs;
}

/// The backup holds the primary's state, stream for stream: the same
/// image and the same records above it (less the backup's markers).
void expect_same_state(const Backend& primary, const Backend& backup) {
  for (std::size_t s = 0; s < primary.stream_count(); ++s) {
    EXPECT_EQ(backup.read_snapshot(s), primary.read_snapshot(s))
        << "image of stream " << s;
    EXPECT_EQ(without_markers(backup.read_journal(s)),
              primary.read_journal(s))
        << "records of stream " << s;
  }
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
    SCOPED_TRACE(stream == 4 ? "image on the reply stream"
                             : "image on an object shard");
    auto backend = std::make_shared<MemoryBackend>(4);
    ASSERT_EQ(backend->reply_stream(), 4u);
    {
      ReplicaApplier applier(backend);
      ASSERT_TRUE(applier.apply_cycle(sample_frame(1)).ok());
      ASSERT_TRUE(applier.apply_cycle(sample_frame(2)).ok());
      // The image subsumes every record at or below its lsn, the markers'
      // lsn 0 among them: the newest marker stays live regardless.
      const std::vector<ShardAppend> image = {
          {stream, snapshot_record(encode_snapshot({}, 9))}};
      ASSERT_TRUE(applier.apply_cycle(encode_cycle_frame(3, image)).ok());
    }
    expect_resumes_at(backend, 3);
  }
  {
    // A cycle whose image takes commit.log past its 8 MiB GC threshold:
    // the rewrite keeps the newest marker, which names that cycle.
    SCOPED_TRACE("image whose cycle rewrites commit.log");
    const auto dir = std::filesystem::temp_directory_path() /
                     ("amoeba-replica-gc-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    constexpr std::uint64_t kRecords = 160000;
    const auto records = [](std::uint64_t from, std::uint64_t to) {
      Buffer run;
      for (std::uint64_t lsn = from; lsn <= to; ++lsn) {
        encode_record({RecordType::mutate, ObjectNumber(100), 0x5EC2E7, lsn,
                       Buffer(24, 0xAB)},
                      run);
      }
      return run;
    };
    {
      auto volume = std::make_shared<FileBackend>(dir, 2);
      ReplicaApplier applier(volume);
      const std::vector<ShardAppend> first = {{0, records(1, kRecords / 2)}};
      ASSERT_TRUE(applier.apply_cycle(encode_cycle_frame(1, first)).ok());
      ASSERT_TRUE(applier.apply_cycle(one_run_frame(2, 1)).ok());
      const std::vector<ShardAppend> last = {
          {0, records(kRecords / 2 + 1, kRecords) +
                  snapshot_record(encode_snapshot({}, kRecords))}};
      ASSERT_TRUE(applier.apply_cycle(encode_cycle_frame(3, last)).ok());
      EXPECT_EQ(volume->rewrite_stats().rewrites, 1u);
      EXPECT_LT(std::filesystem::file_size(dir / "commit.log"), 4096u)
          << "the cycle did not rewrite commit.log";
    }
    expect_resumes_at(std::make_shared<FileBackend>(dir, 2), 3);
    std::filesystem::remove_all(dir);
  }
}

TEST(ReplicaApplierTest, ResyncedTailsAppendOnlyWhatAStreamLacks) {
  // The primary's history, shipped cycle by cycle: records 1..3 of stream
  // 0, then a compaction (an image at 2 and record 4 behind it).  Then
  // the primary restarts and resyncs in one frame that images every
  // stream: the backup already holds records 3 and 4 above the image, so
  // it appends each stream's image alone -- never dropped as held, though
  // its lsn is below what the stream holds -- and the records it lacks.
  // A restarted applier learns what each stream holds from the volume.
  const auto run = [](std::uint64_t from, std::uint64_t to) {
    Buffer out;
    for (std::uint64_t lsn = from; lsn <= to; ++lsn) {
      out = out + record(static_cast<std::uint32_t>(lsn), lsn);
    }
    return out;
  };
  auto primary = std::make_shared<MemoryBackend>(4);
  auto backend = std::make_shared<MemoryBackend>(4);
  ReplicaApplier applier(backend);
  const auto ship = [&](ReplicaApplier& to, std::uint64_t rep_lsn,
                        std::vector<ShardAppend> runs) {
    primary->append_journal_batch(std::vector<ShardAppend>(runs));
    ASSERT_TRUE(to.apply_cycle(encode_cycle_frame(rep_lsn, runs)).ok());
    EXPECT_EQ(to.applied(), rep_lsn);
  };
  ship(applier, 1, {{0, run(1, 3)}});
  const Buffer image = encode_snapshot({{ObjectNumber(2), 1, Buffer{2}}}, 2);
  ship(applier, 2, {{0, snapshot_record(image) + run(4, 4)}});
  expect_same_state(*primary, *backend);
  // The restart resync lands on a gap: it images every stream.
  ASSERT_TRUE(
      applier.apply_cycle(encode_cycle_frame(7, resync_runs(*primary))).ok());
  EXPECT_EQ(applier.applied(), 7u);
  EXPECT_EQ(backend->read_journal(0), run(3, 4));
  expect_same_state(*primary, *backend);
  ReplicaApplier restarted(backend);
  EXPECT_EQ(restarted.applied(), 7u);
  // A tail overlapping what the stream holds appends only record 5.
  const std::vector<ShardAppend> tail = {{0, run(4, 5)}};
  ASSERT_TRUE(restarted.apply_cycle(encode_cycle_frame(8, tail)).ok());
  primary->append_journal(0, run(5, 5));
  EXPECT_EQ(backend->read_journal(0), run(3, 5));
  expect_same_state(*primary, *backend);
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

/// Every stream of `volume` in normal form (images included).
[[nodiscard]] std::vector<Buffer> streams(const Backend& volume) {
  std::vector<Buffer> out;
  for (std::size_t s = 0; s < volume.stream_count(); ++s) {
    out.push_back(volume.read_stream(s));
  }
  return out;
}

/// The group an applier holding `held` (per stream) appends for `cycle`:
/// each run less its journal records at or below what the stream holds --
/// snapshot records stay -- then the marker naming the cycle.
[[nodiscard]] std::vector<ShardAppend> applied_runs(
    const CycleFrame& cycle, const std::vector<std::uint64_t>& held) {
  std::vector<ShardAppend> group;
  for (const ShardAppend& a : cycle.appends) {
    Buffer kept;  // a file volume's frame leaves out a run left empty
    std::size_t pos = 0;
    while (const auto r = peek_record(std::span(a.bytes).subspan(pos))) {
      if (r->type == RecordType::snapshot || r->lsn > held.at(a.shard)) {
        kept.insert(kept.end(), a.bytes.begin() + pos,
                    a.bytes.begin() + pos + r->size);
      }
      pos += r->size;
    }
    kept.insert(kept.end(), a.bytes.begin() + pos, a.bytes.end());
    if (!kept.empty()) {
      group.push_back({a.shard, std::move(kept)});
    }
  }
  Writer floor;
  floor.u64(cycle.rep_lsn);
  Buffer marker;
  encode_record_into(RecordType::rep_applied, ObjectNumber{}, 0, 0,
                     floor.buffer(), marker);
  group.push_back({held.size() - 1, std::move(marker)});
  return group;
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
    const std::vector<Buffer> before = streams(*volume);
    const auto result = applier.apply_cycle(bent);
    const std::vector<Buffer> after = streams(*volume);
    if (applier.applied() == 1) {
      ++refused;
      EXPECT_EQ(after, before) << "a rejected frame touched a journal";
    } else {
      ++applied_whole;
      ASSERT_TRUE(decodes);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(decoded.rep_lsn, 2u);
      EXPECT_EQ(applier.applied(), 2u);
      // One group: each stream takes its runs, reduced at an image.
      std::vector<Buffer> expected = before;
      for (const ShardAppend& a : applied_runs(decoded, {0, 1, 0, 0, 0})) {
        Buffer& stream = expected.at(a.shard);
        stream = stream + a.bytes;
        if (holds_snapshot(a.bytes)) {
          stream = live_records(stream);
        }
      }
      for (Buffer& stream : expected) {
        stream = live_records(stream);
      }
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

[[nodiscard]] Buffer read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::filesystem::path& path, const Buffer& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(ReplicationWireFuzz, BentSnapshotRecordsApplyWholeOrLeaveTheLogAlone) {
  // Field-level mutation of a frame that images every stream, on a file
  // volume: bend a record's type, its lsn, a snapshot record's image
  // length, or the frame's rep_lsn; re-seal the record's and the frame's
  // checksums so the bend reaches the applier.  The frame is either
  // applied whole -- commit.log gains exactly one group frame, the runs
  // less what the streams hold plus the marker -- or leaves commit.log
  // byte for byte as it was.  AMOEBA_TEST_SEED picks the bends.
  Rng rng(test::seed_base(43) * 0x9E3779B97F4A7C15ULL + 19);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("amoeba-image-fuzz-" + std::to_string(::getpid()));
  const auto log = dir / "commit.log";
  std::filesystem::remove_all(dir);
  {
    auto volume = std::make_shared<FileBackend>(dir, 2);
    ReplicaApplier applier(volume);
    ASSERT_TRUE(applier.apply_cycle(one_run_frame(1, 1)).ok());
  }
  const Buffer base = read_bytes(log);
  const std::vector<std::uint64_t> held = {0, 1, 0};
  // Streams 0, 1 and the reply stream (2): an image with a record above
  // it, an empty image, and a record above an image placed before it.
  const std::vector<ShardAppend> appends = {
      {0, snapshot_record(encode_snapshot({{ObjectNumber(4), 9, Buffer{4}}},
                                          5)) +
              record(10, 6)},
      {1, snapshot_record({})},
      {2, record(11, 3) + snapshot_record(encode_snapshot({}, 2))}};
  const Buffer pristine = encode_cycle_frame(2, appends);
  // Where each record sits in the frame: header 8, rep_lsn 8, count 4,
  // then per run its stream and length words.
  struct At {
    std::size_t record;
    bool image;
  };
  std::vector<At> records;
  std::size_t pos = 20;
  for (const ShardAppend& a : appends) {
    pos += 8;
    std::size_t in_run = 0;
    while (const auto r = peek_record(std::span(a.bytes).subspan(in_run))) {
      records.push_back({pos + in_run, r->type == RecordType::snapshot});
      in_run += r->size;
    }
    pos += a.bytes.size();
  }
  ASSERT_EQ(pos, pristine.size());
  // A record's body: type u8 at +8, lsn u64 at +21, payload length at +29.
  const auto reseal_record = [](Buffer& frame, std::size_t at) {
    std::uint32_t length = 0;
    for (int i = 0; i < 4; ++i) {
      length |= static_cast<std::uint32_t>(frame[at + i]) << (8 * i);
    }
    store_u32(frame, at + 4,
              frame_checksum(std::span(frame).subspan(at + 8, length)));
  };
  int applied_whole = 0;
  int refused = 0;
  for (int iter = 0; iter < 300; ++iter) {
    Buffer bent = pristine;
    for (std::uint64_t m = 1 + rng.below(2); m > 0; --m) {
      const At at = records[rng.below(records.size())];
      switch (rng.below(4)) {
        case 0:
          bent[at.record + 8] = static_cast<std::uint8_t>(
              rng.below(2) == 0 ? rng.below(12) : rng.next());
          break;
        case 1: {
          const std::uint64_t choices[] = {0, 1, 5, 6, ~std::uint64_t{0},
                                           rng.next()};
          store_u64(bent, at.record + 21, choices[rng.below(6)]);
          break;
        }
        case 2: {
          // The payload (image) length: off by one, zero, or huge.
          const std::uint32_t choices[] = {0, 1, 0xFFFFFFFFu,
                                           static_cast<std::uint32_t>(
                                               rng.next())};
          store_u32(bent, at.record + 29, choices[rng.below(4)]);
          break;
        }
        default: {
          const std::uint64_t choices[] = {0, 1, 2, 3, 40, rng.next()};
          store_u64(bent, 8, choices[rng.below(6)]);
          break;
        }
      }
      reseal_record(bent, at.record);
    }
    reseal(bent);
    CycleFrame decoded;
    ASSERT_TRUE(decode_cycle_frame(bent, decoded));

    write_bytes(log, base);
    auto volume = std::make_shared<FileBackend>(dir, 2);
    ReplicaApplier applier(volume);
    ASSERT_EQ(applier.applied(), 1u);
    const auto result = applier.apply_cycle(bent);
    const Buffer after = read_bytes(log);
    if (applier.applied() == 1) {
      ++refused;
      EXPECT_EQ(after, base) << "a refused frame touched commit.log";
    } else {
      ++applied_whole;
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(applier.applied(), decoded.rep_lsn);
      Buffer expected = base;
      Buffer frame;
      encode_group_frame(applied_runs(decoded, held), frame);
      expected.insert(expected.end(), frame.begin(), frame.end());
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
  std::filesystem::remove_all(dir);
}

TEST(ReplicaApplierTest, FrameImagingEveryStreamAdoptsItsLsnAsFloor) {
  auto backend = std::make_shared<MemoryBackend>(4);
  auto primary = std::make_shared<MemoryBackend>(4);
  primary->append_journal(
      2, snapshot_record(encode_snapshot({{ObjectNumber(2), 1, Buffer{1}}},
                                         3)) +
             record(2, 4));
  ReplicaApplier applier(backend);
  // A resync frame lands on any floor -- no gap check.
  const auto adopted =
      applier.apply_cycle(encode_cycle_frame(10, resync_runs(*primary)));
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(adopted.value(), 10u);
  expect_same_state(*primary, *backend);
  // The stream continues right behind it...
  EXPECT_TRUE(applier.apply_cycle(sample_frame(11)).ok());
  // ...and everything at or below the adopted floor is a duplicate.
  const std::vector<Buffer> before = journals(*backend);
  const auto stale =
      applier.apply_cycle(encode_cycle_frame(5, resync_runs(*primary)));
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale.value(), 11u);
  EXPECT_EQ(journals(*backend), before);
  // A frame that leaves one stream without an image still needs floor+1.
  std::vector<ShardAppend> partial = resync_runs(*primary);
  partial.pop_back();
  const auto gap = applier.apply_cycle(encode_cycle_frame(13, partial));
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.error(), ErrorCode::conflict);
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
  // it before offering anything.  Floor 1 equals the resync's LSN, whose
  // duplicate ack would look exactly like an apply.
  for (const std::uint64_t stale_floor : {1, 40}) {
    SCOPED_TRACE("stale floor " + std::to_string(stale_floor));
    auto backup = std::make_shared<MemoryBackend>(4);
    ReplicaApplier applier(backup);
    auto stale = std::make_shared<MemoryBackend>(4);
    stale->append_journal(
        0, snapshot_record(encode_snapshot({{ObjectNumber(8), 1, Buffer{8}}},
                                           7)));
    ASSERT_TRUE(applier
                    .apply_cycle(encode_cycle_frame(stale_floor,
                                                    resync_runs(*stale)))
                    .ok());
    auto local = std::make_shared<MemoryBackend>(4);
    local->append_journal(1, record(1, 1));

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
    committer.wait_durable(committer.enqueue(2, record(2, 1)));
    // The resync's empty image reset the stale shard 0.
    expect_same_state(*local, *backup);
  }
}

/// Forwards to an in-process applier and logs every frame it newly
/// applies (its floor moved to exactly that frame's LSN), then runs
/// `after_apply` (when set).
class RecordingLink final : public ReplicationLink {
 public:
  explicit RecordingLink(ReplicaApplier& applier) : applier_(&applier) {}

  std::function<void()> after_apply;  // set before attaching

  [[nodiscard]] std::string peer_name() const override { return "backup"; }
  [[nodiscard]] Result<std::uint64_t> ship_cycle(
      std::span<const std::uint8_t> frame) override {
    const auto floor = applier_->apply_cycle(frame);
    CycleFrame cycle;
    if (floor.ok() && decode_cycle_frame(frame, cycle) &&
        floor.value() == cycle.rep_lsn) {
      {
        const std::lock_guard lock(mutex_);
        applied_.push_back(std::move(cycle));
      }
      if (after_apply) {
        after_apply();
      }
    }
    return floor;
  }
  [[nodiscard]] Result<std::uint64_t> heartbeat(std::uint64_t) override {
    return applier_->applied();
  }

  [[nodiscard]] std::vector<CycleFrame> applied() const {
    const std::lock_guard lock(mutex_);
    return applied_;
  }

 private:
  ReplicaApplier* applier_;
  mutable std::mutex mutex_;
  std::vector<CycleFrame> applied_;
};

TEST(ReplicaApplierTest, ResyncIsOneBarrierHoldingItsWholeFloor) {
  // A full resync onto an empty backup is ONE shipment the backup lands
  // as one journal barrier: the crash image taken there holds every
  // stream of the primary -- distinct images and the records above them
  // -- and a floor naming the resync, never a floor without its content.
  auto local = std::make_shared<MemoryBackend>(4);
  for (std::size_t s = 0; s < local->stream_count(); ++s) {
    const auto object = static_cast<std::uint32_t>(s + 1);
    local->append_journal(
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
  ASSERT_EQ(link->applied().size(), 1u);
  const std::lock_guard lock(images_mutex);
  ASSERT_EQ(images.size(), 1u);
  const ReplicaApplier reopened(images[0]);
  EXPECT_EQ(reopened.applied(), link->applied()[0].rep_lsn);
  expect_same_state(*local, *images[0]);
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
  // it.  Every image must reach the backup in the cycle frame that
  // carries the floors of the effects it holds or a later one, and no
  // image of either volume -- both captured inside the post-flush hook,
  // right after the backup applied a frame -- may hold an effect without
  // its floor.
  constexpr std::uint64_t kRequests = 24;
  auto local = std::make_shared<MemoryBackend>(1);
  auto backup = std::make_shared<MemoryBackend>(1);
  ReplicaApplier applier(backup);
  auto link = std::make_shared<RecordingLink>(applier);
  std::mutex images_mutex;
  std::vector<std::shared_ptr<MemoryBackend>> images;
  // ack_one: a cycle frame is applied while the flusher waits for its ack
  // inside the hook, so the primary's capture is taken inside the hook.
  link->after_apply = [&] {
    auto primary_image = local->capture();
    auto backup_image = backup->capture();
    const std::lock_guard lock(images_mutex);
    images.push_back(std::move(primary_image));
    images.push_back(std::move(backup_image));
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

  // Apply order: every image in or after the frame carrying the floors of
  // the effects it holds.  A frame lands whole, so its own floors count.
  ReplyRows shipped_rows;
  std::uint64_t shipped_floor = 0;
  std::size_t images_shipped = 0;
  for (const CycleFrame& frame : link->applied()) {
    for (const ShardAppend& run : frame.appends) {
      if (run.shard == local->reply_stream()) {
        shipped_floor = fold_floor(run.bytes, shipped_rows);
      }
    }
    for (const ShardAppend& run : frame.appends) {
      for (const Record& record : decode_journal(run.bytes)) {
        if (run.shard != 0 || record.type != RecordType::snapshot) {
          continue;
        }
        ++images_shipped;
        EXPECT_LE(image_counter(record.payload), shipped_floor)
            << "frame " << frame.rep_lsn << " shipped an image before its "
            << "floor";
      }
    }
  }
  // The resync's empty image, the create's, one per request, compact()'s.
  EXPECT_GE(images_shipped, kRequests + 3);

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
  // snapshot record subsumes the journal records below it.
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

  /// The whole point of journal shipping: the backup volume holds the
  /// primary's own state, stream for stream (the backup's reply stream
  /// adds its private floor markers).
  void expect_volumes_equal() {
    storage::expect_same_state(*local_, *backup_backend_);
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
  shutdown();  // its last flush ships too (pending reply bodies)
  const std::uint64_t floor_down = replica_->applier().applied();
  // While the bank is down its reply stream compacts: an image at the
  // stream's last LSN, whose records the backup already holds.
  {
    std::uint64_t last_lsn = 0;
    const storage::ReplyRows rows =
        storage::read_reply_stream(*local_, last_lsn);
    const Buffer image = storage::encode_reply_snapshot(rows, last_lsn);
    storage::GroupCommitter committer(local_);
    committer.wait_durable(
        committer.install_snapshot(local_->reply_stream(), image));
  }
  // The bank restarts on its own volume.  Its shipment numbering starts
  // over, below the floor the backup already holds: the restarted
  // primary must learn that floor and number above it, or the backup
  // answers every shipment as a duplicate without applying it.  Its
  // resync is one frame, whose reply-stream image the backup must take
  // although its lsn is below what the stream holds.
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
