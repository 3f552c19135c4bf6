// Unit tests for the durability substrate: journal record framing (torn
// tails, checksums), snapshot round trips, the Memory/File backends, and
// the durable ShardedObjectStore itself -- journaling, compaction, and
// snapshot+journal recovery with capability survival.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/object_store.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/record.hpp"
#include "amoeba/storage/replication/replica.hpp"
#include "amoeba/storage/replication/replicated_backend.hpp"
#include "amoeba/storage/replication/wire.hpp"
#include "test_seed.hpp"
#include "volumes.hpp"

namespace amoeba::storage {
namespace {

using namespace std::chrono_literals;

TEST(RecordCodec, RoundTripsAllRecordTypes) {
  Buffer journal;
  encode_record({RecordType::create, ObjectNumber(7), 0xDEADBEEF, 1,
                 Buffer{1, 2, 3}},
                journal);
  encode_record({RecordType::mutate, ObjectNumber(7), 0, 2, Buffer{9}},
                journal);
  encode_record({RecordType::rotate, ObjectNumber(7), 0xFEED, 3, {}},
                journal);
  encode_record({RecordType::destroy, ObjectNumber(7), 0, 4, {}}, journal);
  bool torn = true;
  const auto records = decode_journal(journal, &torn);
  EXPECT_FALSE(torn);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].type, RecordType::create);
  EXPECT_EQ(records[0].object.value(), 7u);
  EXPECT_EQ(records[0].secret, 0xDEADBEEFu);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[0].payload, (Buffer{1, 2, 3}));
  EXPECT_EQ(records[1].type, RecordType::mutate);
  EXPECT_EQ(records[2].secret, 0xFEEDu);
  EXPECT_EQ(records[3].type, RecordType::destroy);
}

TEST(RecordCodec, DeltaRecordRoundTrips) {
  Buffer journal;
  encode_record({RecordType::delta, ObjectNumber(9), 0xCAFE, 5,
                 Buffer{0xAA, 0xBB}},
                journal);
  bool torn = true;
  const auto records = decode_journal(journal, &torn);
  EXPECT_FALSE(torn);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, RecordType::delta);
  EXPECT_EQ(records[0].object.value(), 9u);
  EXPECT_EQ(records[0].secret, 0xCAFEu);
  EXPECT_EQ(records[0].lsn, 5u);
  EXPECT_EQ(records[0].payload, (Buffer{0xAA, 0xBB}));
  // One past the last known type is rejected, ending the parse.
  Buffer bad;
  encode_record({static_cast<RecordType>(
                     static_cast<std::uint8_t>(RecordType::incarnation) + 1),
                 ObjectNumber(1), 0, 1, {}},
                bad);
  torn = false;
  EXPECT_TRUE(decode_journal(bad, &torn).empty());
  EXPECT_TRUE(torn);
}

TEST(RecordCodec, TornTailStopsCleanly) {
  Buffer journal;
  encode_record({RecordType::create, ObjectNumber(1), 11, 1, Buffer{4, 5}},
                journal);
  const std::size_t intact = journal.size();
  encode_record({RecordType::create, ObjectNumber(2), 22, 2, Buffer{6}},
                journal);
  // A crash tore the second append: drop its last 3 bytes.
  journal.resize(journal.size() - 3);
  bool torn = false;
  const auto records = decode_journal(journal, &torn);
  EXPECT_TRUE(torn);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].object.value(), 1u);
  // The intact prefix alone parses clean.
  const auto prefix = decode_journal(
      std::span<const std::uint8_t>(journal.data(), intact), &torn);
  EXPECT_FALSE(torn);
  EXPECT_EQ(prefix.size(), 1u);
}

TEST(RecordCodec, CorruptChecksumEndsTheParse) {
  Buffer journal;
  encode_record({RecordType::create, ObjectNumber(1), 11, 1, Buffer{4}},
                journal);
  encode_record({RecordType::create, ObjectNumber(2), 22, 2, Buffer{5}},
                journal);
  journal[journal.size() - 1] ^= 0xFF;  // flip a body byte of record 2
  bool torn = false;
  const auto records = decode_journal(journal, &torn);
  EXPECT_TRUE(torn);
  ASSERT_EQ(records.size(), 1u);
}

TEST(SnapshotCodec, RoundTripsSlotsAndAppliedLsn) {
  std::vector<SnapshotSlot> slots;
  slots.push_back({ObjectNumber(3), 0xABC, Buffer{1}});
  slots.push_back({ObjectNumber(19), 0xDEF, Buffer{2, 3}});
  const Buffer image = encode_snapshot(slots, 42);
  std::vector<SnapshotSlot> out;
  std::uint64_t lsn = 0;
  ASSERT_TRUE(decode_snapshot(image, out, lsn));
  EXPECT_EQ(lsn, 42u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].object.value(), 3u);
  EXPECT_EQ(out[1].secret, 0xDEFu);
  // Empty input is a fresh shard; garbage is rejected.
  ASSERT_TRUE(decode_snapshot({}, out, lsn));
  EXPECT_TRUE(out.empty());
  const Buffer garbage{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_FALSE(decode_snapshot(garbage, out, lsn));
}

/// One framed record of a given object/lsn, for feeding the committer what
/// a real store would (decode_journal must parse what the flusher lands).
[[nodiscard]] Buffer frame(std::uint32_t object, std::uint64_t lsn) {
  Buffer out;
  encode_record({RecordType::mutate, ObjectNumber(object), 0x5EC2E7, lsn,
                 Buffer{static_cast<std::uint8_t>(object & 0xFF)}},
                out);
  return out;
}

[[nodiscard]] std::filesystem::path fresh_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("amoeba-") + tag + "-" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
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

TEST(MemoryBackendTest, JournalSnapshotAndCapture) {
  MemoryBackend backend(4);
  EXPECT_TRUE(backend.empty());
  const Buffer a = frame(1, 1);
  test::append_run(backend, 1, a);
  EXPECT_FALSE(backend.empty());
  EXPECT_EQ(backend.read_journal(1), a);
  EXPECT_TRUE(backend.read_journal(0).empty());

  // Capture is a deep copy: later writes don't leak into the image.
  const auto image = backend.capture();
  test::append_run(backend, 1, frame(2, 2));
  const Buffer snapshot = encode_snapshot({}, 2);
  test::append_run(backend, 1, snapshot_record(snapshot));
  EXPECT_EQ(image->read_journal(1), a);
  EXPECT_TRUE(image->read_snapshot(1).empty());
  // The snapshot record subsumes both records (compaction contract).
  EXPECT_TRUE(backend.read_journal(1).empty());
  EXPECT_EQ(backend.read_snapshot(1), snapshot);
}

TEST(MemoryBackendTest, AppendHookFiresWithRunningCount) {
  MemoryBackend backend(2);
  std::vector<std::uint64_t> counts;
  backend.set_append_hook([&](std::uint64_t n) { counts.push_back(n); });
  test::append_run(backend, 0, Buffer{1});
  test::append_run(backend, 1, Buffer{2});
  std::vector<ShardAppend> batch;
  batch.push_back({0, Buffer{3}});
  batch.push_back({1, Buffer{4}});
  test::append_group(backend, std::move(batch));
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 3u);  // the batch is one frame: one write
  EXPECT_EQ(backend.append_count(), 3u);
}

TEST(FileBackendTest, PersistsAcrossReopen) {
  const auto dir = fresh_dir("storage-test");
  const Buffer image1 = encode_snapshot({{ObjectNumber(1), 9, Buffer{9}}}, 5);
  const Buffer image0 = encode_snapshot({}, 2);
  {
    FileBackend backend(dir, 2);
    EXPECT_TRUE(backend.empty());
    test::append_run(backend, 0, frame(1, 1));
    test::append_run(backend, 0, frame(2, 2));
    test::append_run(backend, 1, snapshot_record(image1));
  }
  {
    FileBackend backend(dir, 2);
    EXPECT_FALSE(backend.empty());
    EXPECT_EQ(backend.read_journal(0), frame(1, 1) + frame(2, 2));
    EXPECT_EQ(backend.read_snapshot(1), image1);
    // An image at lsn 2 subsumes shard 0's records; one above stays.
    test::append_run(backend, 0, snapshot_record(image0) + frame(3, 3));
  }
  {
    FileBackend backend(dir, 2);
    EXPECT_EQ(backend.read_journal(0), frame(3, 3));
    EXPECT_EQ(backend.read_snapshot(0), image0);
    EXPECT_EQ(backend.read_snapshot(1), image1);
  }
  // The volume is one file.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"commit.log"});
  std::filesystem::remove_all(dir);
}

TEST(BackendTest, StreamStateIsTheNewestImageAndTheRecordsAboveIt) {
  // A stream's state is its newest snapshot record plus every other
  // record above that image's lsn, wherever it sits: the reply stream can
  // queue a record above an image before the image itself.  Every stream
  // of both volume kinds reads back by the same rule.
  const auto dir = fresh_dir("stream-state");
  const std::vector<std::shared_ptr<Backend>> volumes = {
      std::make_shared<MemoryBackend>(1),
      std::make_shared<FileBackend>(dir, 1)};
  for (const auto& backend : volumes) {
    for (const std::size_t stream : {std::size_t{0}, backend->reply_stream()}) {
      SCOPED_TRACE("stream " + std::to_string(stream));
      const Buffer older = encode_snapshot({}, 1);
      const Buffer newer = encode_snapshot({}, 2);
      test::append_run(*backend, stream, frame(1, 1) + snapshot_record(older));
      test::append_run(*backend, stream, frame(2, 2) + frame(4, 4));
      test::append_run(*backend, stream, snapshot_record(newer) + frame(3, 3));
      EXPECT_EQ(backend->read_snapshot(stream), newer);
      EXPECT_EQ(backend->read_journal(stream), frame(4, 4) + frame(3, 3));
      EXPECT_EQ(backend->read_stream(stream),
                snapshot_record(newer) + frame(4, 4) + frame(3, 3));
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(CommitLogTest, GroupedAppendsRecoverAcrossReopen) {
  const auto dir = fresh_dir("commit-log");
  {
    auto backend = std::make_shared<FileBackend>(dir, 4);
    GroupCommitter committer(backend);
    (void)committer.enqueue(0, frame(10, 1));
    (void)committer.enqueue(2, frame(20, 1));
    const auto last = committer.enqueue(0, frame(11, 2));
    committer.wait_durable(last);
  }
  {
    FileBackend backend(dir, 4);
    EXPECT_FALSE(backend.empty());
    bool torn = true;
    const auto shard0 = decode_journal(backend.read_journal(0), &torn);
    EXPECT_FALSE(torn);
    ASSERT_EQ(shard0.size(), 2u);
    EXPECT_EQ(shard0[0].object.value(), 10u);
    EXPECT_EQ(shard0[0].lsn, 1u);
    EXPECT_EQ(shard0[1].object.value(), 11u);
    EXPECT_EQ(shard0[1].lsn, 2u);
    const auto shard2 = decode_journal(backend.read_journal(2), &torn);
    ASSERT_EQ(shard2.size(), 1u);
    EXPECT_EQ(shard2[0].object.value(), 20u);
  }
  std::filesystem::remove_all(dir);
}

TEST(CommitLogTest, SyncAndGroupedAppendsRecoverInLsnOrder) {
  const auto dir = fresh_dir("commit-order");
  auto backend = std::make_shared<FileBackend>(dir, 2);
  {
    // Wall-time order: sync lsn 1, grouped lsn 2, sync lsn 3.  Every one
    // is a commit.log frame, so the log's order is the LSN order.
    test::append_run(*backend, 0, frame(1, 1));
    GroupCommitter committer(backend);
    committer.wait_durable(committer.enqueue(0, frame(2, 2)));
  }
  test::append_run(*backend, 0, frame(3, 3));
  bool torn = true;
  const auto records = decode_journal(backend->read_journal(0), &torn);
  EXPECT_FALSE(torn);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[1].lsn, 2u);
  EXPECT_EQ(records[2].lsn, 3u);
  EXPECT_EQ(records[1].object.value(), 2u);
  // commit.log is the volume's only journal.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".journal") << entry.path();
  }
  backend.reset();
  std::filesystem::remove_all(dir);
}

TEST(CommitLogTest, TornGroupFrameDropsTheWholeGroup) {
  const auto dir = fresh_dir("commit-torn");
  {
    auto backend = std::make_shared<FileBackend>(dir, 2);
    std::vector<ShardAppend> first;
    first.push_back({0, frame(1, 1)});
    first.push_back({1, frame(2, 1)});
    test::append_group(*backend, std::move(first));
    std::vector<ShardAppend> second;
    second.push_back({0, frame(3, 2)});
    second.push_back({1, frame(4, 2)});
    test::append_group(*backend, std::move(second));
  }
  // Chop one byte off the tail: the second group's frame no longer
  // checksums.  Recovery must drop BOTH of its entries -- a multi-shard
  // group is never half-recovered -- while the first group survives whole.
  const auto log = dir / "commit.log";
  std::filesystem::resize_file(log, std::filesystem::file_size(log) - 1);
  {
    FileBackend backend(dir, 2);
    bool torn = true;
    const auto shard0 = decode_journal(backend.read_journal(0), &torn);
    EXPECT_FALSE(torn);
    ASSERT_EQ(shard0.size(), 1u);
    EXPECT_EQ(shard0[0].object.value(), 1u);
    const auto shard1 = decode_journal(backend.read_journal(1), &torn);
    ASSERT_EQ(shard1.size(), 1u);
    EXPECT_EQ(shard1[0].object.value(), 2u);
  }
  std::filesystem::remove_all(dir);
}

TEST(CommitLogTest, EveryTruncationAndBitFlipDropsExactlyTheTornGroup) {
  // Exhaustive crash-image sweep over the second group's region of
  // commit.log: truncation at EVERY length and a bit flip at EVERY byte
  // offset must each leave recovery holding exactly the first group, or
  // both whole -- never half of the second, never less than all of the
  // first.  The second group carries a shard-0 image at lsn 2 behind a
  // shard-0 record at lsn 3 (a record above an image may precede it), so
  // both groups recover as that image with the record on top.  Both
  // writers of a two-shard group are swept: the group committer and a
  // synchronous test::append_group.
  const auto dir = fresh_dir("commit-fuzz");
  const auto log = dir / "commit.log";
  const Buffer image = encode_snapshot({{ObjectNumber(2), 7, Buffer{7}}}, 2);
  for (const bool committed : {true, false}) {
    SCOPED_TRACE(committed ? "group commit" : "append_group");
    std::filesystem::remove_all(dir);
    std::uintmax_t first_end = 0;
    {
      auto backend = std::make_shared<FileBackend>(dir, 2);
      std::optional<GroupCommitter> committer;
      if (committed) {
        committer.emplace(backend);
      }
      const auto append = [&](Buffer run0, Buffer run1) {
        std::vector<ShardAppend> group;
        group.push_back({0, std::move(run0)});
        group.push_back({1, std::move(run1)});
        if (committer) {
          committer->wait_durable(committer->enqueue_group(std::move(group)));
        } else {
          test::append_group(*backend, std::move(group));
        }
      };
      append(frame(1, 1), frame(2, 1));
      first_end = std::filesystem::file_size(log);
      append(frame(3, 3) + snapshot_record(image), frame(4, 2));
    }
    Buffer pristine;
    {
      std::ifstream in(log, std::ios::binary);
      pristine.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
    }
    ASSERT_GT(pristine.size(), first_end);

    const auto write_log = [&](const Buffer& bytes) {
      std::ofstream out(log, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    };
    // Which groups the volume recovers: 1, 2, or 0 for anything else.
    // Then the recovered program runs forward (ALICE, Pillai et al., OSDI
    // 2014): reopen, append a group, reopen -- the new group must recover
    // on top of exactly what the first open did, never behind bad bytes.
    const auto recovered_groups = [&] {
      int groups = 0;
      std::vector<Buffer> before;
      {
        FileBackend backend(dir, 2);
        if (backend.read_snapshot(0).empty() &&
            backend.read_journal(0) == frame(1, 1) &&
            backend.read_journal(1) == frame(2, 1)) {
          groups = 1;
        } else if (backend.read_snapshot(0) == image &&
                   backend.read_journal(0) == frame(3, 3) &&
                   backend.read_journal(1) == frame(2, 1) + frame(4, 2)) {
          groups = 2;
        }
        for (std::size_t s = 0; s < 2; ++s) {
          before.push_back(backend.read_stream(s));
        }
        std::vector<ShardAppend> next;
        next.push_back({0, frame(5, 8)});
        next.push_back({1, frame(6, 8)});
        test::append_group(backend, std::move(next));
      }
      const FileBackend reopened(dir, 2);
      EXPECT_EQ(reopened.read_stream(0), before[0] + frame(5, 8))
          << "the group appended after recovery was lost";
      EXPECT_EQ(reopened.read_stream(1), before[1] + frame(6, 8));
      return groups;
    };

    // Torn write: the crash image ends anywhere inside the second frame.
    for (std::size_t len = first_end; len < pristine.size(); ++len) {
      SCOPED_TRACE("truncate to " + std::to_string(len));
      write_log(Buffer(pristine.begin(),
                       pristine.begin() + static_cast<std::ptrdiff_t>(len)));
      EXPECT_EQ(recovered_groups(), 1);
    }
    // Rot: any single flipped bit in the second frame (length word,
    // checksum word, or body) trips the frame checksum.
    for (std::size_t at = first_end; at < pristine.size(); ++at) {
      SCOPED_TRACE("flip byte " + std::to_string(at));
      Buffer bent = pristine;
      bent[at] ^= 0x01;
      write_log(bent);
      EXPECT_NE(recovered_groups(), 0);
    }
    // The unharmed image recovers both groups (the sweep above did not
    // pass vacuously).
    write_log(pristine);
    EXPECT_EQ(recovered_groups(), 2);
  }
  std::filesystem::remove_all(dir);
}

TEST(CommitLogTest, TornTailIsCutBeforeTheNextAppend) {
  // A power loss tears the last group frame.  The restarted writer's next
  // group must not land behind the torn bytes, where recovery -- which
  // stops at the tear -- would never reach it: the open cuts the log back
  // to its intact prefix first.
  const auto dir = fresh_dir("commit-torn-append");
  const auto log = dir / "commit.log";
  {
    FileBackend backend(dir, 1);
    test::append_run(backend, 0, frame(1, 1));
    test::append_run(backend, 0, frame(2, 2));
  }
  const auto first_two = std::filesystem::file_size(log);
  std::filesystem::resize_file(log, first_two - 3);
  {
    FileBackend backend(dir, 1);
    EXPECT_EQ(backend.read_journal(0), frame(1, 1));
    test::append_run(backend, 0, frame(3, 3));
  }
  {
    const FileBackend backend(dir, 1);
    EXPECT_EQ(backend.read_journal(0), frame(1, 1) + frame(3, 3))
        << "an acknowledged group sits behind the torn bytes";
  }
  std::filesystem::remove_all(dir);
}

TEST(CommitLogTest, GroupNamingAMissingStreamIsRefusedNotCut) {
  // Written with four shards, opened with two: the third stream's intact
  // group is no crash artifact, so the volume is refused by name and not
  // one byte is cut.
  const auto dir = fresh_dir("commit-wrong-shards");
  const auto log = dir / "commit.log";
  {
    FileBackend backend(dir, 4);
    test::append_run(backend, 0, frame(1, 1));
    test::append_run(backend, 3, frame(2, 1));
  }
  const auto size = std::filesystem::file_size(log);
  try {
    const FileBackend backend(dir, 2);
    ADD_FAILURE() << "a volume with a foreign stream opened";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("commit.log"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("stream 3"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(std::filesystem::file_size(log), size);
  std::filesystem::remove_all(dir);
}

/// The snapshot records in a record run.
[[nodiscard]] std::size_t images_in(std::span<const std::uint8_t> run) {
  std::size_t images = 0;
  std::size_t pos = 0;
  while (const auto record = peek_record(run.subspan(pos))) {
    images += record->type == RecordType::snapshot ? 1 : 0;
    pos += record->size;
  }
  return images;
}

TEST(CommitLogFuzz, BentImageFramesRecoverWholeOrNotAtAll) {
  // Field-level mutation of a commit.log frame that carries images: bend
  // the frame's sequence number or flags, the group count, a stream
  // index, a run length, a record's type or lsn, a snapshot record's image
  // length, or a field inside an image (its magic, applied LSN or slot
  // count); re-seal the record and frame checksums so the bend reaches
  // the decoders.  Recovery must never crash, and the volume reads back as
  // the first frame alone or as both frames whole: exactly what a memory
  // volume holds after the same frames.  A sealed frame that names a
  // stream the volume lacks, or breaks the numbering, is no crash
  // artifact: the volume is refused by name, and its log is left as it
  // was.  AMOEBA_TEST_SEED picks the bends.
  Rng rng(test::seed_base(20) * 0x9E3779B97F4A7C15ULL + 20);
  const auto dir = fresh_dir("commit-image-fuzz");
  const auto log = dir / "commit.log";
  std::filesystem::create_directories(dir);
  const std::vector<ShardAppend> first = {{0, frame(1, 1)},
                                          {1, frame(2, 1)}};
  const std::vector<ShardAppend> second = {
      {0, frame(3, 3) + snapshot_record(encode_snapshot(
                            {{ObjectNumber(2), 7, Buffer{7, 7}}}, 2))},
      {1, frame(4, 2)},
      {2, snapshot_record(encode_snapshot({}, 1)) + frame(5, 2)}};
  Buffer base_frame;
  encode_frame(1, false, first, base_frame);
  Buffer base;
  encode_log_header(base);
  base.insert(base.end(), base_frame.begin(), base_frame.end());
  Buffer pristine;
  encode_frame(2, false, second, pristine);
  // Field offsets inside the second frame: length and checksum 8, seq at
  // 8, flags at 16, count at 17, then per run its stream and length words
  // and its records.
  constexpr std::size_t kSeq = 8;
  constexpr std::size_t kFlags = 16;
  constexpr std::size_t kCount = 17;
  struct At {
    std::size_t record;
    bool image;
  };
  std::vector<std::size_t> run_at;
  std::vector<At> records;
  std::size_t pos = 21;
  for (const ShardAppend& a : second) {
    run_at.push_back(pos);
    pos += 8;
    std::size_t in_run = 0;
    while (const auto r = peek_record(std::span(a.bytes).subspan(in_run))) {
      records.push_back({pos + in_run, r->type == RecordType::snapshot});
      in_run += r->size;
    }
    pos += a.bytes.size();
  }
  ASSERT_EQ(pos, pristine.size());
  const auto put_u32 = [](Buffer& b, std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      b.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  const auto get_u32 = [](const Buffer& b, std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(b.at(at + i)) << (8 * i);
    }
    return v;
  };
  const auto bent_u32 = [&](std::uint32_t original) -> std::uint32_t {
    const std::uint32_t choices[] = {original + 1, original - 1, 0,
                                     0xFFFFFFFFu,
                                     static_cast<std::uint32_t>(rng.next())};
    return choices[rng.below(5)];
  };
  int whole = 0;
  int dropped = 0;
  int refused = 0;
  for (int iter = 0; iter < 500; ++iter) {
    Buffer bent = pristine;
    for (std::uint64_t m = 1 + rng.below(2); m > 0; --m) {
      const At at = records[rng.below(records.size())];
      const std::size_t run = run_at[rng.below(run_at.size())];
      switch (rng.below(9)) {
        case 0:
          put_u32(bent, kCount, bent_u32(3));
          break;
        case 1:
          put_u32(bent, run, bent_u32(get_u32(bent, run)));
          break;
        case 2:
          put_u32(bent, run + 4, bent_u32(get_u32(bent, run + 4)));
          break;
        case 3:
          bent[at.record + 8] = static_cast<std::uint8_t>(rng.below(12));
          break;
        case 4:
          put_u32(bent, at.record + 21 + 4 * rng.below(2),
                  static_cast<std::uint32_t>(rng.next()));
          break;
        case 5:
          if (at.image) {
            const std::size_t length_at = at.record + 29;
            put_u32(bent, length_at, bent_u32(get_u32(bent, length_at)));
          }
          break;
        case 6:
          if (at.image) {
            // The image itself: magic at +33, applied LSN at +39, slot
            // count at +47.
            const std::size_t field[] = {33, 39, 47};
            const std::size_t f = at.record + field[rng.below(3)];
            put_u32(bent, f, bent_u32(get_u32(bent, f)));
          }
          break;
        case 7:
          // The frame's sequence number, high word left alone or not.
          put_u32(bent, kSeq + 4 * rng.below(2), bent_u32(get_u32(bent, kSeq)));
          break;
        default: {
          // The checkpoint flag, or a flag no format defines.
          const std::uint8_t flags[] = {1, 2, 0x80,
                                        static_cast<std::uint8_t>(rng.next())};
          bent[kFlags] = flags[rng.below(4)];
          break;
        }
      }
      // Re-seal the record, when its length word still fits the frame.
      const std::uint32_t length = get_u32(bent, at.record);
      if (at.record + 8 + std::size_t{length} <= bent.size()) {
        put_u32(bent, at.record + 4,
                frame_checksum(std::span(bent).subspan(at.record + 8, length)));
      }
    }
    put_u32(bent, 4, frame_checksum(std::span(bent).subspan(8)));
    Frame decoded;
    const bool parses = decode_frame(bent, decoded) == bent.size();
    const bool foreign =
        parses && (decoded.seq != 2 ||
                   std::any_of(decoded.appends.begin(), decoded.appends.end(),
                               [](const ShardAppend& a) {
                                 return a.shard >= 3;
                               }));
    MemoryBackend reference(2);
    reference.append_frames(base_frame);
    if (parses && !foreign) {
      reference.append_frames(bent);
    }
    {
      std::ofstream out(log, std::ios::binary | std::ios::trunc);
      const Buffer bytes = base + bent;
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    if (foreign) {
      EXPECT_THROW(FileBackend(dir, 2), UsageError);
      EXPECT_EQ(std::filesystem::file_size(log), base.size() + bent.size())
          << "a refused volume was cut";
      ++refused;
      if (::testing::Test::HasFailure()) {
        FAIL() << "iteration " << iter << " (seed base " << test::seed_base(20)
               << ")";
      }
      continue;
    }
    const FileBackend recovered(dir, 2);
    EXPECT_EQ(recovered.last_seq(), parses ? 2u : 1u);
    for (std::size_t s = 0; s < recovered.stream_count(); ++s) {
      EXPECT_EQ(recovered.read_stream(s), reference.read_stream(s))
          << "stream " << s;
      std::vector<SnapshotSlot> slots;
      std::uint64_t lsn = 0;
      (void)decode_snapshot(recovered.read_snapshot(s), slots, lsn);
      (void)decode_journal(recovered.read_journal(s));
    }
    ++(parses ? whole : dropped);
    if (::testing::Test::HasFailure()) {
      FAIL() << "iteration " << iter << " (seed base " << test::seed_base(20)
             << ")";
    }
  }
  // No outcome was vacuous.
  EXPECT_GT(whole, 0);
  EXPECT_GT(dropped, 0);
  EXPECT_GT(refused, 0);
  std::printf("bent frames: %d whole, %d dropped, %d refused\n", whole,
              dropped, refused);
  std::filesystem::remove_all(dir);
}

/// A group-committed string store on `committer`'s volume.
[[nodiscard]] core::Durability<std::string> string_codec(
    std::shared_ptr<GroupCommitter> committer) {
  core::Durability<std::string> d;
  d.committer = std::move(committer);
  d.encode = [](Writer& w, const std::string& v) {
    w.bytes(std::span(reinterpret_cast<const std::uint8_t*>(v.data()),
                      v.size()));
  };
  d.decode = [](Reader& r, std::string& v) {
    const Buffer bytes = r.bytes();
    v.assign(bytes.begin(), bytes.end());
    return r.ok();
  };
  return d;
}

[[nodiscard]] std::shared_ptr<const core::ProtectionScheme> string_scheme() {
  static const std::shared_ptr<const core::ProtectionScheme> shared = [] {
    Rng rng(29);
    return std::shared_ptr<const core::ProtectionScheme>(
        core::make_scheme(core::SchemeKind::one_way_xor, rng));
  }();
  return shared;
}

TEST(CheckpointTest, TrafficCheckpointsStartAFreshLogAndReadNothing) {
  // 8 KiB payloads rewritten until the log crosses its 8 MiB trigger
  // twice: each checkpoint is imaged from memory and becomes a fresh
  // commit.log, so the flusher never reads a byte of the old log, the
  // log's first frame is the newest checkpoint (numbered on, not from 1),
  // and a reopened store recovers the last values.
  const auto dir = fresh_dir("checkpoint-traffic");
  constexpr std::size_t kObjects = 4;
  std::vector<core::Capability> caps;
  std::vector<std::string> last(kObjects);
  std::uint64_t checkpoints = 0;
  {
    auto volume = std::make_shared<FileBackend>(dir, 4);
    auto committer = std::make_shared<GroupCommitter>(volume);
    core::ObjectStore<std::string> store(string_scheme(), Port(0x5151), 3, 4,
                                         string_codec(committer));
    for (std::size_t i = 0; i < kObjects; ++i) {
      caps.push_back(store.create(std::string()));
    }
    for (int round = 0; round < 2000 && committer->stats().checkpoints < 2;
         ++round) {
      RequestScope scope;  // one wait per 32 mutations, as a server's
      for (int k = 0; k < 32; ++k) {
        const std::size_t i = static_cast<std::size_t>(k) % kObjects;
        last[i] = std::string(8192, static_cast<char>('a' + round % 26));
        last[i][0] = static_cast<char>(k);
        auto opened = store.open(caps[i], Rights::all());
        ASSERT_TRUE(opened.ok());
        *opened.value().value = last[i];
        opened.value().mark_dirty();
      }
      scope.settle();
    }
    const GroupCommitter::Stats stats = committer->stats();
    checkpoints = stats.checkpoints;
    EXPECT_EQ(stats.read_bytes, 0u) << "a checkpoint read the old log";
    EXPECT_GT(stats.checkpoint_us_max, 0u);
    EXPECT_EQ(stats.installs, checkpoints * 4);  // one image per shard
    EXPECT_LT(volume->log_bytes(), GroupCommitter::kCheckpointBytes);
    const Buffer log = volume->read_log();
    Frame head;
    ASSERT_GT(decode_frame(log_frames(log), head), 0u);
    EXPECT_TRUE(head.checkpoint);
    EXPECT_GT(head.seq, 1u);
    EXPECT_GE(volume->last_seq(), head.seq);
  }
  ASSERT_GE(checkpoints, 2u);
  auto volume = std::make_shared<FileBackend>(dir, 4);
  core::ObjectStore<std::string> recovered(
      string_scheme(), Port(0x5151), 4, 4,
      string_codec(std::make_shared<GroupCommitter>(volume)));
  for (std::size_t i = 0; i < kObjects; ++i) {
    auto opened = recovered.open(caps[i], Rights::none());
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(*opened.value().value, last[i]) << "object " << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, TempFileLeftByACrashIsIgnoredThenReplaced) {
  // A crash inside a checkpoint leaves the old commit.log whole beside a
  // complete or partial commit.log.tmp.  The open recovers the old log
  // alone, and the next checkpoint overwrites the stale temp file.
  for (const bool complete : {true, false}) {
    SCOPED_TRACE(complete ? "complete temp file" : "partial temp file");
    const auto dir = fresh_dir("checkpoint-tmp");
    const auto tmp = dir / "commit.log.tmp";
    core::Capability cap;
    Buffer log;
    {
      auto volume = std::make_shared<FileBackend>(dir, 2);
      core::ObjectStore<std::string> store(
          string_scheme(), Port(0x5151), 5, 2,
          string_codec(std::make_shared<GroupCommitter>(volume)));
      cap = store.create("old");
      store.compact();  // what the crashed checkpoint would have written
      log = volume->read_log();
      auto opened = store.open(cap, Rights::all());
      *opened.value().value = "newer";
      opened.value().mark_dirty();
    }
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      const std::size_t size = complete ? log.size() : log.size() / 2;
      out.write(reinterpret_cast<const char*>(log.data()),
                static_cast<std::streamsize>(size));
    }
    auto volume = std::make_shared<FileBackend>(dir, 2);
    core::ObjectStore<std::string> store(
        string_scheme(), Port(0x5151), 6, 2,
        string_codec(std::make_shared<GroupCommitter>(volume)));
    EXPECT_EQ(*store.open(cap, Rights::none()).value().value, "newer")
        << "the temp file shadowed the log";
    store.compact();
    EXPECT_FALSE(std::filesystem::exists(tmp));
    const std::shared_ptr<FileBackend> reopened =
        std::make_shared<FileBackend>(dir, 2);
    core::ObjectStore<std::string> again(
        string_scheme(), Port(0x5151), 7, 2,
        string_codec(std::make_shared<GroupCommitter>(reopened)));
    EXPECT_EQ(*again.open(cap, Rights::none()).value().value, "newer");
    std::filesystem::remove_all(dir);
  }
}

TEST(CheckpointTest, AStreamWithoutAnImagerRefusesTheCheckpoint) {
  // Records on the reply stream, and only a store's imager: a checkpoint
  // would start a log without them, so it is refused and the log stays.
  auto volume = std::make_shared<MemoryBackend>(2);
  auto committer = std::make_shared<GroupCommitter>(volume);
  committer->wait_durable(committer->enqueue(volume->reply_stream(),
                                             frame(1, 1)));
  core::ObjectStore<std::string> store(string_scheme(), Port(0x5151), 8, 2,
                                       string_codec(committer));
  (void)store.create("x");
  EXPECT_THROW(store.compact(), UsageError);
  EXPECT_EQ(volume->read_journal(volume->reply_stream()), frame(1, 1));
  EXPECT_EQ(committer->stats().checkpoints, 0u);
}

TEST(CheckpointTest, ABusyImagerIsRetriedUntilItImages) {
  // An imager that finds a lock held queues nothing and reports busy; the
  // flusher retries it, with nothing queued, after kCheckpointRetry, and
  // the checkpoint frame it then writes holds the image alone.
  auto volume = std::make_shared<MemoryBackend>(1);
  GroupCommitter committer(volume);
  committer.wait_durable(committer.enqueue(0, frame(1, 1)));
  int calls = 0;  // the flusher's alone
  const Buffer image = encode_snapshot({}, 1);
  const auto registration = committer.add_imager({0}, [&] {
    if (++calls < 3) {
      return false;
    }
    committer.install_snapshot(0, image);
    return true;
  });
  committer.checkpoint();
  EXPECT_EQ(calls, 3);
  const auto stats = committer.stats();
  EXPECT_EQ(stats.checkpoint_retries, 2u);
  EXPECT_EQ(stats.checkpoints, 1u);
  EXPECT_EQ(stats.groups, 2u);  // the record's cycle, then the checkpoint
  EXPECT_EQ(volume->read_snapshot(0), image);
  EXPECT_TRUE(volume->read_journal(0).empty());
  Frame first;
  ASSERT_GT(decode_frame(log_frames(volume->read_log()), first), 0u);
  EXPECT_TRUE(first.checkpoint);
  EXPECT_EQ(first.seq, 2u);
}

TEST(CommitLogTest, SplitHoldsOnlyEachStreamsNewestImage) {
  // Below the GC threshold superseded images stay in commit.log, but the
  // per-stream split recovery reads holds one image per stream: its memory
  // does not grow with the images the log has seen.
  const auto dir = fresh_dir("commit-split");
  {
    FileBackend backend(dir, 1);
    for (std::uint64_t lsn = 1; lsn <= 50; ++lsn) {
      test::append_run(backend, 
          0, frame(1, lsn) + snapshot_record(encode_snapshot({}, lsn)));
    }
  }
  const FileBackend backend(dir, 1);
  EXPECT_EQ(images_in(backend.read_stream(0)), 1u);
  EXPECT_EQ(peek_snapshot_lsn(backend.read_snapshot(0)), 50u);
  EXPECT_TRUE(backend.read_journal(0).empty());
  std::filesystem::remove_all(dir);
}

TEST(FileBackendTest, BlockingSyscallsPerSyncBatch) {
  // A synchronous two-shard batch is one commit.log frame: one write, one
  // fsync.
  const auto dir = fresh_dir("syscalls");
  FileBackend backend(dir, 2);
  const IoCounters& io = this_thread_io_counters();
  const IoCounters before = io;
  std::vector<ShardAppend> pair;
  pair.push_back({0, frame(1, 2)});
  pair.push_back({1, frame(2, 1)});
  test::append_group(backend, std::move(pair));
  EXPECT_EQ(io.writes - before.writes, 1u);
  EXPECT_EQ(io.fsyncs - before.fsyncs, 1u);
  std::filesystem::remove_all(dir);
}

TEST(FileBackendTest, CycleCarryingACompactionImageIsOneWriteAndOneFsync) {
  // A flush cycle holding records and a compaction image is one commit.log
  // frame on the flusher: one write, one fsync, no other file.
  const auto dir = fresh_dir("syscalls-image");
  auto backend = std::make_shared<FileBackend>(dir, 2);
  GroupCommitter committer(backend);
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool held = false;  // the first cycle reached the hook
  bool open = false;
  IoCounters flusher_before;
  IoCounters flusher_after;
  committer.set_post_flush_hook([&](const auto&) {
    std::unique_lock lock(gate_mutex);
    flusher_after = this_thread_io_counters();
    if (!held) {
      flusher_before = flusher_after;
      held = true;
      gate_cv.notify_all();
      gate_cv.wait(lock, [&] { return open; });
    }
  });
  const auto first = committer.enqueue(1, frame(9, 1));
  {
    // With the first cycle held at its hook, the next entries queue up
    // for one cycle together.
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return held; });
  }
  (void)committer.enqueue(0, frame(1, 1));
  (void)committer.enqueue(0, frame(2, 2));
  committer.install_snapshot(0, encode_snapshot({}, 2));
  const auto image = committer.issued();
  {
    const std::lock_guard lock(gate_mutex);
    open = true;
  }
  gate_cv.notify_all();
  committer.wait_durable(first);
  committer.wait_durable(image);
  {
    const std::lock_guard lock(gate_mutex);
    EXPECT_EQ(flusher_after.writes - flusher_before.writes, 1u);
    EXPECT_EQ(flusher_after.fsyncs - flusher_before.fsyncs, 1u);
  }
  EXPECT_EQ(committer.stats().installs, 1u);
  EXPECT_EQ(committer.stats().groups, 2u);
  EXPECT_EQ(backend->read_snapshot(0), encode_snapshot({}, 2));
  EXPECT_TRUE(backend->read_journal(0).empty());
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename(), "commit.log");
  }
  std::filesystem::remove_all(dir);
}

TEST(FileBackendTest, FirstResyncOntoAnEmptyBackupIsOneWriteAndOneFsync) {
  // A primary whose log holds every stream of a 16-shard volume (an image
  // each, records above the images) resyncs an empty file-backed backup:
  // ONE shipment, which the backup lands as one write and one fsync, and
  // commit.log stays its only file.  The backup's log is then the
  // primary's, byte for byte.
  const auto dir = fresh_dir("syscalls-resync");
  auto primary = std::make_shared<MemoryBackend>(16);
  for (std::size_t s = 0; s < primary->stream_count(); ++s) {
    test::append_run(*primary, 
        s, frame(static_cast<std::uint32_t>(s), 1) +
               snapshot_record(encode_snapshot(
                   {{ObjectNumber(static_cast<std::uint32_t>(s)), 3,
                     Buffer{1}}},
                   1)) +
               frame(static_cast<std::uint32_t>(s), 2));
  }
  auto volume = std::make_shared<FileBackend>(dir, 16);
  ReplicaApplier applier(volume);

  /// Applies every shipment on the shipping thread, counting the backup's
  /// syscalls there.
  struct CountingLink final : ReplicationLink {
    explicit CountingLink(ReplicaApplier& a) : applier(a) {}
    [[nodiscard]] std::string peer_name() const override { return "backup"; }
    [[nodiscard]] Result<std::uint64_t> ship_cycle(
        std::span<const std::uint8_t> shipment) override {
      const IoCounters before = this_thread_io_counters();
      const auto floor = applier.apply_shipment(shipment);
      const std::lock_guard lock(mutex);
      ++shipments;
      writes += this_thread_io_counters().writes - before.writes;
      fsyncs += this_thread_io_counters().fsyncs - before.fsyncs;
      return floor;
    }
    [[nodiscard]] Result<std::uint64_t> heartbeat(std::uint64_t) override {
      return applier.applied();
    }
    ReplicaApplier& applier;
    std::mutex mutex;
    std::uint64_t shipments = 0, writes = 0, fsyncs = 0;
  };
  auto link = std::make_shared<CountingLink>(applier);
  {
    ReplicatedBackend replicated(primary, AckMode::async);
    replicated.attach_peer(link);
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (applier.applied() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
  }
  {
    const std::lock_guard lock(link->mutex);
    EXPECT_EQ(link->shipments, 1u);
    EXPECT_EQ(link->writes, 1u);
    EXPECT_EQ(link->fsyncs, 1u);
  }
  EXPECT_EQ(applier.applied(), primary->last_seq());
  EXPECT_EQ(volume->read_log(), primary->read_log());
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"commit.log"});
  volume.reset();
  std::filesystem::remove_all(dir);
}

TEST(FileBackendTest, EmptyResyncOntoAnEmptyBackupWritesNothing) {
  const auto dir = fresh_dir("empty-resync");
  auto volume = std::make_shared<FileBackend>(dir, 2);
  ReplicaApplier applier(volume);
  const IoCounters before = this_thread_io_counters();
  const auto floor = applier.apply_shipment(encode_shipment(true, {}));
  ASSERT_TRUE(floor.ok());
  EXPECT_EQ(floor.value(), 0u);
  EXPECT_EQ(this_thread_io_counters().writes, before.writes);
  EXPECT_EQ(this_thread_io_counters().fsyncs, before.fsyncs);
  EXPECT_EQ(std::filesystem::file_size(dir / "commit.log"), 0u);
  volume.reset();
  std::filesystem::remove_all(dir);
}

void write_file(const std::filesystem::path& path, const Buffer& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(FileBackendTest, NonEmptyPerStreamJournalIsRefused) {
  // Records in a format-2 per-stream journal, a format-1 reply-floors
  // image (never migrated: dropping it would re-execute requests) and a
  // format-4 snapshot file are refused, not migrated: opening without them
  // would lose acknowledged state.  Empty files of each kind are ignored.
  for (const char* name : {"shard-0.journal", "meta-reply-floors.bin",
                           "shard-1.snap", "reply.snap"}) {
    SCOPED_TRACE(name);
    const auto dir = fresh_dir("legacy-journal");
    std::filesystem::create_directories(dir);
    write_file(dir / name, {});
    { FileBackend accepted(dir, 2); }
    write_file(dir / name, frame(1, 1));
    try {
      FileBackend backend(dir, 2);
      ADD_FAILURE() << "a non-empty " << name << " was accepted";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(FileBackendTest, OlderFormatCommitLogIsRefusedByNameUntouched) {
  // A format-6 commit.log -- group frames without the format-7 header,
  // laid out byte by byte -- is refused with a UsageError naming it, and
  // never cut: its first frame fails the new frame decode and would
  // otherwise look like a torn tail.
  const auto dir = fresh_dir("legacy-v6");
  std::filesystem::create_directories(dir);
  Buffer log;
  for (const auto& [stream, object] :
       {std::pair{0u, 1u}, std::pair{2u, 3u}, std::pair{0u, 4u}}) {
    Writer body;
    body.u32(1);
    body.u32(stream);
    body.bytes(frame(object, object));
    Writer group;
    group.u32(static_cast<std::uint32_t>(body.buffer().size()));
    group.u32(frame_checksum(body.buffer()));
    group.raw(body.buffer());
    log.insert(log.end(), group.buffer().begin(), group.buffer().end());
  }
  write_file(dir / "commit.log", log);
  try {
    FileBackend backend(dir, 2);
    ADD_FAILURE() << "a format-6 commit.log was opened";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("commit.log"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("format"), std::string::npos)
        << e.what();
  }
  std::ifstream in(dir / "commit.log", std::ios::binary);
  const Buffer after{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
  EXPECT_EQ(after, log) << "the refused log was touched";
  std::filesystem::remove_all(dir);
}

TEST(GroupCommitTest, WaitCoversEveryEarlierTicket) {
  auto backend = std::make_shared<MemoryBackend>(4);
  GroupCommitter committer(backend);
  EXPECT_TRUE(committer.is_durable(0));  // 0 = nothing to wait for
  const auto t1 = committer.enqueue(0, frame(1, 1));
  const auto t2 = committer.enqueue(1, frame(2, 1));
  const auto t3 = committer.enqueue(0, frame(3, 2));
  EXPECT_LT(t1, t2);
  EXPECT_LT(t2, t3);
  committer.wait_durable(t3);  // covers t1 and t2 too: one monotone LSN
  EXPECT_TRUE(committer.is_durable(t1));
  EXPECT_TRUE(committer.is_durable(t2));
  EXPECT_TRUE(committer.is_durable(t3));
  bool torn = true;
  const auto shard0 = decode_journal(backend->read_journal(0), &torn);
  EXPECT_FALSE(torn);
  ASSERT_EQ(shard0.size(), 2u);
  EXPECT_EQ(shard0[0].object.value(), 1u);
  EXPECT_EQ(shard0[1].object.value(), 3u);
  EXPECT_EQ(decode_journal(backend->read_journal(1), &torn).size(), 1u);
  const auto stats = committer.stats();
  EXPECT_EQ(stats.records, 3u);
  EXPECT_GE(stats.groups, 1u);
  EXPECT_GE(stats.max_group, 1u);
}

TEST(GroupCommitTest, GroupsNeverTearAcrossCaptureImages) {
  // Every flush cycle lands as one frame, so the memory
  // backend's barrier hook sees whole cycles -- and a cycle never splits
  // an enqueue_group.  Capture at every barrier: each image must hold
  // matched halves of every two-shard group (the bank-transfer shape).
  auto backend = std::make_shared<MemoryBackend>(2);
  std::vector<std::shared_ptr<MemoryBackend>> images;
  std::mutex images_mutex;
  backend->set_append_hook([&](std::uint64_t) {
    const std::lock_guard lock(images_mutex);
    images.push_back(backend->capture());
  });
  GroupCommitter committer(backend);
  GroupCommitter::Ticket last = 0;
  for (std::uint32_t i = 0; i < 64; ++i) {
    std::vector<ShardAppend> group;
    group.push_back({0, frame(2 * i, i + 1)});
    group.push_back({1, frame(2 * i + 1, i + 1)});
    last = committer.enqueue_group(std::move(group));
  }
  committer.wait_durable(last);
  ASSERT_FALSE(images.empty());
  for (const auto& image : images) {
    bool torn = false;
    const auto a = decode_journal(image->read_journal(0), &torn);
    EXPECT_FALSE(torn);
    const auto b = decode_journal(image->read_journal(1), &torn);
    EXPECT_FALSE(torn);
    ASSERT_EQ(a.size(), b.size()) << "a flush tore an append group";
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].object.value() + 1, b[i].object.value());
    }
  }
  EXPECT_EQ(committer.stats().records, 128u);
}

/// A volume whose every write throws: the disk-full shape.
class ExplodingBackend final : public Backend {
 public:
  explicit ExplodingBackend(std::size_t shards) : shards_(shards) {}

  [[nodiscard]] std::size_t shard_count() const override { return shards_; }
  void append_frames(std::span<const std::uint8_t>) override {
    throw std::runtime_error("disk full");
  }
  void replace_log(std::span<const std::uint8_t>) override {
    throw std::runtime_error("disk full");
  }
  [[nodiscard]] Buffer read_log() const override { return {}; }
  [[nodiscard]] std::uint64_t last_seq() const override { return 0; }
  [[nodiscard]] std::uint64_t log_bytes() const override { return 0; }
  [[nodiscard]] Buffer read_stream(std::size_t) const override { return {}; }

 private:
  std::size_t shards_;
};

TEST(GroupCommitTest, BackendFailureLatchesAndNeverLies) {
  auto backend = std::make_shared<ExplodingBackend>(2);
  GroupCommitter committer(backend);
  const auto t1 = committer.enqueue(0, frame(1, 1));
  EXPECT_THROW(committer.wait_durable(t1), UsageError);
  EXPECT_FALSE(committer.is_durable(t1));
  // The failure latches: later enqueues are told the truth too, durability
  // is never reported for bytes the volume does not hold.
  const auto t2 = committer.enqueue(1, frame(2, 1));
  EXPECT_THROW(committer.wait_durable(t2), UsageError);
}

TEST(GroupCommitTest, AnImageRidesItsCyclesGroupBehindEarlierRecords) {
  // A record and a snapshot image claimed by one cycle reach the backend
  // -- and the post-flush hook -- as ONE group: the image is a snapshot
  // record in its stream's run, behind the records enqueued before it.
  auto backend = std::make_shared<MemoryBackend>(2);
  GroupCommitter committer(backend);
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool held = false;  // the first cycle reached the hook
  bool open = false;
  std::vector<std::vector<ShardAppend>> cycles;
  committer.set_post_flush_hook([&](const GroupCommitter::FlushCycle& c) {
    std::unique_lock lock(gate_mutex);
    Frame decoded;
    EXPECT_EQ(decode_frame(c.frame, decoded), c.frame.size());
    cycles.push_back(std::move(decoded.appends));
    held = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return open; });
  });
  const auto first = committer.enqueue(1, frame(9, 1));
  {
    // With the first cycle held at its hook, the next entries queue up
    // for one cycle together.
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return held; });
  }
  (void)committer.enqueue(0, frame(1, 1));
  const Buffer image = encode_snapshot({}, 1);
  committer.install_snapshot(0, image);
  const auto installed = committer.issued();
  const auto after = committer.enqueue(0, frame(2, 2));
  {
    const std::lock_guard lock(gate_mutex);
    open = true;
  }
  gate_cv.notify_all();
  committer.wait_durable(first);
  committer.wait_durable(after);
  EXPECT_TRUE(committer.is_durable(installed));
  const std::lock_guard lock(gate_mutex);
  ASSERT_EQ(cycles.size(), 2u);
  ASSERT_EQ(cycles[1].size(), 1u);
  EXPECT_EQ(cycles[1][0].shard, 0u);
  EXPECT_EQ(cycles[1][0].bytes,
            frame(1, 1) + snapshot_record(image) + frame(2, 2));
  EXPECT_EQ(committer.stats().installs, 1u);
  EXPECT_EQ(committer.stats().records, 3u);  // the image is not a record
  EXPECT_EQ(backend->read_snapshot(0), image);
  EXPECT_EQ(backend->read_journal(0), frame(2, 2));
}

TEST(GroupCommitTest, NullBackendIsRejectedAndFactoryPassesNullThrough) {
  EXPECT_EQ(GroupCommitter::create(nullptr), nullptr);
  EXPECT_THROW(GroupCommitter(nullptr), UsageError);
}

TEST(GroupCommitTest, AStreamTheVolumeLacksIsRefusedBeforeAnythingQueues) {
  // Streams 0..2: two object shards and the reply stream.  Every write
  // path refuses stream 3 with UsageError and queues nothing, so the bad
  // write never reaches the log (where the open scan would refuse the
  // whole volume).
  const auto dir = fresh_dir("stream-range");
  {
    auto backend = std::make_shared<FileBackend>(dir, 2);
    GroupCommitter committer(backend);
    const Buffer record = frame(4, 4);
    EXPECT_THROW((void)committer.enqueue(3, record), UsageError);
    EXPECT_THROW((void)committer.enqueue_with(
                     3, [&](Buffer& out) {
                       out.insert(out.end(), record.begin(), record.end());
                     }),
                 UsageError);
    std::vector<ShardAppend> group;
    group.push_back({0, record});
    group.push_back({3, record});
    EXPECT_THROW((void)committer.enqueue_group(std::move(group)), UsageError);
    EXPECT_THROW(committer.install_snapshot(3, encode_snapshot({}, 1)),
                 UsageError);
    EXPECT_EQ(committer.issued(), 0u);
    committer.wait_durable(committer.enqueue(2, record));
    EXPECT_EQ(committer.stats().records, 1u);
  }
  FileBackend reopened(dir, 2);
  EXPECT_TRUE(reopened.read_journal(0).empty());
  EXPECT_EQ(reopened.read_journal(2), frame(4, 4));
  std::filesystem::remove_all(dir);
}

TEST(GroupCommitTest, ConcurrentEnqueueStorm) {
  // The TSan target: many mutator threads enqueue framed records and block
  // on their tickets while the flusher drains -- every record must land
  // exactly once, parseable, in enqueue order per shard.
  constexpr std::size_t kThreads = 8;
  constexpr std::uint32_t kPerThread = 200;
  constexpr std::size_t kShards = 4;
  auto backend = std::make_shared<MemoryBackend>(kShards);
  GroupCommitter committer(backend);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      GroupCommitter::Ticket last = 0;
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        const auto object =
            static_cast<std::uint32_t>(t * kPerThread + i);
        last = committer.enqueue(t % kShards, frame(object, i + 1));
        if (i % 16 == 15) {
          committer.wait_durable(last);  // mixed waiters and free-runners
        }
      }
      committer.wait_durable(last);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const auto stats = committer.stats();
  EXPECT_EQ(stats.records, kThreads * kPerThread);
  EXPECT_GE(stats.max_group, 1u);
  std::size_t decoded = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    bool torn = false;
    const auto records = decode_journal(backend->read_journal(s), &torn);
    EXPECT_FALSE(torn) << "shard " << s;
    // Per thread (== per shard here), lsn order is enqueue order.
    std::map<std::uint32_t, std::uint64_t> last_lsn;
    for (const auto& record : records) {
      auto& lsn = last_lsn[record.object.value() /
                           kPerThread];  // thread index
      EXPECT_GT(record.lsn, lsn);
      lsn = record.lsn;
    }
    decoded += records.size();
  }
  EXPECT_EQ(decoded, kThreads * kPerThread);
}

}  // namespace
}  // namespace amoeba::storage

namespace amoeba::core {
namespace {

constexpr Port kPort{0x5A5A5A5A5A5AULL};

/// A group-committed int store on `backend`; `with_delta` adds a patch
/// codec (one u32 increment, replayed exactly once per record: recovery
/// is LSN-gated, so non-idempotent patches are still safe).
[[nodiscard]] Durability<int> committed_codec(
    const std::shared_ptr<storage::Backend>& backend,
    bool with_delta = false) {
  Durability<int> d;
  d.committer = storage::GroupCommitter::create(backend);
  d.encode = [](Writer& w, const int& v) {
    w.u32(static_cast<std::uint32_t>(v));
  };
  d.decode = [](Reader& r, int& v) {
    v = static_cast<int>(r.u32());
    return r.ok();
  };
  if (with_delta) {
    d.apply_delta = [](Reader& r, int& v) {
      v += static_cast<int>(r.u32());
      return r.ok();
    };
  }
  return d;
}

[[nodiscard]] std::shared_ptr<const ProtectionScheme> scheme() {
  static const std::shared_ptr<const ProtectionScheme> shared = [] {
    Rng rng(17);
    return std::shared_ptr<const ProtectionScheme>(
        make_scheme(SchemeKind::one_way_xor, rng));
  }();
  return shared;
}

TEST(DurableStore, RecoversObjectsSecretsAndFreeList) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  std::vector<Capability> caps;
  {
    ObjectStore<int> store(scheme(), kPort, 1, 16, committed_codec(backend));
    EXPECT_TRUE(store.durable());
    for (int i = 0; i < 40; ++i) {
      caps.push_back(store.create(i));
    }
    // Mutate one through the accessor hook, destroy another.
    {
      auto opened = store.open(caps[5], Rights::all());
      ASSERT_TRUE(opened.ok());
      *opened.value().value = 555;
      opened.value().mark_dirty();
    }
    ASSERT_TRUE(store.destroy(caps[7]).ok());
    const auto stats = store.durability_stats();
    EXPECT_EQ(stats.journal_records, 42u);  // 40 creates + mutate + destroy
    EXPECT_GT(stats.journal_bytes, 0u);
  }
  // "Restart": a fresh store on the same volume.
  ObjectStore<int> recovered(scheme(), kPort, 999, 16,
                             committed_codec(backend));
  const auto stats = recovered.durability_stats();
  EXPECT_TRUE(stats.recovered);
  EXPECT_EQ(stats.recovered_objects, 39u);
  EXPECT_EQ(recovered.live_count(), 39u);
  // Every pre-crash capability validates against the recovered table.
  for (int i = 0; i < 40; ++i) {
    auto opened = recovered.open(caps[static_cast<std::size_t>(i)],
                                 rights::kRead);
    if (i == 7) {
      EXPECT_FALSE(opened.ok()) << "destroyed object resurrected";
      continue;
    }
    ASSERT_TRUE(opened.ok()) << "capability " << i << " died in the crash";
    EXPECT_EQ(*opened.value().value, i == 5 ? 555 : i);
  }
  // The destroyed number is reusable -- and the stale capability for it
  // still cannot resurrect (fresh secret on reuse).
  const Capability reused = recovered.create(700);
  EXPECT_FALSE(recovered.open(caps[7], Rights::none()).ok());
  EXPECT_TRUE(recovered.open(reused, Rights::none()).ok());
}

TEST(DurableStore, RevocationSurvivesRestart) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  Capability original;
  Capability fresh;
  {
    ObjectStore<int> store(scheme(), kPort, 2, 16, committed_codec(backend));
    original = store.create(1);
    fresh = store.revoke(original).value();
  }
  ObjectStore<int> recovered(scheme(), kPort, 3, 16, committed_codec(backend));
  EXPECT_FALSE(recovered.open(original, Rights::none()).ok());
  EXPECT_TRUE(recovered.open(fresh, Rights::none()).ok());
}

TEST(DurableStore, PairMutationsJournalAtomically) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  ObjectStore<int> store(scheme(), kPort, 4, 16, committed_codec(backend));
  const Capability a = store.create(10);
  const Capability b = store.create(20);
  const auto before = backend->append_count();
  {
    auto pair = store.open2(a, Rights::none(), b, Rights::none());
    ASSERT_TRUE(pair.ok());
    *pair.value().a.value = 11;
    *pair.value().b.value = 21;
    pair.value().a.mark_dirty();
    pair.value().b.mark_dirty();
  }
  // Both mutates landed, delivered as one frame (one hook firing).
  EXPECT_EQ(backend->append_count(), before + 1);
  ObjectStore<int> recovered(scheme(), kPort, 5, 16, committed_codec(backend));
  EXPECT_EQ(*recovered.open(a, Rights::none()).value().value, 11);
  EXPECT_EQ(*recovered.open(b, Rights::none()).value().value, 21);
}

TEST(DurableStore, CompactionFoldsJournalIntoSnapshot) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  std::vector<Capability> caps;
  {
    ObjectStore<int> store(scheme(), kPort, 6, 16, committed_codec(backend));
    for (int i = 0; i < 64; ++i) {
      caps.push_back(store.create(i));
    }
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 64; ++i) {
        auto opened = store.open(caps[static_cast<std::size_t>(i)],
                                 Rights::all());
        *opened.value().value += 100;
        opened.value().mark_dirty();
      }
      store.compact();  // a checkpoint between rounds
    }
    EXPECT_EQ(store.durability_stats().snapshots, 3u * 16u);
  }
  ObjectStore<int> recovered(scheme(), kPort, 7, 16, committed_codec(backend));
  ASSERT_EQ(recovered.live_count(), 64u);
  for (int i = 0; i < 64; ++i) {
    auto opened =
        recovered.open(caps[static_cast<std::size_t>(i)], Rights::none());
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(*opened.value().value, i + 300);
  }
}

TEST(DurableStore, ExplicitCompactThenRecoverIsExact) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  Capability cap;
  {
    ObjectStore<int> store(scheme(), kPort, 8, 16, committed_codec(backend));
    cap = store.create(1);
    {
      auto opened = store.open(cap, Rights::all());
      *opened.value().value = 2;
      opened.value().mark_dirty();
    }  // accessor released (and journaled) before compaction
    store.compact();
  }
  // After compaction the journals are empty; the snapshot alone recovers.
  for (std::size_t s = 0; s < 16; ++s) {
    EXPECT_TRUE(backend->read_journal(s).empty());
  }
  ObjectStore<int> recovered(scheme(), kPort, 9, 16, committed_codec(backend));
  EXPECT_EQ(*recovered.open(cap, Rights::none()).value().value, 2);
}

TEST(DurableStore, TornJournalTailLosesOnlyTheTornRecord) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  ObjectStore<int> store(scheme(), kPort, 10, 16, committed_codec(backend));
  const Capability a = store.create(1);  // lands in shard of object 0
  const Capability b = store.create(2);
  // Simulate a crash that tore b's create record: rebuild a volume with
  // b's shard journal truncated mid-frame.
  auto torn = std::make_shared<storage::MemoryBackend>(16);
  for (std::size_t s = 0; s < 16; ++s) {
    Buffer journal = backend->read_journal(s);
    if (s == (b.object.value() & 15u) && !journal.empty()) {
      journal.resize(journal.size() - 2);
    }
    if (!journal.empty()) {
      test::append_run(*torn, s, journal);
    }
  }
  ObjectStore<int> recovered(scheme(), kPort, 11, 16, committed_codec(torn));
  EXPECT_TRUE(recovered.open(a, Rights::none()).ok());
  EXPECT_FALSE(recovered.open(b, Rights::none()).ok());
}

TEST(DurableStore, MismatchedShardCountIsRejected) {
  auto backend = std::make_shared<storage::MemoryBackend>(8);
  EXPECT_THROW(
      ObjectStore<int>(scheme(), kPort, 1, 16, committed_codec(backend)),
      UsageError);
}

TEST(DurableStore, FileBackendRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("amoeba-durable-store-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  Capability cap;
  {
    auto backend = std::make_shared<storage::FileBackend>(dir, 16);
    ObjectStore<int> store(scheme(), kPort, 12, 16, committed_codec(backend));
    cap = store.create(41);
    auto opened = store.open(cap, Rights::all());
    *opened.value().value = 42;
    opened.value().mark_dirty();
  }
  {
    auto backend = std::make_shared<storage::FileBackend>(dir, 16);
    ObjectStore<int> recovered(scheme(), kPort, 13, 16,
                               committed_codec(backend));
    EXPECT_EQ(*recovered.open(cap, Rights::none()).value().value, 42);
  }
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------- group-committed store

TEST(GroupCommittedStore, MutationsRecoverAfterAsyncJournaling) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  std::vector<Capability> caps;
  {
    ObjectStore<int> store(scheme(), kPort, 20, 16,
                           committed_codec(backend));
    for (int i = 0; i < 32; ++i) {
      caps.push_back(store.create(i));
    }
    for (int i = 0; i < 32; ++i) {
      auto opened = store.open(caps[static_cast<std::size_t>(i)],
                               Rights::all());
      ASSERT_TRUE(opened.ok());
      *opened.value().value += 1000;
      opened.value().mark_dirty();
    }  // release blocks on the group-commit ticket
  }
  ObjectStore<int> recovered(scheme(), kPort, 21, 16,
                             committed_codec(backend));
  ASSERT_EQ(recovered.live_count(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(*recovered.open(caps[static_cast<std::size_t>(i)],
                              Rights::none())
                   .value()
                   .value,
              i + 1000);
  }
}

TEST(GroupCommittedStore, PipelinedReleasesWaitOnceOnTheLastTicket) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  ObjectStore<int> store(scheme(), kPort, 22, 16, committed_codec(backend));
  std::vector<Capability> caps;
  for (int i = 0; i < 64; ++i) {
    caps.push_back(store.create(i));
  }
  // The pipelined window: release_async returns the commit ticket instead
  // of blocking; tickets are one monotone sequence, so waiting on the max
  // covers the whole window.
  std::uint64_t last = 0;
  for (int i = 0; i < 64; ++i) {
    auto opened =
        store.open(caps[static_cast<std::size_t>(i)], Rights::all());
    ASSERT_TRUE(opened.ok());
    *opened.value().value = -i;
    opened.value().mark_dirty();
    last = std::max(last, opened.value().release_async());
  }
  EXPECT_GT(last, 0u);
  store.wait_durable(last);
  ObjectStore<int> recovered(scheme(), kPort, 23, 16,
                             committed_codec(backend));
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(*recovered.open(caps[static_cast<std::size_t>(i)],
                              Rights::none())
                   .value()
                   .value,
              -i);
  }
}

TEST(GroupCommittedStore, PairMutationsStayAtomicThroughTheQueue) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  ObjectStore<int> store(scheme(), kPort, 24, 16, committed_codec(backend));
  const Capability a = store.create(100);
  const Capability b = store.create(200);
  {
    auto pair = store.open2(a, Rights::none(), b, Rights::none());
    ASSERT_TRUE(pair.ok());
    *pair.value().a.value -= 30;
    *pair.value().b.value += 30;
    pair.value().a.mark_dirty();
    pair.value().b.mark_dirty();
  }  // one enqueue_group, one ticket, one wait
  ObjectStore<int> recovered(scheme(), kPort, 25, 16,
                             committed_codec(backend));
  EXPECT_EQ(*recovered.open(a, Rights::none()).value().value, 70);
  EXPECT_EQ(*recovered.open(b, Rights::none()).value().value, 230);
}

TEST(GroupCommittedStore, DeltaPatchesRecoverAndCompactionFoldsThem) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  Capability cap;
  {
    ObjectStore<int> store(scheme(), kPort, 26, 16,
                           committed_codec(backend, /*with_delta=*/true));
    cap = store.create(10);
    for (int round = 0; round < 3; ++round) {
      auto opened = store.open(cap, Rights::all());
      ASSERT_TRUE(opened.ok());
      *opened.value().value += 7;
      Writer patch;
      patch.u32(7);
      opened.value().mark_dirty_delta(patch.take());
    }
  }
  // The journal carries compact delta records, not full images.
  bool saw_delta = false;
  for (std::size_t s = 0; s < 16; ++s) {
    for (const auto& record :
         storage::decode_journal(backend->read_journal(s), nullptr)) {
      saw_delta |= record.type == storage::RecordType::delta;
    }
  }
  EXPECT_TRUE(saw_delta);
  {
    ObjectStore<int> recovered(
        scheme(), kPort, 27, 16,
        committed_codec(backend, /*with_delta=*/true));
    EXPECT_EQ(*recovered.open(cap, Rights::none()).value().value, 31);
    recovered.compact();  // folds the delta chain into the snapshot
  }
  ObjectStore<int> again(scheme(), kPort, 28, 16,
                         committed_codec(backend, /*with_delta=*/true));
  EXPECT_EQ(*again.open(cap, Rights::none()).value().value, 31);
}

TEST(GroupCommittedStore, FullImageSupersedesPendingDeltas) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  Capability cap;
  {
    ObjectStore<int> store(scheme(), kPort, 29, 16,
                           committed_codec(backend, /*with_delta=*/true));
    cap = store.create(1);
    auto opened = store.open(cap, Rights::all());
    ASSERT_TRUE(opened.ok());
    Writer patch;
    patch.u32(100);  // stale patch: the full image below wins
    opened.value().mark_dirty_delta(patch.take());
    *opened.value().value = 55;
    opened.value().mark_dirty();
  }
  ObjectStore<int> recovered(scheme(), kPort, 30, 16,
                             committed_codec(backend, /*with_delta=*/true));
  EXPECT_EQ(*recovered.open(cap, Rights::none()).value().value, 55);
}

TEST(GroupCommittedStore, DeltaWithoutCodecIsRejectedAtMarkTime) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  ObjectStore<int> durable_store(scheme(), kPort, 31, 16,
                                 committed_codec(backend));
  const Capability cap = durable_store.create(1);
  {
    auto opened = durable_store.open(cap, Rights::all());
    ASSERT_TRUE(opened.ok());
    Writer patch;
    patch.u32(1);
    // Durable store, no apply_delta codec: rejected synchronously (the
    // journaling itself runs in release paths that must not throw).
    EXPECT_THROW(opened.value().mark_dirty_delta(patch.take()), UsageError);
  }
  // In-memory stores accept and ignore patches, like mark_dirty.
  ObjectStore<int> in_memory(scheme(), kPort, 32, 16, {});
  const Capability mem_cap = in_memory.create(2);
  auto opened = in_memory.open(mem_cap, Rights::all());
  Writer patch;
  patch.u32(1);
  opened.value().mark_dirty_delta(patch.take());
}

TEST(GroupCommittedStore, ConcurrentMutatorsStorm) {
  // The store-level TSan target: mutator threads hammer overlapping
  // objects through the full open/mark_dirty/release (and pipelined
  // release_async) paths while one committer flushes.
  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 64;
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  std::vector<Capability> caps;
  std::uint64_t mutations = 0;
  {
    ObjectStore<int> store(scheme(), kPort, 34, 16,
                           committed_codec(backend));
    for (int i = 0; i < 32; ++i) {
      caps.push_back(store.create(0));
    }
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(static_cast<std::uint64_t>(t) + 1);
        std::uint64_t window = 0;
        for (int i = 0; i < kRounds; ++i) {
          auto opened = store.open(caps[rng.below(32)], Rights::all());
          if (!opened.ok()) {
            continue;
          }
          *opened.value().value += 1;
          opened.value().mark_dirty();
          if (i % 2 == 0) {
            window = std::max(window, opened.value().release_async());
          }  // odd rounds: the destructor waits synchronously
        }
        store.wait_durable(window);
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    mutations = store.durability_stats().journal_records;
  }
  // Every mutation journaled exactly once: creates + thread increments.
  EXPECT_EQ(mutations, 32u + kThreads * kRounds);
  ObjectStore<int> recovered(scheme(), kPort, 35, 16,
                             committed_codec(backend));
  std::uint64_t total = 0;
  for (const auto& cap : caps) {
    auto opened = recovered.open(cap, Rights::none());
    ASSERT_TRUE(opened.ok());
    total += static_cast<std::uint64_t>(*opened.value().value);
  }
  EXPECT_EQ(total, kThreads * kRounds);
}

}  // namespace
}  // namespace amoeba::core
