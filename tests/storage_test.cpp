// Unit tests for the durability substrate: journal record framing (torn
// tails, checksums), snapshot round trips, the Memory/File backends, and
// the durable ShardedObjectStore itself -- journaling, compaction, and
// snapshot+journal recovery with capability survival.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
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
#include "amoeba/storage/uring_backend.hpp"

namespace amoeba::storage {
namespace {

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
                     static_cast<std::uint8_t>(RecordType::rep_applied) + 1),
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

TEST(MemoryBackendTest, JournalSnapshotMetaAndCapture) {
  MemoryBackend backend(4);
  EXPECT_TRUE(backend.empty());
  const Buffer a{1, 2, 3};
  backend.append_journal(1, a);
  EXPECT_FALSE(backend.empty());
  EXPECT_EQ(backend.read_journal(1), a);
  EXPECT_TRUE(backend.read_journal(0).empty());

  backend.put_meta("floors", Buffer{9});
  EXPECT_EQ(backend.get_meta("floors"), Buffer{9});
  EXPECT_TRUE(backend.get_meta("absent").empty());

  // Capture is a deep copy: later writes don't leak into the image.
  const auto image = backend.capture();
  backend.append_journal(1, Buffer{4});
  backend.install_snapshot(1, Buffer{7, 7});
  EXPECT_EQ(image->read_journal(1), a);
  EXPECT_TRUE(image->read_snapshot(1).empty());
  // install_snapshot truncated the live journal (compaction contract).
  EXPECT_TRUE(backend.read_journal(1).empty());
  EXPECT_EQ(backend.read_snapshot(1), (Buffer{7, 7}));
}

TEST(MemoryBackendTest, AppendHookFiresWithRunningCount) {
  MemoryBackend backend(2);
  std::vector<std::uint64_t> counts;
  backend.set_append_hook([&](std::uint64_t n) { counts.push_back(n); });
  backend.append_journal(0, Buffer{1});
  backend.append_journal(1, Buffer{2});
  std::vector<ShardAppend> batch;
  batch.push_back({0, Buffer{3}});
  batch.push_back({1, Buffer{4}});
  backend.append_journal_batch(std::move(batch));
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 4u);  // the batch counts per entry, hooks once
  EXPECT_EQ(backend.append_count(), 4u);
}

TEST(FileBackendTest, PersistsAcrossReopen) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("amoeba-storage-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    FileBackend backend(dir, 2);
    EXPECT_TRUE(backend.empty());
    backend.append_journal(0, Buffer{1, 2});
    backend.append_journal(0, Buffer{3});
    // Streams 0..2: two object shards and the reply stream.
    EXPECT_THROW(backend.append_journal(3, Buffer{4}), UsageError);
    backend.install_snapshot(1, Buffer{9, 9});
    backend.put_meta("reply-floors", Buffer{5});
  }
  {
    FileBackend backend(dir, 2);
    EXPECT_FALSE(backend.empty());
    EXPECT_EQ(backend.read_journal(0), (Buffer{1, 2, 3}));
    EXPECT_EQ(backend.read_snapshot(1), (Buffer{9, 9}));
    EXPECT_EQ(backend.get_meta("reply-floors"), Buffer{5});
    // A snapshot install replaces the image durably and leaves the journal
    // to commit.log's GC: replay skips whatever the image subsumes.
    backend.install_snapshot(0, Buffer{8});
  }
  {
    FileBackend backend(dir, 2);
    EXPECT_EQ(backend.read_journal(0), (Buffer{1, 2, 3}));
    EXPECT_EQ(backend.read_snapshot(0), Buffer{8});
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ group commit

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

/// The commit-log suite runs against BOTH writers of the one on-disk
/// format: the sync FileBackend and, kernel permitting, UringFileBackend.
/// Recovery always reopens with the plain FileBackend -- a crash image
/// must recover the same regardless of which backend wrote it.
class CommitLogBackends : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == BackendKind::uring &&
        !UringFileBackend::available()) {
      GTEST_SKIP() << "io_uring unavailable (probe or AMOEBA_NO_URING)";
    }
  }
  [[nodiscard]] std::shared_ptr<FileBackend> make(
      const std::filesystem::path& dir, std::size_t shards) const {
    if (GetParam() == BackendKind::uring) {
      return std::make_shared<UringFileBackend>(dir, shards);
    }
    return std::make_shared<FileBackend>(dir, shards);
  }
};

INSTANTIATE_TEST_SUITE_P(CommitLog, CommitLogBackends,
                         ::testing::Values(BackendKind::file,
                                           BackendKind::uring),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST_P(CommitLogBackends, GroupedAppendsRecoverAcrossReopen) {
  const auto dir = fresh_dir("commit-log");
  {
    auto backend = make(dir, 4);
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

TEST_P(CommitLogBackends, SyncAndGroupedAppendsRecoverInLsnOrder) {
  const auto dir = fresh_dir("commit-order");
  auto backend = make(dir, 2);
  {
    // Wall-time order: sync lsn 1, grouped lsn 2, sync lsn 3.  Every one
    // is a commit.log frame, so the log's order is the LSN order.
    backend->append_journal(0, frame(1, 1));
    GroupCommitter committer(backend);
    committer.wait_durable(committer.enqueue(0, frame(2, 2)));
  }
  backend->append_journal(0, frame(3, 3));
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

TEST_P(CommitLogBackends, TornGroupFrameDropsTheWholeGroup) {
  const auto dir = fresh_dir("commit-torn");
  {
    auto backend = make(dir, 2);
    std::vector<ShardAppend> first;
    first.push_back({0, frame(1, 1)});
    first.push_back({1, frame(2, 1)});
    backend->append_journal_batch(std::move(first));
    std::vector<ShardAppend> second;
    second.push_back({0, frame(3, 2)});
    second.push_back({1, frame(4, 2)});
    backend->append_journal_batch(std::move(second));
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

TEST_P(CommitLogBackends, EveryTruncationAndBitFlipDropsExactlyTheTornGroup) {
  // Exhaustive crash-image sweep over the second group's region of
  // commit.log: truncation at EVERY length and a bit flip at EVERY byte
  // offset must each leave recovery holding exactly the first group --
  // never half of the second, never less than all of the first.  Both
  // writers of a two-shard group are swept: the group committer and a
  // synchronous append_journal_batch.
  const auto dir = fresh_dir("commit-fuzz");
  const auto log = dir / "commit.log";
  for (const bool committed : {true, false}) {
    SCOPED_TRACE(committed ? "group commit" : "append_journal_batch");
    std::filesystem::remove_all(dir);
    std::uintmax_t first_end = 0;
    {
      auto backend = make(dir, 2);
      std::optional<GroupCommitter> committer;
      if (committed) {
        committer.emplace(backend);
      }
      const auto append = [&](std::uint32_t object, std::uint64_t lsn) {
        std::vector<ShardAppend> group;
        group.push_back({0, frame(object, lsn)});
        group.push_back({1, frame(object + 1, lsn)});
        if (committer) {
          committer->wait_durable(committer->enqueue_group(std::move(group)));
        } else {
          backend->append_journal_batch(std::move(group));
        }
      };
      append(1, 1);
      first_end = std::filesystem::file_size(log);
      append(3, 2);
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
    const auto expect_exactly_first_group = [&] {
      FileBackend backend(dir, 2);
      bool torn = true;
      const auto shard0 = decode_journal(backend.read_journal(0), &torn);
      EXPECT_FALSE(torn);
      ASSERT_EQ(shard0.size(), 1u);
      EXPECT_EQ(shard0[0].object.value(), 1u);
      EXPECT_EQ(shard0[0].lsn, 1u);
      const auto shard1 = decode_journal(backend.read_journal(1), &torn);
      ASSERT_EQ(shard1.size(), 1u);
      EXPECT_EQ(shard1[0].object.value(), 2u);
    };

    // Torn write: the crash image ends anywhere inside the second frame.
    for (std::size_t len = first_end; len < pristine.size(); ++len) {
      SCOPED_TRACE("truncate to " + std::to_string(len));
      write_log(Buffer(pristine.begin(),
                       pristine.begin() + static_cast<std::ptrdiff_t>(len)));
      expect_exactly_first_group();
    }
    // Rot: any single flipped bit in the second frame (length word,
    // checksum word, or body) trips the frame checksum.
    for (std::size_t at = first_end; at < pristine.size(); ++at) {
      SCOPED_TRACE("flip byte " + std::to_string(at));
      Buffer bent = pristine;
      bent[at] ^= 0x01;
      write_log(bent);
      expect_exactly_first_group();
    }
    // The unharmed image still recovers both groups (the sweep above did
    // not pass vacuously).
    write_log(pristine);
    {
      FileBackend backend(dir, 2);
      EXPECT_EQ(decode_journal(backend.read_journal(0)).size(), 2u);
      EXPECT_EQ(decode_journal(backend.read_journal(1)).size(), 2u);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST_P(CommitLogBackends, SnapshotGcRewritesAwaySubsumedRecords) {
  const auto dir = fresh_dir("commit-gc");
  const auto log = dir / "commit.log";
  auto backend = make(dir, 2);
  // Push the log past the GC threshold (8 MiB) with shard-0 records, plus
  // a few shard-1 records that must survive the rewrite.
  constexpr std::uint64_t kShard0Records = 160000;
  Buffer run0;
  for (std::uint64_t lsn = 1; lsn <= kShard0Records; ++lsn) {
    encode_record({RecordType::mutate, ObjectNumber(100), 0x5EC2E7, lsn,
                   Buffer(24, 0xAB)},
                  run0);
  }
  std::vector<ShardAppend> group;
  group.push_back({0, std::move(run0)});
  group.push_back({1, frame(7, 1)});
  backend->append_journal_batch(std::move(group));
  ASSERT_GT(std::filesystem::file_size(log), std::uint64_t{8} << 20);
  // A shard-0 snapshot at the top LSN subsumes every shard-0 record in the
  // log; installing it crosses the threshold and triggers the rewrite
  // (which on the uring backend first quiesces the ring: the inode swap
  // must not race in-flight chains).
  backend->install_snapshot(0, encode_snapshot({}, kShard0Records));
  EXPECT_LT(std::filesystem::file_size(log), 4096u);
  EXPECT_TRUE(decode_journal(backend->read_journal(0)).empty());
  const auto shard1 = decode_journal(backend->read_journal(1));
  ASSERT_EQ(shard1.size(), 1u);
  EXPECT_EQ(shard1[0].object.value(), 7u);
  // The rewrite reopened the append fd on the new inode: later groups land
  // in the rewritten log, not the unlinked one.
  std::vector<ShardAppend> after;
  after.push_back({0, frame(8, kShard0Records + 1)});
  backend->append_journal_batch(std::move(after));
  const auto shard0 = decode_journal(backend->read_journal(0));
  ASSERT_EQ(shard0.size(), 1u);
  EXPECT_EQ(shard0[0].object.value(), 8u);
  backend.reset();
  std::filesystem::remove_all(dir);
}

TEST(FileBackendTest, BlockingSyscallsPerInstallAndSyncBatch) {
  // A snapshot install is the temp file's write + fsync and the directory
  // fsync -- no journal to truncate.  A synchronous two-shard batch is
  // one commit.log frame: one write, one fsync.
  const auto dir = fresh_dir("syscalls");
  FileBackend backend(dir, 2);
  const IoCounters& io = this_thread_io_counters();
  IoCounters before = io;
  backend.install_snapshot(0, encode_snapshot({}, 1));
  EXPECT_EQ(io.writes - before.writes, 1u);
  EXPECT_EQ(io.fsyncs - before.fsyncs, 2u);
  before = io;
  std::vector<ShardAppend> pair;
  pair.push_back({0, frame(1, 2)});
  pair.push_back({1, frame(2, 1)});
  backend.append_journal_batch(std::move(pair));
  EXPECT_EQ(io.writes - before.writes, 1u);
  EXPECT_EQ(io.fsyncs - before.fsyncs, 1u);
  std::filesystem::remove_all(dir);
}

void write_file(const std::filesystem::path& path, const Buffer& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(FileBackendTest, NonEmptyPerStreamJournalIsRefused) {
  // Records in a format-2 per-stream journal are refused, not migrated:
  // opening without them would lose acknowledged state.
  const auto dir = fresh_dir("legacy-journal");
  std::filesystem::create_directories(dir);
  write_file(dir / "shard-0.journal", frame(1, 1));
  try {
    FileBackend backend(dir, 2);
    ADD_FAILURE() << "a non-empty shard-0.journal was accepted";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("shard-0.journal"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(FileBackendTest, FormatTwoServerVolumeOpensAndRecovers) {
  // A format-2 server volume, laid out byte by byte: an empty journal file
  // per stream, group frames in commit.log, snapshots and metadata.
  const auto dir = fresh_dir("legacy-v2");
  std::filesystem::create_directories(dir);
  for (const char* name :
       {"shard-0.journal", "shard-1.journal", "reply.journal"}) {
    write_file(dir / name, {});
  }
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
  const Buffer image =
      encode_snapshot({{ObjectNumber(9), 0x5EC2E7, Buffer{7}}}, 5);
  write_file(dir / "shard-1.snap", image);
  write_file(dir / "meta-floors.bin", Buffer{5});
  {
    FileBackend backend(dir, 2);
    EXPECT_FALSE(backend.empty());
    bool torn = true;
    const auto shard0 = decode_journal(backend.read_journal(0), &torn);
    EXPECT_FALSE(torn);
    ASSERT_EQ(shard0.size(), 2u);
    EXPECT_EQ(shard0[0].object.value(), 1u);
    EXPECT_EQ(shard0[1].object.value(), 4u);
    const auto reply =
        decode_journal(backend.read_journal(backend.reply_stream()), &torn);
    ASSERT_EQ(reply.size(), 1u);
    EXPECT_EQ(reply[0].object.value(), 3u);
    EXPECT_TRUE(backend.read_journal(1).empty());
    EXPECT_EQ(backend.read_snapshot(1), image);
    EXPECT_EQ(backend.get_meta("floors"), Buffer{5});
    // New groups append behind the old frames.
    backend.append_journal(1, frame(6, 6));
  }
  FileBackend reopened(dir, 2);
  EXPECT_EQ(decode_journal(reopened.read_journal(0)).size(), 2u);
  EXPECT_EQ(decode_journal(reopened.read_journal(1)).size(), 1u);
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
  // Every flush cycle lands through append_journal_batch, so the memory
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

TEST(GroupCommitTest, DrainCoversEverythingEnqueued) {
  auto backend = std::make_shared<MemoryBackend>(2);
  GroupCommitter committer(backend);
  GroupCommitter::Ticket last = 0;
  for (std::uint32_t i = 0; i < 32; ++i) {
    last = committer.enqueue(i % 2, frame(i, i + 1));
  }
  committer.drain();
  EXPECT_TRUE(committer.is_durable(last));
  bool torn = false;
  EXPECT_EQ(decode_journal(backend->read_journal(0), &torn).size() +
                decode_journal(backend->read_journal(1), &torn).size(),
            32u);
}

/// Delegating backend whose append path throws: the disk-full shape.
class ExplodingBackend final : public Backend {
 public:
  explicit ExplodingBackend(std::size_t shards) : inner_(shards) {}

  [[nodiscard]] std::size_t shard_count() const override {
    return inner_.shard_count();
  }
  // Throws SYNCHRONOUSLY instead of reporting through the completion:
  // the committer must latch either way.
  void submit_append_group(std::vector<ShardAppend>&& /*appends*/,
                           AppendCompletion /*complete*/) override {
    throw std::runtime_error("disk full");
  }
  [[nodiscard]] Buffer read_journal(std::size_t shard) const override {
    return inner_.read_journal(shard);
  }
  void install_snapshot(std::size_t shard,
                        std::span<const std::uint8_t> bytes) override {
    inner_.install_snapshot(shard, bytes);
  }
  [[nodiscard]] Buffer read_snapshot(std::size_t shard) const override {
    return inner_.read_snapshot(shard);
  }
  void put_meta(std::string_view key,
                std::span<const std::uint8_t> value) override {
    inner_.put_meta(key, value);
  }
  [[nodiscard]] Buffer get_meta(std::string_view key) const override {
    return inner_.get_meta(key);
  }
  [[nodiscard]] std::vector<std::string> meta_keys() const override {
    return inner_.meta_keys();
  }
  [[nodiscard]] bool empty() const override { return inner_.empty(); }

 private:
  MemoryBackend inner_;
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
  EXPECT_THROW(committer.drain(), UsageError);
}

TEST(GroupCommitTest, NullBackendIsRejectedAndFactoryPassesNullThrough) {
  EXPECT_EQ(GroupCommitter::create(nullptr), nullptr);
  EXPECT_THROW(GroupCommitter(nullptr), UsageError);
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
  committer.drain();
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

// --------------------------------------------------------- io_uring backend

TEST(UringBackendTest, FactoryFallsBackAndParsesKinds) {
  EXPECT_EQ(parse_backend_kind("memory"), BackendKind::memory);
  EXPECT_EQ(parse_backend_kind("file"), BackendKind::file);
  EXPECT_EQ(parse_backend_kind("uring"), BackendKind::uring);
  EXPECT_THROW((void)parse_backend_kind("floppy"), UsageError);
  const auto dir = fresh_dir("backend-factory");
  // memory ignores the directory; uring degrades to FileBackend when the
  // probe fails -- either way the caller gets a working volume.
  EXPECT_TRUE(make_backend(BackendKind::memory, dir)->empty());
  auto vol = make_backend(BackendKind::uring, dir);
  ASSERT_NE(vol, nullptr);
  vol->append_journal(0, frame(1, 1));
  EXPECT_EQ(decode_journal(vol->read_journal(0)).size(), 1u);
  EXPECT_EQ(vol->async_io_stats().async, UringFileBackend::available());
  vol.reset();
  std::filesystem::remove_all(dir);
}

TEST(UringBackendTest, SteadyStateMutatePathMakesNoBlockingIoSyscalls) {
  // THE acceptance proof for the async backend: with the ring up, neither
  // the mutator thread (enqueues) nor the flusher thread (submits SQEs)
  // ever enters write(2)/fsync(2) on the pure-mutate path -- the kernel
  // side of the ring runs the I/O.
  if (!UringFileBackend::available()) {
    GTEST_SKIP() << "io_uring unavailable (probe or AMOEBA_NO_URING)";
  }
  const auto dir = fresh_dir("uring-syscalls");
  constexpr std::uint32_t kRecords = 512;
  {
    auto backend = std::make_shared<UringFileBackend>(dir, 4);
    GroupCommitter committer(backend);
    const IoCounters before = this_thread_io_counters();
    GroupCommitter::Ticket last = 0;
    for (std::uint32_t i = 0; i < kRecords; ++i) {
      last = committer.enqueue(i % 4, frame(i, i + 1));
    }
    committer.wait_durable(last);
    const IoCounters after = this_thread_io_counters();
    EXPECT_EQ(after.writes, before.writes) << "mutator blocked in write(2)";
    EXPECT_EQ(after.fsyncs, before.fsyncs) << "mutator blocked in fsync(2)";
    const auto stats = committer.stats();
    EXPECT_EQ(stats.flusher_io_syscalls, 0u) << "flusher blocked in I/O";
    EXPECT_GT(stats.sqe_submitted, 0u);
    EXPECT_EQ(stats.cqe_completed, stats.sqe_submitted);
    EXPECT_EQ(stats.records, kRecords);
  }
  // And the bytes are really there: a plain FileBackend recovers them all.
  {
    FileBackend reopened(dir, 4);
    std::size_t decoded = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      bool torn = false;
      decoded += decode_journal(reopened.read_journal(s), &torn).size();
      EXPECT_FALSE(torn);
    }
    EXPECT_EQ(decoded, kRecords);
  }
  std::filesystem::remove_all(dir);
}

TEST(UringBackendTest, PostFlushHookFiresInLsnOrderOnlyAfterCqes) {
  // The §8.5 ack-ordering contract, observed through the committer's
  // post-flush hook (what replication ships from): while cycles sit
  // submitted-but-uncompleted NOTHING ships, and releasing them fires the
  // hook strictly in cycle (LSN) order.
  if (!UringFileBackend::available()) {
    GTEST_SKIP() << "io_uring unavailable (probe or AMOEBA_NO_URING)";
  }
  const auto dir = fresh_dir("uring-hook-order");
  {
    auto backend = std::make_shared<UringFileBackend>(dir, 2);
    backend->set_hold_submissions(true);
    GroupCommitter committer(backend);
    std::mutex mutex;
    std::vector<GroupCommitter::Ticket> shipped;
    committer.set_post_flush_hook([&](const GroupCommitter::FlushCycle& c) {
      const std::lock_guard lock(mutex);
      shipped.push_back(c.ticket);
    });
    std::vector<GroupCommitter::Ticket> tickets;
    for (std::uint32_t i = 0; i < 3; ++i) {
      tickets.push_back(committer.enqueue(0, frame(i, i + 1)));
      // One held cycle per enqueue: wait for the flusher to claim it.
      for (int spin = 0;
           spin < 2000 && committer.stats().inflight_cycles <= i; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ASSERT_EQ(committer.stats().inflight_cycles, i + 1);
    }
    {
      const std::lock_guard lock(mutex);
      EXPECT_TRUE(shipped.empty()) << "shipped before any CQE arrived";
    }
    EXPECT_FALSE(committer.is_durable(tickets.front()));
    backend->set_hold_submissions(false);
    committer.wait_durable(tickets.back());
    const std::lock_guard lock(mutex);
    EXPECT_EQ(shipped, tickets) << "ship order diverged from LSN order";
  }
  std::filesystem::remove_all(dir);
}

TEST(UringBackendTest, HeldSubmissionsDeferDurabilityUntilReleased) {
  // The submitted-but-uncompleted window, held open deliberately: a cycle
  // whose SQEs never reached the kernel must not release tickets, and
  // releasing the hold must complete everything in order.
  if (!UringFileBackend::available()) {
    GTEST_SKIP() << "io_uring unavailable (probe or AMOEBA_NO_URING)";
  }
  const auto dir = fresh_dir("uring-held");
  {
    auto backend = std::make_shared<UringFileBackend>(dir, 2);
    backend->set_hold_submissions(true);
    GroupCommitter committer(backend);
    const auto ticket = committer.enqueue(0, frame(1, 1));
    // The flusher claims and "submits" promptly; the chain stays staged.
    for (int i = 0; i < 2000 && committer.stats().inflight_cycles == 0;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(committer.stats().inflight_cycles, 1u);
    EXPECT_FALSE(committer.is_durable(ticket));
    backend->set_hold_submissions(false);
    committer.wait_durable(ticket);
    EXPECT_TRUE(committer.is_durable(ticket));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace amoeba::storage

namespace amoeba::core {
namespace {

constexpr Port kPort{0x5A5A5A5A5A5AULL};

[[nodiscard]] Durability<int> int_codec(
    std::shared_ptr<storage::Backend> backend, std::size_t compact_after = 0) {
  Durability<int> d;
  d.backend = std::move(backend);
  d.encode = [](Writer& w, const int& v) {
    w.u32(static_cast<std::uint32_t>(v));
  };
  d.decode = [](Reader& r, int& v) {
    v = static_cast<int>(r.u32());
    return r.ok();
  };
  if (compact_after != 0) {
    d.compact_after = compact_after;
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
    ObjectStore<int> store(scheme(), kPort, 1, 16, int_codec(backend));
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
  ObjectStore<int> recovered(scheme(), kPort, 999, 16, int_codec(backend));
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
    ObjectStore<int> store(scheme(), kPort, 2, 16, int_codec(backend));
    original = store.create(1);
    fresh = store.revoke(original).value();
  }
  ObjectStore<int> recovered(scheme(), kPort, 3, 16, int_codec(backend));
  EXPECT_FALSE(recovered.open(original, Rights::none()).ok());
  EXPECT_TRUE(recovered.open(fresh, Rights::none()).ok());
}

TEST(DurableStore, PairMutationsJournalAtomically) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  ObjectStore<int> store(scheme(), kPort, 4, 16, int_codec(backend));
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
  // Both mutates landed, delivered as one batch (one hook firing).
  EXPECT_EQ(backend->append_count(), before + 2);
  ObjectStore<int> recovered(scheme(), kPort, 5, 16, int_codec(backend));
  EXPECT_EQ(*recovered.open(a, Rights::none()).value().value, 11);
  EXPECT_EQ(*recovered.open(b, Rights::none()).value().value, 21);
}

TEST(DurableStore, CompactionFoldsJournalIntoSnapshot) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  std::vector<Capability> caps;
  {
    ObjectStore<int> store(scheme(), kPort, 6, 16,
                           int_codec(backend, /*compact_after=*/3));
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
    }
    EXPECT_GT(store.durability_stats().snapshots, 0u);
  }
  ObjectStore<int> recovered(scheme(), kPort, 7, 16,
                             int_codec(backend, 3));
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
    ObjectStore<int> store(scheme(), kPort, 8, 16, int_codec(backend));
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
  ObjectStore<int> recovered(scheme(), kPort, 9, 16, int_codec(backend));
  EXPECT_EQ(*recovered.open(cap, Rights::none()).value().value, 2);
}

TEST(DurableStore, TornJournalTailLosesOnlyTheTornRecord) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  ObjectStore<int> store(scheme(), kPort, 10, 16, int_codec(backend));
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
      torn->append_journal(s, journal);
    }
  }
  ObjectStore<int> recovered(scheme(), kPort, 11, 16, int_codec(torn));
  EXPECT_TRUE(recovered.open(a, Rights::none()).ok());
  EXPECT_FALSE(recovered.open(b, Rights::none()).ok());
}

TEST(DurableStore, MismatchedShardCountIsRejected) {
  auto backend = std::make_shared<storage::MemoryBackend>(8);
  EXPECT_THROW(ObjectStore<int>(scheme(), kPort, 1, 16, int_codec(backend)),
               UsageError);
}

TEST(DurableStore, FileBackendRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("amoeba-durable-store-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  Capability cap;
  {
    auto backend = std::make_shared<storage::FileBackend>(dir, 16);
    ObjectStore<int> store(scheme(), kPort, 12, 16, int_codec(backend));
    cap = store.create(41);
    auto opened = store.open(cap, Rights::all());
    *opened.value().value = 42;
    opened.value().mark_dirty();
  }
  {
    auto backend = std::make_shared<storage::FileBackend>(dir, 16);
    ObjectStore<int> recovered(scheme(), kPort, 13, 16, int_codec(backend));
    EXPECT_EQ(*recovered.open(cap, Rights::none()).value().value, 42);
  }
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------- group-committed store

[[nodiscard]] Durability<int> committed_codec(
    const std::shared_ptr<storage::Backend>& backend,
    bool with_delta = false, std::size_t compact_after = 0) {
  Durability<int> d = int_codec(backend, compact_after);
  d.committer = storage::GroupCommitter::create(backend);
  if (with_delta) {
    // Patch format: one u32 increment (replayed exactly once per record:
    // recovery is LSN-gated, so non-idempotent patches are still safe).
    d.apply_delta = [](Reader& r, int& v) {
      v += static_cast<int>(r.u32());
      return r.ok();
    };
  }
  return d;
}

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

TEST(GroupCommittedStore, ForeignCommitterIsRejected) {
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  auto other = std::make_shared<storage::MemoryBackend>(16);
  Durability<int> d = int_codec(backend);
  d.committer = storage::GroupCommitter::create(other);
  EXPECT_THROW(ObjectStore<int>(scheme(), kPort, 33, 16, std::move(d)),
               UsageError);
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
