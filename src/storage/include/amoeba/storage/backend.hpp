// Pluggable storage volumes behind the durable object store.
//
// A volume is one byte LOG, commit.log: a header, then checksummed frames
// (storage/record.hpp), each one group of per-stream runs of framed
// records, numbered by the volume's frame sequence.  Next to the object
// shards every volume reserves one more stream, the REPLY STREAM (index
// reply_stream() == shard_count()): rpc::Service persists its
// at-most-once reply cache there (storage/reply_stream.hpp).  The object
// store never addresses it.
//
// A volume is written two ways, both durable on return:
//   * append_frames() appends whole frames -- a flush cycle, or the frames
//     a primary shipped to a backup -- as one write and one fsync;
//   * replace_log() makes the given frames the whole log: a CHECKPOINT
//     frame, whose images hold every stream's state, starts a fresh log,
//     and a backup's resync adopts its primary's log.  The old log is
//     never read.
// A server never writes its volume itself: its GroupCommitter's flusher
// is the one writer (group_commit.hpp).  Recovery reads each stream's
// state back (read_stream); a resync reads the log as written (read_log).
// Two implementations keep the same bytes:
//
//   * MemoryBackend -- the log in process memory.  The crash/restart test
//     harness runs on it: an append hook fires after every write, and
//     capture() copies the log -- exactly the disk image a machine losing
//     power at that instant would leave behind.  Recovery from a captured
//     image IS the simulated crash+restart.
//   * FileBackend -- one directory on the real filesystem holding ONE
//     file, commit.log.  Each frame is one write(2) and one fsync(2),
//     however many streams and images it carries, so a torn tail drops a
//     whole frame, never half of one.  This is the durable deployment
//     shape and what bench_e14 measures.
//
// Concurrency: every method is thread-safe.  A frame is atomic with
// respect to capture() and to a crash: a two-shard mutation (a bank
// transfer's debit+credit) is either entirely on the image or not at all,
// so a crash cannot tear money in half.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "amoeba/common/serial.hpp"
#include "amoeba/storage/record.hpp"

namespace amoeba::storage {

/// Per-thread blocking-syscall counters, bumped by every write(2), fsync(2)
/// and log read the storage layer issues on the calling thread.  Same
/// spirit as CountedMutex: which thread pays for durability (the
/// group-commit flusher writing a cycle, its images included, never a
/// mutator) and that a checkpoint never reads the old log are runtime
/// counters, not comments.
struct IoCounters {
  std::uint64_t writes = 0;      // blocking write/writev calls
  std::uint64_t fsyncs = 0;      // blocking fsync/fdatasync calls
  std::uint64_t read_bytes = 0;  // bytes read back from a log
};
[[nodiscard]] IoCounters& this_thread_io_counters();

/// Walks the whole frames at the front of `frames` in log order, handing
/// each decoded frame and its bytes to `visit`.  Stops at the first torn,
/// corrupt or malformed frame, and at an intact one that names a stream
/// at or above `streams` or is not numbered one above its predecessor;
/// for those two `*broken` says what broke.  Returns the bytes walked.
std::size_t walk_frames(
    std::span<const std::uint8_t> frames, std::size_t streams,
    const std::function<void(const Frame&, std::span<const std::uint8_t>)>&
        visit,
    std::string* broken);
/// The sequence number of the last of `frames`, which must be whole
/// frames; 0 for none.
[[nodiscard]] std::uint64_t last_frame_seq(
    std::span<const std::uint8_t> frames);

class Backend {
 public:
  virtual ~Backend() = default;

  /// Object shards.  Fixed at volume creation; the object store adopting
  /// this backend must be sharded identically (object number -> shard
  /// mapping is layout).
  [[nodiscard]] virtual std::size_t shard_count() const = 0;

  /// The reserved reply stream's index: one past the last object shard.
  [[nodiscard]] std::size_t reply_stream() const { return shard_count(); }
  /// Object shards plus the reply stream: the valid stream indexes.
  [[nodiscard]] std::size_t stream_count() const { return shard_count() + 1; }

  /// Appends whole encoded frames (encode_frame's bytes), numbered on from
  /// last_seq(), as one write; an empty log gains its header first.
  /// Returns once every byte is durable; throws when they may not be.
  virtual void append_frames(std::span<const std::uint8_t> frames) = 0;
  /// Makes `frames` the whole log (nothing, for none) without reading the
  /// old one: written aside, fsynced, renamed over it.  On an empty log
  /// the frames are simply appended.
  virtual void replace_log(std::span<const std::uint8_t> frames) = 0;
  /// The log as written: header and frames; empty for an empty volume.
  [[nodiscard]] virtual Buffer read_log() const = 0;
  /// The sequence number of the log's last frame; 0 for an empty log.
  [[nodiscard]] virtual std::uint64_t last_seq() const = 0;
  /// The log's size in bytes (the checkpoint trigger reads it).
  [[nodiscard]] virtual std::uint64_t log_bytes() const = 0;

  /// The stream's state as one run (record.hpp's live_records): its
  /// newest snapshot record, if it has one, first, then every record
  /// above it, in log order.
  [[nodiscard]] virtual Buffer read_stream(std::size_t stream) const = 0;

  /// The image of the stream's newest snapshot record (recovery); empty
  /// when it has none.
  [[nodiscard]] Buffer read_snapshot(std::size_t stream) const;
  /// The stream's live records above that image (recovery replays them).
  [[nodiscard]] Buffer read_journal(std::size_t stream) const;

  /// True when the volume holds no frames (a fresh disk: the store
  /// initializes instead of recovering).
  [[nodiscard]] bool empty() const { return log_bytes() == 0; }
};

/// In-memory volume with crash-capture hooks (the test harness backend).
class MemoryBackend final : public Backend {
 public:
  explicit MemoryBackend(std::size_t shards = 16);

  [[nodiscard]] std::size_t shard_count() const override { return shards_; }
  void append_frames(std::span<const std::uint8_t> frames) override;
  void replace_log(std::span<const std::uint8_t> frames) override;
  [[nodiscard]] Buffer read_log() const override;
  [[nodiscard]] std::uint64_t last_seq() const override;
  [[nodiscard]] std::uint64_t log_bytes() const override;
  [[nodiscard]] Buffer read_stream(std::size_t stream) const override;

  /// Installs the write hook: invoked after every write with the running
  /// write count, OUTSIDE the log lock (so the hook may capture()).  The
  /// crash harness registers a hook that snapshots the volume at chosen
  /// barriers.
  void set_append_hook(std::function<void(std::uint64_t)> hook);

  /// Writes so far (append_frames and replace_log calls).
  [[nodiscard]] std::uint64_t append_count() const {
    return appends_.load(std::memory_order_relaxed);
  }

  /// Copy of the volume as of now -- the disk image a crash at this
  /// instant would leave.  Frames are never torn across it.
  [[nodiscard]] std::shared_ptr<MemoryBackend> capture() const;

 private:
  void write(std::span<const std::uint8_t> frames, bool replace);

  std::size_t shards_;
  mutable std::mutex mutex_;
  Buffer log_;              // header and frames, as a file volume's
  std::uint64_t last_seq_ = 0;
  mutable std::optional<std::vector<Buffer>> split_;  // streams, until a write
  std::atomic<std::uint64_t> appends_{0};
  std::atomic<bool> hook_set_{false};  // fast-path gate for the hook
  mutable std::mutex hook_mutex_;
  std::function<void(std::uint64_t)> hook_;
};

/// Directory-on-disk volume: the durable deployment backend.
class FileBackend final : public Backend {
 public:
  /// Creates the directory if needed; an existing volume must have been
  /// written with the same shard count.  Throws UsageError naming the file
  /// when the directory holds a non-empty per-stream journal
  /// (`shard-N.journal`, `reply.journal`), metadata blob (`meta-KEY.bin`)
  /// or snapshot file (`shard-N.snap`, `reply.snap`), or a commit.log
  /// without the format-7 header, of an older on-disk format: such
  /// volumes are refused, not migrated, and not touched
  /// (docs/PROTOCOL.md §8).  A commit.log whose tail is torn or corrupt is
  /// cut back to its intact prefix (ftruncate + fsync) before anything can
  /// be appended behind the bad bytes; one holding an intact frame that
  /// names a stream this volume lacks (a wrong shard count) or breaks the
  /// frame numbering is refused with a UsageError.  A commit.log.tmp left
  /// by a checkpoint cut short is ignored; the next one overwrites it.
  FileBackend(std::filesystem::path directory, std::size_t shards = 16);
  ~FileBackend() override;

  [[nodiscard]] std::size_t shard_count() const override {
    return object_shards_;
  }
  void append_frames(std::span<const std::uint8_t> frames) override;
  void replace_log(std::span<const std::uint8_t> frames) override;
  [[nodiscard]] Buffer read_log() const override;
  [[nodiscard]] std::uint64_t last_seq() const override;
  [[nodiscard]] std::uint64_t log_bytes() const override;
  [[nodiscard]] Buffer read_stream(std::size_t stream) const override;

  [[nodiscard]] const std::filesystem::path& directory() const {
    return directory_;
  }

 private:
  [[nodiscard]] std::filesystem::path commit_log_path() const;

  std::filesystem::path directory_;
  std::size_t object_shards_;  // streams: one more, the reply stream
  int dir_fd_ = -1;  // fsync'd after every rename into the directory
  /// Commit-log state, all guarded by commit_mutex_.
  mutable std::mutex commit_mutex_;
  int commit_fd_ = -1;  // O_APPEND; one fsync per write
  std::uint64_t commit_log_bytes_ = 0;
  std::uint64_t last_seq_ = 0;
  /// Every stream's state, kept from the open's scan until the first
  /// write: recovery reads every stream back to back.
  mutable std::optional<std::vector<Buffer>> split_;
};

}  // namespace amoeba::storage
