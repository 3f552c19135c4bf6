// Pluggable storage volumes behind the durable object store.
//
// A Backend is one "disk" holding, per stream, a run of framed records:
// journal records and snapshot records (storage/record.hpp), whose
// state -- the newest snapshot plus the records above it -- recovery
// reads back.  Next to the object shards every volume reserves one more
// stream, the REPLY STREAM (index reply_stream() == shard_count()):
// rpc::Service persists its at-most-once reply cache there as O(1)-byte
// records (storage/reply_stream.hpp), and a replication backup keeps its
// applied floor there (replication/replica.hpp).  The object store never
// addresses it.
//
// Every write is an append GROUP -- per-stream runs of framed records
// that land atomically -- through the one virtual write method,
// append_journal_batch(), which returns once the group is durable and
// throws when it is not.  append_journal() is a group of one.  A server
// never writes a volume itself: its GroupCommitter's flusher is the one
// writer, and a snapshot image rides its cycle's group as a record
// (group_commit.hpp).  Two implementations:
//
//   * MemoryBackend -- byte-for-byte the same layout in process memory.
//     The crash/restart test harness runs on it: an append hook fires at
//     every journal barrier (after each group), and capture() deep-copies
//     the whole volume under its locks -- exactly the disk image a
//     machine losing power at that instant would leave behind.  Recovery
//     from a captured image IS the simulated crash+restart.
//   * FileBackend -- one directory on the real filesystem holding ONE
//     file, commit.log.  Each group is one checksummed commit.log frame
//     -- one write(2), one fsync(2), however many streams and images it
//     carries -- so a torn tail drops a whole group, never half of one.
//     This is the durable deployment shape and what bench_e14 measures.
//
// Concurrency: every method is thread-safe.  A group is atomic with
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
#include <span>
#include <vector>

#include "amoeba/common/serial.hpp"
#include "amoeba/storage/record.hpp"

namespace amoeba::storage {

/// Per-thread blocking-syscall counters, bumped by every write(2) and
/// fsync(2) the storage layer issues on the calling thread.  Same spirit
/// as CountedMutex: which thread pays for durability (the group-commit
/// flusher writing a cycle, its images included, never a mutator) is a
/// runtime counter, not a comment.
struct IoCounters {
  std::uint64_t writes = 0;  // blocking write/writev calls
  std::uint64_t fsyncs = 0;  // blocking fsync/fdatasync calls
};
[[nodiscard]] IoCounters& this_thread_io_counters();

class Backend {
 public:
  virtual ~Backend() = default;

  /// Object shards.  Fixed at volume creation; the object store adopting
  /// this backend must be sharded identically (object number -> shard
  /// mapping is layout).
  [[nodiscard]] virtual std::size_t shard_count() const = 0;

  /// The reserved reply stream's index: one past the last object shard.
  /// Every journal/snapshot method below accepts it like a shard.
  [[nodiscard]] std::size_t reply_stream() const { return shard_count(); }
  /// Object shards plus the reply stream: the valid journal indexes.
  [[nodiscard]] std::size_t stream_count() const { return shard_count() + 1; }

  /// The one write primitive: appends the whole group atomically with
  /// respect to capture() and to a crash, on the calling thread.  Returns
  /// once every byte is durable; throws when the group may not be, and
  /// then nothing of it may be reported durable.
  virtual void append_journal_batch(std::vector<ShardAppend>&& appends) = 0;
  /// A group of one framed record run (durable on return).
  void append_journal(std::size_t shard,
                      std::span<const std::uint8_t> bytes);

  /// The stream's state as one normal-form run (record.hpp's
  /// live_records): its newest snapshot record, if it has one, first, then
  /// every other record still live, in log order.
  [[nodiscard]] virtual Buffer read_stream(std::size_t stream) const = 0;

  /// The image of the stream's newest snapshot record (recovery); empty
  /// when it has none.
  [[nodiscard]] Buffer read_snapshot(std::size_t stream) const;
  /// The stream's live records above that image (recovery replays them).
  [[nodiscard]] Buffer read_journal(std::size_t stream) const;

  /// commit.log GC rewrites this volume ran and the longest one; zero on
  /// a volume without a commit.log.
  struct RewriteStats {
    std::uint64_t rewrites = 0;
    std::uint64_t rewrite_us_max = 0;
  };
  [[nodiscard]] virtual RewriteStats rewrite_stats() const { return {}; }

  /// True when the volume holds no records (a fresh disk: the store
  /// initializes instead of recovering).
  [[nodiscard]] virtual bool empty() const = 0;
};

/// In-memory volume with crash-capture hooks (the test harness backend).
class MemoryBackend final : public Backend {
 public:
  explicit MemoryBackend(std::size_t shards = 16);

  [[nodiscard]] std::size_t shard_count() const override {
    return shards_.size() - 1;  // the last entry is the reply stream
  }
  /// Appends under every touched shard lock; a run carrying a snapshot
  /// record reduces its stream to its live records.
  void append_journal_batch(std::vector<ShardAppend>&& appends) override;
  [[nodiscard]] Buffer read_stream(std::size_t stream) const override;
  [[nodiscard]] bool empty() const override;

  /// Installs the journal-barrier hook: invoked after every journal append
  /// group with the running append count, OUTSIDE the shard locks (so the
  /// hook may capture()).  The crash harness registers a hook that
  /// snapshots the volume at chosen barriers.
  void set_append_hook(std::function<void(std::uint64_t)> hook);

  /// Total journal appends so far (a group counts one per entry).
  [[nodiscard]] std::uint64_t append_count() const {
    return appends_.load(std::memory_order_relaxed);
  }

  /// Deep copy of the volume as of now -- the disk image a crash at this
  /// instant would leave.  Takes every shard lock (ascending), so
  /// multi-shard append groups are never torn across it.
  [[nodiscard]] std::shared_ptr<MemoryBackend> capture() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    Buffer records;  // the stream's run, reduced at each snapshot record
  };

  void hook_after_append();

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> appends_{0};
  std::atomic<bool> hook_set_{false};  // fast-path gate for hook_after_append
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
  /// or snapshot file (`shard-N.snap`, `reply.snap`) of an older on-disk
  /// format: such volumes are refused, not migrated (docs/PROTOCOL.md §8).
  /// A commit.log whose tail is torn or corrupt is cut back to its intact
  /// prefix (ftruncate + fsync) before anything can be appended behind the
  /// bad bytes; one holding an intact group that names a stream this
  /// volume lacks (a wrong shard count) is refused with a UsageError.
  FileBackend(std::filesystem::path directory, std::size_t shards = 16);
  ~FileBackend() override;

  [[nodiscard]] std::size_t shard_count() const override {
    return object_shards_;
  }
  /// The whole group goes down as ONE checksummed commit.log frame -- one
  /// write, one fsync, however many streams it spans.  Then, past the GC
  /// threshold, the log is rewritten to its streams' live records.
  void append_journal_batch(std::vector<ShardAppend>&& appends) override;
  [[nodiscard]] Buffer read_stream(std::size_t stream) const override;
  [[nodiscard]] RewriteStats rewrite_stats() const override;
  [[nodiscard]] bool empty() const override;

  [[nodiscard]] const std::filesystem::path& directory() const {
    return directory_;
  }

 private:
  [[nodiscard]] std::filesystem::path commit_log_path() const;
  /// commit.log's live records per stream, in normal form, through
  /// commit_split_.  Caller holds commit_mutex_.
  [[nodiscard]] const std::vector<Buffer>& commit_split_locked() const;
  /// Rewrites commit.log to its streams' live records (write-temp + fsync
  /// + rename + directory fsync).  Caller holds commit_mutex_.
  void gc_commit_log_locked();

  std::filesystem::path directory_;
  std::size_t object_shards_;  // streams: one more, the reply stream
  int dir_fd_ = -1;  // fsync'd after every rename into the directory
  /// Commit-log state, all guarded by commit_mutex_.
  mutable std::mutex commit_mutex_;
  int commit_fd_ = -1;  // O_APPEND; one fsync per group frame
  std::uint64_t commit_log_bytes_ = 0;
  Buffer commit_frame_;  // reused staging buffer for group frames
  /// commit.log split into per-stream live runs, kept while the log is
  /// unchanged: recovery reads every stream back to back, and each read
  /// would otherwise walk the whole log again.  Appends drop it.
  mutable std::vector<Buffer> commit_split_;
  std::uint64_t commit_gc_low_ = 0;  // log size after the last GC rewrite
  RewriteStats rewrite_stats_;
};

}  // namespace amoeba::storage
