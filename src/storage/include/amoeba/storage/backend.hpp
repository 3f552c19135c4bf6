// Pluggable storage volumes behind the durable object store.
//
// A Backend is one "disk" holding, per shard, an append-only journal and
// the most recent snapshot, plus a small named-metadata area.  Next to the
// object shards every volume reserves one more journal stream, the REPLY
// STREAM (index reply_stream() == shard_count()): rpc::Service persists
// its at-most-once reply cache there as O(1)-byte records
// (storage/reply_stream.hpp).  The object store never addresses it.
//
// Every journal write is an append GROUP -- per-stream runs of framed
// records that land atomically -- through the one virtual write method,
// submit_append_group().  append_journal() and append_journal_batch() are
// that method plus a wait: a synchronous append is a group of one.  Two
// implementations:
//
//   * MemoryBackend -- byte-for-byte the same layout in process memory.
//     The crash/restart test harness runs on it: an append hook fires at
//     every journal barrier (after each group), and capture() deep-copies
//     the whole volume under its locks -- exactly the disk image a
//     machine losing power at that instant would leave behind.  Recovery
//     from a captured image IS the simulated crash+restart.
//   * FileBackend -- one directory on the real filesystem holding ONE
//     journal, commit.log, plus shard-N.snap / reply.snap / meta-KEY.bin.
//     Each group is one checksummed commit.log frame -- one write(2), one
//     fsync(2), however many streams it touches -- so a torn tail drops a
//     whole group, never half of one.  Snapshots and metadata are
//     installed via write-temp + fsync + rename + directory fsync
//     (std::ofstream::flush() only reaches the page cache, not the
//     platter).  This is the durable deployment shape and what bench_e14
//     measures.
//
// Concurrency: every method is thread-safe.  A group is atomic with
// respect to capture() and to a crash: a two-shard mutation (a bank
// transfer's debit+credit) is either entirely on the image or not at all,
// so a crash cannot tear money in half.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "amoeba/common/serial.hpp"
#include "amoeba/storage/record.hpp"

namespace amoeba::storage {

/// Completion of an async append group: invoked exactly once, with a null
/// exception_ptr on success or the failure that kept the group off the
/// disk.  May run on the submitting thread (a blocking backend) or on a
/// backend reaper thread (io_uring) -- callers must not assume which.
using AppendCompletion = std::function<void(std::exception_ptr)>;

/// Counters an async backend exposes so callers can see the submission
/// pipeline (and tests can prove the flusher never blocks in write(2)).
struct AsyncIoStats {
  std::uint64_t sqe_submitted = 0;  // SQEs pushed to the ring (2 per group)
  std::uint64_t cqe_completed = 0;  // CQEs reaped off the ring
  std::uint64_t inflight = 0;       // groups submitted but not yet complete
  bool async = false;               // true only for a live io_uring backend
};

/// Per-thread blocking-syscall counters, bumped by every write(2)/writev(2)
/// and fsync(2)/fdatasync(2) the storage layer issues on the calling
/// thread.  Same spirit as PR 7's CountedMutex: the io_uring proof is a
/// runtime assertion that the mutator's and flusher's counters stay flat
/// across the steady-state mutate path, not a comment.
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
  /// respect to capture() and to a crash, and invokes `complete` exactly
  /// once -- with a null exception_ptr when every byte is durable, with
  /// the failure otherwise.  Failures are reported through `complete`; a
  /// call that throws instead never runs it.  A blocking backend
  /// completes inline on the calling thread; UringFileBackend submits to
  /// its ring and completes from the reaping side.  Completions of
  /// successive calls fire in submission order (the commit log is a
  /// sequential structure; recovery depends on it having no gaps).
  virtual void submit_append_group(std::vector<ShardAppend>&& appends,
                                   AppendCompletion complete) = 0;

  /// submit_append_group() and wait: durable on return, throws on failure.
  void append_journal_batch(std::vector<ShardAppend>&& appends);
  /// A group of one framed record run (durable on return).
  void append_journal(std::size_t shard,
                      std::span<const std::uint8_t> bytes);

  /// Submission-pipeline counters; all-zero/sync for blocking backends.
  [[nodiscard]] virtual AsyncIoStats async_io_stats() const { return {}; }

  /// Whole-journal read (recovery).
  [[nodiscard]] virtual Buffer read_journal(std::size_t shard) const = 0;

  /// Atomically replaces the shard's snapshot (log compaction).  Journal
  /// records at or below its applied LSN are dead from then on: the
  /// memory backend drops them, the file backend drops them at its next
  /// commit.log rewrite, and replay skips any still there.
  virtual void install_snapshot(std::size_t shard,
                                std::span<const std::uint8_t> bytes) = 0;

  /// Whole-snapshot read (recovery); empty when none was installed.
  [[nodiscard]] virtual Buffer read_snapshot(std::size_t shard) const = 0;

  /// Small named metadata blobs, replaced atomically per put.
  virtual void put_meta(std::string_view key,
                        std::span<const std::uint8_t> value) = 0;
  [[nodiscard]] virtual Buffer get_meta(std::string_view key) const = 0;
  /// Every metadata key currently on the volume (unspecified order).  The
  /// replication resync path walks this to ship a new backup the whole
  /// metadata area.
  [[nodiscard]] virtual std::vector<std::string> meta_keys() const = 0;

  /// True when the volume holds no journal bytes, snapshots, or metadata
  /// (a fresh disk: the store initializes instead of recovering).
  [[nodiscard]] virtual bool empty() const = 0;
};

/// In-memory volume with crash-capture hooks (the test harness backend).
class MemoryBackend final : public Backend {
 public:
  explicit MemoryBackend(std::size_t shards = 16);

  [[nodiscard]] std::size_t shard_count() const override {
    return shards_.size() - 1;  // the last entry is the reply stream
  }
  /// Appends under every touched shard lock and completes inline.
  void submit_append_group(std::vector<ShardAppend>&& appends,
                           AppendCompletion complete) override;
  [[nodiscard]] Buffer read_journal(std::size_t shard) const override;
  void install_snapshot(std::size_t shard,
                        std::span<const std::uint8_t> bytes) override;
  [[nodiscard]] Buffer read_snapshot(std::size_t shard) const override;
  void put_meta(std::string_view key,
                std::span<const std::uint8_t> value) override;
  [[nodiscard]] Buffer get_meta(std::string_view key) const override;
  [[nodiscard]] std::vector<std::string> meta_keys() const override;
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
  /// instant would leave.  Takes every shard lock (ascending) plus the
  /// meta lock, so multi-shard append groups are never torn across it.
  [[nodiscard]] std::shared_ptr<MemoryBackend> capture() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    Buffer journal;
    Buffer snapshot;
  };

  void hook_after_append();

  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex meta_mutex_;
  std::map<std::string, Buffer, std::less<>> meta_;
  std::atomic<std::uint64_t> appends_{0};
  std::atomic<bool> hook_set_{false};  // fast-path gate for hook_after_append
  mutable std::mutex hook_mutex_;
  std::function<void(std::uint64_t)> hook_;
};

/// Directory-on-disk volume: the durable deployment backend.  Not final:
/// UringFileBackend (storage/uring_backend.hpp) subclasses it, replacing
/// only the commit-log append with ring submission -- every recovery,
/// snapshot, and metadata path is shared.
class FileBackend : public Backend {
 public:
  /// Creates the directory if needed; an existing volume must have been
  /// written with the same shard count.  Throws UsageError naming the file
  /// when the directory holds a non-empty per-stream journal
  /// (`shard-N.journal`, `reply.journal`) of an older on-disk format:
  /// such volumes are refused, not migrated (docs/PROTOCOL.md §8).
  FileBackend(std::filesystem::path directory, std::size_t shards = 16);
  ~FileBackend() override;

  [[nodiscard]] std::size_t shard_count() const override {
    return object_shards_;
  }
  /// The whole group goes down as ONE checksummed commit.log frame -- one
  /// write, one fsync, however many streams it spans -- completed inline.
  void submit_append_group(std::vector<ShardAppend>&& appends,
                           AppendCompletion complete) override;
  [[nodiscard]] Buffer read_journal(std::size_t shard) const override;
  void install_snapshot(std::size_t shard,
                        std::span<const std::uint8_t> bytes) override;
  [[nodiscard]] Buffer read_snapshot(std::size_t shard) const override;
  void put_meta(std::string_view key,
                std::span<const std::uint8_t> value) override;
  [[nodiscard]] Buffer get_meta(std::string_view key) const override;
  [[nodiscard]] std::vector<std::string> meta_keys() const override;
  [[nodiscard]] bool empty() const override;

  [[nodiscard]] const std::filesystem::path& directory() const {
    return directory_;
  }

 protected:
  /// Called with commit_mutex_ held before any read of commit.log that
  /// must observe every acknowledged frame (recovery, GC, empty())
  /// and before gc_commit_log_locked() swaps commit_fd_ to a new inode.
  /// The base backend writes synchronously, so there is never in-flight
  /// I/O to wait out; UringFileBackend overrides this to drain its ring.
  /// Must NOT be called from a completion/reaper context (commit_mutex_
  /// ordering: reaper threads never take it).
  virtual void quiesce_commit_locked() const {}

  /// Commit-log state, all guarded by commit_mutex_.  Lock order: a
  /// snapshot mutex (when held at all) is taken BEFORE commit_mutex_.
  /// Protected rather than private so UringFileBackend's submission path
  /// can append to the same log under the same lock.
  mutable std::mutex commit_mutex_;
  int commit_fd_ = -1;  // O_APPEND; one fsync per group frame
  std::uint64_t commit_log_bytes_ = 0;
  Buffer commit_frame_;  // reused staging buffer for group frames
  /// commit.log split into per-stream record runs, kept while the log is
  /// unchanged: recovery reads every stream back to back, and each read
  /// would otherwise walk the whole log again.  Appends drop it.
  mutable std::vector<Buffer> commit_split_;

  [[nodiscard]] std::filesystem::path commit_log_path() const;

 private:
  [[nodiscard]] std::filesystem::path snapshot_path(std::size_t shard) const;
  [[nodiscard]] std::filesystem::path meta_path(std::string_view key) const;
  /// write-temp + fsync + rename + directory fsync (the full atomic
  /// replacement recipe -- a rename alone is not durable until the
  /// directory entry itself reaches the disk).
  void replace_file_durably(const std::filesystem::path& path,
                            std::span<const std::uint8_t> bytes,
                            const char* what);
  /// commit.log's records per stream, in append order (= ascending LSN
  /// per stream), through commit_split_.  Caller holds commit_mutex_.
  [[nodiscard]] const std::vector<Buffer>& commit_split_locked() const;
  /// Rewrites commit.log dropping every record a shard snapshot already
  /// subsumes (lsn <= that shard's floor).  Caller holds commit_mutex_.
  void gc_commit_log_locked();

  std::filesystem::path directory_;
  std::size_t object_shards_;  // streams: one more, the reply stream
  int dir_fd_ = -1;  // fsync'd after every rename into the directory
  /// One per stream: serializes a snapshot's install against its reads.
  mutable std::vector<std::mutex> snapshot_mutexes_;
  mutable std::mutex meta_mutex_;
  std::uint64_t commit_gc_low_ = 0;  // log size after the last GC rewrite
  std::vector<std::uint64_t> commit_floor_;  // per-stream snapshot applied LSN
};

}  // namespace amoeba::storage
