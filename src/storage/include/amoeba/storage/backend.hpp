// Pluggable storage volumes behind the durable object store.
//
// A Backend is one "disk" holding, per shard, an append-only journal and
// the most recent snapshot, plus a small named-metadata area.  Next to the
// object shards every volume reserves one more journal stream, the REPLY
// STREAM (index reply_stream() == shard_count()): rpc::Service persists
// its at-most-once reply cache there as O(1)-byte records
// (storage/reply_stream.hpp).  The object store never addresses it.  Two
// implementations:
//
//   * MemoryBackend -- byte-for-byte the same layout in process memory.
//     The crash/restart test harness runs on it: an append hook fires at
//     every journal barrier (after the Nth append), and capture() deep-
//     copies the whole volume under its locks -- exactly the disk image a
//     machine losing power at that instant would leave behind.  Recovery
//     from a captured image IS the simulated crash+restart.
//   * FileBackend -- one directory on the real filesystem
//     (shard-N.journal / shard-N.snap / reply.journal / reply.snap /
//     meta-KEY.bin / commit.log), journals
//     appended through raw fds and fsync'd per append group
//     (std::ofstream::flush() only reaches the page cache, not the
//     platter), snapshots and metadata installed via write-temp + fsync +
//     rename + directory fsync.  Group-committed appends
//     (submit_append_group) land in commit.log as ONE checksummed frame
//     per group -- one write(2), one fsync(2), regardless of how many
//     shards the group touches -- and recovery merges commit-log records
//     into each shard's journal by LSN.  This is the durable deployment
//     shape and what bench_e14 measures.
//
// Concurrency: every method is thread-safe.  Journals of different shards
// never contend (per-shard locks), which is what lets journaling ride the
// object store's per-shard mutexes without reintroducing a global lock on
// the PR-1 hot path.  append_journal_batch() appends to several shards
// ATOMICALLY with respect to capture(): a two-shard mutation (a bank
// transfer's debit+credit) is either entirely on the captured image or not
// at all, so a crash cannot tear money in half.
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

namespace amoeba::storage {

/// One shard-addressed journal append, for the multi-shard atomic form.
struct ShardAppend {
  std::size_t shard = 0;
  Buffer bytes;
};

/// Completion of an async append group: invoked exactly once, with a null
/// exception_ptr on success or the failure that kept the group off the
/// disk.  May run on the submitting thread (sync adapter) or on a backend
/// reaper thread (io_uring) -- callers must not assume which.
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

  /// Appends one framed record to a shard's journal (durable on return).
  virtual void append_journal(std::size_t shard,
                              std::span<const std::uint8_t> bytes) = 0;

  /// Appends to several shards' journals as one atomic group with respect
  /// to capture()/recovery images (all appended or none on the image).
  virtual void append_journal_batch(std::vector<ShardAppend>&& appends) = 0;

  /// Submit/complete-shaped async append: appends the whole group with the
  /// same capture() atomicity as append_journal_batch() and invokes
  /// `complete` exactly once -- with a null exception_ptr when every byte
  /// is durable, with the failure otherwise.  The base implementation is
  /// the synchronous adapter (append, then complete inline on the calling
  /// thread); UringFileBackend overrides it to submit to its ring and
  /// complete from the reaping side, and the group-commit flusher
  /// (storage/group_commit.hpp) is its only caller -- so such a backend
  /// drops in without touching the object store.  Completions of
  /// successive calls fire in submission order (the commit log is a
  /// sequential structure; recovery depends on it having no gaps).
  virtual void submit_append_group(std::vector<ShardAppend>&& appends,
                                   AppendCompletion complete);

  /// Submission-pipeline counters; all-zero/sync for blocking backends.
  [[nodiscard]] virtual AsyncIoStats async_io_stats() const { return {}; }

  /// Whole-journal read (recovery).
  [[nodiscard]] virtual Buffer read_journal(std::size_t shard) const = 0;

  /// Atomically replaces the shard's snapshot AND truncates its journal
  /// (log compaction).  Replay-idempotent records make the file-backend
  /// window between rename and truncate harmless.
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
  void append_journal(std::size_t shard,
                      std::span<const std::uint8_t> bytes) override;
  void append_journal_batch(std::vector<ShardAppend>&& appends) override;
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

  /// Total journal appends so far (batch = one per entry).
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
  /// written with the same shard count.
  FileBackend(std::filesystem::path directory, std::size_t shards = 16);
  ~FileBackend() override;

  [[nodiscard]] std::size_t shard_count() const override {
    return object_shards_;
  }
  void append_journal(std::size_t shard,
                      std::span<const std::uint8_t> bytes) override;
  void append_journal_batch(std::vector<ShardAppend>&& appends) override;
  /// Group commit: the whole group goes down as ONE checksummed frame in
  /// the volume-wide commit.log -- one write, one fsync, however many
  /// shards it spans.  Beyond amortizing the fsync (this is where the
  /// flusher's batching actually reaches the platter), the single frame
  /// gives a multi-shard group REAL on-disk atomicity: per-shard journal
  /// files can always tear a pair between two files' fsyncs, a torn
  /// commit-log frame drops the whole group at recovery.
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
  /// Encodes `appends` as one complete commit-log group frame
  /// (`length u32 | checksum u32 | body`) into `frame` (cleared first).
  /// Shared by the sync append below and the ring submission path.
  static void encode_group_frame(const std::vector<ShardAppend>& appends,
                                 Buffer& frame);

  /// Called with commit_mutex_ held before any read of commit.log that
  /// must observe every acknowledged frame (recovery merge, GC, empty())
  /// and before gc_commit_log_locked() swaps commit_fd_ to a new inode.
  /// The base backend writes synchronously, so there is never in-flight
  /// I/O to wait out; UringFileBackend overrides this to drain its ring.
  /// Must NOT be called from a completion/reaper context (commit_mutex_
  /// ordering: reaper threads never take it).
  virtual void quiesce_commit_locked() const {}

  /// Commit-log state, all guarded by commit_mutex_.  Lock order: a shard
  /// mutex (when held at all) is taken BEFORE commit_mutex_; the flusher
  /// takes only commit_mutex_ and never touches the per-shard fds.
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
  struct Shard {
    mutable std::mutex mutex;
    int journal_fd = -1;  // O_APPEND; fsync'd per append group
  };

  [[nodiscard]] std::filesystem::path journal_path(std::size_t shard) const;
  [[nodiscard]] std::filesystem::path snapshot_path(std::size_t shard) const;
  [[nodiscard]] std::filesystem::path meta_path(std::string_view key) const;
  /// write-temp + fsync + rename + directory fsync (the full atomic
  /// replacement recipe -- a rename alone is not durable until the
  /// directory entry itself reaches the disk).
  void replace_file_durably(const std::filesystem::path& path,
                            std::span<const std::uint8_t> bytes,
                            const char* what);
  /// Concatenated framed records for `shard` extracted from commit.log,
  /// in append order (= ascending LSN per shard), through commit_split_.
  /// Caller holds commit_mutex_.
  [[nodiscard]] Buffer commit_log_records_locked(std::size_t shard) const;
  /// Rewrites commit.log dropping every record a shard snapshot already
  /// subsumes (lsn <= that shard's floor).  Caller holds commit_mutex_.
  void gc_commit_log_locked();

  std::filesystem::path directory_;
  std::size_t object_shards_;  // shards_ holds one more: the reply stream
  int dir_fd_ = -1;  // fsync'd after every rename into the directory
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex meta_mutex_;
  std::uint64_t commit_gc_low_ = 0;  // log size after the last GC rewrite
  std::vector<std::uint64_t> commit_floor_;  // per-stream snapshot applied LSN
};

}  // namespace amoeba::storage
