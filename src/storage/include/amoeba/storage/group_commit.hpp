// Group commit: one asynchronous flusher amortizing many journal appends
// into one backend write per cycle.
//
// PR 5 made every state change durable by appending (and, on FileBackend,
// flushing) one record at a time on the mutator thread -- correct, but the
// pure-mutate path paid a full backend round trip per record.  The classic
// fix is group commit: mutators ENCODE their record under the shard lock,
// ENQUEUE it here (receiving a monotonically increasing commit ticket),
// RELEASE the lock, and block -- or carry the ticket as a future and keep
// going -- until the flusher reports the ticket durable.  One flusher per
// volume drains every shard's pending bytes and issues a single multi-shard
// submit_append_group() per cycle: one gather write and one fsync cover
// every record that piled up while the previous fsync was in flight, which
// is the self-tuning property (load grows groups, idle volumes flush
// immediately).
//
// Ordering guarantees:
//   * Tickets are the volume-wide commit LSN: wait_durable(t) returns only
//     after EVERY enqueue with ticket <= t is on the backend.  The flusher
//     never reports a ticket whose bytes a crash image could lack.
//   * enqueue_group() places all entries under one queue-mutex hold, so a
//     flush cycle carries a multi-shard group entirely or not at all; the
//     backend's group atomicity w.r.t. capture() and crashes then keeps
//     a bank transfer's debit+credit untearable, exactly as in the
//     synchronous path.
//   * The volume's reply stream (Backend::reply_stream()) is one more
//     queue: rpc::Service enqueues a request's floor record at claim time,
//     so it takes a smaller ticket than -- and lands in the same or an
//     earlier cycle than -- every effect the handler enqueues after it.  A
//     crash image may hold a floor without its effect (operation lost,
//     safe) but never an effect without its floor (operation doubled).
//     Writes that bypass the queue must keep that: the object store makes
//     every issued ticket durable (drain()) before it installs a shard
//     snapshot, which may already hold a queued effect.
//
// A backend write failure (disk full) latches the committer into a failed
// state: wait_durable() then throws instead of ever reporting durability
// that does not exist.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "amoeba/storage/backend.hpp"

namespace amoeba::storage {

/// Tuning of one GroupCommitter.
struct GroupCommitOptions {
  /// CEILING of the flusher's linger: the longest it may hold a claim to
  /// let concurrent mutators grow the group.  0 (the default) leaves the
  /// adaptive policy its built-in ceiling (kDefaultLingerCeiling); with
  /// adaptive_linger off, 0 means flush immediately and a nonzero value
  /// is an unconditional fixed linger (the old --flush-interval knob).
  std::chrono::microseconds flush_interval{0};
  /// Waiter-gated pacing: the flusher lingers (growing the cycle, up to
  /// the ceiling) only while NO thread is blocked in wait_durable -- the
  /// moment a waiter arrives the linger collapses and the cycle flushes.
  /// Pipelined mutators (release_async) therefore get wide cycles and few
  /// condvar round trips -- the fix for the grouped-memory > sync-memory
  /// inversion bench_e14 exposed on one core -- while synchronous waiters
  /// keep their immediate-flush latency.
  bool adaptive_linger = true;
  /// Backpressure for async backends: how many submitted-but-uncompleted
  /// flush cycles may be outstanding before the flusher stops claiming.
  /// Irrelevant for sync backends (completion is inline, so the count
  /// never exceeds one).
  std::size_t max_inflight_cycles = 4;

  static constexpr std::chrono::microseconds kDefaultLingerCeiling{200};
};

class GroupCommitter;

/// Defers the calling thread's durability waits to one point: while a
/// scope is open, GroupCommitter::wait_durable records the largest ticket
/// per committer and returns without blocking (accessor releases,
/// ShardedObjectStore::create, a request's reply floor).  settle() then
/// blocks once per committer.  rpc::Service opens one scope per request,
/// around claim and handler, and settles before the reply leaves;
/// rpc::Transport settles before a handler's outgoing call.  drain()
/// always blocks.  Scopes nest (innermost wins).
class RequestScope {
 public:
  RequestScope() noexcept;
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  /// Blocks until every recorded ticket is durable, then forgets them.
  /// Throws as wait_durable does if a committer failed first; the tickets
  /// stay recorded, so a later settle() throws again.
  void settle();

  /// Settles the calling thread's innermost scope; no-op without one.
  static void settle_current();

 private:
  friend class GroupCommitter;
  struct Pending {
    GroupCommitter* committer;
    std::uint64_t ticket;
  };
  /// The innermost open scope of the calling thread, or null.
  [[nodiscard]] static RequestScope* current() noexcept;
  void defer(GroupCommitter& committer, std::uint64_t ticket);

  RequestScope* outer_;
  std::vector<Pending> pending_;  // one entry per committer
};

class GroupCommitter {
 public:
  /// Volume-wide commit sequence number; 0 means "nothing to wait for"
  /// (what in-memory paths hand around so callers need no null checks).
  using Ticket = std::uint64_t;

  using Options = GroupCommitOptions;

  struct Stats {
    std::uint64_t groups = 0;        // flush cycles that reached the backend
    std::uint64_t records = 0;       // journal appends those cycles carried
    std::uint64_t max_group = 0;     // largest single cycle, in records
    std::uint64_t flush_cycle_bytes = 0;  // journal bytes those cycles wrote
    // --- async submission pipeline (PR 10) ---
    std::uint64_t inflight_cycles = 0;  // submitted, completion pending (now)
    std::uint64_t sqe_submitted = 0;    // backend ring SQEs (0 when sync)
    std::uint64_t cqe_completed = 0;    // backend ring CQEs (0 when sync)
    std::uint64_t linger_us_current = 0;  // last adaptive linger applied
    std::uint64_t flusher_io_syscalls = 0;  // blocking write/fsync calls the
                                            // flusher thread has made (the
                                            // zero-syscall proof under uring)
    std::uint64_t blocking_waits = 0;  // wait_durable calls that had to block
  };

  /// One completed flush cycle as the post-flush hook sees it: the exact
  /// bytes that just became durable on the local backend, BEFORE any
  /// wait_durable(ticket <= this cycle's ticket) is released.  Replication
  /// ships from here -- no second encode pass, and a waiter released by
  /// this cycle knows its records were already offered to the backups.
  struct FlushCycle {
    Ticket ticket = 0;        // highest ticket the cycle covers
    std::uint64_t bytes = 0;  // journal bytes the cycle carried
    /// The cycle's per-shard journal appends, as written.
    const std::vector<ShardAppend>* appends = nullptr;
  };
  using PostFlushHook = std::function<void(const FlushCycle&)>;

  explicit GroupCommitter(std::shared_ptr<Backend> backend,
                          Options options = {});
  /// Drains every pending enqueue to the backend, then joins the flusher.
  ~GroupCommitter();

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  /// Null-safe factory: a committer for `backend`, or null when `backend`
  /// is null (the in-memory server constructors pass the null through).
  [[nodiscard]] static std::shared_ptr<GroupCommitter> create(
      const std::shared_ptr<Backend>& backend, Options options = {});

  /// Queues one framed record for `shard`'s journal (any index below the
  /// backend's stream_count(), the reply stream included); the bytes are
  /// copied (the caller typically hands a per-shard scratch buffer it will
  /// reuse).
  [[nodiscard]] Ticket enqueue(std::size_t shard,
                               std::span<const std::uint8_t> bytes);

  /// Like enqueue(), but the caller ENCODES the record directly into the
  /// committer's staging buffer instead of handing over pre-framed bytes:
  /// `encode(Buffer&)` must APPEND exactly one framed record to the buffer
  /// it is given and touch nothing else.  This skips the frame-to-scratch
  /// copy of the enqueue() path (the remaining single-core group-commit
  /// lever ROADMAP flags).  The callback runs with the committer's queue
  /// mutex held -- it must not block, enqueue, or wait on this committer.
  ///
  /// `wake_flusher` false leaves a parked flusher parked: the record rides
  /// the next cycle something else starts (a waking enqueue or a
  /// wait_durable()).  rpc::Service's reply-stream records use it: their
  /// writer waits later (a floor) or never (a body), so neither pays for
  /// a cycle of its own.
  template <typename EncodeFn>
  [[nodiscard]] Ticket enqueue_with(std::size_t shard, EncodeFn&& encode,
                                    bool wake_flusher = true) {
    bool wake;
    Ticket ticket;
    {
      const std::lock_guard lock(mutex_);
      Buffer& pending = pending_.at(shard);
      if (pending.empty()) {
        dirty_shards_.push_back(shard);
      }
      encode(pending);
      ++pending_records_;
      // Batched-wakeup lever: notify only when the flusher is actually
      // parked on work_cv_.  While it claims, writes, or lingers, the
      // notify (a futex syscall plus, on one core, often a context
      // switch) would be pure overhead -- the flusher re-checks the
      // queue under the mutex before it ever sleeps again.
      wake = wake_flusher && flusher_waiting_;
      ticket = ++issued_;
    }
    if (wake) {
      work_cv_.notify_one();
    }
    return ticket;
  }

  /// Queues a multi-shard record group under ONE mutex hold, so no flush
  /// cycle boundary can fall inside it (the pair-mutation atomicity).
  [[nodiscard]] Ticket enqueue_group(std::vector<ShardAppend>&& appends);

  /// Blocks until every enqueue with a ticket at or below `ticket` is on
  /// the backend.  Throws UsageError if the flusher failed (disk full)
  /// before covering it -- durability is never reported optimistically.
  /// Inside a RequestScope it only records the ticket; the scope's
  /// settle() does the blocking.
  void wait_durable(Ticket ticket);

  /// Non-blocking durability probe.
  [[nodiscard]] bool is_durable(Ticket ticket) const;

  /// Blocks until everything enqueued so far is durable, RequestScope or
  /// not (a shard snapshot install depends on it).
  void drain();

  [[nodiscard]] Stats stats() const;

  /// Installs the post-flush hook (one subscriber; throws on a second).
  /// Runs on the flusher thread after the cycle's backend writes complete
  /// and before its waiters release; a hook that throws latches the
  /// committer into the failed state exactly like a backend write failure
  /// (durability -- which now includes the hook's ack contract -- is never
  /// reported optimistically).  Constructing a GroupCommitter over a
  /// ReplicatedBackend installs the shipping hook automatically.
  void set_post_flush_hook(PostFlushHook hook);

  [[nodiscard]] const std::shared_ptr<Backend>& backend() const {
    return backend_;
  }

 private:
  friend class RequestScope;
  /// wait_durable's blocking half, which no scope defers.
  void block_until(Ticket ticket);

  /// One claimed flush cycle, alive from claim until its completion has
  /// been processed.  Owns the bytes the backend writes and the hook
  /// ships; shared with the backend's completion callback, which may
  /// outlive the flusher's local scope on an async backend.
  struct Cycle {
    Ticket covered = 0;
    std::uint64_t bytes = 0;
    std::uint64_t records = 0;
    std::vector<ShardAppend> appends;
    std::exception_ptr error;  // set by the completion; null on success
    bool done = false;         // completion arrived (guarded by mutex_)
  };

  void flusher(const std::stop_token& stop);
  /// Backend completion entry point: marks the cycle settled and runs the
  /// ordered drain.  Called from the flusher (sync backends, meta-only
  /// cycles) or from a backend reaper thread (io_uring).
  void on_cycle_complete(const std::shared_ptr<Cycle>& cycle,
                         std::exception_ptr error);
  /// Processes settled cycles STRICTLY from the front of inflight_: hook,
  /// then durable_ advance, then waiter wakeup -- submission order, which
  /// on an async backend is CQE order (docs/PROTOCOL.md §8.5).  `lock`
  /// holds mutex_; dropped across each hook invocation (the draining_
  /// flag keeps a second completer from processing cycles concurrently).
  void drain_completions_locked(std::unique_lock<std::mutex>& lock);

  std::shared_ptr<Backend> backend_;
  Options options_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;            // wakes the flusher
  mutable std::condition_variable durable_cv_;  // wakes ticket waiters
  std::condition_variable inflight_cv_;  // wakes backpressure/drain waits
  std::vector<Buffer> pending_;                // per-shard gathered bytes
  std::vector<std::size_t> dirty_shards_;      // shards with pending bytes
  std::uint64_t pending_records_ = 0;
  Ticket issued_ = 0;   // highest ticket handed out
  Ticket taken_ = 0;    // highest ticket a flush cycle has claimed
  Ticket durable_ = 0;  // highest ticket reported durable
  std::deque<std::shared_ptr<Cycle>> inflight_;  // claimed, not yet drained
  bool draining_ = false;        // a thread is inside the ordered drain
  bool flusher_waiting_ = false;  // flusher parked on work_cv_ (see enqueue)
  std::size_t waiters_ = 0;      // threads blocked in wait_durable
  std::string failure_;  // non-empty once a backend write failed
  Stats stats_;
  PostFlushHook post_flush_hook_;

  std::jthread flusher_;  // last member: starts after the state above
};

}  // namespace amoeba::storage
