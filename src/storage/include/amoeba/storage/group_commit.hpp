// Group commit: one asynchronous flusher amortizing many journal appends
// into one backend write per cycle -- and the volume's only writer.
//
// Mutators ENCODE their record under the shard lock, ENQUEUE it here
// (receiving a monotonically increasing commit ticket), RELEASE the lock,
// and block -- or carry the ticket as a future and keep going -- until
// the flusher reports the ticket durable.  One flusher per volume encodes
// every shard's pending bytes as ONE numbered frame per cycle: one write
// and one fsync cover every record that piled up while the previous fsync
// was in flight (load grows groups, idle volumes flush immediately).
//
// The flusher also takes the volume's CHECKPOINTS.  Each stream owner
// registers an imager: ShardedObjectStore for its shards, rpc::Service
// for the reply stream.  When a checkpoint is due -- the log has reached
// 8 MiB and at least doubled since the last one -- or requested, the
// flusher runs the imagers between two cycles, object shards first and
// the reply stream last.  Each takes its image from memory under the lock
// that orders its stream's LSNs and queues it before that lock drops.
// The next cycle carries every image; its frame is flagged as a
// checkpoint and becomes a fresh commit.log (Backend::replace_log).
// Nothing reads the old log, and no mutator ever writes or fsyncs.
//
// The flusher never blocks on a lock an imager takes: a handler may hold
// a shard lock across an outgoing call, which first waits on the flusher
// for its request's floor.  An imager that finds such a lock held queues
// nothing and reports busy; the flusher flushes what is queued and tries
// again after that cycle (or kCheckpointRetry, with nothing queued).
//
// Ordering guarantees:
//   * Tickets are the volume-wide commit LSN: wait_durable(t) returns only
//     after EVERY entry with ticket <= t is on the backend.  The flusher
//     never reports a ticket whose bytes a crash image could lack.
//   * enqueue_group() places all entries under one queue-mutex hold, so a
//     flush cycle carries a multi-shard group entirely or not at all; the
//     backend's group atomicity w.r.t. capture() and crashes then keeps
//     a bank transfer's debit+credit untearable.
//   * The volume's reply stream (Backend::reply_stream()) is one more
//     queue.  rpc::Service parks a request's floor record in its
//     RequestScope, and insert() enqueues it just before the first entry
//     that scope enqueues on this committer (RequestScope::settle() does
//     the same before an outgoing call).  The floor therefore takes a
//     smaller ticket than -- and lands in the same or an earlier cycle
//     than -- every effect of its request.  A crash image may hold a floor
//     without its effect (operation lost, safe) but never an effect
//     without its floor (operation doubled).  A request that enqueues
//     nothing never enqueues its floor.
//   * A cycle runs in one order: encode its frame, write it, run the
//     post-flush hook (replication ships the same bytes), release its
//     waiters.  A record above its stream's image was queued after it,
//     so it rides the checkpoint cycle or a later one: the fresh log
//     holds every stream's whole state.  The shards are imaged before the
//     reply stream, so every floor of an effect in a shard image -- queued
//     before that effect -- is in the reply image.
//
// A backend write or a hook that throws latches the committer into a
// failed state: wait_durable() then throws instead of ever reporting
// durability that does not exist.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "amoeba/storage/backend.hpp"

namespace amoeba::storage {

class GroupCommitter;

/// Defers the calling thread's durability waits to one point: while a
/// scope is open, GroupCommitter::wait_durable records the largest ticket
/// per committer and returns without blocking (accessor releases,
/// ShardedObjectStore::create, a request's reply floor).  settle() then
/// blocks once per committer.  rpc::Service opens one scope per request,
/// around claim and handler; it does not settle it on the worker but
/// moves the recorded tickets out (take_pending()) and hands them with
/// the reply to its replier thread, which waits on them (settle(tickets))
/// before the reply leaves.  rpc::Transport settles before a handler's
/// outgoing call.  Scopes nest (innermost wins).
///
/// A scope also holds at most one deferred record (defer_record()): the
/// request's reply floor, which it owes its committer only if it writes
/// there.  It is enqueued before the scope's first enqueue on that
/// committer, or by settle(), and dropped with the scope otherwise.
class RequestScope {
 public:
  /// A record whose enqueue waits for its request's first effect.
  /// enqueue() must enqueue it on the committer it was deferred for (and
  /// may record its wait); it runs at most once, on the scope's thread,
  /// with no lock of that committer held.  The scope holds its address.
  class Deferred {
   public:
    Deferred(const Deferred&) = delete;
    Deferred& operator=(const Deferred&) = delete;
    virtual void enqueue() = 0;

   protected:
    Deferred() = default;
    ~Deferred() = default;
  };

  /// One committer's largest recorded ticket.
  struct Pending {
    GroupCommitter* committer;
    std::uint64_t ticket;
  };
  using Tickets = std::vector<Pending>;  // one entry per committer

  RequestScope() noexcept;
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  /// Parks `record` until this scope first enqueues on `committer`, or
  /// settles.  `record` must outlive the scope or its enqueue; a second
  /// call replaces the first.
  void defer_record(GroupCommitter& committer, Deferred& record) noexcept;

  /// Enqueues the deferred record, if one is parked, then blocks until
  /// every recorded ticket is durable and forgets them.  Throws as
  /// wait_durable does if a committer failed first; the tickets stay
  /// recorded, so a later settle() throws again.
  void settle();

  /// Moves the recorded tickets out, leaving the scope with none: the
  /// caller takes over the wait, on any thread, with settle(tickets).
  /// The committers must outlive that wait.
  [[nodiscard]] Tickets take_pending() noexcept;

  /// Blocks until every ticket in `tickets` is durable.  Throws as
  /// wait_durable does if a committer failed first.
  static void settle(const Tickets& tickets);

  /// Settles the calling thread's innermost scope; no-op without one.
  static void settle_current();

 private:
  friend class GroupCommitter;
  /// The innermost open scope of the calling thread, or null.
  [[nodiscard]] static RequestScope* current() noexcept;
  void defer(GroupCommitter& committer, std::uint64_t ticket);
  /// Enqueues the calling thread's deferred record if it is owed to
  /// `committer` (GroupCommitter::insert, before taking its mutex).
  static void enqueue_deferred(const GroupCommitter& committer);
  void enqueue_deferred();

  RequestScope* outer_;
  Tickets pending_;
  GroupCommitter* deferred_committer_ = nullptr;
  Deferred* deferred_ = nullptr;
};

class GroupCommitter {
 public:
  /// Volume-wide commit sequence number; 0 means "nothing to wait for"
  /// (what in-memory paths hand around so callers need no null checks).
  using Ticket = std::uint64_t;

  /// The longest the flusher holds a claim to let concurrent mutators
  /// grow the group.  The linger is waiter-gated: the flusher lingers only
  /// while NO thread is blocked in wait_durable, and the moment a waiter
  /// arrives it collapses and the cycle flushes.  Pipelined mutators
  /// (release_async) therefore get wide cycles and few condvar round
  /// trips, while synchronous waiters keep their immediate-flush latency.
  static constexpr std::chrono::microseconds kLingerCeiling{200};

  struct Stats {
    std::uint64_t groups = 0;        // flush cycles that reached the backend
    std::uint64_t checkpoints = 0;   // those that were checkpoints
    std::uint64_t checkpoint_retries = 0;  // imaging found a lock held
    std::uint64_t checkpoint_us_max = 0;  // longest log replacement
    std::uint64_t records = 0;       // journal appends those cycles carried
    std::uint64_t installs = 0;      // snapshot images those cycles wrote
    std::uint64_t max_group = 0;     // largest single cycle, in records
    std::uint64_t flush_cycle_bytes = 0;  // journal bytes those cycles wrote
    std::uint64_t linger_us_current = 0;  // last adaptive linger applied
    std::uint64_t blocking_waits = 0;  // wait_durable calls that had to block
    std::uint64_t read_bytes = 0;  // log bytes the flusher read (none)
  };

  /// One completed flush cycle as the post-flush hook sees it: the exact
  /// frame that just became durable on the local backend, BEFORE any
  /// wait_durable(ticket <= this cycle's ticket) is released.  Replication
  /// ships `frame` -- no second encode pass, and a waiter released by
  /// this cycle knows its records were already offered to the backups.
  struct FlushCycle {
    Ticket ticket = 0;  // highest ticket the cycle covers
    /// The encoded frame, as written; a checkpoint frame started the log.
    std::span<const std::uint8_t> frame;
    std::uint64_t seq = 0;  // the frame's sequence number
  };

  /// A stream owner's part of a checkpoint: under the lock that orders
  /// its streams' LSNs, it takes each image from memory and queues it with
  /// install_snapshot() before that lock drops.  It runs on the flusher
  /// thread, which holds no committer lock meanwhile.  It only try-locks
  /// a lock some thread may hold while it waits on a ticket (a shard lock
  /// held across an outgoing call): finding one held, it queues nothing
  /// and returns false (busy).  Otherwise it returns true.
  using Imager = std::function<bool()>;

  /// Keeps an imager registered; dropping the last copy unregisters it,
  /// waiting out a checkpoint that is running it.  Must not outlive the
  /// committer.
  using Registration = std::shared_ptr<void>;

  /// The log size at which a checkpoint falls due (and it must also have
  /// doubled since the last one).
  static constexpr std::uint64_t kCheckpointBytes = std::uint64_t{8} << 20;
  /// A busy checkpoint's retry delay when no cycle runs meanwhile.
  static constexpr std::chrono::milliseconds kCheckpointRetry{1};
  using PostFlushHook = std::function<void(const FlushCycle&)>;

  explicit GroupCommitter(std::shared_ptr<Backend> backend);
  /// Drains every pending entry to the backend, then joins the flusher.
  ~GroupCommitter();

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  /// Null-safe factory: a committer for `backend`, or null when `backend`
  /// is null (the in-memory server constructors pass the null through).
  [[nodiscard]] static std::shared_ptr<GroupCommitter> create(
      const std::shared_ptr<Backend>& backend);

  /// Queues one framed record for `shard`'s journal (any index below the
  /// backend's stream_count(), the reply stream included); the bytes are
  /// copied (the caller typically hands a per-shard scratch buffer it will
  /// reuse).  Every enqueue throws UsageError for a stream not on the volume.
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
  /// `wake_flusher` false starts no cycle: the record rides the next cycle
  /// something else starts (a waking enqueue or a blocking wait), and a
  /// queue holding only such records leaves the flusher parked.
  /// rpc::Service's reply-stream records use it: their writer waits later
  /// (a floor, the incarnation) or never (a body), so none pays for a
  /// cycle of its own.
  template <typename EncodeFn>
  [[nodiscard]] Ticket enqueue_with(std::size_t shard, EncodeFn&& encode,
                                    bool wake_flusher = true) {
    return insert(
        [&] {
          encode(pending_locked(shard));
          ++pending_records_;
        },
        wake_flusher);
  }

  /// Queues a multi-shard record group under ONE mutex hold, so no flush
  /// cycle boundary can fall inside it (the pair-mutation atomicity).
  [[nodiscard]] Ticket enqueue_group(std::vector<ShardAppend>&& appends);

  /// Queues a snapshot image for `stream` as a snapshot record in that
  /// stream's run, behind every record enqueued before it.  Its lsn is the
  /// image's applied LSN.  Imagers call it; a test building a volume that
  /// must wait for the image waits on issued().
  void install_snapshot(std::size_t stream,
                        std::span<const std::uint8_t> image);

  /// Registers the imager of `streams` for every later checkpoint.
  [[nodiscard]] Registration add_imager(std::vector<std::size_t> streams,
                                        Imager imager);

  /// Takes a checkpoint now and returns once its frame is durable.  Throws
  /// UsageError when a stream that holds records has no imager (its state
  /// would be lost), or as wait_durable does when the flush fails.  Call
  /// it holding no lock an imager takes: the flusher would retry until
  /// that lock drops.
  void checkpoint();

  /// Blocks until every entry with a ticket at or below `ticket` is on
  /// the backend.  Throws UsageError if the flusher failed (disk full)
  /// before covering it -- durability is never reported optimistically.
  /// Inside a RequestScope it only records the ticket; the scope's
  /// settle() does the blocking.
  void wait_durable(Ticket ticket);

  /// Non-blocking durability probe.
  [[nodiscard]] bool is_durable(Ticket ticket) const;

  /// The newest ticket handed out (0 before the first enqueue): once it is
  /// durable, so is every entry queued before the call.  rpc::Service's
  /// read barrier waits on it.
  [[nodiscard]] Ticket issued() const;

  [[nodiscard]] Stats stats() const;

  /// Installs the post-flush hook (one subscriber; throws on a second).
  /// Runs on the flusher thread after the cycle's backend write returns
  /// and before its waiters' release, one cycle at a time in ticket order;
  /// a hook that throws latches the committer into the failed state
  /// exactly like a backend write failure (durability -- which now
  /// includes the hook's ack contract -- is never reported
  /// optimistically).  Constructing a GroupCommitter over a
  /// ReplicatedBackend installs the shipping hook automatically.
  void set_post_flush_hook(PostFlushHook hook);

  [[nodiscard]] const std::shared_ptr<Backend>& backend() const {
    return backend_;
  }

 private:
  friend class RequestScope;
  /// wait_durable's blocking half, which no scope defers.
  void block_until(Ticket ticket);
  /// Throws UsageError unless `stream` is one of the volume's.
  void check_stream(std::size_t stream) const;

  /// The one queue insert: runs `fill` (which stages the entry) and takes
  /// the next ticket under one mutex hold.  A reply floor the calling
  /// thread's request scope owes this committer goes first.
  template <typename FillFn>
  [[nodiscard]] Ticket insert(FillFn&& fill, bool wake_flusher) {
    RequestScope::enqueue_deferred(*this);
    bool wake;
    Ticket ticket;
    {
      const std::lock_guard lock(mutex_);
      fill();
      // Batched-wakeup lever: notify only when the flusher is actually
      // parked on work_cv_.  While it claims, writes, or lingers, the
      // notify (a futex syscall plus, on one core, often a context
      // switch) would be pure overhead -- the flusher re-checks the
      // queue under the mutex before it ever sleeps again.
      wake = wake_flusher && flusher_waiting_;
      ticket = ++issued_;
      if (wake_flusher) {
        woken_ = ticket;
      }
    }
    if (wake) {
      work_cv_.notify_one();
    }
    return ticket;
  }
  /// `shard`'s staging buffer, marked dirty; throws UsageError for a
  /// stream not on the volume.  Caller holds mutex_.
  [[nodiscard]] Buffer& pending_locked(std::size_t shard);

  /// A checkpoint is due or requested.  Caller holds mutex_.
  [[nodiscard]] bool checkpoint_wanted_locked() const {
    return checkpoint_due_ || checkpoint_requests_ > checkpoint_served_;
  }
  struct Imaging {
    bool busy = false;    // an imager found a lock held: try again later
    std::string refusal;  // a stream holds records no imager covers
  };
  /// Runs the imagers in add_imager's order, up to one that reports busy.
  [[nodiscard]] Imaging take_images();

  void flusher(const std::stop_token& stop);

  std::shared_ptr<Backend> backend_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;            // wakes the flusher
  mutable std::condition_variable durable_cv_;  // wakes ticket waiters
  std::vector<Buffer> pending_;                // per-shard gathered bytes
  std::vector<std::size_t> dirty_shards_;      // shards with pending bytes
  std::uint64_t pending_records_ = 0;
  std::uint64_t pending_installs_ = 0;
  Ticket issued_ = 0;   // highest ticket handed out
  Ticket woken_ = 0;    // highest ticket whose entry may start a cycle
  Ticket taken_ = 0;    // highest ticket a flush cycle has claimed
  Ticket durable_ = 0;  // highest ticket reported durable
  bool flusher_waiting_ = false;  // flusher parked on work_cv_ (see enqueue)
  std::size_t waiters_ = 0;      // threads blocked in wait_durable
  std::string failure_;  // non-empty once a write or hook failed
  Stats stats_;
  PostFlushHook post_flush_hook_;
  /// Per stream: it holds records (on the volume at construction, or
  /// enqueued since), so a checkpoint needs its image.
  std::vector<bool> holds_records_;
  std::uint64_t seq_ = 0;  // the last frame's sequence number (flusher)
  Buffer frame_;           // the cycle's encoded frame (flusher)
  bool checkpoint_due_ = false;
  std::uint64_t checkpoint_low_ = 0;       // log bytes after the last one
  std::uint64_t checkpoint_requests_ = 0;  // checkpoint() calls
  std::uint64_t checkpoint_served_ = 0;    // requests a checkpoint covered
  std::string checkpoint_refusal_;  // why the last attempt could not run

  struct ImagerEntry {
    std::uint64_t id;
    std::vector<std::size_t> streams;
    Imager imager;
  };
  /// Held while imagers run and while one is added or removed.
  std::mutex imager_mutex_;
  std::vector<ImagerEntry> imagers_;
  std::uint64_t imager_ids_ = 0;

  std::jthread flusher_;  // last member: starts after the state above
};

}  // namespace amoeba::storage
