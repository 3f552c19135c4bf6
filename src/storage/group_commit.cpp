#include "amoeba/storage/group_commit.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "amoeba/common/error.hpp"
#include "amoeba/storage/replication/replicated_backend.hpp"

namespace amoeba::storage {
namespace {

[[nodiscard]] std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

thread_local RequestScope* innermost_scope = nullptr;

}  // namespace

RequestScope::RequestScope() noexcept
    : outer_(std::exchange(innermost_scope, this)) {}

RequestScope::~RequestScope() { innermost_scope = outer_; }

RequestScope* RequestScope::current() noexcept { return innermost_scope; }

void RequestScope::defer(GroupCommitter& committer, std::uint64_t ticket) {
  for (Pending& p : pending_) {
    if (p.committer == &committer) {
      p.ticket = std::max(p.ticket, ticket);  // tickets are volume-monotone
      return;
    }
  }
  pending_.push_back({&committer, ticket});
}

void RequestScope::defer_record(GroupCommitter& committer,
                                Deferred& record) noexcept {
  deferred_committer_ = &committer;
  deferred_ = &record;
}

void RequestScope::enqueue_deferred(const GroupCommitter& committer) {
  RequestScope* scope = innermost_scope;
  if (scope != nullptr && scope->deferred_committer_ == &committer) {
    scope->enqueue_deferred();
  }
}

void RequestScope::enqueue_deferred() {
  // Cleared first: the record's own enqueue comes back through insert().
  deferred_committer_ = nullptr;
  if (Deferred* record = std::exchange(deferred_, nullptr)) {
    record->enqueue();
  }
}

void RequestScope::settle() {
  enqueue_deferred();
  settle(pending_);
  pending_.clear();
}

RequestScope::Tickets RequestScope::take_pending() noexcept {
  return std::exchange(pending_, {});
}

void RequestScope::settle(const Tickets& tickets) {
  for (const Pending& p : tickets) {
    p.committer->block_until(p.ticket);
  }
}

void RequestScope::settle_current() {
  if (innermost_scope != nullptr) {
    innermost_scope->settle();
  }
}

GroupCommitter::GroupCommitter(std::shared_ptr<Backend> backend)
    : backend_(std::move(backend)) {
  if (backend_ == nullptr) {
    throw UsageError("GroupCommitter: null backend");
  }
  pending_.resize(backend_->stream_count());  // object shards + reply stream
  // A replicated volume binds itself to its committer: every flush cycle
  // then ships through the post-flush hook (the exact bytes that hit the
  // local disk, ack-mode wait included).  Wiring this here means a server
  // gains replication by being handed a ReplicatedBackend -- no server
  // code changes.
  if (auto* replicated = dynamic_cast<ReplicatedBackend*>(backend_.get())) {
    replicated->bind_committer(*this);
  }
  flusher_ = std::jthread(
      [this](const std::stop_token& stop) { flusher(stop); });
}

GroupCommitter::~GroupCommitter() {
  {
    // Under the mutex: the flusher tests the stop flag under it and then
    // sleeps, so a stop requested between the two would be a lost wakeup
    // and the join below would hang.
    const std::lock_guard lock(mutex_);
    flusher_.request_stop();
  }
  work_cv_.notify_all();
  // jthread joins; the flusher drains every pending enqueue first, so a
  // server shutting down cleanly never strands acknowledged-to-nobody
  // bytes in the queue.
}

std::shared_ptr<GroupCommitter> GroupCommitter::create(
    const std::shared_ptr<Backend>& backend) {
  return backend == nullptr ? nullptr
                            : std::make_shared<GroupCommitter>(backend);
}

Buffer& GroupCommitter::pending_locked(std::size_t shard) {
  Buffer& pending = pending_.at(shard);
  if (pending.empty()) {
    dirty_shards_.push_back(shard);
  }
  return pending;
}

GroupCommitter::Ticket GroupCommitter::enqueue(
    std::size_t shard, std::span<const std::uint8_t> bytes) {
  return enqueue_with(shard, [&](Buffer& pending) {
    pending.insert(pending.end(), bytes.begin(), bytes.end());
  });
}

GroupCommitter::Ticket GroupCommitter::enqueue_group(
    std::vector<ShardAppend>&& appends) {
  // One mutex hold for the whole group: a flush-cycle boundary can never
  // split it, so the backend batch append (atomic w.r.t. capture())
  // receives the group intact.
  return insert(
      [&] {
        for (const ShardAppend& a : appends) {
          Buffer& pending = pending_locked(a.shard);
          pending.insert(pending.end(), a.bytes.begin(), a.bytes.end());
          ++pending_records_;
        }
      },
      /*wake_flusher=*/true);
}

GroupCommitter::Ticket GroupCommitter::install_snapshot(
    std::size_t stream, std::span<const std::uint8_t> image) {
  return insert(
      [&] {
        encode_snapshot_record(image, pending_locked(stream));
        ++pending_installs_;
      },
      /*wake_flusher=*/true);
}

void GroupCommitter::wait_durable(Ticket ticket) {
  if (ticket == 0) {
    return;
  }
  if (RequestScope* scope = RequestScope::current(); scope != nullptr) {
    scope->defer(*this, ticket);
    return;
  }
  block_until(ticket);
}

void GroupCommitter::block_until(Ticket ticket) {
  std::unique_lock lock(mutex_);
  if (durable_ >= ticket) {
    return;  // already durable (even if a later cycle has since failed)
  }
  // Registering as a waiter collapses the adaptive linger: the flusher
  // lingers only while nobody is blocked, so wake it out of that wait.
  ++stats_.blocking_waits;
  ++waiters_;
  work_cv_.notify_all();
  durable_cv_.wait(
      lock, [&] { return durable_ >= ticket || !failure_.empty(); });
  --waiters_;
  if (durable_ < ticket) {
    throw UsageError("GroupCommitter: flush failed, ticket not durable: " +
                     failure_);
  }
}

bool GroupCommitter::is_durable(Ticket ticket) const {
  if (ticket == 0) {
    return true;
  }
  const std::lock_guard lock(mutex_);
  return durable_ >= ticket;
}

GroupCommitter::Ticket GroupCommitter::issued() const {
  const std::lock_guard lock(mutex_);
  return issued_;
}

GroupCommitter::Stats GroupCommitter::stats() const {
  const std::lock_guard lock(mutex_);
  return stats_;
}

void GroupCommitter::set_post_flush_hook(PostFlushHook hook) {
  const std::lock_guard lock(mutex_);
  if (post_flush_hook_ != nullptr && hook != nullptr) {
    throw UsageError("GroupCommitter: post-flush hook already installed");
  }
  post_flush_hook_ = std::move(hook);
}

void GroupCommitter::flusher(const std::stop_token& stop) {
  for (;;) {
    Ticket covered = 0;
    std::vector<ShardAppend> appends;
    std::uint64_t records = 0;
    std::uint64_t installs = 0;
    std::uint64_t bytes = 0;
    PostFlushHook hook;
    {
      std::unique_lock lock(mutex_);
      flusher_waiting_ = true;
      // Entries enqueued without a wake-up start no cycle: they wait for
      // a waking entry, a blocked waiter, or the final drain.
      work_cv_.wait(lock, [&] {
        return stop.stop_requested() ||
               (issued_ > taken_ && (woken_ > taken_ || waiters_ > 0));
      });
      flusher_waiting_ = false;
      if (issued_ == taken_) {
        return;  // stopped with an empty queue
      }
      if (!stop.stop_requested()) {
        // Grow the cycle while nobody is blocked on it; a waiter's arrival
        // (wait_durable notifies) collapses the linger at once.
        const auto start = std::chrono::steady_clock::now();
        work_cv_.wait_until(lock, start + kLingerCeiling, [&] {
          return waiters_ > 0 || stop.stop_requested();
        });
        stats_.linger_us_current = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
      } else {
        stats_.linger_us_current = 0;
      }
      // Claim everything queued so far as one cycle; mutators keep
      // enqueuing the moment the lock drops (that overlap is the whole
      // amortization).
      covered = issued_;
      taken_ = issued_;
      appends.reserve(dirty_shards_.size());
      for (const std::size_t s : dirty_shards_) {
        appends.push_back({s, std::exchange(pending_[s], Buffer{})});
      }
      dirty_shards_.clear();
      records = std::exchange(pending_records_, 0);
      installs = std::exchange(pending_installs_, 0);
      hook = post_flush_hook_;
    }
    for (const ShardAppend& a : appends) {
      bytes += a.bytes.size();
    }

    // Write, then hook, then release: the hook (replication shipping) sees
    // exactly what hit the disk, and a released waiter knows the cycle was
    // already offered to -- and, per the ack mode, acknowledged by -- the
    // backups.  Only this thread writes, so cycles reach the disk and the
    // hook strictly in ticket order.
    std::exception_ptr error;
    try {
      if (!appends.empty()) {
        // With a hook installed the group must survive the write (the hook
        // ships these exact bytes), so the backend gets its own copy.
        backend_->append_journal_batch(
            hook != nullptr ? std::vector<ShardAppend>(appends)
                            : std::move(appends));
        if (hook != nullptr) {
          hook(FlushCycle{covered, bytes, &appends});
        }
      }
    } catch (...) {
      error = std::current_exception();
    }

    // Released here and re-taken for the next claim: the waiters this
    // cycle wakes get the mutex in between, and the next claim gathers
    // what queued up meanwhile.  Holding it across both halves made cycles
    // smaller on the cluster benchmark (more flushes per request).
    const std::lock_guard lock(mutex_);
    if (error != nullptr) {
      // A failed write or hook (replication fencing) latches:
      // durability -- which includes the hook's ack contract -- is never
      // reported optimistically.
      failure_ = describe(error);
      durable_cv_.notify_all();
      return;
    }
    durable_ = covered;
    ++stats_.groups;
    stats_.records += records;
    stats_.installs += installs;
    stats_.max_group = std::max(stats_.max_group, records);
    stats_.flush_cycle_bytes += bytes;
    durable_cv_.notify_all();
  }
}

}  // namespace amoeba::storage
