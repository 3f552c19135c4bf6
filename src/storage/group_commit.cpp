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

/// The zero bytes that pad a frame of `size` bytes, landing at log offset
/// `at`, to the end of the page it ends in: the room left there when it
/// is too small for a frame of the same size (the next cycle's, as
/// predicted), else none.  The pad fills a page the frame dirties anyway,
/// so it never adds one.  A frame of a page or more is not padded.
[[nodiscard]] std::size_t page_pad(std::uint64_t at, std::size_t size) {
  constexpr std::size_t kPage = GroupCommitter::kPageBytes;
  if (size >= kPage) {
    return 0;
  }
  const auto room = kPage - static_cast<std::size_t>((at + size) % kPage);
  return room < size ? room : 0;
}

}  // namespace

RequestScope::RequestScope() noexcept
    : outer_(std::exchange(innermost_scope, this)) {}

RequestScope::~RequestScope() { innermost_scope = outer_; }

RequestScope* RequestScope::current() noexcept { return innermost_scope; }

void RequestScope::record(Tickets& tickets, GroupCommitter& committer,
                          std::uint64_t ticket) {
  for (Pending& p : tickets) {
    if (p.committer == &committer) {
      p.ticket = std::max(p.ticket, ticket);  // tickets are volume-monotone
      return;
    }
  }
  tickets.push_back({&committer, ticket});
}

void RequestScope::defer(GroupCommitter& committer, std::uint64_t ticket) {
  record(pending_, committer, ticket);
}

void RequestScope::note_read(GroupCommitter& committer, std::uint64_t ticket) {
  if (innermost_scope != nullptr && ticket != 0) {
    record(innermost_scope->reads_, committer, ticket);
  }
}

RequestScope::Tickets RequestScope::take_reads() noexcept {
  return std::exchange(reads_, {});
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
  holds_records_.resize(backend_->stream_count());
  for (std::size_t s = 0; s < holds_records_.size(); ++s) {
    holds_records_[s] = !backend_->read_stream(s).empty();
  }
  seq_ = backend_->last_seq();  // numbering continues across restarts
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
  check_stream(shard);  // before anything of the entry is staged
  Buffer& pending = pending_[shard];
  if (pending.empty()) {
    dirty_shards_.push_back(shard);
    holds_records_[shard] = true;
  }
  return pending;
}

bool GroupCommitter::claim_due_locked() const {
  return waiters_ > 0 && (queued_wakers_ >= expected_wakers_ ||
                          last_cycle_page_);
}

GroupCommitter::Ticket GroupCommitter::enqueue(
    std::size_t shard, std::span<const std::uint8_t> bytes) {
  return enqueue_with(shard, [&](Buffer& pending) {
    pending.insert(pending.end(), bytes.begin(), bytes.end());
  });
}

void GroupCommitter::check_stream(std::size_t stream) const {
  if (stream >= pending_.size()) {
    throw UsageError("GroupCommitter: stream " + std::to_string(stream) +
                     " is not on the volume (it has " +
                     std::to_string(pending_.size()) + " streams)");
  }
}

GroupCommitter::Ticket GroupCommitter::enqueue_group(
    std::vector<ShardAppend>&& appends) {
  for (const ShardAppend& a : appends) {
    check_stream(a.shard);  // a throw mid-group would stage part of it
  }
  // One mutex hold for the whole group: a flush-cycle boundary can never
  // split it, so the backend batch append (atomic w.r.t. capture())
  // receives the group intact.
  return enqueue_group_with([&](const auto& stage) {
    for (const ShardAppend& a : appends) {
      Buffer& pending = stage(a.shard);
      pending.insert(pending.end(), a.bytes.begin(), a.bytes.end());
    }
  });
}

void GroupCommitter::install_snapshot(std::size_t stream,
                                      std::span<const std::uint8_t> image) {
  (void)insert(
      [&] {
        encode_snapshot_record(image, pending_locked(stream));
        ++pending_installs_;
      },
      /*wake_flusher=*/true);
}

GroupCommitter::Registration GroupCommitter::add_imager(
    std::vector<std::size_t> streams, Imager imager) {
  const std::lock_guard lock(imager_mutex_);
  // Shard imagers run first, the reply stream's last: every floor of an
  // effect in a shard image was queued before that image, so the reply
  // image holds it.
  const bool reply =
      std::find(streams.begin(), streams.end(), backend_->reply_stream()) !=
      streams.end();
  const std::uint64_t id = ++imager_ids_;
  imagers_.insert(reply ? imagers_.end() : imagers_.begin(),
                  {id, std::move(streams), std::move(imager)});
  return Registration(nullptr, [this, id](void*) {
    const std::lock_guard unregister(imager_mutex_);
    std::erase_if(imagers_, [&](const ImagerEntry& e) { return e.id == id; });
  });
}

GroupCommitter::Imaging GroupCommitter::take_images() {
  const std::lock_guard lock(imager_mutex_);
  std::vector<bool> covered(pending_.size(), false);
  for (const ImagerEntry& e : imagers_) {
    for (const std::size_t s : e.streams) {
      covered.at(s) = true;
    }
  }
  {
    const std::lock_guard queue_lock(mutex_);
    for (std::size_t s = 0; s < covered.size(); ++s) {
      if (holds_records_[s] && !covered[s]) {
        return {.refusal = "stream " + std::to_string(s) +
                           " holds records that no imager covers"};
      }
    }
  }
  // In add_imager's order: the reply stream's last.  Images queued before
  // an imager reports busy ride a regular cycle; the newest image wins
  // wherever it sits (live_records), so they cost bytes, not state.
  for (const ImagerEntry& e : imagers_) {
    if (!e.imager()) {
      return {.busy = true, .refusal = {}};
    }
  }
  return {};
}

void GroupCommitter::checkpoint() {
  std::unique_lock lock(mutex_);
  const std::uint64_t request = ++checkpoint_requests_;
  work_cv_.notify_all();
  durable_cv_.wait(lock, [&] {
    return checkpoint_served_ >= request || !failure_.empty();
  });
  if (checkpoint_served_ < request) {
    throw UsageError("GroupCommitter: flush failed, no checkpoint: " +
                     failure_);
  }
  if (!checkpoint_refusal_.empty()) {
    throw UsageError("GroupCommitter: cannot checkpoint: " +
                     checkpoint_refusal_);
  }
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
  // Registering as a waiter ends the flusher's free linger: from here its
  // claim waits only for the callers it expects back (claim_due_locked).
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

GroupCommitter::Ticket GroupCommitter::newest_effect() const {
  const std::lock_guard lock(mutex_);
  return woken_;
}

void GroupCommitter::note_unattributed_read() {
  if (RequestScope::current() != nullptr) {
    RequestScope::note_read(*this, newest_effect());
  }
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
    std::uint64_t wakers = 0;  // the waking entries the cycle carries
    std::uint64_t installs = 0;
    std::uint64_t bytes = 0;
    bool checkpoint = false;
    std::uint64_t serving = 0;  // the checkpoint requests this cycle serves
    PostFlushHook hook;
    {
      std::unique_lock lock(mutex_);
      flusher_waiting_ = true;
      // Entries enqueued without a wake-up start no cycle: they wait for
      // a waking entry, a blocked waiter, or the final drain.
      const auto work = [&] {
        return issued_ > taken_ && (woken_ > taken_ || waiters_ > 0);
      };
      work_cv_.wait(lock, [&] {
        return stop.stop_requested() || checkpoint_wanted_locked() || work();
      });
      flusher_waiting_ = false;
      if (checkpoint_wanted_locked() && !stop.stop_requested()) {
        // Between cycles: nothing is claimed, so every record is either in
        // the log or still queued, and the images queue behind it.
        serving = checkpoint_requests_;
        lock.unlock();
        Imaging imaging = take_images();
        lock.lock();
        if (imaging.busy) {
          // The lock's holder may wait on a queued ticket: flush it now,
          // and retry after the cycle -- or after a pause, with none.
          ++stats_.checkpoint_retries;
          if (!work()) {
            flusher_waiting_ = true;
            work_cv_.wait_for(lock, kCheckpointRetry,
                              [&] { return stop.stop_requested() || work(); });
            continue;
          }
        } else {
          checkpoint_due_ = false;
          checkpoint_refusal_ = std::move(imaging.refusal);
          checkpoint = checkpoint_refusal_.empty();
          if (!checkpoint || issued_ == taken_) {
            // Refused, or nothing to write (no stream holds records).
            checkpoint_served_ = serving;
            durable_cv_.notify_all();
            continue;
          }
        }
      }
      if (issued_ == taken_) {
        return;  // stopped with an empty queue
      }
      if (!stop.stop_requested()) {
        // Grow the cycle: to the ceiling while nobody is blocked on it,
        // and once a waiter blocks (wait_durable notifies), until the
        // claim rule is met.  insert() wakes us when an entry meets it.
        flusher_lingering_ = true;
        const bool due = work_cv_.wait_until(
            lock, std::chrono::steady_clock::now() + kLingerCeiling,
            [&] { return stop.stop_requested() || claim_due_locked(); });
        flusher_lingering_ = false;
        if (!due && waiters_ > 0) {
          ++stats_.linger_timeouts;
        }
      }
      // Claim everything queued so far as one cycle; mutators keep
      // enqueuing the moment the lock drops (that overlap is the whole
      // amortization).
      covered = issued_;
      taken_ = issued_;
      appends.reserve(dirty_shards_.size());
      for (const std::size_t s : dirty_shards_) {
        if (!pending_[s].empty()) {
          appends.push_back({s, std::exchange(pending_[s], Buffer{})});
        }
      }
      dirty_shards_.clear();
      records = std::exchange(pending_records_, 0);
      wakers = std::exchange(queued_wakers_, 0);
      installs = std::exchange(pending_installs_, 0);
      hook = post_flush_hook_;
    }
    for (const ShardAppend& a : appends) {
      bytes += a.bytes.size();
    }

    // Encode, write, then hook, then release: the hook (replication
    // shipping) sees exactly the frame that hit the disk, and a released
    // waiter knows the cycle was already offered to -- and, per the ack
    // mode, acknowledged by -- the backups.  Only this thread writes, so
    // frames reach the disk and the hook strictly in ticket order.
    std::exception_ptr error;
    std::uint64_t log_bytes = 0;
    std::uint64_t frame_bytes = 0;
    std::uint64_t pad = 0;
    std::uint64_t checkpoint_us = 0;
    try {
      if (!appends.empty()) {
        frame_.clear();
        encode_frame(++seq_, checkpoint, appends, frame_);
        frame_bytes = frame_.size();
        // Where the frame lands: behind the log, or behind the header of
        // a fresh one (a checkpoint always starts one).
        const std::uint64_t log = checkpoint ? 0 : backend_->log_bytes();
        pad = page_pad(log == 0 ? kLogHeaderBytes : log, frame_bytes);
        pad_frame(frame_, pad);
        if (checkpoint) {
          const auto start = std::chrono::steady_clock::now();
          backend_->replace_log(frame_);
          checkpoint_us = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count());
        } else {
          backend_->append_frames(frame_);
        }
        log_bytes = backend_->log_bytes();
        if (hook != nullptr) {
          hook(FlushCycle{covered, frame_, seq_});
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
    // Each waking entry released here is a caller that may come back one
    // reply later; the ones queued meanwhile are waiting already.
    expected_wakers_ = wakers + queued_wakers_;
    last_cycle_page_ = frame_bytes >= kPageBytes;
    ++stats_.groups;
    stats_.records += records;
    stats_.installs += installs;
    stats_.max_group = std::max(stats_.max_group, records);
    stats_.flush_cycle_bytes += bytes;
    stats_.frame_bytes += frame_bytes;
    stats_.pad_bytes += pad;
    stats_.read_bytes = this_thread_io_counters().read_bytes;
    if (checkpoint) {
      ++stats_.checkpoints;
      stats_.checkpoint_us_max =
          std::max(stats_.checkpoint_us_max, checkpoint_us);
      checkpoint_low_ = log_bytes;
      checkpoint_served_ = serving;
    }
    checkpoint_due_ =
        log_bytes >= kCheckpointBytes && log_bytes >= 2 * checkpoint_low_;
    durable_cv_.notify_all();
  }
}

}  // namespace amoeba::storage
