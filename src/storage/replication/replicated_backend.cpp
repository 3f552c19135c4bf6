#include "amoeba/storage/replication/replicated_backend.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/record.hpp"

namespace amoeba::storage {

std::string_view to_string(AckMode mode) {
  switch (mode) {
    case AckMode::async:
      return "async";
    case AckMode::ack_one:
      return "ack-one";
    case AckMode::ack_all:
      return "ack-all";
  }
  return "?";
}

ReplicatedBackend::ReplicatedBackend(std::shared_ptr<Backend> local,
                                     AckMode mode)
    : local_(std::move(local)), mode_(mode) {
  if (local_ == nullptr) {
    throw UsageError("ReplicatedBackend: null local backend");
  }
  if (dynamic_cast<ReplicatedBackend*>(local_.get()) != nullptr) {
    throw UsageError("ReplicatedBackend: refusing to stack decorators");
  }
}

ReplicatedBackend::~ReplicatedBackend() {
  {
    const std::lock_guard lock(ack_mutex_);
    shutting_down_ = true;
  }
  ack_cv_.notify_all();
  // No mutex_: nothing attaches peers while the destructor runs, and a
  // shipper recovering from a gap takes mutex_ itself -- holding it here
  // would deadlock the join.
  for (const auto& peer : peers_) {
    peer->shipper.request_stop();
    {
      const std::lock_guard plock(peer->mutex);
    }
    peer->cv.notify_all();
  }
  for (const auto& peer : peers_) {
    if (peer->shipper.joinable()) {
      peer->shipper.join();  // shippers touch ack_cv_: join before members die
    }
  }
}

std::size_t ReplicatedBackend::shard_count() const {
  return local_->shard_count();
}

Buffer ReplicatedBackend::read_stream(std::size_t stream) const {
  return local_->read_stream(stream);
}

Backend::RewriteStats ReplicatedBackend::rewrite_stats() const {
  return local_->rewrite_stats();
}

bool ReplicatedBackend::empty() const { return local_->empty(); }

void ReplicatedBackend::append_journal_batch(
    std::vector<ShardAppend>&& appends) {
  // Lands locally only: the bound committer runs the ship hook after this
  // write returns, in ticket order -- §8.5's acknowledgement rule.  The
  // group reaches backups inside its flush cycle's frame.
  local_->append_journal_batch(std::move(appends));
}

void ReplicatedBackend::bind_committer(GroupCommitter& committer) {
  committer.set_post_flush_hook(
      [this](const GroupCommitter::FlushCycle& cycle) {
        ship_cycle(*cycle.appends);
      });
}

void ReplicatedBackend::attach_peer(std::shared_ptr<ReplicationLink> link) {
  if (link == nullptr) {
    throw UsageError("ReplicatedBackend: null replication link");
  }
  const std::lock_guard lock(mutex_);
  auto peer = std::make_unique<Peer>(std::move(link));
  Peer& ref = *peer;  // unique_ptr in a grow-only vector: address is stable
  ref.shipper = std::jthread(
      [this, &ref](const std::stop_token& stop) { shipper(ref, stop); });
  peers_.push_back(std::move(peer));
  // The new peer's opening shipments rebuild it from our current state
  // (existing peers receive them too and simply fast-forward).  The hook
  // fires after local durability, so any cycle shipped before this point
  // is already on the local volume and therefore inside this resync.
  resync_locked();
}

ReplicatedBackend::Stats ReplicatedBackend::stats() const {
  Stats out;
  out.mode = mode_;
  const std::lock_guard lock(mutex_);
  out.shipped_lsn = next_lsn_;
  out.peers.reserve(peers_.size());
  for (const auto& peer : peers_) {
    const std::lock_guard plock(peer->mutex);
    out.peers.push_back({peer->link->peer_name(), peer->acked,
                         peer->queue.size() + peer->parked.size()});
  }
  return out;
}

void ReplicatedBackend::heartbeat() {
  std::vector<Peer*> peers;
  std::uint64_t shipped;
  {
    const std::lock_guard lock(mutex_);
    shipped = next_lsn_;
    peers.reserve(peers_.size());
    for (const auto& peer : peers_) {
      peers.push_back(peer.get());
    }
  }
  for (Peer* peer : peers) {  // RPCs outside mutex_
    const Result<std::uint64_t> floor = peer->link->heartbeat(shipped);
    if (floor.ok()) {
      const std::lock_guard plock(peer->mutex);
      peer->acked = std::max(peer->acked, floor.value());
    }
  }
}

std::shared_ptr<ReplicatedBackend::Shipment>
ReplicatedBackend::broadcast_locked(std::span<const ShardAppend> appends,
                                    bool resync) {
  auto shipment = std::make_shared<Shipment>();
  shipment->rep_lsn = ++next_lsn_;
  shipment->resync = resync;
  shipment->frame = encode_cycle_frame(shipment->rep_lsn, appends);
  switch (mode_) {
    case AckMode::async:
      shipment->needed = 0;
      break;
    case AckMode::ack_one:
      shipment->needed = 1;
      break;
    case AckMode::ack_all:
      shipment->needed = peers_.size();
      break;
  }
  for (const auto& peer : peers_) {
    {
      const std::lock_guard plock(peer->mutex);
      peer->queue.push_back(shipment);
    }
    peer->cv.notify_one();
  }
  return shipment;
}

void ReplicatedBackend::await_acks(
    const std::shared_ptr<Shipment>& shipment) {
  if (shipment == nullptr || shipment->needed == 0) {
    return;
  }
  std::unique_lock lock(ack_mutex_);
  ack_cv_.wait(lock, [&] {
    return shutting_down_ || fenced_ || shipment->acks >= shipment->needed;
  });
  if (shipment->acks >= shipment->needed) {
    return;
  }
  if (fenced_) {
    // A backup refused us as promoted: we are the deposed primary.  Fail
    // the durability wait loudly -- under a committer this latches the
    // flusher's failed state, so no mutation is ever reported durable by
    // a primary the cluster has moved past.
    throw UsageError("ReplicatedBackend: backup promoted; primary fenced");
  }
  // Shutting down: the only waiters left are the destructor's own caller
  // (teardown), so an unmet ack count is reported as nothing.
}

void ReplicatedBackend::ship_cycle(std::span<const ShardAppend> appends) {
  std::shared_ptr<Shipment> shipment;
  {
    const std::lock_guard lock(mutex_);
    if (peers_.empty()) {
      return;
    }
    shipment = broadcast_locked(appends, /*resync=*/false);
  }
  await_acks(shipment);
}

void ReplicatedBackend::resync_locked() {
  if (peers_.empty()) {
    return;
  }
  // Every stream -- the object shards and the reply stream -- as its
  // snapshot record (an empty image too, which resets a stream a stale
  // replica may hold junk in) and the records above it.  Cycles already
  // queued behind this point re-ship records the frame holds; the backup
  // appends only what each stream lacks.
  std::vector<ShardAppend> appends;
  for (std::size_t s = 0; s < local_->stream_count(); ++s) {
    const Buffer live = local_->read_stream(s);
    Buffer run;
    if (!holds_snapshot(live)) {
      encode_snapshot_record({}, run);
    }
    // A volume promoted from backup still carries its own rep_applied
    // marker; it is volume-private.
    std::size_t pos = 0;
    while (const auto record = peek_record(std::span(live).subspan(pos))) {
      if (record->type != RecordType::rep_applied) {
        run.insert(run.end(), live.begin() + pos,
                   live.begin() + pos + record->size);
      }
      pos += record->size;
    }
    appends.push_back({s, std::move(run)});
  }
  (void)broadcast_locked(appends, /*resync=*/true);
}

bool ReplicatedBackend::probe_floor(Peer& peer, const std::stop_token& stop) {
  // A backup that outlived an earlier incarnation of this primary holds a
  // floor from that numbering, and answers every shipment at or below it
  // as a duplicate without applying it.  Learn the floor before offering
  // anything.
  std::uint64_t floor;
  for (;;) {
    std::uint64_t shipped;
    {
      const std::lock_guard lock(mutex_);
      shipped = next_lsn_;
    }
    const Result<std::uint64_t> probed = peer.link->heartbeat(shipped);
    if (probed.ok()) {
      floor = probed.value();
      break;
    }
    if (stop.stop_requested()) {
      return false;  // never reached: nothing to drain
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::lock_guard lock(mutex_);
  {
    const std::lock_guard plock(peer.mutex);
    // Only this thread pops, and attach queued its resync: the front is
    // the first shipment the peer would be offered.
    if (floor < peer.queue.front()->rep_lsn) {
      return true;
    }
    // Park the queue: every queued shipment's bytes are already on the
    // local volume, so the resync below subsumes them all.
    std::move(peer.queue.begin(), peer.queue.end(),
              std::back_inserter(peer.parked));
    peer.queue.clear();
  }
  next_lsn_ = std::max(next_lsn_, floor);
  resync_locked();
  const std::lock_guard plock(peer.mutex);
  peer.resync_end = next_lsn_;
  return true;
}

void ReplicatedBackend::shipper(Peer& peer, const std::stop_token& stop) {
  if (!probe_floor(peer, stop)) {
    return;
  }
  for (;;) {
    std::shared_ptr<Shipment> next;
    {
      std::unique_lock lock(peer.mutex);
      peer.cv.wait(lock, [&] {
        return stop.stop_requested() || !peer.queue.empty();
      });
      if (peer.queue.empty()) {
        return;  // stopped with nothing left to offer: clean exit
      }
      next = peer.queue.front();
    }
    bool acked = false;
    bool rotated = false;
    for (;;) {
      const Result<std::uint64_t> floor = peer.link->ship_cycle(next->frame);
      if (floor.ok()) {
        {
          const std::lock_guard plock(peer.mutex);
          peer.acked = std::max(peer.acked, floor.value());
        }
        acked = true;
        break;
      }
      if (floor.error() == ErrorCode::immutable) {
        // The backup was promoted: this primary is deposed.  Stop
        // offering and fence every durability waiter.
        {
          const std::lock_guard lock(ack_mutex_);
          fenced_ = true;
        }
        ack_cv_.notify_all();
        return;
      }
      if (stop.stop_requested()) {
        return;  // one post-stop attempt per shipment: a dead backup
                 // must not hang shutdown
      }
      if (floor.error() == ErrorCode::conflict) {
        // LSN gap: the backup is behind our stream (it restarted, or
        // lost state).  Queue a resync broadcast -- unless one is
        // already pending here -- then rotate the gapped shipment behind
        // it: once the resync adopts its floor, everything rotated lands
        // at or below it and acks as a duplicate.  (Every queued
        // shipment's bytes are on the local volume -- shipments are
        // broadcast after their local write -- so the resync read
        // subsumes them all.)
        bool resync_pending;
        {
          const std::lock_guard plock(peer.mutex);
          resync_pending =
              std::any_of(peer.queue.begin(), peer.queue.end(),
                          [](const auto& s) { return s->resync; });
        }
        if (!resync_pending) {
          const std::lock_guard lock(mutex_);
          resync_locked();
        }
        rotated = true;
        break;
      }
      // Transient link failure (timeout, drop): retry forever.  The
      // at-most-once transaction layer plus the replica's floor make the
      // retransmission harmless.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::vector<std::shared_ptr<Shipment>> settled;
    {
      const std::lock_guard plock(peer.mutex);
      peer.queue.pop_front();  // only this thread pops: front is `next`
      if (rotated) {
        peer.queue.push_back(next);
      }
      if (!peer.parked.empty() && peer.acked >= peer.resync_end) {
        settled = std::exchange(peer.parked, {});  // the resync landed
      }
    }
    if (acked) {
      settled.push_back(next);
    }
    if (!settled.empty()) {
      {
        const std::lock_guard lock(ack_mutex_);
        for (const auto& shipment : settled) {
          ++shipment->acks;
        }
      }
      ack_cv_.notify_all();
    }
  }
}

}  // namespace amoeba::storage
