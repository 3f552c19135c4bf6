#include "amoeba/storage/replication/replicated_backend.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/record.hpp"
#include "amoeba/storage/replication/wire.hpp"

namespace amoeba::storage {

std::string_view to_string(AckMode mode) {
  switch (mode) {
    case AckMode::async:
      return "async";
    case AckMode::ack_one:
      return "ack-one";
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
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Nothing attaches peers while the destructor runs.
  for (const auto& peer : peers_) {
    peer->shipper.join();  // shippers touch cv_: join before members die
  }
}

std::size_t ReplicatedBackend::shard_count() const {
  return local_->shard_count();
}

void ReplicatedBackend::append_frames(std::span<const std::uint8_t> frames) {
  // Lands locally only: the bound committer runs the ship hook after this
  // write returns, in ticket order -- §8.5's acknowledgement rule.
  local_->append_frames(frames);
}

void ReplicatedBackend::replace_log(std::span<const std::uint8_t> frames) {
  local_->replace_log(frames);
}

Buffer ReplicatedBackend::read_log() const { return local_->read_log(); }

std::uint64_t ReplicatedBackend::last_seq() const {
  return local_->last_seq();
}

std::uint64_t ReplicatedBackend::log_bytes() const {
  return local_->log_bytes();
}

Buffer ReplicatedBackend::read_stream(std::size_t stream) const {
  return local_->read_stream(stream);
}

void ReplicatedBackend::bind_committer(GroupCommitter& committer) {
  committer.set_post_flush_hook(
      [this](const GroupCommitter::FlushCycle& cycle) {
        ship_frame(cycle.frame, cycle.seq);
      });
}

void ReplicatedBackend::resync_locked(Peer& peer) {
  // Every frame queued before this read is in the log it returns (frames
  // queue after their local write), or was subsumed by a checkpoint in it.
  const Buffer log = local_->read_log();
  const std::span<const std::uint8_t> frames = log_frames(log);
  auto resync = std::make_shared<Shipment>();
  resync->last_seq = last_frame_seq(frames);
  resync->bytes = encode_shipment(/*resync=*/true, frames);
  shipped_ = std::max(shipped_, resync->last_seq);
  peer.backlog_bytes = resync->frame_bytes();
  peer.backlog.assign(1, std::move(resync));
}

void ReplicatedBackend::attach_peer(std::shared_ptr<ReplicationLink> link) {
  if (link == nullptr) {
    throw UsageError("ReplicatedBackend: null replication link");
  }
  const std::lock_guard lock(mutex_);
  auto peer = std::make_unique<Peer>(std::move(link));
  Peer& ref = *peer;  // unique_ptr in a grow-only vector: address is stable
  resync_locked(ref);
  peers_.push_back(std::move(peer));
  ref.shipper = std::thread([this, &ref] { shipper(ref); });
}

ReplicatedBackend::Stats ReplicatedBackend::stats() const {
  Stats out;
  out.mode = mode_;
  const std::lock_guard lock(mutex_);
  out.shipped_lsn = shipped_;
  out.peers.reserve(peers_.size());
  for (const auto& peer : peers_) {
    out.peers.push_back(
        {peer->link->peer_name(), peer->acked, peer->backlog_bytes});
  }
  return out;
}

void ReplicatedBackend::ship_frame(std::span<const std::uint8_t> frame,
                                   std::uint64_t seq) {
  std::unique_lock lock(mutex_);
  if (peers_.empty()) {
    return;
  }
  auto shipment = std::make_shared<Shipment>();
  shipment->last_seq = seq;
  shipment->bytes = encode_shipment(/*resync=*/false, frame);
  shipped_ = std::max(shipped_, seq);
  // The frame is already in the local log, so a backlog that would
  // outgrow the log (a checkpoint shrank it) ships as one resync instead:
  // a dead backup costs at most one log.
  const std::uint64_t log = local_->log_bytes();
  for (const auto& peer : peers_) {
    if (!peer->backlog.empty() && peer->backlog.back()->last_seq >= seq) {
      continue;  // a resync read after this frame's write holds it
    }
    if (peer->backlog_bytes + shipment->frame_bytes() > log) {
      resync_locked(*peer);
    } else {
      peer->backlog.push_back(shipment);
      peer->backlog_bytes += shipment->frame_bytes();
    }
  }
  // Notify unlocked, here and in the shipper: a woken thread then finds
  // the mutex free instead of blocking on it once more.
  lock.unlock();
  cv_.notify_all();
  if (mode_ == AckMode::async) {
    return;
  }
  lock.lock();
  const auto acked = [&] {
    return std::any_of(peers_.begin(), peers_.end(),
                       [&](const auto& peer) { return peer->acked >= seq; });
  };
  cv_.wait(lock, [&] { return stopping_ || fenced_ || acked(); });
  if (fenced_ && !acked()) {
    // A backup refused us as promoted: we are the deposed primary.  Fail
    // the durability wait loudly -- under a committer this latches the
    // flusher's failed state, so no mutation is ever reported durable by
    // a primary the cluster has moved past.
    throw UsageError("ReplicatedBackend: backup promoted; primary fenced");
  }
  // Shutting down: the only waiters left are the destructor's own caller
  // (teardown), so an unacknowledged frame is reported as nothing.
}

void ReplicatedBackend::shipper(Peer& peer) {
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return stopping_ || !peer.backlog.empty(); });
    if (peer.backlog.empty()) {
      return;  // stopped with nothing left to offer: clean exit
    }
    const std::shared_ptr<const Shipment> next = peer.backlog.front();
    lock.unlock();
    const Result<std::uint64_t> floor = peer.link->ship_cycle(next->bytes);
    lock.lock();
    // The flusher may have replaced the backlog meanwhile: `next` is then
    // no longer its front, and its answer pops nothing.
    const bool front = peer.backlog.front() == next;
    if (floor.ok()) {
      peer.acked = floor.value();  // a resync may lower it
      if (front) {
        peer.backlog.pop_front();
        peer.backlog_bytes -= next->frame_bytes();
      }
      lock.unlock();
      cv_.notify_all();
      lock.lock();
      continue;
    }
    if (floor.error() == ErrorCode::immutable) {
      // The backup was promoted: this primary is deposed.  Stop offering
      // and fence every durability waiter.
      fenced_ = true;
      lock.unlock();
      cv_.notify_all();
      return;
    }
    if (stopping_) {
      return;  // one post-stop attempt per shipment: a dead backup
               // must not hang shutdown
    }
    if (floor.error() == ErrorCode::conflict) {
      // A gap: the backup is behind our log (it restarted, or lost
      // frames).  One resync replaces the backlog; its log holds every
      // frame the backlog did.
      if (front) {
        resync_locked(peer);
      }
      continue;
    }
    // Transient link failure (timeout, drop): retry forever.  The
    // at-most-once transaction layer plus the replica's floor make the
    // retransmission harmless.
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    lock.lock();
  }
}

}  // namespace amoeba::storage
