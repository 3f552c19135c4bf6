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

std::shared_ptr<ReplicatedBackend::Shipment> ReplicatedBackend::make_resync() {
  // Every frame shipped before this read is in the log it returns (frames
  // ship after their local write), or was subsumed by a checkpoint in it.
  const Buffer log = local_->read_log();
  const std::span<const std::uint8_t> frames = log_frames(log);
  auto shipment = std::make_shared<Shipment>();
  shipment->last_seq = last_frame_seq(frames);
  shipment->bytes = encode_shipment(/*resync=*/true, frames);
  return shipment;  // nobody waits on a resync: needed stays 0
}

void ReplicatedBackend::attach_peer(std::shared_ptr<ReplicationLink> link) {
  if (link == nullptr) {
    throw UsageError("ReplicatedBackend: null replication link");
  }
  const std::lock_guard lock(mutex_);
  auto peer = std::make_unique<Peer>(std::move(link));
  Peer& ref = *peer;  // unique_ptr in a grow-only vector: address is stable
  // The resync goes first, read under mutex_: every frame shipped after it
  // is queued behind it.
  std::shared_ptr<Shipment> resync = make_resync();
  shipped_ = std::max(shipped_, resync->last_seq);
  ref.queue.push_back(std::move(resync));
  ref.shipper = std::jthread(
      [this, &ref](const std::stop_token& stop) { shipper(ref, stop); });
  peers_.push_back(std::move(peer));
}

ReplicatedBackend::Stats ReplicatedBackend::stats() const {
  Stats out;
  out.mode = mode_;
  const std::lock_guard lock(mutex_);
  out.shipped_lsn = shipped_;
  out.peers.reserve(peers_.size());
  for (const auto& peer : peers_) {
    const std::lock_guard plock(peer->mutex);
    out.peers.push_back(
        {peer->link->peer_name(), peer->acked, peer->queue.size()});
  }
  return out;
}

void ReplicatedBackend::heartbeat() {
  std::vector<Peer*> peers;
  std::uint64_t shipped;
  {
    const std::lock_guard lock(mutex_);
    shipped = shipped_;
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

void ReplicatedBackend::ship_frame(std::span<const std::uint8_t> frame,
                                   std::uint64_t seq) {
  std::shared_ptr<Shipment> shipment;
  {
    const std::lock_guard lock(mutex_);
    if (peers_.empty()) {
      return;
    }
    shipment = std::make_shared<Shipment>();
    shipment->last_seq = seq;
    shipment->bytes = encode_shipment(/*resync=*/false, frame);
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
    shipped_ = std::max(shipped_, seq);
    for (const auto& peer : peers_) {
      {
        const std::lock_guard plock(peer->mutex);
        peer->queue.push_back(shipment);
      }
      peer->cv.notify_one();
    }
  }
  await_acks(shipment);
}

void ReplicatedBackend::await_acks(
    const std::shared_ptr<Shipment>& shipment) {
  if (shipment->needed == 0) {
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

void ReplicatedBackend::shipper(Peer& peer, const std::stop_token& stop) {
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
    for (;;) {
      const Result<std::uint64_t> floor = peer.link->ship_cycle(next->bytes);
      if (floor.ok()) {
        {
          const std::lock_guard plock(peer.mutex);
          peer.acked = floor.value();  // a resync may lower it
          peer.queue.pop_front();  // only this thread pops: front is `next`
        }
        {
          const std::lock_guard lock(ack_mutex_);
          ++next->acks;
        }
        ack_cv_.notify_all();
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
        // A gap: the backup is behind our log (it restarted, or lost
        // frames).  A resync takes the gapped shipment's place, and the
        // shipment goes to the back: its frame is in the resync's log, so
        // it then acks as a duplicate.
        std::shared_ptr<Shipment> resync = make_resync();
        const std::lock_guard plock(peer.mutex);
        peer.queue.front() = std::move(resync);
        peer.queue.push_back(next);
        break;
      }
      // Transient link failure (timeout, drop): retry forever.  The
      // at-most-once transaction layer plus the replica's floor make the
      // retransmission harmless.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

}  // namespace amoeba::storage
