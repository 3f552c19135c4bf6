#include "amoeba/storage/replication/replica.hpp"

#include <algorithm>
#include <vector>

#include "amoeba/storage/record.hpp"
#include "amoeba/storage/replication/wire.hpp"

namespace amoeba::storage {

ReplicaApplier::ReplicaApplier(std::shared_ptr<Backend> local)
    : local_(std::move(local)) {
  if (local_ == nullptr) {
    throw UsageError("ReplicaApplier: null backend");
  }
  applied_ = local_->last_seq();
}

Result<std::uint64_t> ReplicaApplier::apply_shipment(
    std::span<const std::uint8_t> shipment) {
  const std::lock_guard lock(mutex_);
  if (promoted_) {
    return ErrorCode::immutable;  // fenced: this volume has a new primary
  }
  bool resync = false;
  std::span<const std::uint8_t> frames;
  if (!decode_shipment(shipment, resync, frames)) {
    return ErrorCode::invalid_argument;
  }
  // Every frame is checked before anything is written.
  struct Checked {
    std::uint64_t seq;
    bool checkpoint;
    std::span<const std::uint8_t> bytes;
  };
  std::vector<Checked> checked;
  const std::size_t walked = walk_frames(
      frames, local_->stream_count(),
      [&](const Frame& frame, std::span<const std::uint8_t> bytes) {
        checked.push_back({frame.seq, frame.checkpoint, bytes});
      },
      nullptr);
  if (walked != frames.size()) {
    return ErrorCode::invalid_argument;
  }
  if (resync) {
    // A whole log starts at a checkpoint or at the volume's first frame.
    if (!checked.empty() && !checked.front().checkpoint &&
        checked.front().seq != 1) {
      return ErrorCode::invalid_argument;
    }
    adopt_locked(frames);
    applied_ = checked.empty() ? 0 : checked.back().seq;
    return applied_;
  }
  if (checked.empty()) {
    return ErrorCode::invalid_argument;
  }
  for (const Checked& frame : checked) {
    if (frame.seq <= applied_) {
      continue;  // duplicate: ack without re-applying
    }
    if (frame.seq != applied_ + 1) {
      return ErrorCode::conflict;  // gap: the primary must resync us
    }
    if (frame.checkpoint) {
      local_->replace_log(frame.bytes);
    } else {
      local_->append_frames(frame.bytes);
    }
    applied_ = frame.seq;
  }
  return applied_;
}

void ReplicaApplier::adopt_locked(std::span<const std::uint8_t> frames) {
  // A backup is a prefix of its primary, so usually the resync only
  // extends what this log holds: append the rest.  Anything else -- a
  // log from before a checkpoint, or another volume's -- is replaced.
  const Buffer log = local_->read_log();
  const std::span<const std::uint8_t> mine = log_frames(log);
  if (mine.size() <= frames.size() &&
      std::equal(mine.begin(), mine.end(), frames.begin())) {
    local_->append_frames(frames.subspan(mine.size()));
  } else {
    local_->replace_log(frames);
  }
}

std::uint64_t ReplicaApplier::promote() {
  const std::lock_guard lock(mutex_);
  promoted_ = true;
  return applied_;
}

std::uint64_t ReplicaApplier::applied() const {
  const std::lock_guard lock(mutex_);
  return applied_;
}

bool ReplicaApplier::promoted() const {
  const std::lock_guard lock(mutex_);
  return promoted_;
}

}  // namespace amoeba::storage
