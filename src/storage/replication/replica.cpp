#include "amoeba/storage/replication/replica.hpp"

#include <algorithm>
#include <utility>

#include "amoeba/common/serial.hpp"
#include "amoeba/storage/record.hpp"
#include "amoeba/storage/replication/wire.hpp"

namespace amoeba::storage {

ReplicaApplier::ReplicaApplier(std::shared_ptr<Backend> local)
    : local_(std::move(local)) {
  if (local_ == nullptr) {
    throw UsageError("ReplicaApplier: null backend");
  }
  // The floor is the newer of the one persisted at the last snapshot
  // install and the last cycle frame's own marker.
  const Buffer floor = local_->get_meta(kRepAppliedKey);
  if (!floor.empty()) {
    Reader r(floor);
    const std::uint64_t applied = r.u64();
    if (r.exhausted()) {
      applied_ = applied;
    }
  }
  for (const Record& record :
       decode_journal(local_->read_journal(local_->reply_stream()))) {
    if (record.type == RecordType::rep_applied) {
      Reader r(record.payload);
      const std::uint64_t applied = r.u64();
      if (r.exhausted()) {
        applied_ = std::max(applied_, applied);
      }
    }
  }
}

void ReplicaApplier::persist_floor_locked() {
  Writer w;
  w.u64(applied_);
  local_->put_meta(kRepAppliedKey, w.take());
}

Result<std::uint64_t> ReplicaApplier::apply_cycle(
    std::span<const std::uint8_t> frame) {
  const std::lock_guard lock(mutex_);
  if (promoted_) {
    return ErrorCode::immutable;  // fenced: this volume has a new primary
  }
  CycleFrame cycle;
  if (!decode_cycle_frame(frame, cycle)) {
    return ErrorCode::invalid_argument;
  }
  if (cycle.rep_lsn <= applied_) {
    return applied_;  // duplicate shipment: ack without re-applying
  }
  if (cycle.rep_lsn != applied_ + 1) {
    return ErrorCode::conflict;  // gap: the primary must resync us
  }
  for (auto& [key, value] : cycle.metas) {
    local_->put_meta(key, value);
  }
  // The cycle plus its applied marker go down as ONE group -- one
  // commit-log frame, one fsync on a file volume: the backup can never
  // hold half a cycle (an effect without its reply-stream floor), nor a
  // floor that claims a cycle it lacks.
  Writer marker;
  marker.u64(cycle.rep_lsn);
  Buffer record;
  encode_record_into(RecordType::rep_applied, ObjectNumber{}, 0, 0,
                     marker.buffer(), record);
  cycle.appends.push_back({local_->reply_stream(), std::move(record)});
  local_->append_journal_batch(std::move(cycle.appends));
  applied_ = cycle.rep_lsn;
  return applied_;
}

Result<std::uint64_t> ReplicaApplier::install_snapshot(
    std::uint64_t rep_lsn, std::size_t shard,
    std::span<const std::uint8_t> bytes) {
  const std::lock_guard lock(mutex_);
  if (promoted_) {
    return ErrorCode::immutable;
  }
  if (rep_lsn <= applied_) {
    return applied_;
  }
  if (shard >= local_->stream_count()) {
    return ErrorCode::invalid_argument;
  }
  local_->install_snapshot(shard, bytes);
  // Adopt, don't gap-check: a snapshot subsumes every shipment behind it,
  // and in-order FIFO shipping already offered those to us.  This is what
  // lets a full resync land on any floor.
  applied_ = rep_lsn;
  persist_floor_locked();
  return applied_;
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
