#include "amoeba/storage/replication/replica.hpp"

#include <algorithm>
#include <utility>

#include "amoeba/common/serial.hpp"
#include "amoeba/storage/record.hpp"
#include "amoeba/storage/replication/wire.hpp"

namespace amoeba::storage {
namespace {

/// Drops the journal records of `run` at or below `held` -- a snapshot
/// record stays, whatever its lsn: it replaces the stream's image -- and
/// returns the highest LSN in the run (at least `held`).  A malformed
/// record ends the scan; it and everything after it stay.
std::uint64_t drop_held(Buffer& run, std::uint64_t held) {
  const std::span<const std::uint8_t> bytes(run);
  Buffer kept;
  std::uint64_t last = held;
  std::size_t pos = 0;
  while (const auto record = peek_record(bytes.subspan(pos))) {
    if (record->type == RecordType::snapshot || record->lsn > held) {
      kept.insert(kept.end(), bytes.begin() + pos,
                  bytes.begin() + pos + record->size);
    }
    last = std::max(last, record->lsn);
    pos += record->size;
  }
  kept.insert(kept.end(), bytes.begin() + pos, bytes.end());
  run = std::move(kept);
  return last;
}

/// True when every one of `streams` gets a snapshot record from `cycle`.
bool images_every_stream(const CycleFrame& cycle, std::size_t streams) {
  std::vector<bool> imaged(streams, false);
  for (const ShardAppend& a : cycle.appends) {
    imaged[a.shard] = imaged[a.shard] || holds_snapshot(a.bytes);
  }
  return std::find(imaged.begin(), imaged.end(), false) == imaged.end();
}

}  // namespace

ReplicaApplier::ReplicaApplier(std::shared_ptr<Backend> local)
    : local_(std::move(local)) {
  if (local_ == nullptr) {
    throw UsageError("ReplicaApplier: null backend");
  }
  // The floor is the largest marker still in the reply stream; each
  // stream holds up to its image's or its newest record's LSN (a snapshot
  // record's lsn is its image's).
  held_.assign(local_->stream_count(), 0);
  for (std::size_t s = 0; s < held_.size(); ++s) {
    for (const Record& record : decode_journal(local_->read_stream(s))) {
      if (record.type != RecordType::rep_applied) {
        held_[s] = std::max(held_[s], record.lsn);
        continue;
      }
      Reader r(record.payload);
      const std::uint64_t applied = r.u64();
      if (r.exhausted()) {
        applied_ = std::max(applied_, applied);
      }
    }
  }
}

ShardAppend ReplicaApplier::floor_marker(std::uint64_t rep_lsn) const {
  Writer marker;
  marker.u64(rep_lsn);
  Buffer record;
  encode_record_into(RecordType::rep_applied, ObjectNumber{}, 0, 0,
                     marker.buffer(), record);
  return {local_->reply_stream(), std::move(record)};
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
  for (const ShardAppend& a : cycle.appends) {
    if (a.shard >= local_->stream_count()) {
      return ErrorCode::invalid_argument;  // a stream this volume lacks
    }
  }
  if (cycle.rep_lsn <= applied_) {
    return applied_;  // duplicate shipment: ack without re-applying
  }
  // A gap needs a frame that images every stream (a resync's): it holds
  // the whole volume, so it lands on any floor.
  if (cycle.rep_lsn != applied_ + 1 &&
      !images_every_stream(cycle, local_->stream_count())) {
    return ErrorCode::conflict;  // gap: the primary must resync us
  }
  // A resync re-ships each stream's image and the records above it, whose
  // front this volume may already hold (it is a prefix of the primary's
  // history): append only what each stream lacks, so every stream's state
  // stays the primary's record for record.
  std::vector<std::uint64_t> held = held_;
  for (ShardAppend& a : cycle.appends) {
    held[a.shard] =
        std::max(held[a.shard], drop_held(a.bytes, held_[a.shard]));
  }
  // The cycle plus its applied marker go down as ONE group -- one
  // commit-log frame, one fsync on a file volume: the backup can never
  // hold half a cycle (an effect without its reply-stream floor), nor a
  // floor that claims a cycle it lacks.
  cycle.appends.push_back(floor_marker(cycle.rep_lsn));
  local_->append_journal_batch(std::move(cycle.appends));
  applied_ = cycle.rep_lsn;
  held_ = std::move(held);
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
