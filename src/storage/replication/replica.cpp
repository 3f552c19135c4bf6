#include "amoeba/storage/replication/replica.hpp"

#include <algorithm>
#include <utility>

#include "amoeba/common/serial.hpp"
#include "amoeba/storage/record.hpp"
#include "amoeba/storage/replication/wire.hpp"

namespace amoeba::storage {
namespace {

/// Drops the leading records of `run` at or below `held` and returns the
/// highest LSN among the whole records left (at least `held`).  A
/// malformed record ends the scan; it and everything after it stay.
std::uint64_t drop_held_prefix(Buffer& run, std::uint64_t held) {
  const std::span<const std::uint8_t> bytes(run);
  std::uint64_t last = held;
  std::size_t keep_from = 0;
  std::size_t pos = 0;
  while (const auto record = peek_record(bytes.subspan(pos))) {
    if (record->lsn <= held && keep_from == pos) {
      keep_from = pos + record->size;  // still inside what the stream holds
    }
    last = std::max(last, record->lsn);
    pos += record->size;
  }
  run.erase(run.begin(), run.begin() + static_cast<std::ptrdiff_t>(keep_from));
  return last;
}

}  // namespace

ReplicaApplier::ReplicaApplier(std::shared_ptr<Backend> local)
    : local_(std::move(local)) {
  if (local_ == nullptr) {
    throw UsageError("ReplicaApplier: null backend");
  }
  // The floor is the largest marker still in the reply stream; each
  // stream holds up to its snapshot's or its newest record's LSN.
  held_.assign(local_->stream_count(), 0);
  for (std::size_t s = 0; s < held_.size(); ++s) {
    held_[s] = peek_snapshot_lsn(local_->read_snapshot(s));
    for (const Record& record : decode_journal(local_->read_journal(s))) {
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
  if (cycle.rep_lsn != applied_ + 1) {
    return ErrorCode::conflict;  // gap: the primary must resync us
  }
  // A resync re-ships whole journal tails, whose front this volume may
  // already hold (it is a prefix of the primary's history, and a shipped
  // snapshot keeps the records above its LSN): append only what each
  // stream lacks, so the journals stay the primary's byte for byte.
  std::vector<std::uint64_t> held = held_;
  for (ShardAppend& a : cycle.appends) {
    held[a.shard] =
        std::max(held[a.shard], drop_held_prefix(a.bytes, held_[a.shard]));
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
  held_[shard] = std::max(held_[shard], peek_snapshot_lsn(bytes));
  // Adopt, don't gap-check: a snapshot subsumes every shipment behind it,
  // and in-order FIFO shipping already offered those to us.  This is what
  // lets a full resync land on any floor.  The marker, a group of one,
  // goes down only once the install returned: a marker written first
  // could claim a snapshot the volume lacks after a crash, and the install
  // itself may drop older markers (a reply-stream install drops the
  // records it subsumes; a commit.log GC rewrite drops every marker).
  local_->append_journal_batch({floor_marker(rep_lsn)});
  applied_ = rep_lsn;
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
