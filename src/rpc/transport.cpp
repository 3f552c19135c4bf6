#include "amoeba/rpc/transport.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include "amoeba/storage/group_commit.hpp"

namespace amoeba::rpc {

using Clock = std::chrono::steady_clock;

namespace {
/// Process-wide transport nonce.  Server reply caches key on
/// (machine, client id), so two transports must never share an id --
/// including a transport recreated with the SAME machine and seed (the
/// RNG alone would then reproduce the old id and the old seq stream, and
/// a surviving server would answer the new transport's first transactions
/// from the old one's cached replies).  The counter makes ids distinct by
/// construction; the RNG spreads them.
std::atomic<std::uint64_t> next_transport_nonce{1};
}  // namespace

// ------------------------------------------------------------------- Future

bool Future::ready() const {
  if (state_ == nullptr) {
    return false;
  }
  const std::lock_guard lock(state_->mutex);
  return state_->outcome.has_value();
}

Result<net::Delivery> Future::get(std::stop_token stop) {
  if (state_ == nullptr) {
    throw UsageError("Future::get: invalid (empty or already consumed)");
  }
  const auto state = std::move(state_);
  std::unique_lock lock(state->mutex);
  if (!state->cv.wait(lock, stop,
                      [&] { return state->outcome.has_value(); })) {
    return ErrorCode::timeout;  // stop requested before completion
  }
  return std::move(*state->outcome);
}

bool Future::wait_for(std::chrono::milliseconds timeout) const {
  if (state_ == nullptr) {
    return false;
  }
  std::unique_lock lock(state_->mutex);
  return state_->cv.wait_for(lock, timeout,
                             [&] { return state_->outcome.has_value(); });
}

// ---------------------------------------------------------------- Transport

Transport::Transport(net::Machine& machine, std::uint64_t seed)
    : machine_(machine),
      rng_(seed ^ machine.id().value()),
      replies_(std::make_shared<net::Mailbox>()),
      pump_wakes_at_(Clock::time_point::max()),
      pump_([this](std::stop_token st) { pump(st); }) {
  // The at-most-once client identity: nonzero (0 on the wire means "no
  // at-most-once semantics"), unique among all transports of this process
  // by the nonce, randomly spread by the seed.  Splitmix's odd constant
  // keeps distinct nonces distinct after the multiply.
  const std::uint64_t nonce =
      next_transport_nonce.fetch_add(1, std::memory_order_relaxed);
  do {
    client_id_ = rng_.bits(64) ^ (nonce * 0x9E3779B97F4A7C15ull);
  } while (client_id_ == 0);
}

Transport::~Transport() {
  pump_.request_stop();
  replies_->close();  // wakes the pump even mid-pop
  pump_.join();
  // Fail whatever is still in flight so no Future::get blocks forever.
  std::vector<Pending> leftovers;
  {
    const std::lock_guard lock(pending_mutex_);
    leftovers.reserve(pending_.size());
    for (auto& [port, pending] : pending_) {
      leftovers.push_back(std::move(pending));
    }
    pending_.clear();
  }
  for (auto& pending : leftovers) {
    complete(pending, ErrorCode::timeout);
  }
}

void Transport::set_retransmit(std::chrono::milliseconds initial,
                               std::chrono::milliseconds cap) {
  if (initial.count() < 0 || cap < initial) {
    throw UsageError("Transport::set_retransmit: need 0 <= initial <= cap");
  }
  retransmit_initial_ms_.store(initial.count(), std::memory_order_relaxed);
  retransmit_cap_ms_.store(cap.count(), std::memory_order_relaxed);
}

void Transport::set_signature(Port signature_get_port) {
  const std::lock_guard lock(mutex_);
  signature_ = signature_get_port;
}

void Transport::set_filter(std::shared_ptr<MessageFilter> filter) {
  const std::lock_guard lock(mutex_);
  filter_ = std::move(filter);
}

std::chrono::milliseconds Transport::adaptive_rto_locked() const {
  const auto floor = retransmit_initial();
  if (floor.count() == 0 || stats_.rtt_samples == 0) {
    return floor;  // disabled, or no sample yet: the configured seed
  }
  const std::uint64_t rto_us = stats_.srtt_us + 4 * stats_.rttvar_us;
  const auto rto = std::chrono::milliseconds((rto_us + 999) / 1000);
  return std::clamp(rto, floor, retransmit_cap());
}

void Transport::record_rtt_locked(std::chrono::microseconds sample) {
  // Jacobson/Karels in integer microseconds: srtt += err/8,
  // rttvar += (|err| - rttvar)/4.
  const auto us = static_cast<std::int64_t>(sample.count());
  auto srtt = static_cast<std::int64_t>(stats_.srtt_us);
  auto rttvar = static_cast<std::int64_t>(stats_.rttvar_us);
  if (stats_.rtt_samples == 0) {
    srtt = us;
    rttvar = us / 2;
  } else {
    const std::int64_t err = us - srtt;
    srtt += err / 8;
    rttvar += (std::abs(err) - rttvar) / 4;
  }
  stats_.srtt_us = static_cast<std::uint64_t>(std::max<std::int64_t>(srtt, 0));
  stats_.rttvar_us =
      static_cast<std::uint64_t>(std::max<std::int64_t>(rttvar, 0));
  ++stats_.rtt_samples;
}

Transport::Stats Transport::stats() const {
  const std::lock_guard lock(mutex_);
  Stats snapshot = stats_;
  snapshot.rto_ms =
      static_cast<std::uint64_t>(adaptive_rto_locked().count());
  return snapshot;
}

std::size_t Transport::in_flight() const {
  const std::lock_guard lock(pending_mutex_);
  return pending_.size();
}

std::optional<net::Machine::Location> Transport::resolve(Port put_port) {
  bool located = false;
  const auto location = machine_.resolve(put_port, located);
  const std::lock_guard lock(mutex_);
  ++(located ? stats_.cache_misses : stats_.cache_hits);
  return location;
}

Future Transport::trans_async(net::Message request,
                              std::chrono::milliseconds timeout) {
  auto state = std::make_shared<Future::State>();
  Future future(state);
  try {
    storage::RequestScope::settle_current();
  } catch (const std::exception&) {
    // The effects this call may carry are not durable and never will be;
    // the request scope still holds them, so the reply fails too.
    state->outcome.emplace(ErrorCode::internal);  // not shared yet
    return future;
  }

  // One lock hold covers the per-transaction bookkeeping: stats, the
  // signature/filter snapshot, the at-most-once (client, seq) stamp, the
  // one-shot port draw, and a fast-path probe of the machine's location
  // cache (the hot path never takes mutex_ twice).
  std::shared_ptr<MessageFilter> filter;
  Port reply_get_port;
  std::optional<net::Machine::Location> fast_dst;
  std::chrono::milliseconds backoff{0};
  {
    const std::lock_guard lock(mutex_);
    ++stats_.transactions;
    filter = filter_;
    request.header.signature = signature_;
    request.header.client = client_id_;
    request.header.seq = ++next_seq_;
    request.header.flags |= net::kFlagAtMostOnce;
    const auto known = incarnations_.find(request.header.dest);
    request.header.incarnation =
        known != incarnations_.end() ? known->second : 0;
    // RTT-seeded first-retransmit interval (floor = configured initial).
    backoff = adaptive_rto_locked();
    do {
      reply_get_port = Port(rng_.bits(Port::kBits));
    } while (reply_get_port.is_null());
    fast_dst = machine_.cached(request.header.dest);
    if (fast_dst.has_value()) {
      ++stats_.cache_hits;
    }
  }

  // One-shot reply registration, demultiplexed through the shared
  // mailbox.  Registered in the completion registry BEFORE the frame goes
  // out, so a reply cannot beat its own bookkeeping.
  const auto now = Clock::now();
  const auto deadline = now + timeout;
  const auto next_send =
      backoff.count() > 0 ? now + backoff : Clock::time_point::max();
  Port registry_key;
  bool registered = false;
  bool wake_pump = false;
  for (int attempt = 0; attempt < 4 && !registered; ++attempt) {
    if (attempt > 0) {
      const std::lock_guard lock(mutex_);
      do {
        reply_get_port = Port(rng_.bits(Port::kBits));
      } while (reply_get_port.is_null());
    }
    net::Receiver receiver = machine_.listen(reply_get_port, replies_);
    registry_key = receiver.put_port();
    if (registry_key.is_null()) {
      continue;  // F(G') == 0 would masquerade as a wake marker: redraw
    }
    request.header.reply = reply_get_port;  // final once registered
    Pending pending{state,     std::move(receiver), deadline, request,
                    next_send, backoff,             now,      false};
    const std::lock_guard lock(pending_mutex_);
    if (pending_.contains(registry_key)) {
      continue;  // 2^-48 one-shot port collision: redraw
    }
    pending_.emplace(registry_key, std::move(pending));
    // Only an event earlier than the pump's next scheduled wake needs a
    // nudge; later ones are picked up when it recomputes anyway.
    const auto wake_at = std::min(deadline, next_send);
    wake_pump = wake_at < pump_wakes_at_;
    if (wake_pump) {
      pump_wakes_at_ = wake_at;
    }
    registered = true;
  }
  if (!registered) {
    Pending failed{state, net::Receiver(),          deadline, {},
                   Clock::time_point::max(), {},    now,      false};
    complete(failed, ErrorCode::internal);
    return future;
  }
  if (wake_pump) {
    // Wake marker: a null-dest delivery the pump discards after
    // recomputing its deadline.
    replies_->push(net::Delivery{MachineId(), net::Message{}});
  }

  const bool sent = send_request(request, filter, std::move(fast_dst));
  if (!sent) {
    // The reply can never come: withdraw the registration (unless the
    // pump already expired it) and fail the future now.
    std::optional<Pending> pending;
    {
      const std::lock_guard lock(pending_mutex_);
      auto it = pending_.find(registry_key);
      if (it != pending_.end()) {
        pending.emplace(std::move(it->second));
        pending_.erase(it);
      }
    }
    if (pending.has_value()) {
      complete(*pending, ErrorCode::no_such_port);
    }
  }
  return future;
}

bool Transport::send_request(const net::Message& request,
                             const std::shared_ptr<MessageFilter>& filter,
                             std::optional<net::Machine::Location> fast_dst) {
  // Two attempts: a stale cache entry (server migrated/died) costs one
  // rejected transmit, one invalidation, and a fresh LOCATE.
  bool sent = false;
  for (int attempt = 0; attempt < 2 && !sent; ++attempt) {
    const auto dst = fast_dst.has_value() ? std::exchange(fast_dst, {})
                                          : resolve(request.header.dest);
    if (!dst.has_value()) {
      break;
    }
    // Seal a copy: a retry to a different machine must re-seal the
    // original, not the already-sealed bytes.
    net::Message wire = request;
    if (filter != nullptr) {
      filter->outgoing(wire, dst->machine);
    }
    sent = machine_.transmit(std::move(wire), dst->machine);
    if (!sent && machine_.invalidate(request.header.dest, dst->generation)) {
      const std::lock_guard lock(mutex_);
      ++stats_.cache_invalidations;
    }
  }
  return sent;
}

void Transport::complete(Pending& pending, Result<net::Delivery> outcome) {
  {
    const std::lock_guard lock(pending.state->mutex);
    pending.state->outcome.emplace(std::move(outcome));
  }
  pending.state->cv.notify_all();
}

void Transport::settle_all(std::deque<net::Delivery>&& batch) {
  // One registry lock reaps every matching transaction of the batch;
  // futures complete (and the one-shot GET registrations die) outside it.
  std::vector<std::pair<Pending, net::Delivery>> matched;
  std::vector<std::pair<Port, std::uint64_t>> restarted;  // key, incarnation
  matched.reserve(batch.size());
  {
    const std::lock_guard lock(pending_mutex_);
    for (auto& delivery : batch) {
      const net::Header& header = delivery.message.header;
      if (header.dest.is_null()) {
        continue;  // wake marker from trans_async
      }
      auto it = pending_.find(header.dest);
      if (it == pending_.end()) {
        continue;  // duplicate frame or post-timeout straggler: dropped
      }
      if (header.status == ErrorCode::restarted) {
        // Not executed.  A refusal of a seq already re-issued is stale, and
        // so is a second refusal of one seq (two copies) in this batch.
        const bool seen = std::any_of(
            restarted.begin(), restarted.end(),
            [&](const auto& r) { return r.first == header.dest; });
        if (!seen && header.seq == it->second.request.header.seq) {
          restarted.emplace_back(header.dest, header.incarnation);
        }
        continue;
      }
      matched.emplace_back(std::move(it->second), std::move(delivery));
      pending_.erase(it);
    }
  }
  for (const auto& [key, incarnation] : restarted) {
    reissue(key, incarnation);
  }
  if (matched.empty()) {
    return;
  }
  std::shared_ptr<MessageFilter> filter;
  {
    const auto now = Clock::now();
    const std::lock_guard lock(mutex_);
    filter = filter_;
    for (const auto& [pending, delivery] : matched) {
      learn_incarnation_locked(pending.request.header.dest,
                               delivery.message.header.incarnation);
      // Karn's rule: only transactions answered without any retransmit
      // contribute RTT samples (a retransmitted one's reply is ambiguous).
      if (!pending.retransmitted &&
          pending.issued_at != Clock::time_point{}) {
        record_rtt_locked(std::chrono::duration_cast<std::chrono::microseconds>(
            now - pending.issued_at));
      }
    }
  }
  for (auto& [pending, delivery] : matched) {
    if (filter != nullptr &&
        !filter->incoming(delivery.message, delivery.src)) {
      complete(pending, ErrorCode::unsealing_failed);
    } else {
      complete(pending, std::move(delivery));
    }
  }
  // ~matched here withdraws the one-shot GET registrations.
}

void Transport::learn_incarnation_locked(Port service,
                                         std::uint64_t incarnation) {
  if (incarnation != 0) {
    incarnations_[service] = incarnation;
  } else {
    incarnations_.erase(service);  // a server without a volume
  }
}

void Transport::reissue(Port registry_key, std::uint64_t incarnation) {
  std::uint64_t seq = 0;
  std::shared_ptr<MessageFilter> filter;
  net::Message request;
  {
    // The one place holding both locks: mutex_ first, then pending_mutex_.
    const std::lock_guard lock(mutex_);
    const std::lock_guard registry(pending_mutex_);
    const auto it = pending_.find(registry_key);
    if (it == pending_.end()) {
      return;  // expired meanwhile
    }
    Pending& pending = it->second;
    learn_incarnation_locked(pending.request.header.dest, incarnation);
    ++stats_.reissues;
    filter = filter_;
    seq = ++next_seq_;
    // A new transaction for the server: fresh seq, the new stamp, the same
    // reply port and deadline.  Its reply yields no RTT sample (Karn).
    pending.request.header.seq = seq;
    pending.request.header.incarnation = incarnation;
    pending.request.header.flags &=
        static_cast<std::uint16_t>(~net::kFlagRetransmit);
    pending.retransmitted = true;
    request = pending.request;
  }
  // Best effort, like a retransmit: the backoff timer covers a loss.
  (void)send_request(request, filter, std::nullopt);
}

void Transport::expire_and_retransmit() {
  // The only full registry scan in the pump; it runs when a deadline or
  // retransmit timer actually fires (or a wake marker moved the schedule),
  // never per reply.  It also recomputes the next wake time, repairing the
  // staleness settle() leaves behind (pump_wakes_at_ only ever errs early,
  // so the worst case is one spurious wake, not a missed timeout).
  const auto now = Clock::now();
  const auto cap = retransmit_cap();
  std::vector<Pending> overdue;
  std::vector<net::Message> resend;
  {
    const std::lock_guard lock(pending_mutex_);
    auto earliest = Clock::time_point::max();
    for (auto it = pending_.begin(); it != pending_.end();) {
      Pending& pending = it->second;
      if (pending.deadline <= now) {
        overdue.push_back(std::move(pending));
        it = pending_.erase(it);
        continue;
      }
      if (pending.next_send <= now) {
        // Unacknowledged past its backoff: queue another copy (flagged as
        // a retransmission) and double the interval, capped.
        net::Message copy = pending.request;
        copy.header.flags |= net::kFlagRetransmit;
        resend.push_back(std::move(copy));
        pending.retransmitted = true;  // Karn: its reply yields no sample
        pending.backoff = std::min(pending.backoff * 2, cap);
        pending.next_send = now + pending.backoff;
      }
      earliest =
          std::min(earliest, std::min(pending.deadline, pending.next_send));
      ++it;
    }
    pump_wakes_at_ = earliest;
  }
  if (!overdue.empty()) {
    {
      const std::lock_guard lock(mutex_);
      stats_.timeouts += overdue.size();
    }
    for (auto& pending : overdue) {
      complete(pending, ErrorCode::timeout);
    }
  }
  if (!resend.empty()) {
    std::shared_ptr<MessageFilter> filter;
    {
      const std::lock_guard lock(mutex_);
      filter = filter_;
      stats_.retransmits += resend.size();
    }
    for (const auto& request : resend) {
      // Best effort: a rejected retransmit (server mid-migration) is not
      // a failure -- the next backoff tick or the deadline settles it.
      (void)send_request(request, filter, std::nullopt);
    }
  }
}

void Transport::pump(std::stop_token stop) {
  while (!stop.stop_requested()) {
    std::optional<std::chrono::milliseconds> wait;
    {
      const std::lock_guard lock(pending_mutex_);
      if (pump_wakes_at_ != Clock::time_point::max()) {
        wait = std::max(std::chrono::milliseconds(1),
                        std::chrono::ceil<std::chrono::milliseconds>(
                            pump_wakes_at_ - Clock::now()));
      }
    }
    auto batch = replies_->drain(stop, wait);
    if (stop.stop_requested() || replies_->closed()) {
      return;
    }
    if (batch.empty()) {
      expire_and_retransmit();  // deadline / backoff tick
      continue;
    }
    settle_all(std::move(batch));
    // Continuous reply traffic must not starve deadlines: a lost frame's
    // transaction still has to time out while its neighbours settle.
    bool deadline_passed;
    {
      const std::lock_guard lock(pending_mutex_);
      deadline_passed = pump_wakes_at_ <= Clock::now();
    }
    if (deadline_passed) {
      expire_and_retransmit();
    }
  }
}

}  // namespace amoeba::rpc
