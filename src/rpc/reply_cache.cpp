#include "amoeba/rpc/reply_cache.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "amoeba/common/error.hpp"
#include "amoeba/storage/backend.hpp"

namespace amoeba::rpc {

namespace {
constexpr std::uint8_t kCapabilityBit = 0x10;
}  // namespace

void encode_reply_body(const net::Message& reply, Buffer& out) {
  const net::CapabilityBytes& cap = reply.header.capability;
  const bool has_cap =
      std::any_of(cap.begin(), cap.end(), [](std::uint8_t b) { return b; });
  std::uint8_t mask = has_cap ? kCapabilityBit : 0;
  for (std::size_t i = 0; i < reply.header.params.size(); ++i) {
    if (reply.header.params[i] != 0) {
      mask |= static_cast<std::uint8_t>(1u << i);
    }
  }
  append_varint(out, reply.header.flags);
  append_varint(out, static_cast<std::uint16_t>(reply.header.status));
  out.push_back(mask);
  if (has_cap) {
    out.insert(out.end(), cap.begin(), cap.end());
  }
  for (const std::uint64_t p : reply.header.params) {
    if (p != 0) {
      append_varint(out, p);
    }
  }
  append_varint(out, reply.data.size());
  out.insert(out.end(), reply.data.begin(), reply.data.end());
}

std::optional<net::Message> decode_reply_body(
    std::span<const std::uint8_t> body, std::uint64_t client,
    std::uint64_t seq) {
  Reader r(body);
  net::Message reply;
  reply.header.flags = static_cast<std::uint16_t>(r.varint(UINT16_MAX));
  reply.header.status = static_cast<ErrorCode>(r.varint(UINT16_MAX));
  const std::uint8_t mask = r.u8();
  if ((mask & ~(kCapabilityBit | 0x0F)) != 0) {
    return std::nullopt;
  }
  if ((mask & kCapabilityBit) != 0) {
    r.raw(reply.header.capability);
    const net::CapabilityBytes& cap = reply.header.capability;
    if (std::none_of(cap.begin(), cap.end(),
                     [](std::uint8_t b) { return b; })) {
      return std::nullopt;
    }
  }
  for (std::size_t i = 0; i < reply.header.params.size(); ++i) {
    if ((mask & (1u << i)) != 0) {
      reply.header.params[i] = r.varint();
      if (reply.header.params[i] == 0) {
        return std::nullopt;
      }
    }
  }
  reply.data = r.vbytes();
  if (!r.exhausted()) {
    return std::nullopt;
  }
  reply.header.client = client;
  reply.header.seq = seq;
  return reply;
}

template <typename EncodeFn>
std::uint64_t ReplyCache::append_record(EncodeFn&& encode) {
  const std::lock_guard lock(append_mutex_);
  const std::uint64_t lsn = ++lsn_;
  // No flusher wake-up: a floor joins the cycle its handler's first
  // effect or its post-handler wait starts, and the incarnation the first
  // cycle any request starts.  A body, which nobody waits for, rides the
  // next cycle an effect or a blocking wait starts: the read barrier does
  // not wait for it, so no read pays for it.  None pays for a cycle alone.
  return committer_->enqueue_with(
      committer_->backend()->reply_stream(),
      [&](Buffer& staging) { encode(lsn, staging); },
      /*wake_flusher=*/false);
}

ReplyCache::Floor::Floor(ReplyCache& cache, const net::Delivery& request,
                         storage::RequestScope& scope)
    : cache_(cache),
      src_(request.src.value()),
      client_(request.message.header.client),
      seq_(request.message.header.seq) {
  if (request.message.header.incarnation == 0) {
    enqueue();  // may be a pre-restart duplicate: cannot wait for an effect
  } else {
    scope.defer_record(*cache_.committer_, *this);
  }
}

void ReplyCache::Floor::enqueue() {
  ticket_ = cache_.append_record([&](std::uint64_t lsn, Buffer& staging) {
    storage::encode_reply_floor(src_, client_, seq_, lsn, staging);
  });
  cache_.committer_->wait_durable(ticket_);  // recorded
}

void ReplyCache::image() {
  // Under the append lock, so the image's LSN covers exactly the records
  // queued before it, and every record above it is queued after it.  The
  // cache changes before a record takes its LSN, so the scan holds every
  // record at or below that LSN -- possibly with later state, which only
  // moves floors up.
  const std::lock_guard lock(append_mutex_);
  storage::ReplyRows rows;
  for (const Stripe& stripe : stripes_) {
    const std::lock_guard stripe_lock(stripe.mutex);
    for (const auto& [key, entry] : stripe.map) {
      storage::ReplyRow row;
      row.floor = entry.replies.empty()
                      ? entry.floor
                      : std::max(entry.floor, entry.replies.rbegin()->first);
      for (auto it = entry.replies.rbegin();
           it != entry.replies.rend() &&
           row.bodies.size() < storage::kReplyBodiesPerClient;
           ++it) {
        if (it->second.done &&
            it->second.reply.data.size() <= storage::kReplyBodyMaxBytes) {
          Buffer body;
          encode_reply_body(it->second.reply, body);
          row.bodies.emplace(it->first, std::move(body));
        }
      }
      if (row.floor != 0) {
        rows.emplace(std::pair{key.src, key.client}, std::move(row));
      }
    }
  }
  committer_->install_snapshot(
      committer_->backend()->reply_stream(),
      storage::encode_reply_snapshot(rows, lsn_, incarnation_));
}

void ReplyCache::attach(std::shared_ptr<storage::GroupCommitter> committer) {
  std::uint64_t last_lsn = 0;
  std::uint64_t recovered_incarnation = 0;
  restore(storage::read_reply_stream(*committer->backend(), last_lsn,
                                     &recovered_incarnation));
  enforce_limits();
  {
    const std::lock_guard lock(append_mutex_);
    lsn_ = last_lsn;
    committer_ = std::move(committer);
  }
  // A promoted backup's stream holds its primary's incarnations too, so
  // its server draws a number above theirs.  The record starts no cycle:
  // it rides the first one, and since every reply waits at least for its
  // ticket (the read barrier), none carries the number before it is
  // durable.
  incarnation_ = recovered_incarnation + 1;
  incarnation_ticket_ = append_record([&](std::uint64_t lsn, Buffer& staging) {
    storage::encode_reply_incarnation(incarnation_, lsn, staging);
  });
  imager_ = committer_->add_imager({committer_->backend()->reply_stream()},
                                   [this] {
                                     image();  // its locks are never held
                                     return true;  // across a wait
                                   });
}

void ReplyCache::restore(const storage::ReplyRows& rows) {
  for (const auto& [id, row] : rows) {
    const ClientKey key{id.first, id.second};
    std::vector<std::pair<std::uint64_t, net::Message>> replies;
    for (const auto& [seq, body] : row.bodies) {
      auto reply = decode_reply_body(body, key.client, seq);
      if (!reply) {
        break;
      }
      replies.emplace_back(seq, std::move(*reply));
    }
    if (replies.size() != row.bodies.size()) {
      continue;  // a row is restored whole or not at all
    }
    Stripe& stripe = stripe_for(key);
    const std::lock_guard lock(stripe.mutex);
    ClientEntry& entry = touch(stripe, key);
    entry.floor = std::max(entry.floor, row.floor);
    if (entry.replies.empty() && !replies.empty()) {
      relist(entry, stripe.tombstones, stripe.loaded);
      loaded_.fetch_add(1, std::memory_order_relaxed);
    }
    for (auto& [seq, reply] : replies) {
      const auto [slot, added] = entry.replies.insert_or_assign(
          seq, CachedReply{/*done=*/true, std::move(reply)});
      stripe.counters.entries += added ? 1 : 0;
    }
  }
}

ReplyCache::Stats ReplyCache::stats() const {
  Stats stats;
  for (const Stripe& stripe : stripes_) {
    const std::lock_guard lock(stripe.mutex);
    stats.duplicates_suppressed += stripe.counters.duplicates_suppressed;
    stats.replies_resent += stripe.counters.replies_resent;
    stats.evicted_entries += stripe.counters.evicted_entries;
    stats.evicted_clients += stripe.counters.evicted_clients;
    stats.eviction_visits += stripe.counters.eviction_visits;
    stats.entries += stripe.counters.entries;
    stats.clients += stripe.map.size();
  }
  stats.floorless_claims = floorless_claims_.load(std::memory_order_relaxed);
  stats.barrier_parks = barrier_parks_.load(std::memory_order_relaxed);
  return stats;
}

std::uint64_t ReplyCache::recount_entries() const {
  std::uint64_t entries = 0;
  for (const Stripe& stripe : stripes_) {
    const std::lock_guard lock(stripe.mutex);
    for (const auto& [key, entry] : stripe.map) {
      entries += entry.replies.size();
    }
  }
  return entries;
}

void ReplyCache::set_limits(std::size_t window_per_client,
                            std::size_t max_clients) {
  if (window_per_client == 0) {
    throw UsageError("ReplyCache::set_limits: the window must be at least 1");
  }
  window_.store(window_per_client, std::memory_order_relaxed);
  max_clients_.store(max_clients, std::memory_order_relaxed);
}

void ReplyCache::flush() {
  for (Stripe& stripe : stripes_) {
    const std::lock_guard lock(stripe.mutex);
    stripe.counters.evicted_entries += stripe.counters.entries;
    stripe.counters.entries = 0;
    stripe.counters.evicted_clients += stripe.map.size();
    clients_.fetch_sub(stripe.map.size(), std::memory_order_relaxed);
    loaded_.fetch_sub(stripe.loaded.size(), std::memory_order_relaxed);
    stripe.map.clear();
    stripe.loaded.clear();
    stripe.tombstones.clear();
  }
}

ReplyCache::ClientEntry& ReplyCache::touch(Stripe& stripe,
                                           const ClientKey& key) {
  const auto [it, created] = stripe.map.try_emplace(key);
  ClientEntry& entry = it->second;
  if (created) {
    entry.lru = stripe.tombstones.insert(stripe.tombstones.end(), key);
    clients_.fetch_add(1, std::memory_order_relaxed);
  }
  LruList& list = entry.replies.empty() ? stripe.tombstones : stripe.loaded;
  relist(entry, list, list);
  return entry;
}

void ReplyCache::relist(ClientEntry& entry, LruList& from, LruList& to) {
  to.splice(to.end(), from, entry.lru);
  entry.last_used = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void ReplyCache::enforce_limits() {
  const std::size_t max_clients =
      max_clients_.load(std::memory_order_relaxed);
  if (max_clients == 0) {
    return;
  }
  while (loaded_.load(std::memory_order_relaxed) > max_clients &&
         evict_one(/*tombstone=*/false)) {
  }
  while (clients_.load(std::memory_order_relaxed) >
             kTombstoneFactor * max_clients &&
         evict_one(/*tombstone=*/true)) {
  }
}

bool ReplyCache::evict_one(bool tombstone) {
  // Phase 1: each stripe's oldest eligible entry, one stripe locked at a
  // time (the request path never holds two stripes).  Only a client with
  // a request executing is passed over, so the walk reads at most one
  // head per stripe plus the requests in flight.
  std::optional<std::pair<std::uint64_t, ClientKey>> victim;  // tick, key
  for (Stripe& stripe : stripes_) {
    const std::lock_guard lock(stripe.mutex);
    for (const ClientKey& key : tombstone ? stripe.tombstones : stripe.loaded) {
      ++stripe.counters.eviction_visits;
      const ClientEntry& entry = stripe.map.find(key)->second;
      if (entry.executing == 0) {
        if (!victim || entry.last_used < victim->first) {
          victim.emplace(entry.last_used, key);
        }
        break;
      }
    }
  }
  if (!victim) {
    return false;
  }
  // Phase 2: re-verify under the victim's stripe lock.  Every claim,
  // demotion and restore draws a fresh tick, so an unchanged tick means
  // the entry is still idle, in the same list and the least recently
  // used; a changed one sends the caller round again.
  Stripe& stripe = stripe_for(victim->second);
  const std::lock_guard lock(stripe.mutex);
  ++stripe.counters.eviction_visits;
  const auto it = stripe.map.find(victim->second);
  if (it == stripe.map.end() || it->second.last_used != victim->first) {
    return true;
  }
  ClientEntry& entry = it->second;
  ++stripe.counters.evicted_clients;
  if (tombstone) {
    // Tombstone pool bound: header.client is a self-chosen field, so an
    // id-churning peer must not grow the map without limit (see
    // PROTOCOL.md §5.4 for what erasing the floor forgets).
    stripe.tombstones.erase(entry.lru);
    stripe.map.erase(it);
    clients_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  // Demotion drops the cached replies -- the heavy part -- but KEEPS the
  // entry as a floor tombstone, so duplicates of the evicted transactions
  // still drop silently instead of re-executing (the at-most-once
  // guarantee survives eviction; see docs/PROTOCOL.md §5.4).
  stripe.counters.evicted_entries += entry.replies.size();
  stripe.counters.entries -= entry.replies.size();
  entry.floor = std::max(entry.floor, entry.replies.rbegin()->first);
  entry.replies.clear();
  relist(entry, stripe.loaded, stripe.tombstones);
  loaded_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

ReplyCache::Verdict ReplyCache::claim(const net::Delivery& request,
                                      net::Message& cached) {
  const ClientKey key{request.src.value(), request.message.header.client};
  const std::uint64_t seq = request.message.header.seq;
  Verdict verdict = Verdict::fresh;
  {
    Stripe& stripe = stripe_for(key);
    const std::lock_guard lock(stripe.mutex);
    ClientEntry& entry = touch(stripe, key);
    // Replies are consulted BEFORE the floor: a reply body restored from
    // the volume after a restart sits at or below the recovered floor,
    // and must be re-sent, not dropped.
    if (const auto it = entry.replies.find(seq); it != entry.replies.end()) {
      ++stripe.counters.duplicates_suppressed;
      if (!it->second.done) {
        verdict = Verdict::drop;  // original still executing on a worker
      } else {
        ++stripe.counters.replies_resent;
        cached = it->second.reply;
        verdict = Verdict::resend;
      }
    } else if (seq <= entry.floor) {
      // Evicted region (or a pre-restart transaction whose floor was
      // recovered from the volume and whose body was not): the original
      // may or may not have executed, so the only at-most-once-safe
      // answer is silence (the client times out).
      ++stripe.counters.duplicates_suppressed;
      verdict = Verdict::drop;
    } else if (const std::uint64_t stamp =
                   request.message.header.incarnation;
               stamp != 0 && stamp != incarnation_) {
      // Addressed to another boot of this server, which may have run it
      // and left no trace here: running it now could run it twice.
      verdict = Verdict::restarted;
    } else {
      if (entry.replies.empty()) {
        relist(entry, stripe.tombstones, stripe.loaded);
        loaded_.fetch_add(1, std::memory_order_relaxed);
      }
      entry.replies.emplace(seq, CachedReply{});  // claimed: executing
      ++entry.executing;
      ++stripe.counters.entries;
    }
  }
  // The global limits are enforced OUTSIDE the stripe lock (the victim may
  // live on any stripe; two stripe locks are never held together).
  enforce_limits();
  return verdict;
}

void ReplyCache::publish(const net::Delivery& request,
                         const net::Message& reply, bool floor_journaled) {
  const ClientKey key{request.src.value(), request.message.header.client};
  const std::uint64_t seq = request.message.header.seq;
  if (committer_ != nullptr && !floor_journaled) {
    floorless_claims_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    Stripe& stripe = stripe_for(key);
    const std::lock_guard lock(stripe.mutex);
    const auto cit = stripe.map.find(key);
    if (cit == stripe.map.end()) {
      return;  // flushed or evicted while the handler ran
    }
    ClientEntry& entry = cit->second;
    const auto rit = entry.replies.find(seq);
    if (rit == entry.replies.end()) {
      return;
    }
    if (!rit->second.done && entry.executing > 0) {
      --entry.executing;
    }
    rit->second.done = true;
    rit->second.reply = reply;
    // Per-client window: age out the oldest COMPLETED transactions (an
    // executing one blocks the sweep; the window may briefly overshoot).
    // The window is at least 1, so the entry keeps a reply and its list.
    const std::size_t window = window_.load(std::memory_order_relaxed);
    while (entry.replies.size() > window &&
           entry.replies.begin()->second.done) {
      entry.floor = std::max(entry.floor, entry.replies.begin()->first);
      entry.replies.erase(entry.replies.begin());
      ++stripe.counters.evicted_entries;
      --stripe.counters.entries;
    }
  }
  // Outside the lock; bulk replies stay floor-only.
  if (floor_journaled && reply.data.size() <= storage::kReplyBodyMaxBytes) {
    Buffer body;
    encode_reply_body(reply, body);
    (void)append_record([&](std::uint64_t lsn, Buffer& staging) {
      storage::encode_reply_body(key.src, key.client, seq, body, lsn,
                                 staging);
    });
  }
}

}  // namespace amoeba::rpc
