#include "amoeba/rpc/server.hpp"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "amoeba/common/error.hpp"
#include "amoeba/rpc/batch.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/replication/replicated_backend.hpp"

namespace amoeba::rpc {

namespace {
/// Metadata key of the legacy whole-volume reply-cache image, read once at
/// attach for migration and emptied once the reply stream subsumes it
/// (docs/PROTOCOL.md §8.4).
constexpr std::string_view kReplyFloorsKey = "reply-floors";

/// Serializes one completed reply in wire-independent form: everything a
/// re-send needs except the fields recomputed per transmission (dest,
/// opcode) or known from the persisted key (client, seq).
void encode_reply_body(const net::Message& reply, Writer& w) {
  w.u16(reply.header.flags);
  w.u16(static_cast<std::uint16_t>(reply.header.status));
  w.raw(reply.header.capability);
  for (const std::uint64_t p : reply.header.params) {
    w.u64(p);
  }
  w.bytes(reply.data);
}

[[nodiscard]] net::Message decode_reply_body(Reader& r, std::uint64_t client,
                                             std::uint64_t seq) {
  net::Message reply;
  reply.header.flags = r.u16();
  reply.header.status = static_cast<ErrorCode>(r.u16());
  r.raw(reply.header.capability);
  for (std::uint64_t& p : reply.header.params) {
    p = r.u64();
  }
  reply.data = r.bytes();
  reply.header.client = client;
  reply.header.seq = seq;
  return reply;
}
}  // namespace

Service::Service(net::Machine& machine, Port get_port, std::string name)
    : machine_(&machine), get_port_(get_port), name_(std::move(name)) {}

Service::~Service() { stop(); }

void Service::start(int workers) {
  if (!workers_.empty()) {
    throw UsageError("Service::start: already running");
  }
  if (workers < 1) {
    throw UsageError("Service::start: need at least one worker");
  }
  // Block until every worker has its GET registered, so a trans() issued
  // right after start() cannot race the registrations.
  std::latch ready(workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back(
        [this, &ready](std::stop_token st) { run(st, ready); });
  }
  ready.wait();
}

void Service::stop() {
  for (auto& w : workers_) {
    w.request_stop();
  }
  workers_.clear();  // jthread destructor joins
}

void Service::rebind(net::Machine& machine) {
  if (!workers_.empty()) {
    throw UsageError("Service::rebind: stop the service first");
  }
  machine_ = &machine;
}

Port Service::put_port() const {
  return machine_->fbox().listen_port(get_port_);
}

void Service::set_filter(std::shared_ptr<MessageFilter> filter) {
  const std::lock_guard lock(filter_mutex_);
  filter_ = std::move(filter);
}

void Service::set_allowed_signatures(std::vector<Port> published_signatures) {
  const std::lock_guard lock(filter_mutex_);
  allowed_signatures_ = std::move(published_signatures);
}

void Service::on(std::uint16_t opcode, Handler handler) {
  if (!workers_.empty()) {
    throw UsageError("Service::on: register handlers before start()");
  }
  if (handler == nullptr) {
    throw UsageError("Service::on: null handler");
  }
  if (opcode == kBatchOpcode) {
    throw UsageError("Service::on: kBatchOpcode is reserved for envelopes");
  }
  if (!handlers_.emplace(opcode, std::move(handler)).second) {
    throw UsageError("Service::on: duplicate handler for opcode");
  }
}

void Service::note_op(OpInfo info) {
  op_metrics_.emplace(info.opcode, std::make_unique<OpMetrics>());
  typed_ops_.push_back(std::move(info));
}

std::vector<Service::OpMetricsSnapshot> Service::op_metrics() const {
  std::vector<OpMetricsSnapshot> out;
  out.reserve(typed_ops_.size());
  for (const OpInfo& op : typed_ops_) {
    const auto it = op_metrics_.find(op.opcode);
    if (it == op_metrics_.end()) {
      continue;
    }
    const OpMetrics& m = *it->second;
    out.push_back({op.name, m.calls.load(std::memory_order_relaxed),
                   m.errors.load(std::memory_order_relaxed),
                   m.total_ns.load(std::memory_order_relaxed),
                   m.max_ns.load(std::memory_order_relaxed)});
  }
  return out;
}

// ------------------------------------------------------- at-most-once cache

Service::ReplyCacheStats Service::reply_cache_stats() const {
  ReplyCacheStats stats;
  for (const ReplyCacheStripe& stripe : reply_cache_stripes_) {
    const std::lock_guard lock(stripe.mutex);
    stats.duplicates_suppressed += stripe.counters.duplicates_suppressed;
    stats.replies_resent += stripe.counters.replies_resent;
    stats.evicted_entries += stripe.counters.evicted_entries;
    stats.evicted_clients += stripe.counters.evicted_clients;
    stats.clients += stripe.map.size();
    for (const auto& [key, entry] : stripe.map) {
      stats.entries += entry.replies.size();
    }
  }
  return stats;
}

void Service::set_reply_cache_limits(std::size_t window_per_client,
                                     std::size_t max_clients) {
  reply_cache_window_.store(window_per_client, std::memory_order_relaxed);
  reply_cache_max_clients_.store(max_clients, std::memory_order_relaxed);
}

void Service::flush_reply_cache() {
  for (ReplyCacheStripe& stripe : reply_cache_stripes_) {
    const std::lock_guard lock(stripe.mutex);
    for (const auto& [key, entry] : stripe.map) {
      stripe.counters.evicted_entries += entry.replies.size();
    }
    stripe.counters.evicted_clients += stripe.map.size();
    reply_cache_clients_.fetch_sub(stripe.map.size(),
                                   std::memory_order_relaxed);
    stripe.map.clear();
  }
  reply_cache_loaded_.store(0, std::memory_order_relaxed);
}

void Service::evict_reply_cache_client(const ClientKey& excluded,
                                       bool want_tombstones) {
  // Phase 1: global LRU scan, one stripe locked at a time (eviction is
  // the rare overflow path; the request path never holds two stripes).
  bool found = false;
  ClientKey victim_key{};
  std::uint64_t victim_used = 0;
  std::size_t victim_stripe = 0;
  for (std::size_t s = 0; s < kReplyCacheStripes; ++s) {
    const ReplyCacheStripe& stripe = reply_cache_stripes_[s];
    const std::lock_guard lock(stripe.mutex);
    for (const auto& [key, entry] : stripe.map) {
      if (key == excluded || entry.replies.empty() != want_tombstones) {
        continue;
      }
      if (!want_tombstones && entry.executing != 0) {
        continue;
      }
      if (!found || entry.last_used < victim_used) {
        found = true;
        victim_key = key;
        victim_used = entry.last_used;
        victim_stripe = s;
      }
    }
  }
  if (!found) {
    return;
  }
  // Phase 2: re-lock the victim's stripe and re-verify eligibility (it
  // may have been touched between the scans; a stale pick is skipped and
  // the next overflow retries).
  ReplyCacheStripe& stripe = reply_cache_stripes_[victim_stripe];
  const std::lock_guard lock(stripe.mutex);
  const auto it = stripe.map.find(victim_key);
  if (it == stripe.map.end() ||
      it->second.replies.empty() != want_tombstones) {
    return;
  }
  ClientEntry& victim = it->second;
  if (want_tombstones) {
    // Tombstone pool bound: header.client is a self-chosen field, so an
    // id-churning peer must not grow the map without limit (see
    // PROTOCOL.md §5.4 for what erasing the floor forgets).
    ++stripe.counters.evicted_clients;
    stripe.map.erase(it);
    reply_cache_clients_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  if (victim.executing != 0) {
    return;
  }
  // Demotion drops the cached replies -- the heavy part -- but KEEPS the
  // entry as a floor tombstone, so duplicates of the evicted transactions
  // still drop silently instead of re-executing (the at-most-once
  // guarantee survives eviction; see docs/PROTOCOL.md §5.4).
  stripe.counters.evicted_entries += victim.replies.size();
  ++stripe.counters.evicted_clients;
  victim.floor = std::max(victim.floor, victim.replies.rbegin()->first);
  victim.replies.clear();
  reply_cache_loaded_.fetch_sub(1, std::memory_order_relaxed);
}

Service::DupVerdict Service::claim_request(const net::Delivery& request,
                                           net::Message& cached) {
  const ClientKey key{request.src.value(), request.message.header.client};
  const std::uint64_t seq = request.message.header.seq;
  if (reply_cache_window_.load(std::memory_order_relaxed) == 0) {
    return DupVerdict::fresh;  // suppression disabled: execute everything
  }
  const std::size_t max_clients =
      reply_cache_max_clients_.load(std::memory_order_relaxed);
  bool evict_tombstone = false;
  bool evict_client = false;
  DupVerdict verdict = DupVerdict::fresh;
  {
    ReplyCacheStripe& stripe = stripe_for(key);
    const std::lock_guard lock(stripe.mutex);
    const auto [self, created] = stripe.map.try_emplace(key);
    ClientEntry& entry = self->second;
    entry.last_used =
        reply_cache_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (created) {
      const std::size_t clients =
          reply_cache_clients_.fetch_add(1, std::memory_order_relaxed) + 1;
      evict_tombstone =
          max_clients != 0 && clients > kTombstoneFactor * max_clients;
    }
    // Replies are consulted BEFORE the floor: a reply body restored from
    // the volume after a restart sits at or below the recovered floor,
    // and must be re-sent, not dropped.
    if (const auto it = entry.replies.find(seq); it != entry.replies.end()) {
      ++stripe.counters.duplicates_suppressed;
      if (!it->second.done) {
        verdict = DupVerdict::drop;  // original still executing on a worker
      } else {
        ++stripe.counters.replies_resent;
        cached = it->second.reply;
        verdict = DupVerdict::resend;
      }
    } else if (seq <= entry.floor) {
      // Evicted region (or a pre-restart transaction whose floor was
      // recovered from the volume and whose body was not): the original
      // may or may not have executed, so the only at-most-once-safe
      // answer is silence (the client times out).
      ++stripe.counters.duplicates_suppressed;
      verdict = DupVerdict::drop;
    } else {
      if (entry.replies.empty()) {
        const std::size_t loaded =
            reply_cache_loaded_.fetch_add(1, std::memory_order_relaxed) + 1;
        evict_client = max_clients != 0 && loaded > max_clients;
      }
      entry.replies.emplace(seq, CachedReply{});  // claimed: executing
      ++entry.executing;
    }
  }
  // Global-limit enforcement runs OUTSIDE the stripe lock (the victim may
  // live on any stripe; two stripe locks are never held together).
  if (evict_tombstone) {
    evict_reply_cache_client(key, /*want_tombstones=*/true);
  }
  if (evict_client) {
    evict_reply_cache_client(key, /*want_tombstones=*/false);
  }
  return verdict;
}

void Service::store_reply(const net::Delivery& request,
                          const net::Message& reply) {
  const ClientKey key{request.src.value(), request.message.header.client};
  const std::uint64_t seq = request.message.header.seq;
  bool published = false;
  {
    ReplyCacheStripe& stripe = stripe_for(key);
    const std::lock_guard lock(stripe.mutex);
    const auto cit = stripe.map.find(key);
    if (cit == stripe.map.end()) {
      return;  // flushed or evicted while the handler ran
    }
    auto& entry = cit->second;
    const auto rit = entry.replies.find(seq);
    if (rit == entry.replies.end()) {
      return;
    }
    if (!rit->second.done && entry.executing > 0) {
      --entry.executing;
    }
    rit->second.done = true;
    rit->second.reply = reply;
    published = true;
    // Per-client window: age out the oldest COMPLETED transactions (an
    // executing one blocks the sweep; the window may briefly overshoot).
    const std::size_t window =
        reply_cache_window_.load(std::memory_order_relaxed);
    while (entry.replies.size() > window &&
           entry.replies.begin()->second.done) {
      entry.floor = std::max(entry.floor, entry.replies.begin()->first);
      entry.replies.erase(entry.replies.begin());
      ++stripe.counters.evicted_entries;
    }
  }
  if (published) {
    persist_reply_body(key, seq, reply);  // outside the stripe lock
  }
}

// ------------------------------------------ durable restart (reply stream)

void Service::restore_reply_rows(const storage::ReplyRows& rows) {
  for (const auto& [id, row] : rows) {
    const ClientKey key{id.first, id.second};
    std::vector<std::pair<std::uint64_t, net::Message>> replies;
    bool malformed = false;
    for (const auto& [seq, body] : row.bodies) {
      Reader r(body);
      replies.emplace_back(seq, decode_reply_body(r, key.client, seq));
      malformed = malformed || !r.exhausted();
    }
    if (malformed) {
      continue;  // a row is restored whole or not at all
    }
    ReplyCacheStripe& stripe = stripe_for(key);
    const std::lock_guard lock(stripe.mutex);
    const auto [it, created] = stripe.map.try_emplace(key);
    ClientEntry& entry = it->second;
    entry.floor = std::max(entry.floor, row.floor);
    entry.last_used =
        reply_cache_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (created) {
      reply_cache_clients_.fetch_add(1, std::memory_order_relaxed);
    }
    const bool was_empty = entry.replies.empty();
    for (auto& [seq, reply] : replies) {
      entry.replies.insert_or_assign(
          seq, CachedReply{/*done=*/true, std::move(reply)});
    }
    if (was_empty && !entry.replies.empty()) {
      reply_cache_loaded_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Service::prune_reply_cache() {
  const std::size_t max_clients =
      reply_cache_max_clients_.load(std::memory_order_relaxed);
  if (max_clients == 0) {
    return;
  }
  // One LRU-ordered pass instead of one global scan per victim.
  std::vector<std::pair<std::uint64_t, ClientKey>> order;
  for (const ReplyCacheStripe& stripe : reply_cache_stripes_) {
    const std::lock_guard lock(stripe.mutex);
    for (const auto& [key, entry] : stripe.map) {
      order.emplace_back(entry.last_used, key);
    }
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  const auto over = [](const std::atomic<std::size_t>& count,
                       std::size_t bound) {
    return count.load(std::memory_order_relaxed) > bound;
  };
  for (const auto& [used, key] : order) {
    const bool demote = over(reply_cache_loaded_, max_clients);
    const bool erase =
        over(reply_cache_clients_, kTombstoneFactor * max_clients);
    if (!demote && !erase) {
      break;
    }
    ReplyCacheStripe& stripe = stripe_for(key);
    const std::lock_guard lock(stripe.mutex);
    const auto it = stripe.map.find(key);
    if (it == stripe.map.end() || it->second.executing != 0) {
      continue;
    }
    ClientEntry& entry = it->second;
    // The live policy's two steps: demote the LRU client to a floor-only
    // tombstone while too many hold replies, erase the LRU tombstone while
    // the table is over its tombstone bound.
    if (demote && !entry.replies.empty()) {
      stripe.counters.evicted_entries += entry.replies.size();
      ++stripe.counters.evicted_clients;
      entry.floor = std::max(entry.floor, entry.replies.rbegin()->first);
      entry.replies.clear();
      reply_cache_loaded_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (erase && entry.replies.empty()) {
      ++stripe.counters.evicted_clients;
      stripe.map.erase(it);
      reply_cache_clients_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

std::uint64_t Service::append_reply_record(const ClientKey& key,
                                           std::uint64_t seq,
                                           const Buffer* body) {
  const auto encode = [&](std::uint64_t lsn, Buffer& out) {
    if (body == nullptr) {
      storage::encode_reply_floor(key.src, key.client, seq, lsn, out);
    } else {
      storage::encode_reply_body(key.src, key.client, seq, *body, lsn, out);
    }
  };
  const std::size_t stream = reply_backend_->reply_stream();
  std::uint64_t ticket = 0;
  std::uint64_t snapshot_lsn = 0;  // nonzero: this append takes the snapshot
  std::uint64_t snapshot_bytes = 0;
  {
    const std::lock_guard lock(reply_append_mutex_);
    const std::uint64_t lsn = ++reply_lsn_;
    std::size_t framed = 0;
    if (reply_committer_ != nullptr) {
      // No flusher wake-up: a floor joins the cycle its handler's first
      // effect or its post-handler wait starts, and a body, which nobody
      // waits for, the next request's -- neither pays for a cycle alone.
      ticket = reply_committer_->enqueue_with(
          stream,
          [&](Buffer& staging) {
            const std::size_t before = staging.size();
            encode(lsn, staging);
            framed = staging.size() - before;
          },
          /*wake_flusher=*/false);
    } else {
      Buffer frame;
      encode(lsn, frame);
      reply_backend_->append_journal(stream, frame);
      framed = frame.size();
    }
    reply_stream_bytes_ += framed;
    if (reply_stream_bytes_ >= reply_snapshot_due_ && !reply_snapshotting_) {
      // An install drops only records at or below its LSN, on every
      // volume, so the scan, encode and install run outside the mutex:
      // other workers' appends go on meanwhile.
      reply_snapshotting_ = true;
      snapshot_lsn = reply_lsn_;
      snapshot_bytes = reply_stream_bytes_;
    }
  }
  if (snapshot_lsn != 0) {
    const std::size_t image = snapshot_reply_stream(snapshot_lsn);
    const std::lock_guard lock(reply_append_mutex_);
    reply_snapshotting_ = false;
    if (image != 0) {
      reply_stream_bytes_ -= snapshot_bytes;
      reply_snapshot_due_ =
          std::max<std::uint64_t>(image, kReplySnapshotMinBytes);
    }
  }
  return ticket;
}

std::size_t Service::snapshot_reply_stream(std::uint64_t lsn) {
  // Every record with an LSN up to `lsn` has already updated the
  // in-memory cache the scan below reads (the cache changes before its
  // record takes an LSN) -- possibly with later state, which only moves
  // floors up.  Records still queued in the committer replay as no-ops
  // under the snapshot's LSN.
  storage::ReplyRows rows;
  for (const ReplyCacheStripe& stripe : reply_cache_stripes_) {
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
          Writer w;
          encode_reply_body(it->second.reply, w);
          row.bodies.emplace(it->first, w.take());
        }
      }
      if (row.floor != 0) {
        rows.emplace(std::pair{key.src, key.client}, std::move(row));
      }
    }
  }
  const Buffer image = storage::encode_reply_snapshot(rows, lsn);
  try {
    reply_backend_->install_snapshot(reply_backend_->reply_stream(), image);
  } catch (const std::exception&) {
    return 0;
  }
  return image.size();
}

std::uint64_t Service::persist_reply_floor(const ClientKey& key,
                                           std::uint64_t seq) {
  if (reply_backend_ == nullptr) {
    return 0;
  }
  return append_reply_record(key, seq, nullptr);
}

void Service::persist_reply_body(const ClientKey& key, std::uint64_t seq,
                                 const net::Message& reply) {
  if (reply_backend_ == nullptr ||
      reply.data.size() > storage::kReplyBodyMaxBytes) {
    return;  // bulk replies stay floor-only
  }
  Writer body;
  encode_reply_body(reply, body);
  try {
    (void)append_reply_record(key, seq, &body.buffer());
  } catch (const std::exception&) {
    // Best effort (see the header): the duplicate drops via the floor.
  }
}

void Service::set_info_detail(std::function<std::string()> provider) {
  const std::lock_guard lock(info_detail_mutex_);
  info_detail_ = std::move(provider);
}

std::string Service::info_detail() const {
  std::function<std::string()> provider;
  {
    const std::lock_guard lock(info_detail_mutex_);
    provider = info_detail_;
  }
  return provider != nullptr ? provider() : std::string("role=standalone");
}

void Service::attach_durability(std::shared_ptr<storage::Backend> backend) {
  attach_durability(std::move(backend), nullptr);
}

void Service::attach_durability(
    std::shared_ptr<storage::Backend> backend,
    std::shared_ptr<storage::GroupCommitter> committer) {
  if (backend == nullptr) {
    return;
  }
  // A replicated volume makes this service a replication primary: publish
  // the role, peer count and shipping lag through std_info's detail line
  // (docs/PROTOCOL.md §9.5).  A group committer likewise publishes its
  // flush-pipeline counters (docs/PROTOCOL.md §8.5) -- under an async
  // backend these are the observable proof that submissions are riding the
  // ring (gc.sqe grows) rather than blocking the flusher.  The shared_ptrs
  // keep the decorator/committer alive as long as the provider.
  const auto replicated =
      std::dynamic_pointer_cast<storage::ReplicatedBackend>(backend);
  if (replicated != nullptr || committer != nullptr) {
    set_info_detail([replicated, committer] {
      std::string line;
      if (replicated != nullptr) {
        replicated->heartbeat();  // refresh acked floors before reporting
        const storage::ReplicatedBackend::Stats stats = replicated->stats();
        line = "role=primary mode=";
        line += to_string(stats.mode);
        line += " peers=" + std::to_string(stats.peers.size());
        line += " shipped=" + std::to_string(stats.shipped_lsn);
        for (const auto& peer : stats.peers) {
          line += " " + peer.name +
                  ".lag=" + std::to_string(stats.shipped_lsn - peer.acked_lsn);
        }
      } else {
        line = "role=standalone";
      }
      if (committer != nullptr) {
        const storage::GroupCommitter::Stats gc = committer->stats();
        line += " gc.groups=" + std::to_string(gc.groups);
        line += " gc.inflight=" + std::to_string(gc.inflight_cycles);
        line += " gc.sqe=" + std::to_string(gc.sqe_submitted);
        line += " gc.cqe=" + std::to_string(gc.cqe_completed);
        line += " gc.linger_us=" + std::to_string(gc.linger_us_current);
      }
      return line;
    });
  }
  // Recovery: the reply stream, plus the whole-volume image earlier
  // versions kept as metadata (max-merge makes the order irrelevant).
  std::uint64_t last_lsn = 0;
  storage::ReplyRows rows = storage::read_reply_stream(*backend, last_lsn);
  const Buffer legacy = backend->get_meta(kReplyFloorsKey);
  storage::merge_legacy_reply_image(legacy, rows);
  restore_reply_rows(rows);
  prune_reply_cache();
  const std::lock_guard lock(reply_append_mutex_);
  reply_lsn_ = last_lsn;
  reply_backend_ = std::move(backend);
  reply_committer_ = std::move(committer);
  if (!legacy.empty()) {
    // Migration: fold the legacy image into a stream snapshot, and only
    // once that is durable empty the blob (a crash in between leaves both,
    // which max-merge reads the same).
    if (snapshot_reply_stream(reply_lsn_) == 0) {
      throw UsageError("Service: cannot snapshot the migrated reply cache");
    }
    reply_backend_->put_meta(kReplyFloorsKey, {});
  }
}

net::Message Service::handle(const net::Delivery& request) {
  // The table is frozen once workers run (on() rejects late registration),
  // so this lookup is lock-free and race-free.
  const auto it = handlers_.find(request.message.header.opcode);
  if (it == handlers_.end()) {
    return net::make_reply(request.message, ErrorCode::no_such_operation);
  }
  return it->second(request);
}

net::Message Service::handle_one(const net::Delivery& request) {
  // Per-op metrics: the map is frozen at start(), so the lookup is
  // lock-free; only typed ops (registered through note_op) are timed.
  OpMetrics* metrics = nullptr;
  if (const auto it = op_metrics_.find(request.message.header.opcode);
      it != op_metrics_.end()) {
    metrics = it->second.get();
  }
  const auto started = metrics != nullptr
                           ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  net::Message reply;
  try {
    reply = handle(request);
  } catch (const std::exception&) {
    // A handler failure (bad_alloc on an oversized request, a violated
    // precondition) must not take the whole service process down; the
    // offending client gets the invariant-failure status instead.
    reply = net::make_reply(request.message, ErrorCode::internal);
  }
  if (metrics != nullptr) {
    // Nanoseconds: a cached read runs well under a microsecond, and a
    // per-call microsecond truncation would floor its mean to 0 or 1.
    const auto elapsed_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
    metrics->calls.fetch_add(1, std::memory_order_relaxed);
    if (reply.header.status != ErrorCode::ok) {
      metrics->errors.fetch_add(1, std::memory_order_relaxed);
    }
    metrics->total_ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
    std::uint64_t seen = metrics->max_ns.load(std::memory_order_relaxed);
    while (elapsed_ns > seen &&
           !metrics->max_ns.compare_exchange_weak(
               seen, elapsed_ns, std::memory_order_relaxed)) {
    }
  }
  return reply;
}

net::Message Service::handle_batch(const net::Delivery& request) {
  auto subs = decode_batch_request(request.message.data);
  if (!subs.has_value()) {
    return net::make_reply(request.message, ErrorCode::invalid_argument);
  }
  batched_requests_.fetch_add(subs->size(), std::memory_order_relaxed);
  std::vector<BatchReply> replies(subs->size());
  // Entries run in order on this worker, inside the envelope's request
  // scope: their durability waits all settle once, after the last entry.
  for (std::size_t i = 0; i < subs->size(); ++i) {
    BatchRequest& sub = (*subs)[i];
    net::Delivery sub_request;
    sub_request.src = request.src;
    sub_request.message.header.dest = request.message.header.dest;
    sub_request.message.header.opcode = sub.opcode;
    sub_request.message.header.signature = request.message.header.signature;
    sub_request.message.header.capability = sub.capability;
    sub_request.message.header.params = sub.params;
    sub_request.message.data = std::move(sub.data);
    net::Message sub_reply;
    if (sub.opcode == kBatchOpcode) {
      // No nested envelopes: unbounded recursion for no amortization win.
      sub_reply =
          net::make_reply(sub_request.message, ErrorCode::invalid_argument);
    } else {
      sub_reply = handle_one(sub_request);
    }
    replies[i] = BatchReply{sub_reply.header.status,
                            sub_reply.header.capability,
                            sub_reply.header.params,
                            std::move(sub_reply.data)};
  }
  net::Message reply = net::make_reply(request.message, ErrorCode::ok);
  reply.header.flags |= net::kFlagBatch;
  reply.data = encode_batch(replies);
  return reply;
}

void Service::run(std::stop_token stop, std::latch& ready) {
  // GET(G): the registration lives on this worker's stack, so a stopping
  // worker withdraws its F-box registration on exit.
  net::Receiver receiver = machine_->listen(get_port_);
  ready.count_down();
  while (!stop.stop_requested()) {
    auto delivery = receiver.receive(stop);
    if (!delivery.has_value()) {
      break;  // stop requested or mailbox closed
    }
    std::shared_ptr<MessageFilter> filter;
    std::vector<Port> allowed_signatures;
    {
      const std::lock_guard lock(filter_mutex_);
      filter = filter_;
      allowed_signatures = allowed_signatures_;
    }
    net::Message reply;
    bool executed = true;      // false: answered without running a handler
    bool cache_reply = false;  // true: claimed fresh, publish after handling
    // Every durability wait of the claim and the handler -- floor, effects,
    // each envelope entry's -- is recorded here and settled once below.
    storage::RequestScope durability;
    if (!allowed_signatures.empty() &&
        std::find(allowed_signatures.begin(), allowed_signatures.end(),
                  delivery->message.header.signature) ==
            allowed_signatures.end()) {
      // Sender authentication (§2.2): only the true owner of S can make
      // the published F(S) appear here -- his F-box computes it from the
      // secret; an intruder submitting the observed F(S) ends up with
      // F(F(S)) on the wire.
      reply = net::make_reply(delivery->message, ErrorCode::permission_denied);
    } else if (filter != nullptr &&
               !filter->incoming(delivery->message, delivery->src)) {
      reply = net::make_reply(delivery->message, ErrorCode::unsealing_failed);
    } else {
      // Duplicate suppression runs after the signature and filter gates:
      // a frame replayed from the wrong machine can neither poison nor
      // read the cache (and the cache is keyed by the stamped source
      // machine on top of that).
      // seq 0 is malformed under the spec (sequences start at 1); such a
      // frame is served WITHOUT at-most-once semantics rather than
      // swallowed by the floor check.
      const bool at_most_once =
          (delivery->message.header.flags & net::kFlagAtMostOnce) != 0 &&
          delivery->message.header.client != 0 &&
          delivery->message.header.seq != 0;
      if (at_most_once) {
        switch (claim_request(*delivery, reply)) {
          case DupVerdict::drop:
            continue;  // executing elsewhere or evicted: say nothing
          case DupVerdict::resend:
            executed = false;  // cached reply already copied into `reply`
            break;
          case DupVerdict::fresh:
            cache_reply = true;
            // Write-ahead for the suppression state: the floor record is
            // enqueued BEFORE the handler can enqueue any effect, and an
            // effect never reaches the volume ahead of the queue (a shard
            // snapshot drains it first), so no crash image holds an effect
            // without its floor.
            try {
              const std::uint64_t floor_ticket = persist_reply_floor(
                  ClientKey{delivery->src.value(),
                            delivery->message.header.client},
                  delivery->message.header.seq);
              if (floor_ticket != 0) {
                reply_committer_->wait_durable(floor_ticket);  // deferred
              }
            } catch (const std::exception&) {
              // A synchronous volume refused the floor: the operation
              // must not execute; the client hears the truth.
              reply = net::make_reply(delivery->message, ErrorCode::internal);
              executed = false;
            }
            break;
        }
      }
      if (executed) {
        reply = delivery->message.header.opcode == kBatchOpcode
                    ? handle_batch(*delivery)
                    : handle_one(*delivery);
      }
      // The request's one durability wait (§8.4): no reply leaves before
      // its floor and every effect its handler -- or any entry of its
      // envelope -- recorded are durable.  A volume that refuses
      // durability (failed flush, fenced deposed primary, §9.4) turns the
      // whole reply, envelope included, into the truth.
      try {
        durability.settle();
      } catch (const std::exception&) {
        reply = net::make_reply(delivery->message, ErrorCode::internal);
      }
      if (cache_reply) {
        // Cached in pre-dest, pre-filter form; a re-send recomputes the
        // destination from the duplicate and re-seals per transmission.
        store_reply(*delivery, reply);
      }
    }
    if (executed) {
      requests_served_.fetch_add(1, std::memory_order_relaxed);
    }
    const Port reply_port = delivery->message.header.reply;
    if (reply_port.is_null()) {
      continue;  // one-way request
    }
    reply.header.dest = reply_port;
    reply.header.opcode = delivery->message.header.opcode;
    if (filter != nullptr) {
      filter->outgoing(reply, delivery->src);
    }
    // Reply straight to the stamped source machine; no locate needed.
    machine_->transmit(std::move(reply), delivery->src);
  }
}

}  // namespace amoeba::rpc
