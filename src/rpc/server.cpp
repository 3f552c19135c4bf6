#include "amoeba/rpc/server.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
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

/// A fresh claim's reply_floor record.  enqueue() runs at claim for an
/// unstamped request, and otherwise from the request scope, just before
/// the request's first effect on the reply committer or its first
/// outgoing call -- or never, for a request that does neither.
class Service::ReplyFloor final : public storage::RequestScope::Deferred {
 public:
  ReplyFloor(Service& service, ClientKey key, std::uint64_t seq)
      : service_(service), key_(key), seq_(seq) {}

  void enqueue() override {
    const auto encode = [&](std::uint64_t lsn, Buffer& staging) {
      storage::encode_reply_floor(key_.src, key_.client, seq_, lsn, staging);
    };
    ticket_ = service_.append_reply_record(encode);
    service_.reply_committer_->wait_durable(ticket_);  // recorded
  }

  /// The floor's commit ticket; 0 until it is enqueued.
  [[nodiscard]] std::uint64_t ticket() const { return ticket_; }

 private:
  Service& service_;
  ClientKey key_;
  std::uint64_t seq_;
  std::uint64_t ticket_ = 0;
};

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
  replier_ = std::jthread([this](std::stop_token st) { reply_loop(st); });
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
  // No worker parks anything now; the replier sends what is parked, each
  // reply once durable, and then exits.
  if (replier_.joinable()) {
    replier_.request_stop();
    replier_.join();
  }
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
  stats.floorless_claims = floorless_claims_.load(std::memory_order_relaxed);
  stats.barrier_parks = barrier_parks_.load(std::memory_order_relaxed);
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
    } else if (const std::uint64_t stamp =
                   request.message.header.incarnation;
               stamp != 0 && stamp != incarnation_) {
      // Addressed to another boot of this server, which may have run it
      // and left no trace here: running it now could run it twice.
      verdict = DupVerdict::restarted;
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
                          const net::Message& reply, bool journal_body) {
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
  if (published && journal_body) {
    persist_reply_body(key, seq, reply);  // outside the lock
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

template <typename EncodeFn>
std::uint64_t Service::append_reply_record(EncodeFn&& encode) {
  const std::lock_guard lock(reply_append_mutex_);
  const std::uint64_t lsn = ++reply_lsn_;
  // No flusher wake-up: a floor joins the cycle its handler's first
  // effect or its post-handler wait starts, a body, which nobody waits
  // for, the next request's, and the incarnation the first cycle any
  // request starts -- none pays for a cycle alone.
  return reply_committer_->enqueue_with(
      reply_committer_->backend()->reply_stream(),
      [&](Buffer& staging) { encode(lsn, staging); },
      /*wake_flusher=*/false);
}

void Service::image_reply_stream() {
  // Under the append lock, so the image's LSN covers exactly the records
  // queued before it, and every record above it is queued after it.  The
  // cache changes before a record takes its LSN, so the scan holds every
  // record at or below that LSN -- possibly with later state, which only
  // moves floors up.
  const std::lock_guard lock(reply_append_mutex_);
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
  reply_committer_->install_snapshot(
      reply_committer_->backend()->reply_stream(),
      storage::encode_reply_snapshot(rows, reply_lsn_, incarnation_));
}

void Service::persist_reply_body(const ClientKey& key, std::uint64_t seq,
                                 const net::Message& reply) {
  if (reply_committer_ == nullptr ||
      reply.data.size() > storage::kReplyBodyMaxBytes) {
    return;  // bulk replies stay floor-only
  }
  Writer body;
  encode_reply_body(reply, body);
  (void)append_reply_record([&](std::uint64_t lsn, Buffer& staging) {
    storage::encode_reply_body(key.src, key.client, seq, body.buffer(), lsn,
                               staging);
  });
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

void Service::attach_durability(
    std::shared_ptr<storage::GroupCommitter> committer) {
  if (committer == nullptr) {
    return;
  }
  // A replicated volume makes this service a replication primary: publish
  // the role, peer count and shipping lag through std_info's detail line
  // (docs/PROTOCOL.md §9.5), after the committer's flush counters
  // (docs/PROTOCOL.md §8.5).  The shared_ptrs keep the decorator and the
  // committer alive as long as the provider.
  const auto replicated = std::dynamic_pointer_cast<storage::ReplicatedBackend>(
      committer->backend());
  set_info_detail([this, replicated, committer] {
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
    const storage::GroupCommitter::Stats gc = committer->stats();
    line += " gc.groups=" + std::to_string(gc.groups);
    line += " gc.records=" + std::to_string(gc.records);
    line += " gc.installs=" + std::to_string(gc.installs);
    line += " gc.max_group=" + std::to_string(gc.max_group);
    line += " gc.linger_us=" + std::to_string(gc.linger_us_current);
    line += " gc.rewrites=" + std::to_string(gc.checkpoints);
    line += " gc.rewrite_us_max=" + std::to_string(gc.checkpoint_us_max);
    line += " reply.floorless_claims=" +
            std::to_string(floorless_claims_.load(std::memory_order_relaxed));
    line += " reply.barrier_parks=" +
            std::to_string(barrier_parks_.load(std::memory_order_relaxed));
    return line;
  });
  std::uint64_t last_lsn = 0;
  std::uint64_t recovered_incarnation = 0;
  restore_reply_rows(storage::read_reply_stream(
      *committer->backend(), last_lsn, &recovered_incarnation));
  prune_reply_cache();
  {
    const std::lock_guard lock(reply_append_mutex_);
    reply_lsn_ = last_lsn;
    reply_committer_ = std::move(committer);
  }
  // A promoted backup's stream holds its primary's incarnations too, so
  // its server draws a number above theirs.  The record starts no cycle:
  // it rides the first one, and since every reply waits at least for the
  // newest ticket issued (the read barrier), none carries the number
  // before it is durable.
  incarnation_ = recovered_incarnation + 1;
  (void)append_reply_record([&](std::uint64_t lsn, Buffer& staging) {
    storage::encode_reply_incarnation(incarnation_, lsn, staging);
  });
  reply_imager_ = reply_committer_->add_imager(
      {reply_committer_->backend()->reply_stream()},
      [this] {
        image_reply_stream();  // its locks are never held across a wait
        return true;
      });
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
    std::optional<ReplyFloor> floor;  // a fresh claim's, on a durable service
    storage::RequestScope::Tickets tickets;
    {
      // Every durability wait of the claim and the handler -- floor,
      // effects, each envelope entry's -- is recorded here, and waited on
      // once, by the replier (below).  Closing the scope drops a deferred
      // floor that nothing enqueued.
      storage::RequestScope durability;
      if (!allowed_signatures.empty() &&
          std::find(allowed_signatures.begin(), allowed_signatures.end(),
                    delivery->message.header.signature) ==
              allowed_signatures.end()) {
        // Sender authentication (§2.2): only the true owner of S can make
        // the published F(S) appear here -- his F-box computes it from the
        // secret; an intruder submitting the observed F(S) ends up with
        // F(F(S)) on the wire.
        reply =
            net::make_reply(delivery->message, ErrorCode::permission_denied);
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
        const net::Header& header = delivery->message.header;
        const bool at_most_once = (header.flags & net::kFlagAtMostOnce) != 0 &&
                                  header.client != 0 && header.seq != 0;
        if (at_most_once) {
          switch (claim_request(*delivery, reply)) {
            case DupVerdict::drop:
              continue;  // executing elsewhere or evicted: say nothing
            case DupVerdict::resend:
              executed = false;  // cached reply already copied into `reply`
              break;
            case DupVerdict::restarted:
              executed = false;
              reply = net::make_reply(delivery->message, ErrorCode::restarted);
              break;
            case DupVerdict::fresh:
              cache_reply = true;
              if (reply_committer_ != nullptr) {
                // Write-ahead for the suppression state: the floor takes a
                // smaller ticket than any effect of this request, and
                // nothing reaches the volume out of queue order, so no
                // crash image holds an effect without its floor.  An
                // unstamped request may be a pre-restart duplicate, so its
                // floor cannot wait to see whether the handler writes.
                floor.emplace(*this,
                              ClientKey{delivery->src.value(), header.client},
                              header.seq);
                if (header.incarnation == 0) {
                  floor->enqueue();
                } else {
                  durability.defer_record(*reply_committer_, *floor);
                }
              }
              break;
          }
        }
        if (executed) {
          reply = header.opcode == kBatchOpcode ? handle_batch(*delivery)
                                                : handle_one(*delivery);
        }
      }
      tickets = durability.take_pending();
    }
    if (executed) {
      requests_served_.fetch_add(1, std::memory_order_relaxed);
    }
    const std::uint64_t floor_ticket = floor ? floor->ticket() : 0;
    if (floor && floor_ticket == 0) {
      floorless_claims_.fetch_add(1, std::memory_order_relaxed);
    }
    // The request's one durability wait (§8.4) is the replier's: no reply
    // leaves before its floor and every effect its handler -- or any entry
    // of its envelope -- recorded are durable, nor before every effect it
    // could have read.  This worker moves on.
    if (reply_committer_ != nullptr) {
      read_barrier(tickets, floor_ticket);
    }
    if (tickets.empty()) {
      send_reply(*delivery, std::move(reply), cache_reply, floor_ticket != 0,
                 filter.get());
      continue;
    }
    delivery->message.data = {};
    {
      const std::lock_guard lock(parked_mutex_);
      parked_.push_back(ParkedReply{std::move(*delivery), std::move(reply),
                                    cache_reply, floor_ticket != 0,
                                    std::move(filter), std::move(tickets)});
    }
    parked_cv_.notify_one();
  }
}

void Service::read_barrier(storage::RequestScope::Tickets& tickets,
                           std::uint64_t floor_ticket) {
  const auto own = std::find_if(
      tickets.begin(), tickets.end(),
      [&](const storage::RequestScope::Pending& p) {
        return p.committer == reply_committer_.get();
      });
  if (own != tickets.end() && own->ticket != floor_ticket) {
    return;  // it journaled: its own effects are the wait
  }
  // Read after the handler, not before: an effect it saw was enqueued
  // under the shard lock it took, so this ticket covers it.  (In ack-one
  // mode a durable ticket is also on a backup.)
  const std::uint64_t barrier = reply_committer_->issued();
  if (reply_committer_->is_durable(barrier)) {
    if (own != tickets.end()) {
      tickets.erase(own);  // its floor is durable too
    }
    return;
  }
  barrier_parks_.fetch_add(1, std::memory_order_relaxed);
  if (own != tickets.end()) {
    own->ticket = barrier;
  } else {
    tickets.push_back({reply_committer_.get(), barrier});
  }
}

void Service::reply_loop(std::stop_token stop) {
  std::vector<ParkedReply> batch;
  for (;;) {
    {
      std::unique_lock lock(parked_mutex_);
      // Returns false only once stopped with nothing parked: stop() joins
      // the workers first, so every parked reply is sent before exit.
      if (!parked_cv_.wait(lock, stop, [&] { return !parked_.empty(); })) {
        return;
      }
      batch.swap(parked_);
    }
    // Ticket order: a cycle releases every ticket at or below its own, so
    // one wait here releases the replies queued behind it as well.
    // (Tickets of different committers do not compare; any order is
    // correct for them.)
    const auto key = [](const ParkedReply& p) {
      std::uint64_t ticket = 0;
      for (const storage::RequestScope::Pending& t : p.tickets) {
        ticket = std::max(ticket, t.ticket);
      }
      return ticket;
    };
    std::stable_sort(batch.begin(), batch.end(),
                     [&](const ParkedReply& a, const ParkedReply& b) {
                       return key(a) < key(b);
                     });
    for (ParkedReply& parked : batch) {
      // A volume that refuses durability (failed flush, fenced deposed
      // primary, §9.4) turns the whole reply, envelope included, into the
      // truth -- and that is what the reply cache keeps.
      try {
        storage::RequestScope::settle(parked.tickets);
      } catch (const std::exception&) {
        parked.reply =
            net::make_reply(parked.request.message, ErrorCode::internal);
      }
      send_reply(parked.request, std::move(parked.reply), parked.cache_reply,
                 parked.journal_body, parked.filter.get());
    }
    batch.clear();
  }
}

void Service::send_reply(const net::Delivery& request, net::Message reply,
                         bool cache_reply, bool journal_body,
                         MessageFilter* filter) {
  if (cache_reply) {
    // Cached in pre-dest, pre-filter form; a re-send recomputes the
    // destination from the duplicate and re-seals per transmission.
    store_reply(request, reply, journal_body);
  }
  const Port reply_port = request.message.header.reply;
  if (reply_port.is_null()) {
    return;  // one-way request
  }
  reply.header.dest = reply_port;
  reply.header.opcode = request.message.header.opcode;
  reply.header.incarnation = incarnation_;
  if (filter != nullptr) {
    filter->outgoing(reply, request.src);
  }
  // Reply straight to the stamped source machine; no locate needed.
  machine_->transmit(std::move(reply), request.src);
}

}  // namespace amoeba::rpc
