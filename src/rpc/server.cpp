#include "amoeba/rpc/server.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "amoeba/common/error.hpp"
#include "amoeba/rpc/batch.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/replication/replicated_backend.hpp"

namespace amoeba::rpc {

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
    line += " gc.linger_timeouts=" + std::to_string(gc.linger_timeouts);
    line += " gc.checkpoints=" + std::to_string(gc.checkpoints);
    line += " gc.checkpoint_us_max=" + std::to_string(gc.checkpoint_us_max);
    line += " gc.checkpoint_retries=" + std::to_string(gc.checkpoint_retries);
    line += " gc.frame_bytes=" + std::to_string(gc.frame_bytes);
    line += " gc.pad_bytes=" + std::to_string(gc.pad_bytes);
    const ReplyCacheStats reply = reply_cache_stats();
    line += " reply.floorless_claims=" + std::to_string(reply.floorless_claims);
    line += " reply.barrier_parks=" + std::to_string(reply.barrier_parks);
    line += " reply.eviction_visits=" + std::to_string(reply.eviction_visits);
    return line;
  });
  reply_cache_.attach(std::move(committer));
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
    std::optional<ReplyCache::Floor> floor;  // a fresh claim's, if durable
    storage::RequestScope::Tickets tickets;
    storage::RequestScope::Tickets reads;
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
          switch (reply_cache_.claim(*delivery, reply)) {
            case ReplyCache::Verdict::drop:
              continue;  // executing elsewhere or evicted: say nothing
            case ReplyCache::Verdict::resend:
              executed = false;  // cached reply already copied into `reply`
              break;
            case ReplyCache::Verdict::restarted:
              executed = false;
              reply = net::make_reply(delivery->message, ErrorCode::restarted);
              break;
            case ReplyCache::Verdict::fresh:
              cache_reply = true;
              if (reply_cache_.committer() != nullptr) {
                floor.emplace(reply_cache_, *delivery, durability);
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
      reads = durability.take_reads();
    }
    if (executed) {
      requests_served_.fetch_add(1, std::memory_order_relaxed);
    }
    const std::uint64_t floor_ticket = floor ? floor->ticket() : 0;
    // The request's one durability wait (§8.4) is the replier's: no reply
    // leaves before its floor and every effect its handler -- or any entry
    // of its envelope -- recorded are durable, nor before the newest record
    // of every object it read.  This worker moves on.
    if (reply_cache_.committer() != nullptr) {
      read_barrier(tickets, reads, floor_ticket);
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
                           const storage::RequestScope::Tickets& reads,
                           std::uint64_t floor_ticket) {
  // The newest record of every object the handler read; a slot's ticket
  // was stored under the shard lock the read took.  The reply carries the
  // incarnation, and an unstamped request's floor was enqueued at claim;
  // no handler reads a reply body, so none is waited for.  (In ack-one
  // mode a durable ticket is also on a backup.)
  storage::GroupCommitter* const committer = reply_cache_.committer();
  std::uint64_t barrier =
      std::max(reply_cache_.incarnation_ticket(), floor_ticket);
  for (const storage::RequestScope::Pending& read : reads) {
    if (read.committer == committer) {
      barrier = std::max(barrier, read.ticket);
    } else {
      tickets.push_back(read);  // another volume's: waited on like an effect
    }
  }
  const auto own = std::find_if(
      tickets.begin(), tickets.end(),
      [&](const storage::RequestScope::Pending& p) {
        return p.committer == committer;
      });
  if (own != tickets.end() && own->ticket != floor_ticket) {
    // It journaled: its own effects are the wait, and a read of an object
    // written after them raises it.
    own->ticket = std::max(own->ticket, barrier);
    return;
  }
  if (committer->is_durable(barrier)) {
    if (own != tickets.end()) {
      tickets.erase(own);  // its floor is durable too
    }
    return;
  }
  reply_cache_.count_barrier_park();
  if (own != tickets.end()) {
    own->ticket = barrier;
  } else {
    tickets.push_back({committer, barrier});
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
    reply_cache_.publish(request, reply, journal_body);
  }
  const Port reply_port = request.message.header.reply;
  if (reply_port.is_null()) {
    return;  // one-way request
  }
  reply.header.dest = reply_port;
  reply.header.opcode = request.message.header.opcode;
  reply.header.incarnation = reply_cache_.incarnation();
  if (filter != nullptr) {
    filter->outgoing(reply, request.src);
  }
  // Reply straight to the stamped source machine; no locate needed.
  machine_->transmit(std::move(reply), request.src);
}

}  // namespace amoeba::rpc
