// Server-side service loop.
//
// A service chooses a secret get-port G, does GET(G), and serves requests
// arriving on P = F(G) (§2.2).  Concrete servers (file, directory, bank,
// ...) subclass Service and register an opcode handler table with on();
// the loop takes care of receiving, dispatching, replying to the frame's
// stamped source (including the automatic no_such_operation reply for
// opcodes the service does not implement), and clean shutdown.  A subclass
// with needs the table cannot express may instead override handle()
// wholesale.  Multiple worker threads may GET on the same port; the
// network delivers round-robin, exactly like multiple server processes
// comprising one service in Amoeba.
//
// Batch envelopes (rpc/batch.hpp): a frame carrying kBatchOpcode is
// unpacked here and each sub-request dispatched through the same handle()
// path, producing one batched reply with per-entry status.  Envelope-level
// checks (signature, filter) run once per frame, and the entries run in
// order on the receiving worker.
//
// At-most-once duplicate suppression (docs/PROTOCOL.md §5) is the
// service's rpc::ReplyCache (rpc/reply_cache.hpp), claimed after the
// signature and filter gates.
//
// Claim and handler run inside a storage::RequestScope, which turns every
// durability wait (the floor's, each effect's, each envelope entry's) into
// a recorded ticket.  The scope also records what the handler READ: each
// validation records the ticket of its object's newest journal record
// (stored in the table slot under the shard lock the reader takes), and a
// handler that reads state no slot attributes records the committer's
// newest effect (GroupCommitter::note_unattributed_read).  A request that
// recorded no effect takes the READ BARRIER: the newest of its read
// tickets, this boot's incarnation record (every reply carries the
// number) and the request's own floor (enqueued at claim when unstamped).
// It waits for that ticket only when it is not yet durable, so a read of
// an object no pending write touches answers at once however busy the
// volume is.  Reply bodies are state no handler reads, so a read never
// waits for one.  The worker does
// not wait: it parks the tickets with the reply on the service's one
// REPLIER thread and goes back to receive().  The replier waits on the
// parked tickets in ticket order -- its wait is what makes the committer
// flush -- then caches, seals and sends each reply, so one flush covers
// every request the workers handled while the previous one was being
// written (flush pipelining).  A request with nothing to wait for replies
// from its worker; a handler's outgoing call settles first, on the worker
// (rpc::Transport).  No reply is sent before the state it reports is
// durable, so after a crash+restart a duplicate of any pre-crash
// transaction is DROPPED, re-answered, or refused as `restarted` (an
// operation may be lost to the torn tail, but never runs twice); a
// duplicate of a parked request is dropped like any still-executing one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "amoeba/net/network.hpp"
#include "amoeba/rpc/filter.hpp"
#include "amoeba/rpc/reply_cache.hpp"
#include "amoeba/storage/group_commit.hpp"

namespace amoeba::rpc {

/// Runtime metadata of one typed operation descriptor registered on a
/// service -- what the generic std_ops / rights-matrix property tests
/// iterate.  Mirrors the fields of rpc::Op (rpc/op.hpp).
struct OpInfo {
  std::uint16_t opcode = 0;
  std::string name;
  Rights required;            // rights the header capability must grant
  Rights data_rights;         // rights demanded of data-field capabilities
  bool object = true;         // false: factory op, no header capability
};

class Service {
 public:
  /// Binds the service to a machine and its secret get-port.  The service
  /// does not listen until start() is called.
  Service(net::Machine& machine, Port get_port, std::string name);
  /// Joins the workers and the replier.  Concrete subclasses must call
  /// stop() in their own destructor: by the time this base destructor
  /// runs, the subclass state (stores, tables, the committers parked
  /// replies wait on) is already gone and the vtable has been rewound, so
  /// a still-running worker or replier would race both.
  virtual ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Spawns `workers` listener threads plus one replier thread, which
  /// sends the replies that wait for durability (see the header comment).
  /// Idempotent start/stop pairs.  Blocks until every worker's GET is
  /// registered, so a request issued right after start() cannot race the
  /// registrations.
  void start(int workers = 1);

  /// Stops all workers and waits for them to exit (jthread join), then
  /// lets the replier send every parked reply -- each still waits for its
  /// durability -- and joins it.  Safe to call repeatedly; in-flight
  /// handlers finish before their worker exits.  Called from a subclass
  /// destructor, it drains the replier before the subclass state (the
  /// committers the parked tickets name) is destroyed.
  void stop();

  /// Moves a stopped service to another machine (process migration for the
  /// locate experiments).  Throws UsageError if the service is running.
  /// The reply cache survives the move (a client's retransmit after the
  /// migration is still suppressed).
  void rebind(net::Machine& machine);

  /// The public put-port clients use: P = F(G) under F-boxes, G otherwise.
  /// Constant after construction; safe from any thread.
  [[nodiscard]] Port put_port() const;

  /// Installs a message filter (capability sealing in F-box-less mode);
  /// applied to requests on arrival and replies on departure -- including
  /// replies re-sent from the reply cache, which are re-sealed per
  /// transmission.  Thread-safe; filters must be internally synchronized
  /// (workers run them concurrently).
  void set_filter(std::shared_ptr<MessageFilter> filter);

  /// Restricts the service to signed requests (§2.2 digital signatures):
  /// "each client chooses a random signature, S, and publishes F(S)".
  /// The service accepts a request only when its (F-box transformed)
  /// signature field matches one of the published values; everything else
  /// is refused with permission_denied.  An empty set (the default)
  /// disables the check.  Only meaningful under F-boxes -- without them a
  /// signature is replayable and §2.4's source addresses take over.
  /// Thread-safe; applies from the next delivered frame.
  void set_allowed_signatures(std::vector<Port> published_signatures);

  // ---- at-most-once reply cache ---------------------------------------

  /// Counters and occupancy of the duplicate-suppression table.  Safe to
  /// call while workers run.
  using ReplyCacheStats = ReplyCache::Stats;
  [[nodiscard]] ReplyCacheStats reply_cache_stats() const {
    return reply_cache_.stats();
  }

  /// Bounds the duplicate-suppression table: at most `window_per_client`
  /// cached replies per client (oldest completed entries evicted first)
  /// and at most `max_clients` clients with live cached replies (least
  /// recently used demoted to a floor-only tombstone; 0 = unbounded).
  /// Every at-most-once request is suppressed, so a window of 0 throws
  /// UsageError.  Eviction never re-executes: a duplicate of an evicted
  /// transaction is dropped silently, so at-most-once degrades to "at most
  /// once + client timeout", never "twice" -- but windows should
  /// comfortably exceed the deepest client pipeline so replies can still
  /// be RE-SENT (see docs/PROTOCOL.md §5.4 for the memory tradeoff).
  /// Thread-safe.
  void set_reply_cache_limits(std::size_t window_per_client,
                              std::size_t max_clients) {
    reply_cache_.set_limits(window_per_client, max_clients);
  }

  /// Drops every cached reply and client entry (the eviction hook tests
  /// use to force the cold path).  In-flight requests are unaffected
  /// beyond losing their suppression record.  Thread-safe.
  void flush_reply_cache() { reply_cache_.flush(); }

  // ---- durable restart support ----------------------------------------

  /// Wires the reply cache to the reply stream of the volume `committer`
  /// writes (ReplyCache::attach, docs/PROTOCOL.md §8.4) and reports the
  /// committer in std_info's detail line.  Every floor and body record
  /// rides the flush cycles of the handlers' own effects, and the replier
  /// waits once per request, before replying.  Null committer: no-op.
  /// Call from the server constructor, before start().
  void attach_durability(std::shared_ptr<storage::GroupCommitter> committer);

  /// This boot's incarnation number; 0 for a service without a volume.
  /// Constant once attach_durability() returned.
  [[nodiscard]] std::uint64_t incarnation() const {
    return reply_cache_.incarnation();
  }

  // ---- per-operation metrics (ROADMAP follow-up from PR 3) -------------

  /// Latency/error counters of one typed operation, keyed by
  /// OpInfo::name.  Readable remotely through std_info with the detail
  /// flag set (rpc/typed.hpp).
  struct OpMetricsSnapshot {
    std::string name;
    std::uint64_t calls = 0;      // handler executions (cache resends excluded)
    std::uint64_t errors = 0;     // replies with status != ok
    std::uint64_t total_ns = 0;   // summed handler latency
    std::uint64_t max_ns = 0;     // worst single handler latency
  };
  /// Snapshot in op-registration order.  Lock-free reads of relaxed
  /// atomics; safe while workers run.
  [[nodiscard]] std::vector<OpMetricsSnapshot> op_metrics() const;

  /// Installs the provider for the service's deployment line in detailed
  /// std_info replies (replication role, peers, lag).  Unset, info_detail()
  /// reports "role=standalone".  Call before start(); attach_durability
  /// installs one (the committer's flush counters and the volume's
  /// checkpoints, after the replication role when the volume is
  /// replicated).
  void set_info_detail(std::function<std::string()> provider);
  /// The current deployment line.  Safe while workers run: the provider
  /// reads its own thread-safe sources.
  [[nodiscard]] std::string info_detail() const;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] net::Machine& machine() { return *machine_; }
  /// Requests this service executed (handlers run + signature/filter
  /// refusals).  Duplicates suppressed by the reply cache do NOT count
  /// here; they are visible in reply_cache_stats().  Relaxed atomic read.
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  /// Sub-requests unpacked from batch envelopes (each envelope also counts
  /// once in requests_served).  Relaxed atomic read.
  [[nodiscard]] std::uint64_t batched_requests() const {
    return batched_requests_.load(std::memory_order_relaxed);
  }

  /// One request processor: produces the reply message (status + payload;
  /// the loop fills in the destination from the request's reply port).
  /// Runs on worker threads; handlers guard any state they share.
  using Handler = std::function<net::Message(const net::Delivery&)>;

  /// Registers the handler for one opcode.  Must be called before start()
  /// (typically from the subclass constructor): the table is immutable
  /// while workers run, which is what lets dispatch read it without a
  /// lock.  Throws UsageError on duplicate registration or when running.
  /// Public so helpers (the shared owner-operation registrations) and
  /// table-driven services built without subclassing can use it.
  void on(std::uint16_t opcode, Handler handler);

  // ---- typed operation registration (defined in rpc/typed.hpp) --------
  // The declarative path: the dispatch layer decodes the request body,
  // validates the header capability against the op's declared rights
  // BEFORE the handler runs, encodes the reply, and maps Result errors to
  // statuses.  Including rpc/typed.hpp is required at the call site.

  /// Factory ops (op.object == false): no header capability, nothing to
  /// validate.  `handler`: (const Call<OpT>&) -> Outcome<OpT>.
  template <typename OpT, typename F>
    requires requires { typename OpT::Request; typename OpT::Reply; }
  void on(const OpT& op, F handler);

  /// Object ops.  When `handler` is (Call<OpT>&, Store::Opened&), the
  /// dispatcher opens the object with the op's declared rights and hands
  /// the handler the exclusive accessor (the common single-object shape).
  /// When it is (Call<OpT>&), the dispatcher validates rights via
  /// store.check() and the handler takes its own locks (open2 pair ops).
  template <typename OpT, typename Store, typename F>
    requires requires { typename OpT::Request; typename OpT::Reply; }
  void on(const OpT& op, Store& store, F handler);

  /// Every typed descriptor registered on this service, in registration
  /// order -- lets generic tests exercise any server without per-server
  /// case lists (and the docs/PROTOCOL.md consistency test verify the
  /// published opcode tables).  Immutable once workers run; lock-free.
  [[nodiscard]] const std::vector<OpInfo>& registered_ops() const {
    return typed_ops_;
  }

 protected:
  /// Processes one request and produces the reply message.  The default
  /// looks the opcode up in the on() table and replies no_such_operation
  /// for unknown opcodes; subclasses with dynamic dispatch needs may
  /// override it entirely.
  [[nodiscard]] virtual net::Message handle(const net::Delivery& request);

 private:
  /// Records a typed descriptor's metadata (called by the typed on()
  /// overloads after the raw registration validated the opcode).
  void note_op(OpInfo info);

  /// A handled request whose reply waits for durability: what a worker
  /// parks on the replier.
  struct ParkedReply {
    net::Delivery request;  // payload dropped: source and header suffice
    net::Message reply;     // pre-dest, pre-filter form
    bool cache_reply = false;  // claimed fresh: publish in the reply cache
    bool journal_body = false;  // its floor was journaled: so is its body
    std::shared_ptr<MessageFilter> filter;  // the worker's snapshot
    storage::RequestScope::Tickets tickets;
  };
  /// Worker loop: receive, gate, claim, handle; then reply at once, or
  /// park the reply when the request recorded durability tickets.
  void run(std::stop_token stop, std::latch& ready);
  /// Replier loop: waits on parked tickets in ticket order and sends each
  /// reply once durable; drains the queue before it exits.
  void reply_loop(std::stop_token stop);
  /// Publishes `reply` in the cache when `cache_reply` (and journals its
  /// body when `journal_body`), then seals and transmits it to the
  /// request's reply port.
  void send_reply(const net::Delivery& request, net::Message reply,
                  bool cache_reply, bool journal_body, MessageFilter* filter);
  /// The read barrier: makes the reply wait for the newest of `reads`
  /// (the newest record of every object the request read), this boot's
  /// incarnation record and `floor_ticket`, when that is not durable.  A
  /// request with an effect on the reply committer (a ticket in `tickets`
  /// other than `floor_ticket`) waits for that effect or the barrier,
  /// whichever is newer.
  void read_barrier(storage::RequestScope::Tickets& tickets,
                    const storage::RequestScope::Tickets& reads,
                    std::uint64_t floor_ticket);
  [[nodiscard]] net::Message handle_batch(const net::Delivery& request);
  [[nodiscard]] net::Message handle_one(const net::Delivery& request);

  // ---- per-op metrics internals ---------------------------------------

  struct OpMetrics {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> max_ns{0};
  };

  net::Machine* machine_;
  Port get_port_;
  std::string name_;
  std::vector<std::jthread> workers_;
  // Replies parked by workers for the replier; guarded by parked_mutex_.
  std::mutex parked_mutex_;
  std::condition_variable_any parked_cv_;
  std::vector<ParkedReply> parked_;
  std::jthread replier_;
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  mutable std::mutex filter_mutex_;  // guards filter_ and signatures_
  std::shared_ptr<MessageFilter> filter_;
  std::vector<Port> allowed_signatures_;
  mutable std::mutex info_detail_mutex_;       // guards info_detail_
  std::function<std::string()> info_detail_;   // deployment-line provider
  std::unordered_map<std::uint16_t, Handler> handlers_;  // frozen at start()
  std::vector<OpInfo> typed_ops_;                        // frozen at start()
  // Typed-op metrics keyed by opcode; the map is frozen at start() (the
  // counters inside stay hot), so dispatch reads it without a lock.
  std::unordered_map<std::uint16_t, std::unique_ptr<OpMetrics>> op_metrics_;

  /// Declared last, so destroyed first: its checkpoint imager stops
  /// before any other member goes.
  ReplyCache reply_cache_;
};

}  // namespace amoeba::rpc
