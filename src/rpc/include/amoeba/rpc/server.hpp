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
// At-most-once duplicate suppression (docs/PROTOCOL.md §5): requests
// stamped with kFlagAtMostOnce carry the issuing transport's (client, seq)
// identity, and the service keeps a per-client reply cache keyed by the
// stamped source machine plus that identity.  A retransmitted request
// whose original already completed re-sends the cached reply WITHOUT
// re-executing the handler (critical for non-idempotent operations like
// bank.transfer and std_destroy); one whose original is still executing is
// dropped silently (the client's next backoff tick retries).  The check
// runs after the signature and filter gates, so a replayed frame from the
// wrong machine can neither poison nor read the cache.  Batch envelopes
// are suppressed as a unit: the whole batched reply is cached under the
// envelope's (client, seq).
//
// The cache is SHARDED by client-key hash (16 stripes, each with its own
// mutex and map), so claim/store on the request path never serializes
// across workers -- this removed the last global lock on that path.  The
// window / client-cap limits stay GLOBAL (atomic totals; LRU eviction
// scans the stripes), so the observable bounds are unchanged from the
// single-map implementation.
//
// Restart semantics (docs/PROTOCOL.md §5.5, §8.4): attach_durability()
// wires the cache to the reply stream (storage/reply_stream.hpp) of the
// volume its group committer writes, and draws this boot's INCARNATION:
// one more than the highest the stream recorded, enqueued as a record
// that rides the first flush cycle.  Every reply carries it, and a
// transport stamps the last one it heard on its next requests.  A request
// stamped with another incarnation whose seq the cache neither holds nor
// covers is answered `restarted` and never executed: it was addressed to
// a previous boot, whose memory of it is gone.
//
// So a fresh claim owes the volume its reply_floor record -- the highest
// sequence number ever claimed -- only if the request writes something.
// The claim parks the floor in the request's storage::RequestScope; the
// committer enqueues it just before the request's first effect (or the
// scope settles it before an outgoing call), so it takes a smaller ticket
// than every effect it guards and a crash image never holds an effect
// without its floor.  A request that writes nothing appends no floor and
// no body.  An unstamped request (incarnation 0: the transport has not
// heard from this server yet) cannot be told apart from a pre-restart
// duplicate, so its floor is enqueued at claim.
//
// Claim and handler run inside the scope, which turns every durability
// wait (the floor's, each effect's, each envelope entry's) into a
// recorded ticket.  A request that recorded no effect instead takes the
// READ BARRIER: after the handler it reads the committer's newest issued
// ticket, which covers every effect the handler could have seen (effects
// are enqueued under the shard lock a reader takes), and waits for it only
// when it is not yet durable.  The worker does not wait: it parks the
// tickets with the reply on the service's one REPLIER thread and goes
// back to receive().  The replier waits on the parked tickets in ticket
// order -- its wait is what makes the committer flush -- then caches,
// seals and sends each reply, so one flush covers every request the
// workers handled while the previous one was being written (flush
// pipelining).  A request with nothing to wait for replies from its
// worker; a handler's outgoing call settles first, on the worker
// (rpc::Transport).  No reply is sent before the state it reports is
// durable, so after a crash+restart a duplicate of any pre-crash
// transaction is DROPPED, re-answered, or refused as `restarted` (an
// operation may be lost to the torn tail, but never runs twice); a
// duplicate of a parked request is dropped like any still-executing one.
// Completed reply BODIES of requests that journaled their floor follow as
// reply_body records, best effort (no wait), so a post-restart duplicate
// of a recently completed transaction is re-answered instead of timing
// out.  Each record is O(1) bytes.  The service is the reply stream's
// checkpoint imager: at each of the volume's checkpoints the committer's
// flusher has it image the in-memory cache and the incarnation -- bounded
// like the cache itself -- and the checkpoint frame carries the image:
// neither a worker nor the replier ever writes the volume.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "amoeba/common/serial.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/filter.hpp"
#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/reply_stream.hpp"

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

  /// Counters and occupancy of the duplicate-suppression table.  Snapshot
  /// under the cache lock; safe to call while workers run.
  struct ReplyCacheStats {
    std::uint64_t duplicates_suppressed = 0;  // retransmits not re-executed
    std::uint64_t replies_resent = 0;   // of those, answered from the cache
    std::uint64_t evicted_entries = 0;  // cached replies aged out
    std::uint64_t evicted_clients = 0;  // whole client entries aged out
    std::uint64_t entries = 0;          // live cached replies
    std::uint64_t clients = 0;          // live client entries
    std::uint64_t floorless_claims = 0;  // fresh claims that wrote no floor
    std::uint64_t barrier_parks = 0;     // replies parked on the read barrier
  };
  [[nodiscard]] ReplyCacheStats reply_cache_stats() const;

  /// Bounds the duplicate-suppression table: at most `window_per_client`
  /// cached replies per client (oldest completed entries evicted first;
  /// window 0 disables suppression entirely) and at most `max_clients`
  /// clients with live cached replies (least recently used demoted to a
  /// floor-only tombstone; 0 = unbounded).  Eviction never re-executes: a
  /// duplicate of an evicted transaction is dropped silently, so at-most-
  /// once degrades to "at most once + client timeout", never "twice" --
  /// but windows should comfortably exceed the deepest client pipeline so
  /// replies can still be RE-SENT (see docs/PROTOCOL.md §5.4 for the
  /// memory tradeoff).  Thread-safe.
  void set_reply_cache_limits(std::size_t window_per_client,
                              std::size_t max_clients);

  /// Drops every cached reply and client entry (the eviction hook tests
  /// use to force the cold path).  In-flight requests are unaffected
  /// beyond losing their suppression record.  Thread-safe.
  void flush_reply_cache();

  // ---- durable restart support ----------------------------------------

  /// Wires the at-most-once reply cache to the reply stream of the volume
  /// `committer` writes (docs/PROTOCOL.md §8.4): restores the per-client
  /// suppression floors and reply bodies the previous incarnation left
  /// there, draws the next incarnation (enqueued without a flush of its
  /// own), then enqueues a floor record for every claimed at-most-once
  /// request that journals and a body record for every such request
  /// completed.  The records ride the flush cycles of the handlers' own
  /// effects, and the replier waits once per request, before replying.
  /// Rows restored beyond the cache's current limits are pruned like live
  /// overflow.  Null committer: no-op.  Call from the server constructor,
  /// before start().
  void attach_durability(std::shared_ptr<storage::GroupCommitter> committer);

  /// This boot's incarnation number; 0 for a service without a volume.
  /// Constant once attach_durability() returned.
  [[nodiscard]] std::uint64_t incarnation() const { return incarnation_; }

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
  /// A fresh claim's floor record, enqueued at claim or deferred to the
  /// request's first effect (server.cpp).
  class ReplyFloor;

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
  /// The read barrier: unless `tickets` hold an effect on the reply
  /// committer (a ticket other than `floor_ticket`), makes the reply wait
  /// for the committer's newest issued ticket when that is not durable.
  void read_barrier(storage::RequestScope::Tickets& tickets,
                    std::uint64_t floor_ticket);
  [[nodiscard]] net::Message handle_batch(const net::Delivery& request);
  [[nodiscard]] net::Message handle_one(const net::Delivery& request);

  // ---- duplicate-suppression internals (docs/PROTOCOL.md §5.3) --------

  /// One client's slice of the reply cache.  `replies` holds the states of
  /// its recent transactions ordered by seq; seqs at or below `floor` were
  /// evicted and are known stale (dropped without execution -- the
  /// at-most-once-safe answer for a seq we no longer remember).
  struct CachedReply {
    bool done = false;   // false: original still executing
    net::Message reply;  // valid once done (pre-filter, pre-dest form)
  };
  struct ClientEntry {
    std::map<std::uint64_t, CachedReply> replies;
    std::uint64_t floor = 0;
    std::uint64_t last_used = 0;   // LRU tick for client eviction
    std::size_t executing = 0;     // replies entries not yet done
  };
  /// Total client entries (live + floor-only tombstones) may reach
  /// kTombstoneFactor x max_clients before the LRU tombstone is erased
  /// outright -- the bound that keeps server memory finite against
  /// client-id churn (the id is a self-chosen wire field).
  static constexpr std::size_t kTombstoneFactor = 8;
  /// Clients are keyed by the UNFORGEABLE stamped source machine plus the
  /// self-chosen client id, so no machine can touch another's entries.
  struct ClientKey {
    std::uint32_t src = 0;
    std::uint64_t client = 0;
    friend bool operator==(const ClientKey&, const ClientKey&) = default;
  };
  struct ClientKeyHash {
    [[nodiscard]] std::size_t operator()(const ClientKey& k) const {
      return std::hash<std::uint64_t>{}(k.client ^
                                        (std::uint64_t{k.src} << 32));
    }
  };
  enum class DupVerdict {
    fresh,      // unseen seq, claimed as executing: run the handler
    drop,       // duplicate of an executing or evicted seq: say nothing
    resend,     // duplicate of a completed seq: cached reply copied out
    restarted,  // unseen seq stamped with another incarnation: refuse
  };
  /// Classifies one at-most-once request and, for `fresh`, claims its slot
  /// (marks it executing).  Fills `cached` on `resend`.  Holds only the
  /// owning stripe's lock; global-limit eviction runs after it drops.
  [[nodiscard]] DupVerdict claim_request(const net::Delivery& request,
                                         net::Message& cached);
  using ReplyCacheMap =
      std::unordered_map<ClientKey, ClientEntry, ClientKeyHash>;

  /// One stripe of the sharded reply cache; the stripe index is the
  /// client-key hash folded to kReplyCacheStripes.  Counters are
  /// per-stripe (summed for reply_cache_stats()).
  struct ReplyCacheStripe {
    mutable std::mutex mutex;
    ReplyCacheMap map;
    ReplyCacheStats counters;  // entries/clients fields derived on read
  };
  static constexpr std::size_t kReplyCacheStripes = 16;

  [[nodiscard]] ReplyCacheStripe& stripe_for(const ClientKey& key) const {
    return reply_cache_stripes_[ClientKeyHash{}(key) &
                                (kReplyCacheStripes - 1)];
  }
  /// Enforces the GLOBAL client cap / tombstone bound after a claim
  /// overflowed them: finds the least-recently-used eligible victim
  /// across all stripes (one stripe locked at a time) and demotes or
  /// erases it.  `excluded` protects the claiming client.
  void evict_reply_cache_client(const ClientKey& excluded,
                                bool want_tombstones);
  /// Publishes the reply of a claimed request and evicts beyond the
  /// per-client window; journals its body when `journal_body`.
  void store_reply(const net::Delivery& request, const net::Message& reply,
                   bool journal_body);
  /// Journals a completed reply's body, best effort and WITHOUT waiting:
  /// the floor -- durable before the reply left -- carries the never-twice
  /// guarantee; the body only upgrades a post-restart duplicate from
  /// "dropped" to "re-answered", so losing it to a crash is safe.
  void persist_reply_body(const ClientKey& key, std::uint64_t seq,
                          const net::Message& reply);
  /// Enqueues one reply-stream record, framed by `encode(lsn, staging)`,
  /// without waking the flusher.  Assigns the stream LSN in enqueue order.
  /// Returns the record's ticket.
  template <typename EncodeFn>
  std::uint64_t append_reply_record(EncodeFn&& encode);
  /// The reply stream's checkpoint imager: queues a snapshot record
  /// imaging the in-memory cache, under the stream's append lock.
  void image_reply_stream();
  /// Primes the cache with recovered rows: floors always, completed
  /// replies where a body decodes (those duplicates are re-answered).
  void restore_reply_rows(const storage::ReplyRows& rows);
  /// Demotes, then erases, least-recently-used entries until the cache is
  /// within its limits (the bounds live overflow enforces one claim at a
  /// time, applied in bulk after a restore).
  void prune_reply_cache();

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
  // Reply-stream persistence; set by attach_durability before start().
  std::shared_ptr<storage::GroupCommitter> reply_committer_;
  /// Orders the reply stream: LSN assignment + enqueue (held for one
  /// enqueue, O(1)), and the checkpoint image's scan and enqueue, so the
  /// image's LSN covers exactly the records enqueued before it.
  std::mutex reply_append_mutex_;
  std::uint64_t reply_lsn_ = 0;  // last stream LSN assigned
  // This boot's incarnation; set by attach_durability before start().
  std::uint64_t incarnation_ = 0;
  std::atomic<std::uint64_t> floorless_claims_{0};
  std::atomic<std::uint64_t> barrier_parks_{0};
  std::unordered_map<std::uint16_t, Handler> handlers_;  // frozen at start()
  std::vector<OpInfo> typed_ops_;                        // frozen at start()
  // Typed-op metrics keyed by opcode; the map is frozen at start() (the
  // counters inside stay hot), so dispatch reads it without a lock.
  std::unordered_map<std::uint16_t, std::unique_ptr<OpMetrics>> op_metrics_;

  // Sharded reply cache.  Stripe locks are never held across a handler
  // (claim before, store after) nor across another stripe's lock; the
  // limits and occupancy totals are process-wide atomics.
  mutable std::array<ReplyCacheStripe, kReplyCacheStripes>
      reply_cache_stripes_;
  std::atomic<std::size_t> reply_cache_window_{128};
  std::atomic<std::size_t> reply_cache_max_clients_{4096};
  std::atomic<std::size_t> reply_cache_loaded_{0};   // clients with replies
  std::atomic<std::size_t> reply_cache_clients_{0};  // incl. tombstones
  std::atomic<std::uint64_t> reply_cache_tick_{0};   // LRU clock
  /// Declared last, so destroyed first: no checkpoint images the cache
  /// once it is being torn down.
  storage::GroupCommitter::Registration reply_imager_;
};

}  // namespace amoeba::rpc
