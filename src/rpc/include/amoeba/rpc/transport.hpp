// Client-side RPC core (§2.1), completion-based.
//
// The paper's transaction model is connectionless blocking RPC: "After
// making a request, a client blocks until the reply comes in, so the
// approach can be regarded as a simple remote procedure call mechanism.
// The system does not use connections or virtual circuits or any other
// long-lived communication structures."  This transport keeps those wire
// semantics -- every transaction still picks a fresh one-shot reply
// get-port G', the F-box puts P' = F(G') on the wire, and only this client
// can receive the reply -- but decouples completion order from issue
// order: trans_async() returns a Future immediately, so one client thread
// can pipeline many outstanding transactions.  Internally a completion
// registry keyed by the one-shot reply put-port routes every arriving
// reply (they all land in one shared demux mailbox, drained by one pump
// thread) to its transaction; trans() is trans_async().get().
//
// Destinations resolve through the machine's (port -> machine) cache, the
// kernel's, which every transport on the machine shares
// (net::Machine::resolve): LOCATE broadcast on a miss, single-flight, and
// invalidation when a cached machine's F-box rejects the frame (server
// migrated or died).  Entries carry a generation stamp so that when many
// in-flight transactions -- of one transport or several -- resolved
// through one stale entry, the first rejected frame invalidates it exactly
// once and one re-LOCATE serves them all: no thundering LOCATE storm.
//
// At-most-once over a lossy network (docs/PROTOCOL.md §5).  Every
// transaction is stamped with this transport's random 64-bit client id and
// a monotonically increasing sequence number (header.client/seq +
// kFlagAtMostOnce).  Until the reply arrives or the deadline passes, the
// pump thread retransmits the request on an exponential backoff timer
// (kFlagRetransmit marks the extra copies); the server side suppresses the
// duplicates through its per-client reply cache and re-sends the cached
// reply instead of re-executing, so a transaction either takes effect
// exactly once or fails with ErrorCode::timeout -- never twice.
//
// Incarnations (docs/PROTOCOL.md §5.5).  A durable server stamps its boot's
// incarnation on every reply; the transport remembers the last one per
// destination port and stamps it on every request to that port.  A server
// that restarted since answers a request stamped with its previous
// incarnation `restarted` without executing it, and the transport, on the
// pump thread, re-issues the request under a fresh seq (same reply port,
// same deadline) -- once per `restarted` reply, invisibly to the caller.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stop_token>
#include <thread>
#include <unordered_map>

#include "amoeba/common/error.hpp"
#include "amoeba/common/rng.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/filter.hpp"

namespace amoeba::rpc {

/// The completion handle of one in-flight transaction.  The issuing
/// Transport resolves every future it hands out -- with the reply, with
/// ErrorCode::timeout when the deadline passes, or with a transport error
/// -- so get() never blocks forever while the transport lives.
class [[nodiscard]] Future {
 public:
  Future() = default;

  /// False for a default-constructed or already-consumed future.
  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  /// True once the outcome is available (get() will not block).
  [[nodiscard]] bool ready() const;

  /// Blocks until this future's transaction completes and consumes the
  /// outcome (one-shot; the future is invalid afterwards).  A triggered
  /// stop token abandons the wait with ErrorCode::timeout -- the
  /// transaction itself still completes in the background.  Throws
  /// UsageError when called on an invalid future.
  [[nodiscard]] Result<net::Delivery> get(std::stop_token stop = {});

  /// Waits up to `timeout` for readiness; true when ready.
  [[nodiscard]] bool wait_for(std::chrono::milliseconds timeout) const;

 private:
  friend class Transport;

  struct State {
    mutable std::mutex mutex;
    std::condition_variable_any cv;
    std::optional<Result<net::Delivery>> outcome;
  };

  explicit Future(std::shared_ptr<State> state) : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

class Transport {
 public:
  struct Stats {
    // This transport's use of the machine's location cache: lookups it
    // found there, LOCATEs it broadcast, entries it evicted.
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_invalidations = 0;
    std::uint64_t transactions = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retransmits = 0;  // extra request copies put on the wire
    std::uint64_t reissues = 0;  // requests re-issued after `restarted`
    // Adaptive retransmission state (Jacobson/Karels): smoothed RTT and
    // variance from replies of never-retransmitted transactions (Karn's
    // rule), and the resulting timer new transactions are issued with.
    std::uint64_t rtt_samples = 0;
    std::uint64_t srtt_us = 0;
    std::uint64_t rttvar_us = 0;
    std::uint64_t rto_ms = 0;  // clamp(srtt + 4*rttvar, floor, cap)
  };

  Transport(net::Machine& machine, std::uint64_t seed);
  /// Joins the completion pump and fails any still-pending future with
  /// ErrorCode::timeout so no waiter is left blocked.
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Issues one transaction without waiting for the reply.
  /// `request.header.dest` must hold the service's put-port; the reply
  /// field is overwritten with a fresh one-shot port.  The returned future
  /// resolves with the reply message together with the stamped source
  /// machine of the replying server, or with an error.  If the FIRST copy
  /// cannot be sent at all (no listener found), the future fails fast
  /// with no_such_port; once a copy was admitted, loss and migration are
  /// covered by retransmission until the deadline (docs/PROTOCOL.md
  /// §5.1).  Thread-safe: any number of threads may issue and pipeline
  /// concurrently, and each thread may keep any number of transactions in
  /// flight.
  ///
  /// Called from a service handler (a thread with a storage::RequestScope
  /// open), it first enqueues the request's deferred reply floor and makes
  /// it, and every effect the handler recorded so far, durable: no message
  /// leaves a worker before the effects it may depend on.  If that fails,
  /// nothing is sent and the future fails with ErrorCode::internal.
  [[nodiscard]] Future trans_async(net::Message request,
                                   std::chrono::milliseconds timeout);

  /// As above with the transport's default timeout (2 s unless changed).
  [[nodiscard]] Future trans_async(net::Message request) {
    return trans_async(std::move(request), default_timeout());
  }

  /// Performs one blocking transaction: trans_async(...).get().
  [[nodiscard]] Result<net::Delivery> trans(net::Message request,
                                            std::chrono::milliseconds timeout,
                                            std::stop_token stop = {}) {
    return trans_async(std::move(request), timeout).get(std::move(stop));
  }

  /// As above with the transport's default timeout.
  [[nodiscard]] Result<net::Delivery> trans(net::Message request) {
    return trans(std::move(request), default_timeout());
  }

  /// Changes the timeout used by the single-argument overloads
  /// (lossy-network tests and benches want fast failure).  Safe against
  /// concurrent trans()/trans_async() callers.
  void set_default_timeout(std::chrono::milliseconds timeout) {
    default_timeout_ms_.store(timeout.count(), std::memory_order_relaxed);
  }

  [[nodiscard]] std::chrono::milliseconds default_timeout() const {
    return std::chrono::milliseconds(
        default_timeout_ms_.load(std::memory_order_relaxed));
  }

  /// Tunes the at-most-once retransmission timer.  The first re-send of
  /// an unacknowledged request fires after an ADAPTIVE interval seeded
  /// from observed round-trip times -- clamp(srtt + 4*rttvar, `initial`,
  /// `cap`), the Jacobson/Karels estimator over replies of transactions
  /// that were never retransmitted (Karn's rule keeps ambiguous samples
  /// out) -- so a slow service stops eating spurious duplicate frames
  /// while a fast one is probed no sooner than `initial`.  Before any
  /// sample exists the timer is exactly `initial`; further re-sends
  /// double, capped at `cap`.  initial == 0 disables retransmission (a
  /// dropped frame then simply times out, the pre-at-most-once behavior).
  /// Thread-safe; applies to transactions issued after the call.  The
  /// live estimator is visible through stats().
  void set_retransmit(std::chrono::milliseconds initial,
                      std::chrono::milliseconds cap);

  /// The random 64-bit id stamped into header.client of every request this
  /// transport issues; the server's duplicate-suppression table keys on it
  /// (together with the stamped source machine).
  [[nodiscard]] std::uint64_t client_id() const { return client_id_; }

  /// Optional signature get-port applied to outgoing requests (the F-box
  /// publishes F(S); receivers authenticate the sender against it).
  void set_signature(Port signature_get_port);

  /// Installs a message filter (capability sealing in F-box-less mode).
  /// Filters run on issuing threads (outgoing) and on the completion pump
  /// (incoming), so implementations must be internally synchronized.
  void set_filter(std::shared_ptr<MessageFilter> filter);

  [[nodiscard]] net::Machine& machine() { return machine_; }
  [[nodiscard]] Stats stats() const;

  /// Number of transactions currently awaiting their reply.
  [[nodiscard]] std::size_t in_flight() const;

  /// Drops every cached (port -> machine) entry of the machine's cache,
  /// which every transport on the machine shares.
  void flush_cache() { machine_.flush_locations(); }

 private:
  /// One registered, unreplied transaction.
  struct Pending {
    std::shared_ptr<Future::State> state;
    net::Receiver receiver;  // keeps the one-shot GET alive
    std::chrono::steady_clock::time_point deadline;
    // Retransmission state: the unsealed request (reply port already
    // drawn) so the pump can put further copies on the wire -- or re-issue
    // it after `restarted` -- the next send time, and the backoff interval
    // that produced it.  next_send == time_point::max() when
    // retransmission is disabled.  issued_at / retransmitted feed the RTT
    // estimator (Karn: only never-retransmitted transactions yield
    // samples).
    net::Message request;
    std::chrono::steady_clock::time_point next_send;
    std::chrono::milliseconds backoff{0};
    std::chrono::steady_clock::time_point issued_at;
    bool retransmitted = false;
  };

  /// The machine cache's entry for `put_port`, LOCATEd on a miss; counts
  /// a hit or a miss.
  std::optional<net::Machine::Location> resolve(Port put_port);
  /// Resolves the destination, applies the outgoing filter to a sealed
  /// copy, and transmits; invalidates + retries once on a stale cache
  /// entry.  Returns whether any copy was admitted by a remote F-box.
  bool send_request(const net::Message& request,
                    const std::shared_ptr<MessageFilter>& filter,
                    std::optional<net::Machine::Location> fast_dst);

  void pump(std::stop_token stop);
  void settle_all(std::deque<net::Delivery>&& batch);
  /// Records the incarnation a reply from `service` carried; caller holds
  /// mutex_.
  void learn_incarnation_locked(Port service, std::uint64_t incarnation);
  /// Re-issues the pending transaction keyed `registry_key` under a fresh
  /// seq, stamped `incarnation` (a `restarted` reply's).
  void reissue(Port registry_key, std::uint64_t incarnation);
  void expire_and_retransmit();
  static void complete(Pending& pending, Result<net::Delivery> outcome);

  [[nodiscard]] std::chrono::milliseconds retransmit_initial() const {
    return std::chrono::milliseconds(
        retransmit_initial_ms_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::chrono::milliseconds retransmit_cap() const {
    return std::chrono::milliseconds(
        retransmit_cap_ms_.load(std::memory_order_relaxed));
  }
  /// The adaptive first-retransmit interval; caller holds mutex_.
  [[nodiscard]] std::chrono::milliseconds adaptive_rto_locked() const;
  /// Feeds one RTT sample into the estimator; caller holds mutex_.
  void record_rtt_locked(std::chrono::microseconds sample);

  net::Machine& machine_;
  std::atomic<std::int64_t> default_timeout_ms_{2000};
  std::atomic<std::int64_t> retransmit_initial_ms_{25};
  std::atomic<std::int64_t> retransmit_cap_ms_{400};
  std::uint64_t client_id_ = 0;  // immutable after construction

  // Guards rng/signature/filter/stats.
  mutable std::mutex mutex_;
  Rng rng_;
  std::uint64_t next_seq_ = 0;  // at-most-once sequence; under mutex_
  // The incarnation last heard from each service put-port; under mutex_.
  std::unordered_map<Port, std::uint64_t> incarnations_;
  Port signature_;
  std::shared_ptr<MessageFilter> filter_;
  Stats stats_;  // srtt/rttvar live in here, updated under mutex_

  // Completion registry: every one-shot reply port is registered into this
  // shared mailbox; the pump thread demultiplexes arrivals back to their
  // futures and fails overdue entries.
  std::shared_ptr<net::Mailbox> replies_;
  mutable std::mutex pending_mutex_;
  std::unordered_map<Port, Pending> pending_;
  // Earliest deadline OR retransmit time across pending_; under
  // pending_mutex_.  Only ever errs early (one spurious wake), never late.
  std::chrono::steady_clock::time_point pump_wakes_at_;
  std::jthread pump_;  // last member: must die before the registries
};

}  // namespace amoeba::rpc
