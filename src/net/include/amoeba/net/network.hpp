// The simulated LAN plus the F-box protection layer (§2.2, Fig. 1).
//
// Model, matching the paper's assumptions exactly:
//   * Every machine attaches through an F-box; there is no way to put a
//     frame on the wire except Machine::transmit/broadcast, which apply the
//     F-box transformation (in F-box mode) to the reply and signature
//     header fields.  "We assume that somehow or other all messages
//     entering and leaving every processor undergo a simple transformation
//     that users cannot bypass."
//   * The network stamps the true source machine id on every frame;
//     senders cannot forge it (§2.4's key assumption for the software
//     scheme).
//   * A GET(G) registers interest in put-port P = F(G); the receiving
//     F-box admits only frames whose destination port has a matching GET.
//     In software-protection mode (fbox disabled) ports are plain values:
//     GET(G) listens on G itself and no transformation happens -- the
//     §2.4 machinery in amoeba/softprot must then provide protection.
//   * Passive wiretaps observe every frame in wire form -- this is the
//     intruder's eavesdropping power.
//   * Frames can be dropped, duplicated, or reordered under fault
//     injection -- globally or per directed (src, dst) link -- which is
//     what the at-most-once RPC layer (docs/PROTOCOL.md §5) is tested
//     against.
//
// LOCATE (§2.2: broadcasting a LOCATE message to find which machine serves
// a port) is provided as a kernel-level primitive: Machine::locate scans
// listeners, emitting tap records for the request and reply so intruders
// observe location traffic like any other.  As in Amoeba's kernel, each
// machine keeps ONE (port -> machine) cache that every process on it
// shares (Machine::resolve): a new client on a machine that already knows
// a port sends no LOCATE.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "amoeba/common/epoch.hpp"
#include "amoeba/common/rng.hpp"
#include "amoeba/common/types.hpp"
#include "amoeba/crypto/one_way.hpp"
#include "amoeba/net/mailbox.hpp"
#include "amoeba/net/message.hpp"

namespace amoeba::net {

class Network;
class Machine;

enum class FrameKind { data, locate_request, locate_reply };

/// What a wiretap sees: the frame in wire form (ports already transformed).
struct TapRecord {
  FrameKind kind = FrameKind::data;
  MachineId src;
  MachineId dst;  // null for broadcast
  Message message;           // valid for data frames
  Port locate_port;          // valid for locate frames
};

using TapFn = std::function<void(const TapRecord&)>;

/// RAII wiretap attachment.
class TapHandle {
 public:
  TapHandle() = default;
  TapHandle(Network* net, std::uint64_t id) : net_(net), id_(id) {}
  TapHandle(TapHandle&& other) noexcept { *this = std::move(other); }
  TapHandle& operator=(TapHandle&& other) noexcept;
  TapHandle(const TapHandle&) = delete;
  TapHandle& operator=(const TapHandle&) = delete;
  ~TapHandle();

 private:
  Network* net_ = nullptr;
  std::uint64_t id_ = 0;
};

/// RAII GET registration: while alive, frames addressed to put_port() are
/// delivered to the owned mailbox.  Destroying it is the moment the F-box
/// stops admitting frames for that port (used to model server shutdown and
/// migration).
class Receiver {
 public:
  Receiver() = default;
  Receiver(Receiver&& other) noexcept { *this = std::move(other); }
  Receiver& operator=(Receiver&& other) noexcept;
  Receiver(const Receiver&) = delete;
  Receiver& operator=(const Receiver&) = delete;
  ~Receiver();

  /// The public put-port this registration listens on (F(G) in F-box mode,
  /// G itself otherwise).
  [[nodiscard]] Port put_port() const { return put_port_; }

  /// Blocking receive; see Mailbox::pop.  Frames queued to one receiver
  /// are popped in delivery order (which matches transmit order on a link
  /// unless reorder injection held a frame back).
  [[nodiscard]] std::optional<Delivery> receive(
      std::stop_token stop,
      std::optional<std::chrono::milliseconds> timeout = std::nullopt) {
    return mailbox_ ? mailbox_->pop(stop, timeout) : std::nullopt;
  }

  [[nodiscard]] bool valid() const { return mailbox_ != nullptr; }

 private:
  friend class Machine;
  friend class Network;
  Receiver(Network* net, Port put_port, std::uint64_t id,
           std::shared_ptr<Mailbox> mailbox, bool owns_mailbox = true)
      : net_(net), put_port_(put_port), id_(id), mailbox_(std::move(mailbox)),
        owns_mailbox_(owns_mailbox) {}

  void release();

  Network* net_ = nullptr;
  Port put_port_;
  std::uint64_t id_ = 0;
  std::shared_ptr<Mailbox> mailbox_;
  // A demultiplexed registration (listen into a caller-owned mailbox shared
  // by many ports) must not close that mailbox when one port unregisters.
  bool owns_mailbox_ = true;
};

/// The F-box: the per-machine transformation unit.  Exposed as its own
/// class so the Fig. 1 ablation ("what if the transformation were absent")
/// is a one-flag change at Network construction.
class FBox {
 public:
  FBox(std::shared_ptr<const crypto::OneWayFn> f, bool enabled)
      : f_(std::move(f)), enabled_(enabled) {}

  /// Maps a get-port to the put-port the box will admit frames for.
  [[nodiscard]] Port listen_port(Port get_port) const {
    return enabled_ ? f_->apply(get_port) : get_port;
  }

  /// Outbound transformation: applies F to the reply and signature fields
  /// (never the destination).  Identity when disabled.
  void transform_outgoing(Header& header) const {
    if (!enabled_) return;
    if (!header.reply.is_null()) header.reply = f_->apply(header.reply);
    if (!header.signature.is_null())
      header.signature = f_->apply(header.signature);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const crypto::OneWayFn& f() const { return *f_; }

 private:
  std::shared_ptr<const crypto::OneWayFn> f_;
  bool enabled_;
};

/// A processor module attached to the network through its F-box.
class Machine {
 public:
  [[nodiscard]] MachineId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const FBox& fbox() const { return fbox_; }

  /// GET(G): registers a listener; the returned Receiver collects frames
  /// sent to put_port().  Multiple receivers may listen on one port (a
  /// multi-threaded service); frames are delivered round-robin.
  [[nodiscard]] Receiver listen(Port get_port);

  /// GET(G) into a caller-owned mailbox shared by many registrations: the
  /// demultiplexer a completion-based RPC client needs to collect replies
  /// for every one-shot reply port through one pump.  The Receiver still
  /// owns the registration (destroying it withdraws the GET) but leaves
  /// the mailbox open.
  [[nodiscard]] Receiver listen(Port get_port,
                                std::shared_ptr<Mailbox> mailbox);

  /// PUT to a specific machine.  Returns true if the destination F-box
  /// admitted the frame (a GET was outstanding) -- the link-level signal
  /// kernels use to invalidate stale location cache entries.  Delivery is
  /// best-effort: under fault injection an admitted frame may still be
  /// dropped, duplicated, or held back for reordering, and the sender
  /// cannot tell (a dropped frame still reports true).  Thread-safe; never
  /// blocks on receivers.
  bool transmit(Message msg, MachineId dst);

  /// PUT broadcast: delivered to every matching GET on the network, with
  /// the same best-effort guarantee as transmit.  Fault injection rolls
  /// independently per delivery leg: each receiving machine is its own
  /// (src -> dst) link, so per-link overrides, drop/duplicate dice, and
  /// reorder holdback apply to individual receivers exactly as on the
  /// unicast path (a broadcast can be lost at one receiver and arrive at
  /// another).  Thread-safe.
  void broadcast(Message msg);

  /// Kernel LOCATE: finds a machine with a GET outstanding for `put_port`.
  /// Synchronous registry scan; never faulted, never blocked by traffic.
  /// Uncached: every call is one broadcast.
  [[nodiscard]] std::optional<MachineId> locate(Port put_port);

  /// One entry of the machine's location cache.  The generation names
  /// this resolution, so a rejected frame evicts only the entry it was
  /// sent through (invalidate).
  struct Location {
    MachineId machine;
    std::uint64_t generation = 0;
  };

  /// The cached location of `put_port`, if any (no LOCATE).
  [[nodiscard]] std::optional<Location> cached(Port put_port) const;

  /// The cached location of `put_port`, or a LOCATE on a miss whose answer
  /// is cached.  Single-flight: a caller that finds a LOCATE for the port
  /// in flight waits for its answer instead of broadcasting again.
  /// `located` reports whether this call broadcast.  Thread-safe.
  [[nodiscard]] std::optional<Location> resolve(Port put_port, bool& located);

  /// Evicts `put_port`'s entry if it is still the one of `generation`:
  /// when many in-flight transactions resolved through one stale entry,
  /// only the first rejected frame evicts it.  True if this call did.
  bool invalidate(Port put_port, std::uint64_t generation);

  /// Drops every cached location.
  void flush_locations();

 private:
  friend class Network;
  Machine(Network* net, MachineId id, std::string name,
          std::shared_ptr<const crypto::OneWayFn> f, bool fbox_enabled)
      : net_(net), id_(id), name_(std::move(name)),
        fbox_(std::move(f), fbox_enabled) {}

  Network* net_;
  MachineId id_;
  std::string name_;
  FBox fbox_;

  // The location cache, shared by every transport on the machine;
  // locating_ holds the ports with a LOCATE in flight.
  mutable std::mutex locations_mutex_;
  std::condition_variable locate_cv_;
  std::unordered_map<Port, Location> locations_;
  std::unordered_set<Port> locating_;
  std::uint64_t next_generation_ = 0;
};

/// Fault probabilities for one directed (src, dst) link; overrides the
/// global knobs for that link when installed via set_link_faults.
struct LinkFaults {
  double drop = 0.0;       // frame silently lost
  double duplicate = 0.0;  // frame delivered twice
  double reorder = 0.0;    // frame held back until the next on the link
};

class Network {
 public:
  struct Config {
    bool fbox_enabled = true;
    std::uint64_t seed = 1;
    double drop_probability = 0.0;       // applied per delivery attempt
    double duplicate_probability = 0.0;  // applied per delivered frame
    double reorder_probability = 0.0;    // applied per delivered frame
    // Machine ids are assigned base+1, base+2, ...  One in-process network
    // always uses 0; nodes of a multi-process cluster (SocketNetwork) each
    // take a disjoint base so the stamped source ids -- which key reply
    // caches and the software-protection matrix -- stay unique clusterwide.
    std::uint32_t machine_id_base = 0;
  };

  struct Stats {
    std::atomic<std::uint64_t> unicasts{0};
    std::atomic<std::uint64_t> broadcasts{0};
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> rejected{0};   // no matching GET
    std::atomic<std::uint64_t> dropped{0};    // fault injection
    std::atomic<std::uint64_t> duplicated{0};
    std::atomic<std::uint64_t> reordered{0};  // frames held back
    std::atomic<std::uint64_t> locates{0};
    std::atomic<std::uint64_t> batch_frames{0};  // frames with kFlagBatch
  };

  /// Default-configured network (F-boxes on, no faults).
  Network();
  explicit Network(Config config,
                   std::shared_ptr<const crypto::OneWayFn> f =
                       crypto::default_one_way());
  virtual ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Adds a machine; the reference stays valid for the network's lifetime.
  /// Thread-safe against concurrent add_machine and traffic.
  Machine& add_machine(std::string name);

  /// Attaches a passive wiretap seeing every frame in wire form.  Taps run
  /// on sender threads, outside every network lock; detaching (dropping
  /// the handle) never blocks frame delivery.
  [[nodiscard]] TapHandle attach_tap(TapFn fn);

  /// Live counters; each field is independently atomic (a snapshot read
  /// across fields is not a consistent cut).
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] bool fbox_enabled() const { return config_.fbox_enabled; }

  /// Adjusts the network-wide fault knobs at runtime (tests and benches).
  /// Thread-safe; releases any frame currently held back by reorder
  /// injection, so lowering the knobs cannot strand traffic.
  void set_fault_injection(double drop_probability,
                           double duplicate_probability,
                           double reorder_probability = 0.0);

  /// Installs fault probabilities for one directed (src -> dst) link,
  /// overriding the global knobs for frames on that link only (the other
  /// direction keeps its own setting).  Thread-safe; flushes held frames
  /// like set_fault_injection.
  void set_link_faults(MachineId src, MachineId dst, const LinkFaults& faults);

  /// Removes every per-link override (global knobs apply again) and
  /// releases held frames.
  void clear_link_faults();

 protected:
  // The three frame entry points are virtual so a transport subclass
  // (SocketNetwork) can route frames for non-local machines onto another
  // medium while reusing the local building blocks below.  All return
  // without holding any lock while invoking taps/mailboxes.
  virtual bool transmit_from(Machine& src, Message msg, MachineId dst);
  virtual void broadcast_from(Machine& src, Message msg);
  virtual std::optional<MachineId> locate_from(Machine& src, Port put_port);

  /// Frame accounting (unicast/broadcast + batch counters) for one send.
  void count_outgoing(const Message& msg, bool broadcast);
  /// The simulated wire for one local delivery leg: rolls the fault dice,
  /// probes the stripe registry for a GET on (dst, msg.dest), round-robins
  /// across matching registrations, and services the reorder holdback slot
  /// for the link.  `msg` must already be in wire form (F-box applied).
  /// Returns whether the destination F-box admitted the frame.
  bool deliver_one(MachineId src, Message msg, MachineId dst);
  /// Broadcast legs to every local registration on msg.dest, with per-leg
  /// fault dice exactly like the unicast path (counts one rejected frame
  /// when nobody listens).  `msg` must already be in wire form.
  void broadcast_deliver(MachineId src, const Message& msg);
  /// First local machine with a GET outstanding on put_port, if any.
  [[nodiscard]] std::optional<MachineId> lookup_listener(Port put_port);
  /// True when `id` names a machine of THIS network instance (falls inside
  /// the (machine_id_base, machine_id_base + count] window).
  [[nodiscard]] bool is_local_machine(MachineId id) const;
  void emit(const TapRecord& record);
  [[nodiscard]] bool taps_active() const;
  [[nodiscard]] Stats& live_stats() { return stats_; }

 private:
  friend class Machine;
  friend class Receiver;
  friend class TapHandle;

  struct Registration {
    std::uint64_t id;
    MachineId machine;
    std::shared_ptr<Mailbox> mailbox;
  };

  /// All GET registrations for one put-port, plus the delivery cursor that
  /// spreads frames round-robin across them.  The registration vector is
  /// IMMUTABLE once the entry is published into a stripe snapshot -- a
  /// registration change builds a replacement entry (carrying the cursor
  /// value forward) inside a replacement map.  Only the cursor mutates in
  /// place, which is why it is atomic and mutable: readers bump it through
  /// a const snapshot, and a racy bump lost to a concurrent rebuild only
  /// skews round-robin fairness, never correctness.
  struct PortEntry {
    std::vector<Registration> registrations;
    mutable std::atomic<std::size_t> cursor{0};
  };

  /// One stripe's registration table: an immutable snapshot, swapped
  /// atomically.  Entries are shared_ptr so a successor map shallow-copies
  /// untouched ports and rebuilds only the one being edited.
  using PortMap = std::unordered_map<Port, std::shared_ptr<const PortEntry>>;

  /// One stripe of the listener registry, RCU-style.  The read side
  /// (transmit/broadcast/locate) takes NO lock: it pins the global
  /// EpochDomain, acquire-loads the current snapshot, and copies out the
  /// mailbox shared_ptrs it needs before unpinning.  Writers serialize on
  /// the stripe's CountedMutex (counted so tests can prove the traffic
  /// path never touches it), publish a successor map with a release store,
  /// and retire the predecessor to the domain -- so a registration storm
  /// never blocks a single frame, it only makes readers see slightly stale
  /// snapshots (indistinguishable from the frame having raced the GET).
  struct Stripe {
    mutable common::CountedMutex mutex;        // writers only
    std::atomic<const PortMap*> map{nullptr};  // EBR-protected snapshot
    ~Stripe() { delete map.load(std::memory_order_relaxed); }
  };
  static constexpr std::size_t kStripes = 64;

  [[nodiscard]] Stripe& stripe_for(Port port) {
    return stripes_[std::hash<Port>{}(port) & (kStripes - 1)];
  }

  using TapList = std::vector<std::pair<std::uint64_t, TapFn>>;

  Receiver register_listener(Machine& m, Port get_port,
                             std::shared_ptr<Mailbox> shared_mailbox = nullptr);
  void unregister(std::uint64_t id, Port put_port);
  void detach_tap(std::uint64_t id);
  void mutate_taps(const std::function<void(TapList&)>& edit);

  /// Outcome of one fault-dice roll for one frame.
  struct FaultPlan {
    int copies = 1;     // delivery attempts (0 = dropped)
    bool hold = false;  // stash the frame until the next one on the link
  };
  /// Rolls the dice for a frame on (src -> dst); per-link overrides beat
  /// the global knobs.  `allow_hold` is false on the broadcast path
  /// (reorder applies to unicast links only).
  FaultPlan fault_plan(MachineId src, MachineId dst, bool allow_hold);
  /// Delivers every frame currently held back by reorder injection.
  void flush_held();

  Config config_;  // immutable after construction (fault knobs are below)
  std::shared_ptr<const crypto::OneWayFn> f_;
  Stats stats_;

  std::array<Stripe, kStripes> stripes_;

  mutable std::mutex machines_mutex_;
  std::deque<std::unique_ptr<Machine>> machines_;  // stable addresses

  // Wiretaps: emit() loads an immutable snapshot atomically; attach/detach
  // build a fresh list and swap it in, so frame delivery never blocks on
  // tap churn.  taps_active_ is the fast-path gate: when no tap is
  // attached (the common case) transmit skips building TapRecords -- a
  // full message copy per frame -- entirely.
  mutable std::mutex taps_mutex_;  // serializes writers only
  std::atomic<std::shared_ptr<const TapList>> taps_;
  std::atomic<bool> taps_active_{false};

  // Fault injection: probabilities are atomics (runtime-adjustable); the
  // dice RNG, per-link overrides, and reorder holdback slots share one
  // lock, touched only when a fault mode is armed (link_faults_active_ and
  // held_count_ gate the fast path so fault-free traffic never takes it).
  std::atomic<double> drop_probability_;
  std::atomic<double> duplicate_probability_;
  std::atomic<double> reorder_probability_;
  mutable std::mutex fault_mutex_;
  Rng rng_;

  /// One frame held back by reorder injection, released after the next
  /// frame on its link (or by a fault-knob change / flush).
  struct Held {
    std::shared_ptr<Mailbox> mailbox;
    Delivery delivery;
  };
  [[nodiscard]] static std::uint64_t link_key(MachineId src, MachineId dst) {
    return (static_cast<std::uint64_t>(src.value()) << 32) | dst.value();
  }
  std::unordered_map<std::uint64_t, LinkFaults> link_faults_;  // fault_mutex_
  std::unordered_map<std::uint64_t, Held> held_;               // fault_mutex_
  std::atomic<bool> link_faults_active_{false};
  std::atomic<std::size_t> held_count_{0};

  std::atomic<std::uint64_t> next_id_{1};
};

}  // namespace amoeba::net
