#include "amoeba/net/network.hpp"

#include <algorithm>

#include "amoeba/common/error.hpp"

namespace amoeba::net {

// ---------------------------------------------------------------- TapHandle

TapHandle& TapHandle::operator=(TapHandle&& other) noexcept {
  if (this != &other) {
    if (net_ != nullptr) {
      net_->detach_tap(id_);
    }
    net_ = other.net_;
    id_ = other.id_;
    other.net_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

TapHandle::~TapHandle() {
  if (net_ != nullptr) {
    net_->detach_tap(id_);
  }
}

// ----------------------------------------------------------------- Receiver

Receiver& Receiver::operator=(Receiver&& other) noexcept {
  if (this != &other) {
    release();
    net_ = other.net_;
    put_port_ = other.put_port_;
    id_ = other.id_;
    mailbox_ = std::move(other.mailbox_);
    owns_mailbox_ = other.owns_mailbox_;
    other.net_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

Receiver::~Receiver() { release(); }

void Receiver::release() {
  if (net_ != nullptr && mailbox_ != nullptr) {
    if (owns_mailbox_) {
      mailbox_->close();
    }
    net_->unregister(id_, put_port_);
  }
  net_ = nullptr;
  mailbox_.reset();
}

// ------------------------------------------------------------------ Machine

Receiver Machine::listen(Port get_port) {
  return net_->register_listener(*this, get_port);
}

Receiver Machine::listen(Port get_port, std::shared_ptr<Mailbox> mailbox) {
  return net_->register_listener(*this, get_port, std::move(mailbox));
}

bool Machine::transmit(Message msg, MachineId dst) {
  return net_->transmit_from(*this, std::move(msg), dst);
}

void Machine::broadcast(Message msg) {
  net_->broadcast_from(*this, std::move(msg));
}

std::optional<MachineId> Machine::locate(Port put_port) {
  return net_->locate_from(*this, put_port);
}

std::optional<Machine::Location> Machine::cached(Port put_port) const {
  const std::lock_guard lock(locations_mutex_);
  const auto it = locations_.find(put_port);
  if (it == locations_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<Machine::Location> Machine::resolve(Port put_port,
                                                  bool& located) {
  located = false;
  std::unique_lock lock(locations_mutex_);
  for (;;) {
    const auto it = locations_.find(put_port);
    if (it != locations_.end()) {
      return it->second;
    }
    if (!locating_.contains(put_port)) {
      break;
    }
    // Single-flight: another thread is already broadcasting a LOCATE for
    // this port; ride its answer instead of adding to the storm.
    locate_cv_.wait(lock);
  }
  located = true;
  locating_.insert(put_port);
  lock.unlock();
  const auto found = locate(put_port);
  lock.lock();
  locating_.erase(put_port);
  std::optional<Location> result;
  if (found.has_value()) {
    result = Location{*found, ++next_generation_};
    locations_[put_port] = *result;
  }
  locate_cv_.notify_all();
  return result;
}

bool Machine::invalidate(Port put_port, std::uint64_t generation) {
  const std::lock_guard lock(locations_mutex_);
  const auto it = locations_.find(put_port);
  if (it == locations_.end() || it->second.generation != generation) {
    return false;  // a newer resolution (or none) replaced it
  }
  locations_.erase(it);
  return true;
}

void Machine::flush_locations() {
  const std::lock_guard lock(locations_mutex_);
  locations_.clear();
}

// ------------------------------------------------------------------ Network

Network::Network() : Network(Config()) {}

Network::Network(Config config, std::shared_ptr<const crypto::OneWayFn> f)
    : config_(config),
      f_(std::move(f)),
      taps_(std::make_shared<const TapList>()),
      drop_probability_(config.drop_probability),
      duplicate_probability_(config.duplicate_probability),
      reorder_probability_(config.reorder_probability),
      rng_(config.seed) {
  if (f_ == nullptr) {
    throw UsageError("Network requires a one-way function");
  }
}

Network::~Network() = default;

Machine& Network::add_machine(std::string name) {
  const std::lock_guard lock(machines_mutex_);
  const MachineId id(config_.machine_id_base +
                     static_cast<std::uint32_t>(machines_.size() + 1));
  machines_.push_back(std::unique_ptr<Machine>(
      new Machine(this, id, std::move(name), f_, config_.fbox_enabled)));
  return *machines_.back();
}

bool Network::is_local_machine(MachineId id) const {
  const std::lock_guard lock(machines_mutex_);
  return id.value() > config_.machine_id_base &&
         id.value() <= config_.machine_id_base + machines_.size();
}

void Network::mutate_taps(const std::function<void(TapList&)>& edit) {
  // Copy-on-write: writers serialize on taps_mutex_, readers (emit) keep
  // loading the previous immutable snapshot until the swap.
  const std::lock_guard lock(taps_mutex_);
  TapList next = *taps_.load();
  edit(next);
  const bool active = !next.empty();
  taps_.store(std::make_shared<const TapList>(std::move(next)));
  taps_active_.store(active, std::memory_order_release);
}

TapHandle Network::attach_tap(TapFn fn) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  mutate_taps([&](TapList& taps) { taps.emplace_back(id, std::move(fn)); });
  return TapHandle(this, id);
}

void Network::detach_tap(std::uint64_t id) {
  mutate_taps([&](TapList& taps) {
    std::erase_if(taps, [id](const auto& t) { return t.first == id; });
  });
}

void Network::set_fault_injection(double drop_probability,
                                  double duplicate_probability,
                                  double reorder_probability) {
  drop_probability_.store(drop_probability, std::memory_order_relaxed);
  duplicate_probability_.store(duplicate_probability,
                               std::memory_order_relaxed);
  reorder_probability_.store(reorder_probability, std::memory_order_relaxed);
  flush_held();  // lowering the knobs must not strand a held frame
}

void Network::set_link_faults(MachineId src, MachineId dst,
                              const LinkFaults& faults) {
  {
    const std::lock_guard lock(fault_mutex_);
    link_faults_[link_key(src, dst)] = faults;
    link_faults_active_.store(true, std::memory_order_release);
  }
  flush_held();
}

void Network::clear_link_faults() {
  {
    const std::lock_guard lock(fault_mutex_);
    link_faults_.clear();
    link_faults_active_.store(false, std::memory_order_release);
  }
  flush_held();
}

void Network::flush_held() {
  std::vector<Held> releases;
  {
    const std::lock_guard lock(fault_mutex_);
    releases.reserve(held_.size());
    for (auto& [link, held] : held_) {
      releases.push_back(std::move(held));
    }
    held_.clear();
    held_count_.store(0, std::memory_order_relaxed);
  }
  for (auto& held : releases) {
    stats_.delivered.fetch_add(1, std::memory_order_relaxed);
    held.mailbox->push(std::move(held.delivery));
  }
}

void Network::emit(const TapRecord& record) {
  // Snapshot load; taps run outside every lock (CP.22: never call unknown
  // code while holding a lock).
  const std::shared_ptr<const TapList> taps = taps_.load();
  for (const auto& [id, fn] : *taps) {
    fn(record);
  }
}

bool Network::taps_active() const {
  return taps_active_.load(std::memory_order_acquire);
}

Network::FaultPlan Network::fault_plan(MachineId src, MachineId dst,
                                       bool allow_hold) {
  double drop = drop_probability_.load(std::memory_order_relaxed);
  double duplicate = duplicate_probability_.load(std::memory_order_relaxed);
  double reorder = reorder_probability_.load(std::memory_order_relaxed);
  const bool links = link_faults_active_.load(std::memory_order_acquire);
  if (!links && drop <= 0.0 && duplicate <= 0.0 && reorder <= 0.0) {
    return {};  // fault-free fast path: no lock, no RNG draw
  }
  const std::lock_guard lock(fault_mutex_);
  if (links) {
    const auto it = link_faults_.find(link_key(src, dst));
    if (it != link_faults_.end()) {
      drop = it->second.drop;
      duplicate = it->second.duplicate;
      reorder = it->second.reorder;
    }
  }
  if (drop > 0.0 && rng_.uniform01() < drop) {
    stats_.dropped.fetch_add(1, std::memory_order_relaxed);
    return {.copies = 0};
  }
  FaultPlan plan;
  if (duplicate > 0.0 && rng_.uniform01() < duplicate) {
    stats_.duplicated.fetch_add(1, std::memory_order_relaxed);
    plan.copies = 2;
  }
  if (allow_hold && reorder > 0.0 && rng_.uniform01() < reorder) {
    plan.hold = true;
  }
  return plan;
}

Receiver Network::register_listener(Machine& m, Port get_port,
                                    std::shared_ptr<Mailbox> shared_mailbox) {
  const Port put_port = m.fbox().listen_port(get_port);
  const bool owns_mailbox = shared_mailbox == nullptr;
  auto mailbox =
      owns_mailbox ? std::make_shared<Mailbox>() : std::move(shared_mailbox);
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = stripe_for(put_port);
  const std::lock_guard lock(stripe.mutex);
  const PortMap* current = stripe.map.load(std::memory_order_relaxed);
  auto next = std::make_unique<PortMap>(current != nullptr ? *current
                                                           : PortMap{});
  // Rebuild only the edited port's entry; every other port's entry is
  // shared (shared_ptr shallow copy) between the old and new snapshots.
  auto entry = std::make_shared<PortEntry>();
  if (const auto it = next->find(put_port); it != next->end()) {
    entry->registrations = it->second->registrations;
    entry->cursor.store(it->second->cursor.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  }
  entry->registrations.push_back(Registration{id, m.id(), mailbox});
  (*next)[put_port] = std::move(entry);
  // Publish, THEN retire: readers pinned on the old snapshot keep it alive
  // through the epoch domain; new readers acquire the successor.
  stripe.map.store(next.release(), std::memory_order_release);
  if (current != nullptr) {
    common::EpochDomain::global().retire(current);
  }
  return Receiver(this, put_port, id, std::move(mailbox), owns_mailbox);
}

void Network::unregister(std::uint64_t id, Port put_port) {
  Stripe& stripe = stripe_for(put_port);
  const std::lock_guard lock(stripe.mutex);
  const PortMap* current = stripe.map.load(std::memory_order_relaxed);
  if (current == nullptr) {
    return;
  }
  const auto found = current->find(put_port);
  if (found == current->end()) {
    return;
  }
  auto next = std::make_unique<PortMap>(*current);
  auto entry = std::make_shared<PortEntry>();
  entry->registrations = found->second->registrations;
  entry->cursor.store(found->second->cursor.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  std::erase_if(entry->registrations,
                [id](const Registration& r) { return r.id == id; });
  if (entry->registrations.empty()) {
    // The whole entry -- including its round-robin cursor -- goes away
    // with the last GET, so port churn cannot grow the registry.
    next->erase(put_port);
  } else {
    (*next)[put_port] = std::move(entry);
  }
  stripe.map.store(next.release(), std::memory_order_release);
  common::EpochDomain::global().retire(current);
}

void Network::count_outgoing(const Message& msg, bool broadcast) {
  (broadcast ? stats_.broadcasts : stats_.unicasts)
      .fetch_add(1, std::memory_order_relaxed);
  if ((msg.header.flags & kFlagBatch) != 0) {
    stats_.batch_frames.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Network::transmit_from(Machine& src, Message msg, MachineId dst) {
  count_outgoing(msg, /*broadcast=*/false);
  // The F-box transformation happens on the way out; after this point the
  // message is in wire form and the secret get-port/signature values are
  // gone.
  src.fbox().transform_outgoing(msg.header);

  if (taps_active()) {
    emit(TapRecord{FrameKind::data, src.id(), dst, msg, Port()});
  }
  return deliver_one(src.id(), std::move(msg), dst);
}

bool Network::deliver_one(MachineId src, Message msg, MachineId dst) {
  const FaultPlan plan = fault_plan(src, dst, /*allow_hold=*/true);
  // Pick the destination mailbox: a registration on `dst` whose port
  // matches the frame's destination field.
  std::shared_ptr<Mailbox> mailbox;
  {
    // Lock-free registry probe: pin the epoch, read the stripe's current
    // immutable snapshot, copy the chosen mailbox shared_ptr out.  The
    // mailbox stays valid past the pin because the copy owns it.
    Stripe& stripe = stripe_for(msg.header.dest);
    const common::EpochDomain::Guard guard =
        common::EpochDomain::global().pin();
    const PortMap* map = stripe.map.load(std::memory_order_acquire);
    const auto it = map != nullptr ? map->find(msg.header.dest)
                                   : PortMap::const_iterator{};
    if (map != nullptr && it != map->end()) {
      // Round-robin across this port's registrations on that machine
      // (two passes over the tiny registration list -- no allocation on
      // the delivery fast path).
      const auto& registrations = it->second->registrations;
      std::size_t eligible = 0;
      for (const auto& reg : registrations) {
        eligible += reg.machine == dst ? 1 : 0;
      }
      if (eligible > 0) {
        std::size_t idx =
            it->second->cursor.fetch_add(1, std::memory_order_relaxed) %
            eligible;
        for (const auto& reg : registrations) {
          if (reg.machine == dst && idx-- == 0) {
            mailbox = reg.mailbox;
            break;
          }
        }
      }
    }
  }
  if (mailbox == nullptr) {
    stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    return false;  // receiving F-box had no GET outstanding
  }
  const std::uint64_t link = link_key(src, dst);
  int copies = plan.copies;
  bool stashed = false;
  if (plan.hold) {
    // Reorder injection: stash one copy until the NEXT frame on this link
    // has been delivered (at most one held frame per link; when the slot
    // is taken the frame falls through to normal delivery, which is
    // itself the reordering for the already-held one).  A duplicate copy
    // rolled for the same frame is NOT held -- it is delivered below, so
    // duplication and reordering compose instead of cancelling.
    {
      const std::lock_guard lock(fault_mutex_);
      if (!held_.contains(link)) {
        held_.emplace(link, Held{mailbox, Delivery{src, msg}});
        held_count_.fetch_add(1, std::memory_order_relaxed);
        stashed = true;
      }
    }
    if (stashed) {
      stats_.reordered.fetch_add(1, std::memory_order_relaxed);
      if (--copies <= 0) {
        return true;  // the lone copy rides the holdback slot
      }
    }
  }
  stats_.delivered.fetch_add(static_cast<std::uint64_t>(copies),
                             std::memory_order_relaxed);
  for (int i = 0; i + 1 < copies; ++i) {
    mailbox->push(Delivery{src, msg});
  }
  if (copies > 0) {
    mailbox->push(Delivery{src, std::move(msg)});  // last copy moves
  }
  // A frame held on this link is released AFTER the one just handled --
  // the actual reordering (never the frame stashed this very call).
  // held_count_ keeps the fault-free path off the fault mutex.
  if (!stashed && held_count_.load(std::memory_order_relaxed) > 0) {
    std::optional<Held> release;
    {
      const std::lock_guard lock(fault_mutex_);
      const auto it = held_.find(link);
      if (it != held_.end()) {
        release.emplace(std::move(it->second));
        held_.erase(it);
        held_count_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (release.has_value()) {
      stats_.delivered.fetch_add(1, std::memory_order_relaxed);
      release->mailbox->push(std::move(release->delivery));
    }
  }
  return true;
}

void Network::broadcast_from(Machine& src, Message msg) {
  count_outgoing(msg, /*broadcast=*/true);
  src.fbox().transform_outgoing(msg.header);

  if (taps_active()) {
    emit(TapRecord{FrameKind::data, src.id(), MachineId(), msg, Port()});
  }
  broadcast_deliver(src.id(), msg);
}

void Network::broadcast_deliver(MachineId src, const Message& msg) {
  std::vector<std::pair<std::shared_ptr<Mailbox>, MachineId>> targets;
  {
    Stripe& stripe = stripe_for(msg.header.dest);
    const common::EpochDomain::Guard guard =
        common::EpochDomain::global().pin();
    const PortMap* map = stripe.map.load(std::memory_order_acquire);
    const auto it = map != nullptr ? map->find(msg.header.dest)
                                   : PortMap::const_iterator{};
    if (map != nullptr && it != map->end()) {
      targets.reserve(it->second->registrations.size());
      for (const auto& reg : it->second->registrations) {
        targets.emplace_back(reg.mailbox, reg.machine);
      }
    }
  }
  if (targets.empty()) {
    stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Fault injection applies PER DELIVERY LEG: each receiving machine is a
  // distinct (src -> dst) link, so per-link overrides target individual
  // receivers, independent drop dice can lose a broadcast at some
  // receivers but not others, and reorder holdback works exactly like the
  // unicast path (one held frame per link, released by the next frame on
  // that same link).
  for (auto& [mailbox, dst] : targets) {
    const FaultPlan plan = fault_plan(src, dst, /*allow_hold=*/true);
    int copies = plan.copies;
    const std::uint64_t link = link_key(src, dst);
    bool stashed = false;
    if (plan.hold) {
      {
        const std::lock_guard lock(fault_mutex_);
        if (!held_.contains(link)) {
          held_.emplace(link, Held{mailbox, Delivery{src, msg}});
          held_count_.fetch_add(1, std::memory_order_relaxed);
          stashed = true;
        }
      }
      if (stashed) {
        stats_.reordered.fetch_add(1, std::memory_order_relaxed);
        --copies;
      }
    }
    if (copies > 0) {
      stats_.delivered.fetch_add(static_cast<std::uint64_t>(copies),
                                 std::memory_order_relaxed);
      for (int i = 0; i < copies; ++i) {
        mailbox->push(Delivery{src, msg});
      }
    }
    // A frame previously held on this link is released AFTER the one just
    // delivered -- the reordering -- mirroring the unicast path.
    if (!stashed && copies > 0 &&
        held_count_.load(std::memory_order_relaxed) > 0) {
      std::optional<Held> release;
      {
        const std::lock_guard lock(fault_mutex_);
        const auto it = held_.find(link);
        if (it != held_.end()) {
          release.emplace(std::move(it->second));
          held_.erase(it);
          held_count_.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      if (release.has_value()) {
        stats_.delivered.fetch_add(1, std::memory_order_relaxed);
        release->mailbox->push(std::move(release->delivery));
      }
    }
  }
}

std::optional<MachineId> Network::lookup_listener(Port put_port) {
  Stripe& stripe = stripe_for(put_port);
  const common::EpochDomain::Guard guard = common::EpochDomain::global().pin();
  const PortMap* map = stripe.map.load(std::memory_order_acquire);
  const auto it =
      map != nullptr ? map->find(put_port) : PortMap::const_iterator{};
  if (map != nullptr && it != map->end() &&
      !it->second->registrations.empty()) {
    return it->second->registrations.front().machine;
  }
  return std::nullopt;
}

std::optional<MachineId> Network::locate_from(Machine& src, Port put_port) {
  stats_.locates.fetch_add(1, std::memory_order_relaxed);
  if (taps_active()) {
    emit(TapRecord{FrameKind::locate_request, src.id(), MachineId(),
                   Message{}, put_port});
  }
  const std::optional<MachineId> found = lookup_listener(put_port);
  if (found.has_value() && taps_active()) {
    emit(TapRecord{FrameKind::locate_reply, *found, src.id(), Message{},
                   put_port});
  }
  return found;
}

}  // namespace amoeba::net
