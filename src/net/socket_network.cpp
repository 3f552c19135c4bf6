#include "amoeba/net/socket_network.hpp"

#include <algorithm>
#include <array>

#include "amoeba/common/error.hpp"
#include "socket_util.hpp"

namespace amoeba::net {

namespace {

// One frame on the stream: u32 little-endian body length, then the body.
// Body layout: u8 kind | u32 src machine | u32 dst machine | payload.
// docs/PROTOCOL.md §10 is the normative description.
using Kind = SocketFrame::Kind;

void put_frame_kind(Writer& w, Kind kind, MachineId src, MachineId dst) {
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(src.value());
  w.u32(dst.value());
}

Buffer encode_data(MachineId src, MachineId dst, const Message& msg) {
  Writer w;
  put_frame_kind(w, Kind::data, src, dst);
  w.port(msg.header.dest);
  w.port(msg.header.reply);
  w.port(msg.header.signature);
  w.u16(msg.header.opcode);
  w.u16(msg.header.flags);
  w.u16(static_cast<std::uint16_t>(msg.header.status));
  w.raw(msg.header.capability);
  for (const std::uint64_t param : msg.header.params) {
    w.u64(param);
  }
  w.u64(msg.header.client);
  w.u64(msg.header.seq);
  w.u64(msg.header.incarnation);
  w.bytes(msg.data);
  return w.take();
}

void decode_data(Reader& r, Message* msg) {
  msg->header.dest = r.port();
  msg->header.reply = r.port();
  msg->header.signature = r.port();
  msg->header.opcode = r.u16();
  msg->header.flags = r.u16();
  msg->header.status = static_cast<ErrorCode>(r.u16());
  r.raw(msg->header.capability);
  for (std::uint64_t& param : msg->header.params) {
    param = r.u64();
  }
  msg->header.client = r.u64();
  msg->header.seq = r.u64();
  msg->header.incarnation = r.u64();
  msg->data = r.bytes();
}

Buffer encode_hello(std::uint32_t machine_id_base) {
  return encode_socket_frame(
      {.kind = Kind::hello, .machine_id_base = machine_id_base});
}

}  // namespace

Buffer encode_socket_frame(const SocketFrame& frame) {
  if (frame.kind == Kind::data) {
    return encode_data(frame.src, frame.dst, frame.message);
  }
  Writer w;
  put_frame_kind(w, frame.kind, frame.src, frame.dst);
  switch (frame.kind) {
    case Kind::locate_request:
      w.port(frame.port);
      w.u64(frame.nonce);
      break;
    case Kind::locate_reply:
      w.port(frame.port);
      w.u64(frame.nonce);
      w.u32(frame.machine.value());
      break;
    case Kind::hello:
      w.u32(frame.machine_id_base);
      break;
    case Kind::data:
      break;
  }
  return w.take();
}

std::optional<SocketFrame> decode_socket_frame(
    std::span<const std::uint8_t> body) {
  Reader r(body);
  SocketFrame frame;
  frame.kind = static_cast<Kind>(r.u8());
  frame.src = MachineId(r.u32());
  frame.dst = MachineId(r.u32());
  switch (frame.kind) {
    case Kind::data:
      decode_data(r, &frame.message);
      break;
    case Kind::locate_request:
      frame.port = r.port();
      frame.nonce = r.u64();
      break;
    case Kind::locate_reply:
      frame.port = r.port();
      frame.nonce = r.u64();
      frame.machine = MachineId(r.u32());
      if (frame.machine.is_null()) {
        return std::nullopt;
      }
      break;
    case Kind::hello:
      frame.machine_id_base = r.u32();
      break;
    default:
      return std::nullopt;  // unknown kinds are skipped: the protocol grows
  }
  if (!r.exhausted()) {
    return std::nullopt;
  }
  return frame;
}

std::optional<std::uint32_t> decode_socket_frame_length(
    std::span<const std::uint8_t, 4> prefix) {
  const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                            (static_cast<std::uint32_t>(prefix[1]) << 8) |
                            (static_cast<std::uint32_t>(prefix[2]) << 16) |
                            (static_cast<std::uint32_t>(prefix[3]) << 24);
  if (len == 0 || len > kMaxSocketFrameBytes) {
    return std::nullopt;
  }
  return len;
}

// The fd is closed only when the last reference drops: writers hold a
// shared_ptr across their write, so a torn-down (shutdown) fd can never be
// reused by a new socket while a write is still in flight on it.
SocketNetwork::Link::~Link() {
  if (fd >= 0) ::close(fd);
}

SocketNetwork::SocketNetwork(SocketConfig config,
                             std::shared_ptr<const crypto::OneWayFn> f)
    : Network(config.net, std::move(f)), config_(std::move(config)) {
  if (config_.listen) {
    start_listener();
  }
  peers_.reserve(config_.peers.size());
  for (const PeerAddress& addr : config_.peers) {
    auto peer = std::make_unique<Peer>();
    peer->addr = addr;
    peers_.push_back(std::move(peer));
  }
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    peers_[i]->dialer = std::jthread(
        [this, i](const std::stop_token& stop) { dial_loop(stop, i); });
  }
}

SocketNetwork::~SocketNetwork() {
  stopping_.store(true, std::memory_order_release);
  acceptor_.request_stop();
  for (const auto& peer : peers_) {
    peer->dialer.request_stop();
    peer->cv.notify_all();
  }
  if (listen_fd_ >= 0) {
    // Unblocks accept() on Linux; the fd itself is closed after the join.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (const auto& peer : peers_) {
    if (peer->dialer.joinable()) peer->dialer.join();
  }
  // No new links can appear now; tear the existing ones so readers unblock.
  for (const auto& link : live_links()) {
    tear_down(*link);
  }
  std::vector<std::jthread> readers;
  {
    const std::lock_guard lock(links_mutex_);
    readers.swap(readers_);
  }
  for (std::jthread& reader : readers) {
    if (reader.joinable()) reader.join();
  }
  {
    const std::lock_guard lock(locates_mutex_);
  }
  locates_cv_.notify_all();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void SocketNetwork::start_listener() {
  listen_fd_ = detail::listen_on(config_.listen_port, &listen_port_);
  if (listen_fd_ < 0) {
    throw UsageError("SocketNetwork: cannot listen on port " +
                     std::to_string(config_.listen_port));
  }
  acceptor_ = std::jthread(
      [this](const std::stop_token& stop) { accept_loop(stop); });
}

void SocketNetwork::accept_loop(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or fatally broken): stop accepting
    }
    if (stop.stop_requested()) {
      ::close(fd);
      return;
    }
    detail::set_nodelay(fd);
    auto link = std::make_shared<Link>();
    link->fd = fd;
    link->peer = -1;
    sstats_.accepts.fetch_add(1, std::memory_order_relaxed);
    send_frame(*link, encode_hello(config_.net.machine_id_base));
    adopt_link(std::move(link));
  }
}

void SocketNetwork::dial_loop(const std::stop_token& stop,
                              std::size_t peer_index) {
  Peer& peer = *peers_[peer_index];
  auto backoff = config_.reconnect_initial;
  while (!stop.stop_requested()) {
    {
      std::unique_lock lock(peer.mutex);
      if (peer.link != nullptr && peer.link->up.load()) {
        // Connected: sleep until the reader tears the link down.
        peer.cv.wait(lock, stop, [&] {
          return peer.link == nullptr || !peer.link->up.load();
        });
        continue;
      }
    }
    const int fd = detail::connect_to(peer.addr.host, peer.addr.port);
    if (stop.stop_requested()) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      std::unique_lock lock(peer.mutex);
      peer.cv.wait_for(lock, stop, backoff, [] { return false; });
      backoff = std::min(backoff * 2, config_.reconnect_cap);
      continue;
    }
    auto link = std::make_shared<Link>();
    link->fd = fd;
    link->peer = static_cast<int>(peer_index);
    sstats_.connects.fetch_add(1, std::memory_order_relaxed);
    send_frame(*link, encode_hello(config_.net.machine_id_base));
    {
      const std::lock_guard lock(peer.mutex);
      peer.link = link;
    }
    peer.cv.notify_all();  // wait_connected
    adopt_link(std::move(link));
    backoff = config_.reconnect_initial;
  }
}

void SocketNetwork::adopt_link(std::shared_ptr<Link> link) {
  const std::lock_guard lock(links_mutex_);
  if (stopping_.load(std::memory_order_acquire)) {
    ::close(link->fd);
    link->fd = -1;
    return;
  }
  if (link->peer < 0) {
    // Prune inbound links whose reader already tore them down, so a
    // client that reconnects many times does not grow the list forever.
    std::erase_if(inbound_,
                  [](const std::shared_ptr<Link>& l) { return !l->up.load(); });
    inbound_.push_back(link);
  }
  readers_.emplace_back([this, link = std::move(link)]() mutable {
    reader_loop(std::move(link));
  });
}

void SocketNetwork::tear_down(Link& link) {
  if (link.up.exchange(false)) {
    ::shutdown(link.fd, SHUT_RDWR);
    sstats_.disconnects.fetch_add(1, std::memory_order_relaxed);
    if (link.peer >= 0) {
      peers_[static_cast<std::size_t>(link.peer)]->cv.notify_all();
    }
  }
}

void SocketNetwork::reader_loop(std::shared_ptr<Link> link) {
  Buffer body;
  for (;;) {
    std::array<std::uint8_t, 4> len_bytes;
    if (!detail::read_exact(link->fd, len_bytes.data(), len_bytes.size())) {
      break;
    }
    const auto len = decode_socket_frame_length(len_bytes);
    if (!len.has_value()) break;
    body.resize(*len);
    if (!detail::read_exact(link->fd, body.data(), *len)) break;
    sstats_.frames_received.fetch_add(1, std::memory_order_relaxed);
    handle_frame(link, body);
  }
  tear_down(*link);
}

void SocketNetwork::handle_frame(const std::shared_ptr<Link>& link,
                                 const Buffer& body) {
  std::optional<SocketFrame> frame = decode_socket_frame(body);
  if (!frame.has_value()) return;  // malformed, or a kind from the future
  switch (frame->kind) {
    case Kind::data: {
      // Every frame names its true sender; that is how this node learns
      // which link reaches which remote machine (and how replies to a
      // reconnected client find its NEW connection).
      learn_route(frame->src, link);
      if (taps_active()) {
        emit(TapRecord{FrameKind::data, frame->src, frame->dst,
                       frame->message, Port()});
      }
      if (frame->dst.is_null()) {
        broadcast_deliver(frame->src, frame->message);
      } else {
        // Local fault knobs apply to the local leg exactly as on the
        // simulated wire; deployment-shaped faults live in FrameProxy.
        deliver_one(frame->src, std::move(frame->message), frame->dst);
      }
      break;
    }
    case Kind::locate_request:
      // Answer only on a local hit; silence means "not here" and the
      // requester times out (negative replies would race registration).
      if (const auto found = lookup_listener(frame->port); found.has_value()) {
        send_frame(*link, encode_socket_frame({.kind = Kind::locate_reply,
                                               .port = frame->port,
                                               .nonce = frame->nonce,
                                               .machine = *found}));
      }
      break;
    case Kind::locate_reply: {
      learn_route(frame->machine, link);
      {
        const std::lock_guard lock(locates_mutex_);
        const auto it = pending_locates_.find(frame->nonce);
        if (it != pending_locates_.end() && !it->second.done) {
          it->second.result = frame->machine;
          it->second.done = true;
        }
      }
      locates_cv_.notify_all();
      break;
    }
    case Kind::hello:
      break;  // connection liveness only; routes are learned per frame
  }
}

bool SocketNetwork::send_frame(Link& link, const Buffer& frame) {
  if (!link.up.load(std::memory_order_acquire)) return false;
  std::uint8_t len_bytes[4];
  const auto len = static_cast<std::uint32_t>(frame.size());
  len_bytes[0] = static_cast<std::uint8_t>(len);
  len_bytes[1] = static_cast<std::uint8_t>(len >> 8);
  len_bytes[2] = static_cast<std::uint8_t>(len >> 16);
  len_bytes[3] = static_cast<std::uint8_t>(len >> 24);
  const std::lock_guard lock(link.write_mutex);
  if (!link.up.load(std::memory_order_acquire)) return false;
  if (!detail::write_exact(link.fd, len_bytes, sizeof(len_bytes)) ||
      !detail::write_exact(link.fd, frame.data(), frame.size())) {
    sstats_.send_failures.fetch_add(1, std::memory_order_relaxed);
    tear_down(link);
    return false;
  }
  sstats_.frames_sent.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<std::shared_ptr<SocketNetwork::Link>> SocketNetwork::live_links() {
  std::vector<std::shared_ptr<Link>> links;
  for (const auto& peer : peers_) {
    const std::lock_guard lock(peer->mutex);
    if (peer->link != nullptr && peer->link->up.load()) {
      links.push_back(peer->link);
    }
  }
  {
    const std::lock_guard lock(links_mutex_);
    for (const auto& link : inbound_) {
      if (link->up.load()) links.push_back(link);
    }
  }
  return links;
}

void SocketNetwork::learn_route(MachineId machine,
                                const std::shared_ptr<Link>& link) {
  if (machine.is_null() || is_local_machine(machine)) return;
  const std::lock_guard lock(routes_mutex_);
  Route& route = routes_[machine];
  route.peer = link->peer;
  route.inbound = link->peer < 0 ? link : std::weak_ptr<Link>{};
}

std::shared_ptr<SocketNetwork::Link> SocketNetwork::route_link(MachineId dst) {
  Route route;
  {
    const std::lock_guard lock(routes_mutex_);
    const auto it = routes_.find(dst);
    if (it == routes_.end()) return nullptr;
    route = it->second;
  }
  if (route.peer >= 0) {
    Peer& peer = *peers_[static_cast<std::size_t>(route.peer)];
    const std::lock_guard lock(peer.mutex);
    if (peer.link != nullptr && peer.link->up.load()) return peer.link;
    return nullptr;  // link down; the dialer is already re-dialing
  }
  if (auto link = route.inbound.lock(); link != nullptr && link->up.load()) {
    return link;
  }
  return nullptr;
}

bool SocketNetwork::send_remote(MachineId src, const Message& msg,
                                MachineId dst) {
  bool known;
  {
    const std::lock_guard lock(routes_mutex_);
    known = routes_.contains(dst);
  }
  if (!known) {
    // Nothing ever taught us where `dst` lives: surface it like the
    // simulated wire's "no GET outstanding" so the caller re-locates.
    sstats_.unrouted.fetch_add(1, std::memory_order_relaxed);
    live_stats().rejected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::shared_ptr<Link> link = route_link(dst);
  if (link == nullptr || !send_frame(*link, encode_data(src, dst, msg))) {
    // Link down or torn mid-write: the frame is lost in flight, which is
    // inside the simulated wire's best-effort contract -- the admitted
    // frame "fell off the wire" and retransmission recovers.
    live_stats().dropped.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

bool SocketNetwork::transmit_from(Machine& src, Message msg, MachineId dst) {
  if (is_local_machine(dst)) {
    return Network::transmit_from(src, std::move(msg), dst);
  }
  count_outgoing(msg, /*broadcast=*/false);
  src.fbox().transform_outgoing(msg.header);
  if (taps_active()) {
    emit(TapRecord{FrameKind::data, src.id(), dst, msg, Port()});
  }
  return send_remote(src.id(), msg, dst);
}

void SocketNetwork::broadcast_from(Machine& src, Message msg) {
  count_outgoing(msg, /*broadcast=*/true);
  src.fbox().transform_outgoing(msg.header);
  if (taps_active()) {
    emit(TapRecord{FrameKind::data, src.id(), MachineId(), msg, Port()});
  }
  const Buffer frame = encode_data(src.id(), MachineId(), msg);
  for (const auto& link : live_links()) {
    send_frame(*link, frame);
  }
  broadcast_deliver(src.id(), msg);
}

std::optional<MachineId> SocketNetwork::remote_locate(Port put_port) {
  const std::vector<std::shared_ptr<Link>> links = live_links();
  if (links.empty()) return std::nullopt;
  const std::uint64_t nonce =
      next_nonce_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard lock(locates_mutex_);
    pending_locates_.emplace(nonce, PendingLocate{});
  }
  const Buffer frame = encode_socket_frame(
      {.kind = Kind::locate_request, .port = put_port, .nonce = nonce});
  for (const auto& link : links) {
    send_frame(*link, frame);
  }
  std::optional<MachineId> result;
  {
    std::unique_lock lock(locates_mutex_);
    locates_cv_.wait_for(lock, config_.locate_timeout, [&] {
      return pending_locates_.at(nonce).done ||
             stopping_.load(std::memory_order_acquire);
    });
    result = pending_locates_.at(nonce).result;
    pending_locates_.erase(nonce);
  }
  return result;
}

std::optional<MachineId> SocketNetwork::locate_from(Machine& src,
                                                    Port put_port) {
  live_stats().locates.fetch_add(1, std::memory_order_relaxed);
  if (taps_active()) {
    emit(TapRecord{FrameKind::locate_request, src.id(), MachineId(),
                   Message{}, put_port});
  }
  std::optional<MachineId> found = lookup_listener(put_port);
  if (!found.has_value()) {
    found = remote_locate(put_port);
  }
  if (found.has_value() && taps_active()) {
    emit(TapRecord{FrameKind::locate_reply, *found, src.id(), Message{},
                   put_port});
  }
  return found;
}

bool SocketNetwork::wait_connected(std::size_t peer_index,
                                   std::chrono::milliseconds timeout) {
  if (peer_index >= peers_.size()) return false;
  Peer& peer = *peers_[peer_index];
  std::unique_lock lock(peer.mutex);
  return peer.cv.wait_for(lock, timeout, [&] {
    return peer.link != nullptr && peer.link->up.load();
  });
}

SocketNetwork::SocketStats SocketNetwork::socket_stats() const {
  SocketStats stats;
  stats.frames_sent = sstats_.frames_sent.load(std::memory_order_relaxed);
  stats.frames_received =
      sstats_.frames_received.load(std::memory_order_relaxed);
  stats.send_failures = sstats_.send_failures.load(std::memory_order_relaxed);
  stats.unrouted = sstats_.unrouted.load(std::memory_order_relaxed);
  stats.connects = sstats_.connects.load(std::memory_order_relaxed);
  stats.accepts = sstats_.accepts.load(std::memory_order_relaxed);
  stats.disconnects = sstats_.disconnects.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace amoeba::net
