#include "amoeba/net/frame_proxy.hpp"

#include <array>

#include "amoeba/common/error.hpp"
#include "amoeba/common/serial.hpp"
#include "amoeba/net/socket_network.hpp"
#include "socket_util.hpp"

namespace amoeba::net {

FrameProxy::FrameProxy(Config config)
    : config_(std::move(config)), rng_(config_.seed) {
  listen_fd_ = detail::listen_on(config_.listen_port, &listen_port_);
  if (listen_fd_ < 0) {
    throw UsageError("FrameProxy: cannot listen on port " +
                     std::to_string(config_.listen_port));
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

FrameProxy::~FrameProxy() {
  stopping_.store(true, std::memory_order_release);
  ::shutdown(listen_fd_, SHUT_RDWR);
  acceptor_.join();
  std::vector<std::shared_ptr<Session>> sessions;
  {
    const std::lock_guard lock(sessions_mutex_);
    sessions.swap(sessions_);
  }
  for (const auto& session : sessions) {
    tear_down(*session);
  }
  for (const auto& session : sessions) {
    if (session->to_target.joinable()) session->to_target.join();
    if (session->to_client.joinable()) session->to_client.join();
    ::close(session->client_fd);
    ::close(session->target_fd);
  }
  ::close(listen_fd_);
}

void FrameProxy::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int client_fd = ::accept(listen_fd_, nullptr, nullptr);
    if (client_fd < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(client_fd);
      return;
    }
    const int target_fd =
        detail::connect_to(config_.target_host, config_.target_port);
    if (target_fd < 0) {
      // Target down: refuse the client too, so the failure propagates.
      ::close(client_fd);
      continue;
    }
    detail::set_nodelay(client_fd);
    auto session = std::make_shared<Session>();
    session->client_fd = client_fd;
    session->target_fd = target_fd;
    stats_.connections.fetch_add(1, std::memory_order_relaxed);
    session->to_target = std::thread(
        [this, session] { pump(session, session->client_fd, session->target_fd); });
    session->to_client = std::thread(
        [this, session] { pump(session, session->target_fd, session->client_fd); });
    const std::lock_guard lock(sessions_mutex_);
    std::erase_if(sessions_, [](const std::shared_ptr<Session>& s) {
      // Reap finished sessions (both pumps exited) so long runs with many
      // reconnects do not accumulate threads.
      if (s->up.load()) return false;
      if (s->to_target.joinable()) s->to_target.join();
      if (s->to_client.joinable()) s->to_client.join();
      ::close(s->client_fd);
      ::close(s->target_fd);
      return true;
    });
    sessions_.push_back(std::move(session));
  }
}

void FrameProxy::tear_down(Session& session) {
  if (session.up.exchange(false)) {
    ::shutdown(session.client_fd, SHUT_RDWR);
    ::shutdown(session.target_fd, SHUT_RDWR);
  }
}

void FrameProxy::pump(const std::shared_ptr<Session>& session, int from,
                      int to) {
  Buffer frame;
  for (;;) {
    std::array<std::uint8_t, 4> len_bytes;
    if (!detail::read_exact(from, len_bytes.data(), len_bytes.size())) break;
    // SocketNetwork's framing cap: a bigger length means the stream
    // desynchronized and the session is torn down.
    const auto len = decode_socket_frame_length(len_bytes);
    if (!len.has_value()) break;
    frame.resize(*len);
    if (!detail::read_exact(from, frame.data(), *len)) break;

    if (partitioned_.load(std::memory_order_relaxed)) {
      stats_.dropped.fetch_add(1, std::memory_order_relaxed);
      continue;  // connection stays up; the frame just never arrives
    }
    const double drop = drop_probability_.load(std::memory_order_relaxed);
    if (drop > 0.0) {
      double roll;
      {
        const std::lock_guard lock(rng_mutex_);
        roll = rng_.uniform01();
      }
      if (roll < drop) {
        stats_.dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    }
    const std::int64_t delay = delay_ms_.load(std::memory_order_relaxed);
    if (delay > 0) {
      stats_.delayed.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    if (!detail::write_exact(to, len_bytes.data(), len_bytes.size()) ||
        !detail::write_exact(to, frame.data(), frame.size())) {
      break;
    }
    stats_.forwarded.fetch_add(1, std::memory_order_relaxed);
  }
  tear_down(*session);
}

void FrameProxy::set_faults(double drop_probability,
                            std::chrono::milliseconds delay) {
  drop_probability_.store(drop_probability, std::memory_order_relaxed);
  delay_ms_.store(delay.count(), std::memory_order_relaxed);
}

void FrameProxy::set_partitioned(bool partitioned) {
  partitioned_.store(partitioned, std::memory_order_relaxed);
}

void FrameProxy::sever() {
  std::vector<std::shared_ptr<Session>> sessions;
  {
    const std::lock_guard lock(sessions_mutex_);
    sessions = sessions_;
  }
  for (const auto& session : sessions) {
    if (session->up.load()) {
      stats_.severed.fetch_add(1, std::memory_order_relaxed);
      tear_down(*session);
    }
  }
}

FrameProxy::Stats FrameProxy::stats() const {
  Stats stats;
  stats.forwarded = stats_.forwarded.load(std::memory_order_relaxed);
  stats.dropped = stats_.dropped.load(std::memory_order_relaxed);
  stats.delayed = stats_.delayed.load(std::memory_order_relaxed);
  stats.connections = stats_.connections.load(std::memory_order_relaxed);
  stats.severed = stats_.severed.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace amoeba::net
