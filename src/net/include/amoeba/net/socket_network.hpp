// Real-socket transport: the simulated LAN's frame surface over TCP.
//
// A SocketNetwork is a Network whose machines can also reach machines
// hosted by OTHER SocketNetwork instances -- typically other processes --
// through length-prefixed frames on TCP connections.  Everything above the
// frame surface (rpc::Transport, at-most-once retransmission, replication
// shipping) works unchanged, because the surface is unchanged:
//
//   * transmit: a local destination takes the in-process path (including
//     this node's fault knobs); a remote destination is routed onto the
//     TCP link its machine id was learned from.  A frame sent while the
//     link is down is silently dropped -- exactly the best-effort contract
//     the simulated wire already has, which the at-most-once layer's
//     retransmission is built to absorb.
//   * locate: local registrations answer immediately; otherwise a LOCATE
//     request fans out to every connected peer and the first positive
//     reply wins (the paper's broadcast LOCATE, §2.2).
//   * the stamped source machine id travels inside every frame, so
//     at-most-once identity (src machine, client id, seq) survives TCP
//     reconnects -- a retransmitted request arriving on a brand-new
//     connection still hits the same reply-cache entry.
//
// Identity across processes: all nodes must construct their schemes and
// F-boxes from the same deterministic one-way function (the library
// default), and each node takes a disjoint Config::machine_id_base so
// machine ids are unique clusterwide.  Trust note: over real sockets the
// source machine id is asserted by the sending node rather than enforced
// by hardware; the deployment must make links as trustworthy as the
// paper's F-box wire (see docs/PROTOCOL.md §10).
//
// Faults are NOT injected by this transport (the local fault knobs apply
// only to locally delivered frames).  Deployment-shaped loss, delay, and
// partition come from net::FrameProxy sitting between nodes.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "amoeba/net/network.hpp"

namespace amoeba::net {

/// One decoded stream-socket frame body (docs/PROTOCOL.md §10).  Which
/// fields carry meaning depends on `kind`.
struct SocketFrame {
  enum class Kind : std::uint8_t {
    data = 1,            // message
    locate_request = 2,  // port, nonce
    locate_reply = 3,    // port, nonce, machine
    hello = 4,           // machine_id_base
  };
  Kind kind = Kind::data;
  MachineId src{};
  MachineId dst{};
  Message message{};
  Port port{};
  std::uint64_t nonce = 0;
  MachineId machine{};  // a locate reply's hosting machine; never 0
  std::uint32_t machine_id_base = 0;
};

/// Upper bound on one frame body: a larger length prefix means the stream
/// desynchronized (or is hostile), and the link is torn down.
inline constexpr std::uint32_t kMaxSocketFrameBytes = 16u << 20;

/// The body of `frame`, without its length prefix.
[[nodiscard]] Buffer encode_socket_frame(const SocketFrame& frame);

/// Decodes one frame body.  nullopt for an unknown kind (skipped, so the
/// protocol can grow), a body shorter or longer than its kind's layout,
/// or a locate reply naming machine 0.  A body that decodes re-encodes to
/// the same bytes.
[[nodiscard]] std::optional<SocketFrame> decode_socket_frame(
    std::span<const std::uint8_t> body);

/// The body length a little-endian length prefix announces; nullopt
/// outside (0, kMaxSocketFrameBytes].
[[nodiscard]] std::optional<std::uint32_t> decode_socket_frame_length(
    std::span<const std::uint8_t, 4> prefix);

/// TCP endpoint of another SocketNetwork node (or a FrameProxy in front of
/// one).
struct PeerAddress {
  std::string host;
  std::uint16_t port = 0;
};

class SocketNetwork final : public Network {
 public:
  struct SocketConfig {
    Config net;                     // seed, F-box flag, machine_id_base, ...
    bool listen = true;             // accept inbound connections
    std::uint16_t listen_port = 0;  // 0 = ephemeral (see listen_port())
    std::vector<PeerAddress> peers;  // links this node dials and re-dials
    std::chrono::milliseconds reconnect_initial{25};
    std::chrono::milliseconds reconnect_cap{1000};
    std::chrono::milliseconds locate_timeout{1000};
  };

  struct SocketStats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t send_failures = 0;  // write errors (link then torn down)
    std::uint64_t unrouted = 0;       // remote dst with no learned route
    std::uint64_t connects = 0;       // successful outbound dials
    std::uint64_t accepts = 0;
    std::uint64_t disconnects = 0;
  };

  explicit SocketNetwork(SocketConfig config,
                         std::shared_ptr<const crypto::OneWayFn> f =
                             crypto::default_one_way());
  ~SocketNetwork() override;

  /// The TCP port the accept socket actually bound (resolves an ephemeral
  /// listen_port of 0).  Zero when listening is disabled.
  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }

  /// Blocks until the dialed link to peers[index] is up (tests and
  /// harnesses synchronize startup with this instead of sleeping).
  bool wait_connected(std::size_t peer_index,
                      std::chrono::milliseconds timeout);

  [[nodiscard]] SocketStats socket_stats() const;

 protected:
  bool transmit_from(Machine& src, Message msg, MachineId dst) override;
  void broadcast_from(Machine& src, Message msg) override;
  std::optional<MachineId> locate_from(Machine& src, Port put_port) override;

 private:
  /// One live TCP connection, inbound or outbound.  Writers serialize on
  /// write_mutex; the dedicated reader thread owns the read side.  Either
  /// side tearing the link marks it down and shuts the socket so the other
  /// side unblocks.
  struct Link {
    int fd = -1;
    int peer = -1;  // index into peers_ for outbound links, -1 inbound
    std::mutex write_mutex;
    std::atomic<bool> up{true};
    ~Link();  // closes fd when the last shared_ptr drops
  };

  /// Dialer state for one configured peer.
  struct Peer {
    PeerAddress addr;
    mutable std::mutex mutex;
    std::condition_variable_any cv;  // connect/disconnect/shutdown signal
    std::shared_ptr<Link> link;      // null until the first dial succeeds
    std::jthread dialer;
  };

  /// Where frames for a remote machine id go: the peer link (re-resolved
  /// per send so reconnects are picked up) or a specific inbound link.
  struct Route {
    int peer = -1;
    std::weak_ptr<Link> inbound;
  };

  void start_listener();
  void accept_loop(const std::stop_token& stop);
  void dial_loop(const std::stop_token& stop, std::size_t peer_index);
  void reader_loop(std::shared_ptr<Link> link);
  void adopt_link(std::shared_ptr<Link> link);
  void tear_down(Link& link);

  bool send_frame(Link& link, const Buffer& frame);
  /// Every currently-live link (the one outbound link per connected peer
  /// plus all inbound links).
  std::vector<std::shared_ptr<Link>> live_links();
  std::shared_ptr<Link> route_link(MachineId dst);
  void learn_route(MachineId machine, const std::shared_ptr<Link>& link);

  bool send_remote(MachineId src, const Message& msg, MachineId dst);
  void handle_frame(const std::shared_ptr<Link>& link, const Buffer& body);
  std::optional<MachineId> remote_locate(Port put_port);

  SocketConfig config_;
  std::uint16_t listen_port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};

  mutable std::mutex routes_mutex_;
  std::unordered_map<MachineId, Route> routes_;

  mutable std::mutex links_mutex_;
  std::vector<std::shared_ptr<Link>> inbound_;
  std::vector<std::jthread> readers_;

  struct PendingLocate {
    std::optional<MachineId> result;
    bool done = false;
  };
  std::mutex locates_mutex_;
  std::condition_variable locates_cv_;
  std::unordered_map<std::uint64_t, PendingLocate> pending_locates_;
  std::atomic<std::uint64_t> next_nonce_{1};

  struct AtomicSocketStats {
    std::atomic<std::uint64_t> frames_sent{0};
    std::atomic<std::uint64_t> frames_received{0};
    std::atomic<std::uint64_t> send_failures{0};
    std::atomic<std::uint64_t> unrouted{0};
    std::atomic<std::uint64_t> connects{0};
    std::atomic<std::uint64_t> accepts{0};
    std::atomic<std::uint64_t> disconnects{0};
  };
  AtomicSocketStats sstats_;

  // Declared last so every thread stops before members above are torn
  // down (jthread joins in reverse declaration order).
  std::vector<std::unique_ptr<Peer>> peers_;
  std::jthread acceptor_;
};

}  // namespace amoeba::net
