#include "amoeba/rpc/replication.hpp"

#include <utility>

#include "amoeba/rpc/typed.hpp"

namespace amoeba::rpc {

ReplicaServer::ReplicaServer(net::Machine& machine, Port get_port,
                             std::shared_ptr<const core::ProtectionScheme> scheme,
                             std::uint64_t seed,
                             std::shared_ptr<storage::Backend> local)
    : Service(machine, get_port, "replica"),
      applier_(std::move(local)),
      store_(std::move(scheme), machine.fbox().listen_port(get_port), seed) {
  // The control-plane store is deliberately in-memory: the volume
  // capability is deployment configuration (minted fresh per incarnation
  // and handed to the primary), not replicated state.  The DATA the
  // applier maintains lives in the local backend and survives restarts.
  volume_ = store_.create(Volume{});

  register_std_ops(*this, store_);
  set_info_detail([this] {
    std::string line =
        applier_.promoted() ? "role=promoted" : "role=backup";
    line += " applied=" + std::to_string(applier_.applied());
    return line;
  });

  on(rep_ops::kAppendGroup, store_,
     [this](const auto& call) -> Result<rep_ops::AckReply> {
       const auto applied = applier_.apply_shipment(call.body.frame);
       if (!applied.ok()) {
         return applied.error();
       }
       return rep_ops::AckReply{applied.value()};
     });
  on(rep_ops::kHeartbeat, store_,
     [this](const auto&) -> Result<rep_ops::AckReply> {
       return rep_ops::AckReply{applier_.applied()};
     });
  on(rep_ops::kPromote, store_,
     [this](const auto&) -> Result<rep_ops::AckReply> {
       return rep_ops::AckReply{applier_.promote()};
     });
}

TransportReplicationLink::TransportReplicationLink(net::Machine& machine,
                                                   std::uint64_t seed,
                                                   std::string peer_name,
                                                   core::Capability volume)
    : transport_(machine, seed),
      peer_name_(std::move(peer_name)),
      volume_(volume) {}

std::string TransportReplicationLink::peer_name() const { return peer_name_; }

Result<std::uint64_t> TransportReplicationLink::ship_cycle(
    std::span<const std::uint8_t> shipment) {
  return call<&rep_ops::AckReply::applied>(
      transport_, volume_.server_port, rep_ops::kAppendGroup, volume_,
      {Buffer(shipment.begin(), shipment.end())});
}

std::shared_ptr<storage::ReplicatedBackend> replicate_to(
    std::shared_ptr<storage::Backend> local, storage::AckMode mode,
    net::Machine& machine, std::uint64_t seed,
    const std::vector<ReplicaTarget>& targets) {
  auto replicated =
      std::make_shared<storage::ReplicatedBackend>(std::move(local), mode);
  for (const ReplicaTarget& target : targets) {
    replicated->attach_peer(std::make_shared<TransportReplicationLink>(
        machine, seed, target.name, target.volume));
  }
  return replicated;
}

Result<std::uint64_t> rep_promote(Transport& transport,
                                  const core::Capability& volume) {
  return call<&rep_ops::AckReply::applied>(transport, volume.server_port,
                                           rep_ops::kPromote, volume);
}

}  // namespace amoeba::rpc
