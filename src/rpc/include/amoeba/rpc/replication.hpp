// Replication over the RPC layer (docs/PROTOCOL.md §9): the typed rep.*
// operations a backup speaks, the ReplicaServer that applies them to its
// local volume, the Transport-backed ReplicationLink the primary ships
// through, and the replicate_to() wiring that turns any local backend
// into a replication primary.
//
// The division of labor with src/storage/replication: storage owns WHAT
// ships (commit.log frames, floors, ack modes, the shipping queues) and is
// transport-blind; this header owns HOW it travels -- each shipment is one
// at-most-once transaction against the backup's volume capability, so the
// reply cache suppresses retransmitted shipments exactly as it suppresses
// any other duplicated transaction, and the replica's frame-number floor
// suppresses what the cache has already evicted.
//
// Failover (§9.4): a backup's volume is byte-equivalent to the primary's,
// secrets included.  rep_promote() seals the backup against further
// shipments (a deposed primary is fenced with `immutable`) and returns its
// applied floor; constructing ordinary servers over the promoted volume
// re-mints nothing -- every capability minted before the crash validates,
// and restored reply floors still suppress pre-crash duplicates.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "amoeba/core/object_store.hpp"
#include "amoeba/rpc/op.hpp"
#include "amoeba/rpc/server.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/storage/replication/replica.hpp"
#include "amoeba/storage/replication/replicated_backend.hpp"

namespace amoeba::rpc {

namespace rep_ops {

/// Every replication op answers with the backup's durably-applied floor
/// (a duplicate shipment acks with the unchanged floor).
struct AckReply {
  std::uint64_t applied = 0;
  using Wire = Layout<AckReply, Param<0, &AckReply::applied>>;
};

/// One shipment (storage/replication/wire.hpp): commit.log frames as
/// written, as the bulk data field.
struct AppendGroupRequest {
  Buffer frame;
  using Wire =
      Layout<AppendGroupRequest, RawData<&AppendGroupRequest::frame>>;
};

/// No-op probe carrying the sender's highest shipped frame number; it
/// mutates nothing and answers the backup's applied floor.
struct HeartbeatRequest {
  std::uint64_t shipped = 0;
  using Wire =
      Layout<HeartbeatRequest, Param<0, &HeartbeatRequest::shipped>>;
};

inline constexpr Op<AppendGroupRequest, AckReply> kAppendGroup{
    0x0701, "rep.append_group", core::rights::kWrite};
inline constexpr Op<HeartbeatRequest, AckReply> kHeartbeat{
    0x0703, "rep.heartbeat", Rights::none()};
/// Failover: seal this backup against further shipments and return its
/// final floor.  Owner operation -- "obviously this operation must be
/// protected with a bit in the RIGHTS field".
inline constexpr Op<Empty, AckReply> kPromote{0x0704, "rep.promote",
                                              core::rights::kAdmin};

}  // namespace rep_ops

/// The backup machine's replication service: one control-plane object
/// (the volume) whose capability gates all rep.* traffic, applied to the
/// local backend through a storage::ReplicaApplier.  After a primary
/// crash, promote() (or the rep_promote RPC) seals the applier; the
/// caller then constructs ordinary servers over backend() -- with the
/// SAME get-port and protection scheme the primary used -- and every
/// pre-crash capability validates against them.
class ReplicaServer : public Service {
 public:
  ReplicaServer(net::Machine& machine, Port get_port,
                std::shared_ptr<const core::ProtectionScheme> scheme,
                std::uint64_t seed, std::shared_ptr<storage::Backend> local);

  /// The capability the primary ships with (hand it to replicate_to()).
  [[nodiscard]] const core::Capability& volume_capability() const {
    return volume_;
  }
  [[nodiscard]] storage::ReplicaApplier& applier() { return applier_; }
  /// The replicated volume itself (what failover builds servers over).
  [[nodiscard]] const std::shared_ptr<storage::Backend>& backend() const {
    return applier_.local();
  }

 private:
  /// Control-plane marker: rep.* ops guard the whole volume, so the store
  /// holds exactly one object and the payload carries nothing.
  struct Volume {};
  using Store = core::ObjectStore<Volume>;

  storage::ReplicaApplier applier_;
  Store store_;
  core::Capability volume_;
};

/// storage::ReplicationLink over the at-most-once transaction layer: one
/// Transport per link (links ship from dedicated threads), one
/// transaction per shipment, addressed through the backup's volume
/// capability.
class TransportReplicationLink final : public storage::ReplicationLink {
 public:
  TransportReplicationLink(net::Machine& machine, std::uint64_t seed,
                           std::string peer_name, core::Capability volume);

  [[nodiscard]] std::string peer_name() const override;
  [[nodiscard]] Result<std::uint64_t> ship_cycle(
      std::span<const std::uint8_t> frame) override;

 private:
  Transport transport_;
  std::string peer_name_;
  core::Capability volume_;
};

/// One backup a primary ships to.
struct ReplicaTarget {
  std::string name;          // diagnostic label (std_info lag lines)
  core::Capability volume;   // the backup ReplicaServer's volume capability
};

/// The --replicate-to wiring: wraps `local` as a replication primary that
/// ships every durable write to each listed backup, acknowledged per
/// `mode`.  Hand the returned backend to a server constructor unchanged --
/// the server's GroupCommitter binds itself to it and every flush cycle
/// ships automatically.  With an empty target list the volume behaves
/// exactly like `local`.
[[nodiscard]] std::shared_ptr<storage::ReplicatedBackend> replicate_to(
    std::shared_ptr<storage::Backend> local, storage::AckMode mode,
    net::Machine& machine, std::uint64_t seed,
    const std::vector<ReplicaTarget>& targets);

/// Client-side failover trigger: seals the backup behind `volume` and
/// returns its final applied floor.
[[nodiscard]] Result<std::uint64_t> rep_promote(
    Transport& transport, const core::Capability& volume);

}  // namespace amoeba::rpc
