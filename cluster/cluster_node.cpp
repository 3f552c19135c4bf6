// One cluster process: a SocketNetwork node hosting a single service
// role over a FileBackend volume.
//
//   cluster_node --role bank|replica|directory
//                --name NAME --run-dir DIR --volume DIR
//                [--listen PORT] [--base N] [--seed N] [--incarnation N]
//                [--peer host:port]...
//                [--replica-cap HEX32 --replica-name NAME]
//
// The process is designed to be SIGKILLed: all durable state lives in
// the volume (storage layer journal), all identity in fixed GET-ports,
// the shared scheme, and the machine-id base.  A restart with the same
// arguments (plus a bumped --incarnation) recovers the volume, re-lists
// on the same port, and serves every capability minted by its previous
// life.  Startup completion is signalled by atomically writing
// <run-dir>/<name>.boot; the harness polls for the expected incarnation.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/net/socket_network.hpp"
#include "amoeba/rpc/replication.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/servers/directory_server.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/replication/replicated_backend.hpp"
#include "cluster_proto.hpp"

namespace amoeba::cluster {
namespace {

using namespace std::chrono_literals;

struct Options {
  std::string role;
  std::string name;
  std::filesystem::path run_dir;
  std::filesystem::path volume;
  std::uint16_t listen_port = 0;
  std::uint32_t machine_base = 0;
  std::uint64_t seed = 1;
  std::uint64_t incarnation = 1;
  std::vector<net::PeerAddress> peers;
  std::optional<core::Capability> replica_cap;
  std::string replica_name = "replica";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "cluster_node: %s\n", why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage("missing argument value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--role") {
      opt.role = next(i);
    } else if (arg == "--name") {
      opt.name = next(i);
    } else if (arg == "--run-dir") {
      opt.run_dir = next(i);
    } else if (arg == "--volume") {
      opt.volume = next(i);
    } else if (arg == "--listen") {
      opt.listen_port = static_cast<std::uint16_t>(std::stoul(next(i)));
    } else if (arg == "--base") {
      opt.machine_base = static_cast<std::uint32_t>(std::stoul(next(i)));
    } else if (arg == "--seed") {
      opt.seed = std::stoull(next(i));
    } else if (arg == "--incarnation") {
      opt.incarnation = std::stoull(next(i));
    } else if (arg == "--peer") {
      const std::string peer = next(i);
      const auto colon = peer.rfind(':');
      if (colon == std::string::npos) usage("--peer wants host:port");
      opt.peers.push_back(
          {peer.substr(0, colon),
           static_cast<std::uint16_t>(std::stoul(peer.substr(colon + 1)))});
    } else if (arg == "--replica-cap") {
      const auto bytes = from_hex(next(i));
      if (!bytes.has_value()) usage("--replica-cap wants 32 hex digits");
      opt.replica_cap = core::unpack(*bytes);
    } else if (arg == "--replica-name") {
      opt.replica_name = next(i);
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (opt.role.empty() || opt.name.empty() || opt.run_dir.empty() ||
      opt.volume.empty()) {
    usage("--role, --name, --run-dir, --volume are required");
  }
  return opt;
}

void write_boot_file(const Options& opt, const net::SocketNetwork& net,
                     MachineId machine,
                     const std::vector<std::pair<std::string, std::string>>&
                         extra) {
  std::ostringstream out;
  out << "port=" << net.listen_port() << "\n";
  out << "machine=" << machine.value() << "\n";
  out << "incarnation=" << opt.incarnation << "\n";
  for (const auto& [key, value] : extra) out << key << "=" << value << "\n";
  write_file_atomic(opt.run_dir / (opt.name + ".boot"), out.str());
}

[[noreturn]] void serve_forever() {
  while (true) std::this_thread::sleep_for(1h);
}

int run(const Options& opt) {
  Rng scheme_rng(kSchemeSeed);
  auto scheme = core::make_scheme(core::SchemeKind::commutative, scheme_rng);

  // Client-side at-most-once identity is derived from (seed, machine id),
  // both of which a restart reproduces exactly -- but the peer's persisted
  // reply-cache floor remembers the PREVIOUS life's sequence numbers, so a
  // reborn client with the same identity and a fresh seq counter would be
  // rejected as stale duplicates forever.  Fold the incarnation into every
  // seed that feeds an outbound transport (the replication link, the
  // directory boot client) so each life speaks as a brand-new client.
  const std::uint64_t epoch_seed =
      opt.seed + (opt.incarnation - 1) * 1'000'003;

  net::SocketNetwork::SocketConfig config;
  config.net.seed = opt.seed;
  config.net.machine_id_base = opt.machine_base;
  config.listen_port = opt.listen_port;
  config.peers = opt.peers;
  net::SocketNetwork net(config);
  net::Machine& machine = net.add_machine(opt.name);
  for (std::size_t i = 0; i < opt.peers.size(); ++i) {
    if (!net.wait_connected(i, 30'000ms)) {
      std::fprintf(stderr, "cluster_node %s: peer %zu unreachable\n",
                   opt.name.c_str(), i);
      return 1;
    }
  }

  auto local = std::make_shared<storage::FileBackend>(opt.volume);

  if (opt.role == "replica") {
    rpc::ReplicaServer replica(machine, Port(kReplicaGetPort), scheme,
                               opt.seed, local);
    replica.start(2);
    write_boot_file(opt, net, machine.id(),
                    {{"volume", to_hex(core::pack(replica.volume_capability()))}});
    serve_forever();
  }

  if (opt.role == "bank") {
    std::shared_ptr<storage::Backend> backend = local;
    if (opt.replica_cap.has_value()) {
      backend = rpc::replicate_to(
          local, storage::AckMode::ack_one, machine, epoch_seed + 1,
          {{opt.replica_name, *opt.replica_cap}});
    }
    servers::BankServer bank(machine, Port(kBankGetPort), scheme, opt.seed,
                             backend);
    bank.start(2);
    write_boot_file(opt, net, machine.id(),
                    {{"master", to_hex(core::pack(bank.master_capability()))}});
    serve_forever();
  }

  if (opt.role == "directory") {
    servers::DirectoryServer directory(machine, Port(kDirectoryGetPort),
                                       scheme, opt.seed, local);
    directory.start(2);

    // The root directory is created once, through a loopback client on
    // this same node; its capability is durable in the volume, so later
    // incarnations reuse the persisted one.
    const std::filesystem::path root_file = opt.run_dir / (opt.name + ".root");
    std::string root_hex;
    if (const auto kv = read_kv(root_file); kv.contains("root")) {
      root_hex = kv.at("root");
    } else {
      net::Machine& boot = net.add_machine(opt.name + "-boot");
      rpc::Transport transport(boot, epoch_seed + 2);
      servers::DirectoryClient client(transport, directory.put_port());
      const auto root = client.create_dir();
      if (!root.ok()) {
        std::fprintf(stderr, "cluster_node %s: create_dir failed\n",
                     opt.name.c_str());
        return 1;
      }
      root_hex = to_hex(core::pack(root.value()));
      write_file_atomic(root_file, "root=" + root_hex + "\n");
    }
    write_boot_file(opt, net, machine.id(), {{"root", root_hex}});
    serve_forever();
  }

  usage(("unknown role " + opt.role).c_str());
}

}  // namespace
}  // namespace amoeba::cluster

int main(int argc, char** argv) {
  return amoeba::cluster::run(amoeba::cluster::parse(argc, argv));
}
