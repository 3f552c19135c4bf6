// The benchmark's cluster: three cluster_node processes started with the
// same arguments cluster_harness gives them, and no fault proxy between
// them and the client:
//
//   replica  <--journal shipping (ack-one)--  bank  <--TCP-->  client
//                                         directory <--TCP-->  client
//
// plus the two ways the benchmark looks at a running node from outside:
// /proc/<pid> (CPU, context switches, bytes written, RSS) and the std.info
// operation with its detail flag (per-op handler counters and the node's
// deployment line).
#pragma once

#include <sys/types.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "amoeba/core/capability.hpp"
#include "amoeba/net/socket_network.hpp"
#include "amoeba/rpc/transport.hpp"

namespace amoeba::bench {

/// The processes the benchmark measures; the first three are servers.
enum Role : std::size_t { kBank = 0, kReplica, kDirectory, kClient, kRoles };
inline constexpr std::size_t kServers = 3;
inline constexpr std::array<const char*, kRoles> kRoleNames = {
    "bank", "replica", "directory", "client"};

/// The journal backend every node runs on: the nodes get no --backend, so
/// cluster_node uses its default.
inline constexpr const char* kNodeBackend = "file";

/// Counters of one process, read from /proc/<pid>.
struct ProcSample {
  double cpu_s = 0.0;                // utime + stime of the whole process
  std::uint64_t ctx_switches = 0;    // voluntary + involuntary, all tasks
  std::uint64_t write_bytes = 0;     // bytes sent to the storage layer
  std::uint64_t write_syscalls = 0;  // syscw
  double rss_mb = 0.0;
};
[[nodiscard]] ProcSample read_proc(pid_t pid);

/// One operation's handler counters as std.info reports them.
struct OpCounters {
  std::uint64_t calls = 0;
  std::uint64_t total_us = 0;
  std::uint64_t max_us = 0;
};

/// A parsed detailed std.info reply: the numeric key=value fields of the
/// deployment line (e.g. gc.groups, replica.lag) and the per-op counters.
struct ServiceInfo {
  std::map<std::string, std::uint64_t> detail;
  std::map<std::string, OpCounters> ops;

  [[nodiscard]] std::uint64_t field(const std::string& key) const {
    const auto it = detail.find(key);
    return it == detail.end() ? 0 : it->second;
  }
  [[nodiscard]] OpCounters op(const std::string& name) const {
    const auto it = ops.find(name);
    return it == ops.end() ? OpCounters{} : it->second;
  }
};
[[nodiscard]] std::optional<ServiceInfo> read_info(
    rpc::Transport& transport, const core::Capability& cap);

/// A running three-node cluster and the client's SocketNetwork connected
/// to it.  Every node is SIGKILLed and reaped when the object dies, and
/// each dies with this process too (PR_SET_PDEATHSIG), so no node outlives
/// the benchmark.  Throws std::runtime_error when a node fails to start.
class Cluster {
 public:
  Cluster(std::filesystem::path node_bin, std::filesystem::path run_dir);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] net::SocketNetwork& network() { return *net_; }
  [[nodiscard]] pid_t pid(Role role) const { return nodes_.pids.at(role); }
  /// The bank's master account, the directory's root, the replica volume.
  [[nodiscard]] const core::Capability& master() const { return master_; }
  [[nodiscard]] const core::Capability& root() const { return root_; }
  [[nodiscard]] const core::Capability& volume() const { return volume_; }
  [[nodiscard]] Port bank_port() const { return master_.server_port; }
  [[nodiscard]] Port dir_port() const { return root_.server_port; }

  /// Bytes of all files under the role's volume directory.
  [[nodiscard]] std::uint64_t volume_bytes(Role role) const;

  /// SIGKILLs the bank and restarts it on the same volume and port with
  /// the next incarnation.  Returns the seconds from the kill until
  /// `probe` completes a balance of `account` against the new bank,
  /// polling every millisecond.
  [[nodiscard]] double restart_bank(rpc::Transport& probe,
                                    const core::Capability& account);

 private:
  /// The node processes, SIGKILLed and reaped on destruction -- also when
  /// the Cluster constructor throws halfway.
  struct Nodes {
    std::array<pid_t, kServers> pids{-1, -1, -1};
    Nodes() = default;
    ~Nodes();
    Nodes(const Nodes&) = delete;
    Nodes& operator=(const Nodes&) = delete;
  };

  pid_t spawn(const std::vector<std::string>& args, const std::string& name);
  /// Polls <name>.boot until it reports `incarnation`; throws when the
  /// role's node exits first or 30 s pass.
  [[nodiscard]] std::map<std::string, std::string> wait_boot(
      Role role, const std::string& name, std::uint64_t incarnation);
  [[nodiscard]] std::vector<std::string> node_args(
      const std::string& role, const std::string& name,
      const std::string& base, const std::string& seed) const;

  std::filesystem::path node_bin_;
  std::filesystem::path run_dir_;
  Nodes nodes_;
  std::vector<std::string> bank_args_;
  std::string bank_listen_port_;
  std::uint64_t bank_incarnation_ = 1;
  core::Capability master_;
  core::Capability root_;
  core::Capability volume_;
  std::unique_ptr<net::SocketNetwork> net_;
};

}  // namespace amoeba::bench
