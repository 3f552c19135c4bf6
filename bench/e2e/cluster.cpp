#include "cluster.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "cluster_proto.hpp"

namespace amoeba::bench {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

namespace {

[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

/// Value of the "key: value" (or "key:\tvalue") line named `key`.
[[nodiscard]] std::uint64_t proc_field(const fs::path& path,
                                       std::string_view key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > key.size() && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ':') {
      std::string_view value(line);
      value.remove_prefix(key.size() + 1);
      const auto start = value.find_first_not_of(" \t");
      value.remove_prefix(start == std::string_view::npos ? value.size()
                                                          : start);
      return parse_u64(value).value_or(0);
    }
  }
  return 0;
}

[[nodiscard]] core::Capability capability_from_hex(const std::string& hex) {
  const auto bytes = cluster::from_hex(hex);
  if (!bytes.has_value()) {
    throw std::runtime_error("bench_e2e: malformed capability in boot file");
  }
  return core::unpack(*bytes);
}

}  // namespace

ProcSample read_proc(pid_t pid) {
  ProcSample sample;
  const fs::path dir = fs::path("/proc") / std::to_string(pid);
  {
    std::ifstream in(dir / "stat");
    std::string line;
    std::getline(in, line);
    // The command name may hold spaces; fields are counted after its ')'.
    const auto close = line.rfind(')');
    std::vector<std::string> fields;
    if (close != std::string::npos) {
      std::istringstream rest(line.substr(close + 1));
      for (std::string field; rest >> field;) fields.push_back(field);
    }
    // fields[0] is field 3 (state): utime is 14, stime 15, rss 24.
    if (fields.size() > 21) {
      static const double kTicks = static_cast<double>(::sysconf(_SC_CLK_TCK));
      static const double kPage = static_cast<double>(::sysconf(_SC_PAGESIZE));
      sample.cpu_s = static_cast<double>(parse_u64(fields[11]).value_or(0) +
                                         parse_u64(fields[12]).value_or(0)) /
                     kTicks;
      sample.rss_mb = static_cast<double>(parse_u64(fields[21]).value_or(0)) *
                      kPage / (1024.0 * 1024.0);
    }
  }
  sample.write_bytes = proc_field(dir / "io", "write_bytes");
  sample.write_syscalls = proc_field(dir / "io", "syscw");
  std::error_code ec;
  for (const auto& task : fs::directory_iterator(dir / "task", ec)) {
    const fs::path status = task.path() / "status";
    sample.ctx_switches += proc_field(status, "voluntary_ctxt_switches") +
                           proc_field(status, "nonvoluntary_ctxt_switches");
  }
  return sample;
}

std::optional<ServiceInfo> read_info(rpc::Transport& transport,
                                     const core::Capability& cap) {
  auto text = rpc::std_info(transport, cap, /*detail=*/true);
  if (!text.ok()) {
    return std::nullopt;
  }
  // Line 1 describes the object, line 2 is the deployment line, and each
  // further line is "<op> calls=N errors=N total_us=N max_us=N".
  ServiceInfo info;
  std::istringstream in(text.value());
  std::string line;
  std::getline(in, line);
  std::getline(in, line);
  {
    std::istringstream fields(line);
    for (std::string field; fields >> field;) {
      const auto eq = field.find('=');
      if (eq == std::string::npos) continue;
      if (const auto v = parse_u64(std::string_view(field).substr(eq + 1))) {
        info.detail[field.substr(0, eq)] = *v;
      }
    }
  }
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    OpCounters counters;
    for (std::string field; fields >> field;) {
      const auto eq = field.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = field.substr(0, eq);
      const std::uint64_t v =
          parse_u64(std::string_view(field).substr(eq + 1)).value_or(0);
      if (key == "calls") counters.calls = v;
      if (key == "total_us") counters.total_us = v;
      if (key == "max_us") counters.max_us = v;
    }
    info.ops[name] = counters;
  }
  return info;
}

// ------------------------------------------------------------------ Cluster

Cluster::Nodes::~Nodes() {
  for (const pid_t pid : pids) {
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  for (const pid_t pid : pids) {
    if (pid > 0) ::waitpid(pid, nullptr, 0);
  }
}

Cluster::Cluster(fs::path node_bin, fs::path run_dir)
    : node_bin_(std::move(node_bin)), run_dir_(std::move(run_dir)) {
  fs::create_directories(run_dir_);
  // The replica and the directory depend on nothing; the bank needs the
  // replica's port and volume capability.
  nodes_.pids[kReplica] =
      spawn(node_args("replica", "replica", "200", "11"), "replica");
  nodes_.pids[kDirectory] =
      spawn(node_args("directory", "dir", "300", "13"), "dir");
  const auto replica = wait_boot(kReplica, "replica", 1);
  const auto dir = wait_boot(kDirectory, "dir", 1);
  bank_args_ = node_args("bank", "bank", "100", "7");
  bank_args_.insert(bank_args_.end(),
                    {"--peer", "127.0.0.1:" + replica.at("port"),
                     "--replica-cap", replica.at("volume")});
  nodes_.pids[kBank] = spawn(bank_args_, "bank");
  const auto bank = wait_boot(kBank, "bank", 1);
  bank_listen_port_ = bank.at("port");
  master_ = capability_from_hex(bank.at("master"));
  root_ = capability_from_hex(dir.at("root"));
  volume_ = capability_from_hex(replica.at("volume"));

  net::SocketNetwork::SocketConfig config;
  config.net.seed = 401;
  config.net.machine_id_base = 9000;
  config.listen = false;
  // The replica link carries only std.info reads.
  for (const std::string& port :
       {bank_listen_port_, dir.at("port"), replica.at("port")}) {
    config.peers.push_back(
        {"127.0.0.1", static_cast<std::uint16_t>(std::stoul(port))});
  }
  // Re-dial a killed bank every millisecond, so recovery_s measures the
  // bank's restart and not the client's reconnect backoff.
  config.reconnect_initial = 1ms;
  config.reconnect_cap = 1ms;
  net_ = std::make_unique<net::SocketNetwork>(config);
  for (std::size_t i = 0; i < config.peers.size(); ++i) {
    if (!net_->wait_connected(i, 10s)) {
      throw std::runtime_error("bench_e2e: cannot connect to cluster node");
    }
  }
}

Cluster::~Cluster() = default;

std::vector<std::string> Cluster::node_args(const std::string& role,
                                            const std::string& name,
                                            const std::string& base,
                                            const std::string& seed) const {
  return {node_bin_.string(), "--role",   role,
          "--name",           name,       "--run-dir",
          run_dir_.string(),  "--volume", (run_dir_ / (name + "_vol")).string(),
          "--base",           base,       "--seed",
          seed};
}

pid_t Cluster::spawn(const std::vector<std::string>& args,
                     const std::string& name) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  const std::string log = (run_dir_ / (name + ".log")).string();
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("bench_e2e: fork failed");
  }
  if (pid == 0) {
    // Only async-signal-safe calls until execv.  The death signal follows
    // the forking thread, which is always the benchmark's main thread.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
    }
    // A node holding dups of the client's sockets would keep torn links
    // half-open after a kill.
    for (int f = 3; f < 1024; ++f) ::close(f);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  return pid;
}

std::map<std::string, std::string> Cluster::wait_boot(
    Role role, const std::string& name, std::uint64_t incarnation) {
  const fs::path path = run_dir_ / (name + ".boot");
  const auto deadline = Clock::now() + 30s;
  while (Clock::now() < deadline) {
    auto kv = cluster::read_kv(path);
    if (kv.contains("incarnation") &&
        std::stoull(kv.at("incarnation")) >= incarnation) {
      return kv;
    }
    const pid_t pid = nodes_.pids.at(role);
    if (::waitpid(pid, nullptr, WNOHANG) == pid) {
      nodes_.pids.at(role) = -1;  // reaped: its pid may be reused
      throw std::runtime_error("bench_e2e: node " + name + " exited; see " +
                               (run_dir_ / (name + ".log")).string());
    }
    std::this_thread::sleep_for(2ms);
  }
  throw std::runtime_error("bench_e2e: node " + name + " never booted");
}

std::uint64_t Cluster::volume_bytes(Role role) const {
  static constexpr std::array<const char*, kServers> kVolumes = {
      "bank_vol", "replica_vol", "dir_vol"};
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       fs::recursive_directory_iterator(run_dir_ / kVolumes.at(role), ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

double Cluster::restart_bank(rpc::Transport& probe,
                             const core::Capability& account) {
  servers::BankClient bank(probe, bank_port());
  // Fill the probe's location cache first: a cold probe would LOCATE while
  // the bank is down and sit out the whole locate timeout.
  (void)bank.balance(account, servers::currency::kDollar);
  const auto killed_at = Clock::now();
  ::kill(nodes_.pids[kBank], SIGKILL);
  ::waitpid(nodes_.pids[kBank], nullptr, 0);
  nodes_.pids[kBank] = -1;
  ++bank_incarnation_;
  std::vector<std::string> args = bank_args_;
  args.insert(args.end(), {"--listen", bank_listen_port_, "--incarnation",
                           std::to_string(bank_incarnation_)});
  nodes_.pids[kBank] = spawn(args, "bank");
  while (!bank.balance(account, servers::currency::kDollar).ok()) {
    if (Clock::now() - killed_at > 60s) {
      throw std::runtime_error("bench_e2e: the bank did not recover");
    }
    std::this_thread::sleep_for(1ms);
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - killed_at).count();
  (void)wait_boot(kBank, "bank", bank_incarnation_);
  return seconds;
}

}  // namespace amoeba::bench
