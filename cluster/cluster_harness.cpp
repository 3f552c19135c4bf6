// Multi-process load/fault harness: the cluster run "in anger".
//
// The harness fork/execs cluster_node processes (found next to its own
// binary) over FileBackend volumes in a temp run directory:
//
//   replica  <--journal shipping--  bank  <--TCP-->  FrameProxy  <-- us
//                                   directory <----> FrameProxy  <-- us
//
// then drives thousands of client sessions with Zipf-skewed account
// popularity from N worker threads, each with its own Machine and
// at-most-once Transport.  Mid-run it turns the proxy fault knobs
// (drop + delay, then a full partition) and SIGKILLs the bank process,
// restarting it over the same volume on the same port.  Afterwards,
// with the wire clean, it verifies the cluster's invariants:
//
//   * conservation: sum of all balances == sum of all money minted;
//   * every surviving capability (hot accounts + per-session sinks)
//     still validates against the recovered server;
//   * no duplicate execution: each session's sink holds at most one
//     transfer's worth -- exactly one if the transfer confirmed, zero
//     or one if it timed out in-doubt.
//
// Latency per op class (resolve/read/create/transfer) and goodput are
// appended as one JSON line to BENCH_cluster.json (see --out), the
// perf trajectory the repo carries across PRs, stamped with the commit,
// host cores and build type that produced it (bench/e2e/stamp.hpp).
// Exit status reflects the invariants: nonzero means the cluster lost or
// duplicated money.
//
//   cluster_harness [--smoke] [--sessions N] [--clients N] [--out PATH]
//                   [--no-crash] [--keep]
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/capability.hpp"
#include "amoeba/net/frame_proxy.hpp"
#include "amoeba/net/socket_network.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/servers/directory_server.hpp"
#include "cluster_proto.hpp"
#include "e2e/stamp.hpp"

namespace amoeba::cluster {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

constexpr int kHotAccounts = 64;
constexpr std::int64_t kMintPerAccount = 1'000'000;
constexpr std::int64_t kTransferAmount = 5;
/// Worker w draws its sessions from Rng(kLoadSeed + w); the row's stamp
/// names the base.
constexpr std::uint64_t kLoadSeed = 1000;

struct Options {
  bool smoke = false;
  bool crash = true;
  bool keep = false;
  int sessions = 1200;
  int clients = 8;
  std::string out = "BENCH_cluster.json";
};

Options parse(int argc, char** argv) {
  Options opt;
  bool sessions_set = false;
  bool clients_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "cluster_harness: %s wants a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--no-crash") {
      opt.crash = false;
    } else if (arg == "--keep") {
      opt.keep = true;
    } else if (arg == "--sessions") {
      opt.sessions = std::stoi(next());
      sessions_set = true;
    } else if (arg == "--clients") {
      opt.clients = std::stoi(next());
      clients_set = true;
    } else if (arg == "--out") {
      opt.out = next();
    } else {
      std::fprintf(stderr, "cluster_harness: unknown flag %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (opt.smoke) {
    if (!sessions_set) opt.sessions = 50;
    if (!clients_set) opt.clients = 4;
  }
  return opt;
}

/// fork/exec with stdout+stderr redirected to a log file in the run dir.
pid_t spawn(const std::vector<std::string>& args, const fs::path& log) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
    }
    // Drop every inherited descriptor: a child that keeps dups of the
    // harness's proxy/client sockets holds torn connections half-alive
    // (the peer never sees EOF), which silently blackholes the proxy
    // after a kill/restart.
    for (int f = 3; f < 1024; ++f) ::close(f);
    ::execv(argv[0], argv.data());
    std::perror("execv");
    ::_exit(127);
  }
  return pid;
}

/// Polls for <name>.boot reporting (at least) `incarnation`.
std::optional<std::map<std::string, std::string>> wait_boot(
    const fs::path& run_dir, const std::string& name,
    std::uint64_t incarnation, std::chrono::milliseconds timeout) {
  const fs::path path = run_dir / (name + ".boot");
  const auto deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    auto kv = read_kv(path);
    if (kv.contains("incarnation") &&
        std::stoull(kv.at("incarnation")) >= incarnation) {
      return kv;
    }
    std::this_thread::sleep_for(25ms);
  }
  return std::nullopt;
}

/// Zipf(s) over [0, n): precomputed CDF, sampled by inverse transform.
class Zipf {
 public:
  Zipf(int n, double s) {
    cdf_.reserve(static_cast<std::size_t>(n));
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  [[nodiscard]] int sample(Rng& rng) const {
    const double u = rng.uniform01();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

enum class Outcome : std::uint8_t { confirmed, in_doubt, failed };

struct SessionRecord {
  core::Capability sink;
  bool has_sink = false;
  Outcome outcome = Outcome::failed;
};

struct OpClass {
  std::vector<double> latencies_us;  // completed (ok) ops only
  std::uint64_t failures = 0;
};

struct WorkerResult {
  std::vector<SessionRecord> sessions;
  // resolve / read / create / transfer
  std::array<OpClass, 4> ops;
};

enum { kResolve = 0, kRead = 1, kCreate = 2, kTransfer = 3 };
constexpr std::array<const char*, 4> kOpNames = {"resolve", "read", "create",
                                                "transfer"};

/// Times one client call; records latency on success, a failure count
/// otherwise.  Returns the call's success.
template <typename Fn>
bool timed(OpClass& cls, Fn&& fn) {
  const auto start = Clock::now();
  const bool ok = fn();
  if (ok) {
    cls.latencies_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
  } else {
    ++cls.failures;
  }
  return ok;
}

double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
  return sorted[idx];
}

/// Every child gets killed on every exit path: the harness must not
/// leave orphan servers holding ports.
struct ChildReaper {
  std::vector<pid_t> pids;
  ~ChildReaper() {
    for (pid_t pid : pids) {
      if (pid > 0) ::kill(pid, SIGTERM);
    }
    for (pid_t pid : pids) {
      if (pid > 0) ::waitpid(pid, nullptr, 0);
    }
  }
};

int run(const Options& opt) {
  // --- Topology -----------------------------------------------------
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) {
    std::perror("readlink /proc/self/exe");
    return 1;
  }
  self[n] = '\0';
  const fs::path node_bin = fs::path(self).parent_path() / "cluster_node";

  char run_template[] = "/tmp/amoeba_cluster_XXXXXX";
  const char* run_cstr = ::mkdtemp(run_template);
  if (run_cstr == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const fs::path run_dir(run_cstr);
  const bool with_directory = !opt.smoke;
  std::printf("cluster_harness: run dir %s (%d sessions, %d clients, %s)\n",
              run_dir.c_str(), opt.sessions, opt.clients,
              opt.smoke ? "smoke" : "full");

  ChildReaper children;
  auto launch = [&](const std::vector<std::string>& args,
                    const std::string& name) {
    const pid_t pid = spawn(args, run_dir / (name + ".log"));
    children.pids.push_back(pid);
    return pid;
  };

  const std::vector<std::string> replica_args = {
      node_bin.string(), "--role",   "replica",
      "--name",          "replica",  "--run-dir",
      run_dir.string(),  "--volume", (run_dir / "replica_vol").string(),
      "--base",          "200",      "--seed",
      "11"};
  launch(replica_args, "replica");
  const auto replica_boot = wait_boot(run_dir, "replica", 1, 30s);
  if (!replica_boot.has_value()) {
    std::fprintf(stderr, "cluster_harness: replica never booted\n");
    return 1;
  }

  std::vector<std::string> bank_args = {
      node_bin.string(), "--role",   "bank",
      "--name",          "bank",     "--run-dir",
      run_dir.string(),  "--volume", (run_dir / "bank_vol").string(),
      "--base",          "100",      "--seed",
      "7",               "--peer",   "127.0.0.1:" + replica_boot->at("port"),
      "--replica-cap",   replica_boot->at("volume")};
  pid_t bank_pid = launch(bank_args, "bank");
  const auto bank_boot = wait_boot(run_dir, "bank", 1, 30s);
  if (!bank_boot.has_value()) {
    std::fprintf(stderr, "cluster_harness: bank never booted\n");
    return 1;
  }
  const std::string bank_port = bank_boot->at("port");
  // The restart must land on the SAME port (the client's peer list is
  // fixed) with a bumped incarnation for the boot-file rendezvous.
  std::vector<std::string> bank_restart_args = bank_args;
  bank_restart_args.insert(bank_restart_args.end(),
                           {"--listen", bank_port, "--incarnation", "2"});

  std::string dir_root_hex;
  std::string dir_port;
  if (with_directory) {
    const std::vector<std::string> dir_args = {
        node_bin.string(), "--role",   "directory",
        "--name",          "dir",      "--run-dir",
        run_dir.string(),  "--volume", (run_dir / "dir_vol").string(),
        "--base",          "300",      "--seed",
        "13"};
    launch(dir_args, "dir");
    const auto dir_boot = wait_boot(run_dir, "dir", 1, 30s);
    if (!dir_boot.has_value()) {
      std::fprintf(stderr, "cluster_harness: directory never booted\n");
      return 1;
    }
    dir_port = dir_boot->at("port");
    dir_root_hex = dir_boot->at("root");
  }

  // --- Proxies + client node ---------------------------------------
  net::FrameProxy bank_proxy(
      {.target_port = static_cast<std::uint16_t>(std::stoul(bank_port)),
       .seed = 101});
  std::unique_ptr<net::FrameProxy> dir_proxy;
  if (with_directory) {
    dir_proxy = std::make_unique<net::FrameProxy>(net::FrameProxy::Config{
        .target_port = static_cast<std::uint16_t>(std::stoul(dir_port)),
        .seed = 102});
  }

  net::SocketNetwork::SocketConfig client_config;
  client_config.net.seed = 401;
  client_config.net.machine_id_base = 9000;
  client_config.listen = false;
  client_config.peers = {{"127.0.0.1", bank_proxy.listen_port()}};
  if (dir_proxy != nullptr) {
    client_config.peers.push_back({"127.0.0.1", dir_proxy->listen_port()});
  }
  net::SocketNetwork client_net(client_config);
  net::Machine& setup_machine = client_net.add_machine("setup");
  std::vector<net::Machine*> worker_machines;
  for (int i = 0; i < opt.clients; ++i) {
    worker_machines.push_back(
        &client_net.add_machine("worker-" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < client_config.peers.size(); ++i) {
    if (!client_net.wait_connected(i, 10s)) {
      std::fprintf(stderr, "cluster_harness: proxy %zu unreachable\n", i);
      return 1;
    }
  }

  const core::Capability master =
      core::unpack(from_hex(bank_boot->at("master")).value());
  const core::Capability dir_root =
      with_directory ? core::unpack(from_hex(dir_root_hex).value())
                     : core::Capability{};
  // Capabilities carry their managing server's PUT-port, so the boot
  // capabilities are all the addressing the harness needs.
  const Port bank_put = master.server_port;

  // --- Setup: hot accounts, minting, directory names (fault-free) --
  rpc::Transport setup_transport(setup_machine, 701);
  setup_transport.set_default_timeout(15'000ms);
  servers::BankClient setup_bank(setup_transport, bank_put);
  std::vector<core::Capability> hot;
  for (int i = 0; i < kHotAccounts; ++i) {
    auto account = setup_bank.create_account();
    if (!account.ok()) {
      std::fprintf(stderr, "cluster_harness: setup create_account failed\n");
      return 1;
    }
    if (!setup_bank
             .mint(master, account.value(), servers::currency::kDollar,
                   kMintPerAccount)
             .ok()) {
      std::fprintf(stderr, "cluster_harness: setup mint failed\n");
      return 1;
    }
    hot.push_back(account.value());
  }
  if (with_directory) {
    servers::DirectoryClient setup_dir(setup_transport,
                                       dir_root.server_port);
    for (int i = 0; i < kHotAccounts; ++i) {
      if (!setup_dir.enter(dir_root, "acct-" + std::to_string(i), hot[i])
               .ok()) {
        std::fprintf(stderr, "cluster_harness: setup enter failed\n");
        return 1;
      }
    }
  }
  std::printf("cluster_harness: setup done, starting load\n");

  // --- Load ---------------------------------------------------------
  const Zipf zipf(kHotAccounts, 1.1);
  std::atomic<int> next_session{0};
  std::atomic<int> done_sessions{0};
  std::vector<WorkerResult> results(
      static_cast<std::size_t>(opt.clients));
  const auto load_start = Clock::now();

  std::vector<std::jthread> workers;
  for (int w = 0; w < opt.clients; ++w) {
    workers.emplace_back([&, w] {
      WorkerResult& out = results[static_cast<std::size_t>(w)];
      Rng rng(kLoadSeed + static_cast<std::uint64_t>(w));
      rpc::Transport transport(*worker_machines[static_cast<std::size_t>(w)],
                               2000 + static_cast<std::uint64_t>(w));
      transport.set_retransmit(10ms, 250ms);
      transport.set_default_timeout(15'000ms);
      servers::BankClient bank(transport, bank_put);
      std::optional<servers::DirectoryClient> dir;
      if (with_directory) dir.emplace(transport, dir_root.server_port);

      while (true) {
        const int session = next_session.fetch_add(1);
        if (session >= opt.sessions) break;
        const int h = zipf.sample(rng);
        core::Capability source = hot[static_cast<std::size_t>(h)];

        if (dir.has_value()) {
          core::Capability resolved;
          if (timed(out.ops[kResolve], [&] {
                auto r = dir->lookup(dir_root, "acct-" + std::to_string(h));
                if (r.ok()) resolved = r.value();
                return r.ok();
              })) {
            source = resolved;
          }
        }

        (void)timed(out.ops[kRead], [&] {
          return bank.balance(source, servers::currency::kDollar).ok();
        });

        SessionRecord record;
        if (!timed(out.ops[kCreate], [&] {
              auto r = bank.create_account();
              if (r.ok()) {
                record.sink = r.value();
                record.has_sink = true;
              }
              return r.ok();
            })) {
          out.sessions.push_back(record);  // Outcome::failed
          done_sessions.fetch_add(1);
          continue;
        }

        const bool transferred = timed(out.ops[kTransfer], [&] {
          return bank
              .transfer(source, record.sink, servers::currency::kDollar,
                        kTransferAmount)
              .ok();
        });
        record.outcome = transferred ? Outcome::confirmed : Outcome::in_doubt;
        out.sessions.push_back(record);
        done_sessions.fetch_add(1);
      }
    });
  }

  // --- Fault schedule (driven by session progress) -----------------
  bool crashed = false;
  {
    auto progress_past = [&](int threshold) {
      while (done_sessions.load() < threshold &&
             done_sessions.load() < opt.sessions) {
        std::this_thread::sleep_for(20ms);
      }
    };
    progress_past(opt.sessions / 5);
    std::printf("cluster_harness: fault window: 15%% drop + 1ms delay\n");
    bank_proxy.set_faults(0.15, 1ms);
    if (dir_proxy != nullptr) dir_proxy->set_faults(0.10);

    progress_past(opt.sessions * 7 / 20);
    bank_proxy.set_faults(0.0);
    if (dir_proxy != nullptr) dir_proxy->set_faults(0.0);
    std::printf("cluster_harness: fault window: 400ms full partition\n");
    bank_proxy.set_partitioned(true);
    std::this_thread::sleep_for(400ms);
    bank_proxy.set_partitioned(false);

    if (opt.crash) {
      progress_past(opt.sessions / 2);
      std::printf("cluster_harness: SIGKILL bank (pid %d), restarting\n",
                  static_cast<int>(bank_pid));
      ::kill(bank_pid, SIGKILL);
      ::waitpid(bank_pid, nullptr, 0);
      std::erase(children.pids, bank_pid);
      std::this_thread::sleep_for(250ms);
      bank_pid = spawn(bank_restart_args, run_dir / "bank.log");
      children.pids.push_back(bank_pid);
      if (!wait_boot(run_dir, "bank", 2, 60s).has_value()) {
        std::fprintf(stderr, "cluster_harness: bank never came back\n");
        return 1;
      }
      std::printf("cluster_harness: bank restarted (pid %d)\n",
                  static_cast<int>(bank_pid));
      crashed = true;
    }

    progress_past(opt.sessions * 7 / 10);
    std::printf("cluster_harness: fault window: 5%% drop tail\n");
    bank_proxy.set_faults(0.05);
    progress_past(opt.sessions * 17 / 20);
    bank_proxy.set_faults(0.0);
  }

  workers.clear();  // join
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - load_start).count();

  // --- Invariants (wire clean) -------------------------------------
  bank_proxy.set_faults(0.0);
  bank_proxy.set_partitioned(false);
  bool validates_ok = true;
  bool no_dup_ok = true;
  std::int64_t total_balance = 0;
  for (const auto& cap : hot) {
    const auto balance = setup_bank.balance(cap, servers::currency::kDollar);
    if (!balance.ok()) {
      validates_ok = false;
      continue;
    }
    total_balance += balance.value();
  }
  std::uint64_t confirmed = 0;
  std::uint64_t in_doubt = 0;
  std::uint64_t failed = 0;
  for (const auto& result : results) {
    for (const auto& session : result.sessions) {
      switch (session.outcome) {
        case Outcome::confirmed: ++confirmed; break;
        case Outcome::in_doubt: ++in_doubt; break;
        case Outcome::failed: ++failed; break;
      }
      if (!session.has_sink) continue;
      const auto balance =
          setup_bank.balance(session.sink, servers::currency::kDollar);
      if (!balance.ok()) {
        validates_ok = false;
        continue;
      }
      total_balance += balance.value();
      const std::int64_t v = balance.value();
      if (session.outcome == Outcome::confirmed && v != kTransferAmount) {
        no_dup_ok = false;  // lost (v == 0) or duplicated (v > amount)
      }
      if (v != 0 && v != kTransferAmount) no_dup_ok = false;
    }
  }
  const std::int64_t total_minted =
      static_cast<std::int64_t>(kHotAccounts) * kMintPerAccount;
  const bool conservation_ok = total_balance == total_minted;

  // --- Report -------------------------------------------------------
  std::array<OpClass, 4> merged;
  for (auto& result : results) {
    for (std::size_t c = 0; c < merged.size(); ++c) {
      auto& into = merged[c].latencies_us;
      auto& from = result.ops[c].latencies_us;
      into.insert(into.end(), from.begin(), from.end());
      merged[c].failures += result.ops[c].failures;
    }
  }
  std::uint64_t completed_ops = 0;
  for (const auto& cls : merged) completed_ops += cls.latencies_us.size();
  const double goodput =
      elapsed_s > 0.0 ? static_cast<double>(completed_ops) / elapsed_s : 0.0;

  const bench::Stamp stamp =
      bench::make_stamp(AMOEBA_SOURCE_DIR, AMOEBA_BUILD_TYPE, "file",
                        opt.smoke ? "smoke" : "full", kLoadSeed);
  std::string json =
      "{\"bench\": \"cluster\", \"stamp\": " + bench::to_json(stamp);
  {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  ", \"mode\": \"%s\", "
                  "\"servers\": %d, \"sessions\": %d, \"clients\": %d, "
                  "\"crash\": %s, \"elapsed_s\": %.3f, "
                  "\"goodput_ops_per_s\": %.1f",
                  stamp.mode.c_str(), with_directory ? 3 : 2, opt.sessions,
                  opt.clients, crashed ? "true" : "false", elapsed_s, goodput);
    json += buf;
    for (std::size_t c = 0; c < merged.size(); ++c) {
      std::vector<double> sorted = merged[c].latencies_us;
      std::sort(sorted.begin(), sorted.end());
      std::snprintf(buf, sizeof(buf),
                    ", \"%s\": {\"count\": %zu, \"failures\": %llu, "
                    "\"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f}",
                    kOpNames[c], sorted.size(),
                    static_cast<unsigned long long>(merged[c].failures),
                    percentile(sorted, 0.50), percentile(sorted, 0.99),
                    percentile(sorted, 0.999));
      json += buf;
    }
    std::snprintf(
        buf, sizeof(buf),
        ", \"confirmed\": %llu, \"in_doubt\": %llu, \"failed\": %llu, "
        "\"conservation_ok\": %s, \"validates_ok\": %s, \"no_dup_ok\": %s}",
        static_cast<unsigned long long>(confirmed),
        static_cast<unsigned long long>(in_doubt),
        static_cast<unsigned long long>(failed),
        conservation_ok ? "true" : "false", validates_ok ? "true" : "false",
        no_dup_ok ? "true" : "false");
    json += buf;
  }
  std::printf("%s\n", json.c_str());
  if (std::FILE* out = std::fopen(opt.out.c_str(), "a")) {
    std::fprintf(out, "%s\n", json.c_str());
    std::fclose(out);
  }

  if (!opt.keep) {
    // Children die in the reaper; the volumes are throwaway.
    std::error_code ec;
    fs::remove_all(run_dir, ec);
  }

  const bool healthy = confirmed * 10 >= static_cast<std::uint64_t>(
                                             opt.sessions) * 9;
  if (!conservation_ok || !validates_ok || !no_dup_ok || !healthy) {
    std::fprintf(stderr,
                 "cluster_harness: INVARIANT FAILURE conservation=%d "
                 "validates=%d no_dup=%d confirmed=%llu/%d\n",
                 conservation_ok, validates_ok, no_dup_ok,
                 static_cast<unsigned long long>(confirmed), opt.sessions);
    return 1;
  }
  std::printf("cluster_harness: all invariants hold\n");
  return 0;
}

}  // namespace
}  // namespace amoeba::cluster

int main(int argc, char** argv) {
  return amoeba::cluster::run(amoeba::cluster::parse(argc, argv));
}
