// bench_e2e: the repository's end-to-end benchmark.
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace FILE]
//             [--out FILE]
//   bench_e2e --smoke [--workload NAME] [--out FILE]
//   bench_e2e --compare A.jsonl B.jsonl
//
// One run of one workload (read-mix, transfer, batch-read, session-churn):
//
//   1. Set up a fresh cluster (cluster.hpp) kSetups times -- spawn the three
//      nodes, connect, populate -- and keep the last; setup_s is the median.
//      A discarded cluster's volumes are deleted before the next set-up, so
//      their writeback does not land inside the next timing.
//   2. Warm up without measuring (1,000 ops, or 300 sessions).
//   3. Measure a closed loop of kClients threads for --seconds, untraced.
//      The window opens with a fixed number of ops, always run to the end
//      and quiesced, so costs that grow with history (session-churn's
//      reply-floor image) are read over the same op range on every run;
//      disk_kb_per_op comes from that part.  Every op is timed from outside
//      the program, and the /proc and std.info counters are read at the
//      window's edges.
//   4. With --trace, measure a second window of the same length with a span
//      around every op and every stub call in it, and the node counters
//      sampled every 250 ms; write them as Chrome trace-event JSON.
//   5. SIGKILL and restart the bank kRestarts times, timing each recovery.
//   6. Check the outputs against the restarted bank (workload.hpp: verify).
//
// The last line on stdout is one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics, or with --trace the
// per-layer ones.  Throughput, latency, CPU and recovery times are
// per-layer: on a shared host they move with the neighbours (README.md).
// The exit status is 0 only when every check passed.  Nothing is written
// outside the build directory except --out and --trace; a failed run keeps
// its directory (node logs, volumes) under <build>/runs.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster.hpp"
#include "compare.hpp"
#include "stamp.hpp"
#include "workload.hpp"

namespace amoeba::bench {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

constexpr int kClients = 4;
constexpr int kSetups = 5;
constexpr int kRestarts = 3;
constexpr std::uint64_t kSmokeOps = 300;
constexpr std::uint64_t kSmokeWarmup = 30;
/// A run must end within 180 s; past this the process ends itself.
constexpr auto kRunLimit = 175s;
/// The window's fixed part fails the run when it needs longer than this.
constexpr auto kFixedLimit = 90s;
constexpr auto kSampleEvery = 250ms;

struct Options {
  std::vector<Workload> workloads;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace;  // Chrome trace path; set = traced run
  std::string out;    // JSONL file each row is appended to
  bool smoke = false;
  std::string compare_base;
  std::string compare_candidate;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace FILE] [--out FILE]\n"
               "       bench_e2e --smoke [--workload NAME] [--out FILE]\n"
               "       bench_e2e --compare A.jsonl B.jsonl\n"
               "workloads: read-mix transfer batch-read session-churn\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " wants a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        const std::string name = next();
        const auto workload = parse_workload(name);
        if (!workload.has_value()) usage("unknown workload " + name);
        opt.workloads.push_back(*workload);
      } else if (arg == "--seed") {
        opt.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(next());
      } else if (arg == "--trace") {
        opt.trace = next();
      } else if (arg == "--out") {
        opt.out = next();
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--compare") {
        opt.compare_base = next();
        opt.compare_candidate = next();
      } else {
        usage("unknown flag " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!opt.compare_base.empty()) return opt;
  if (opt.workloads.empty()) {
    if (!opt.smoke) usage("--workload is required");
    opt.workloads.assign(kWorkloads.begin(), kWorkloads.end());
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 60.0)) {
    usage("--seconds must be in (0, 60]");
  }
  if (!opt.trace.empty() && opt.workloads.size() != 1) {
    usage("--trace takes a single --workload");
  }
  return opt;
}

// ---------------------------------------------------------------- counters

[[nodiscard]] pid_t pid_of(Cluster& cluster, std::size_t role) {
  return role == kClient ? ::getpid() : cluster.pid(static_cast<Role>(role));
}

[[nodiscard]] std::array<ProcSample, kRoles> read_procs(Cluster& cluster) {
  std::array<ProcSample, kRoles> out{};
  for (std::size_t r = 0; r < kRoles; ++r) {
    out[r] = read_proc(pid_of(cluster, r));
  }
  return out;
}

/// Every counter the benchmark reads, at one instant.
struct Snapshot {
  std::array<ProcSample, kRoles> proc{};
  std::array<ServiceInfo, kServers> info{};
  net::SocketNetwork::SocketStats socket{};
  TransportTotals transport{};
  std::array<std::uint64_t, kRpcKinds> issued{};
};

Snapshot take_snapshot(Cluster& cluster, rpc::Transport& control,
                       const std::vector<Client>& clients) {
  Snapshot s;
  s.proc = read_procs(cluster);
  const std::array<core::Capability, kServers> caps = {
      cluster.master(), cluster.volume(), cluster.root()};
  for (std::size_t r = 0; r < kServers; ++r) {
    auto info = read_info(control, caps[r]);
    if (!info.has_value()) {
      throw std::runtime_error(std::string("bench_e2e: std.info failed on ") +
                               kRoleNames[r]);
    }
    s.info[r] = std::move(*info);
  }
  s.socket = cluster.network().socket_stats();
  for (const Client& c : clients) {
    s.transport += c.totals();
    for (std::size_t k = 0; k < kRpcKinds; ++k) s.issued[k] += c.issued[k];
  }
  return s;
}

/// One sample of a counter track in the trace.
struct CounterSample {
  std::int64_t at_ns = 0;
  std::string track;
  std::vector<std::pair<std::string, double>> values;
};

void sample_counters(Cluster& cluster, rpc::Transport& control,
                     std::vector<CounterSample>& out) {
  const std::int64_t at = Clock::now().time_since_epoch().count();
  const auto procs = read_procs(cluster);
  for (std::size_t r = 0; r < kRoles; ++r) {
    const ProcSample& p = procs[r];
    out.push_back({at,
                   std::string("proc.") + kRoleNames[r],
                   {{"cpu_ms", p.cpu_s * 1e3},
                    {"ctx_switches", static_cast<double>(p.ctx_switches)},
                    {"write_kb", static_cast<double>(p.write_bytes) / 1024.0},
                    {"rss_mb", p.rss_mb}}});
  }
  const auto bank = read_info(control, cluster.master());
  const auto dir = read_info(control, cluster.root());
  if (!bank.has_value() || !dir.has_value()) return;
  out.push_back(
      {at,
       "bank.storage",
       {{"gc.groups", static_cast<double>(bank->field("gc.groups"))},
        {"replica.lag", static_cast<double>(bank->field("replica.lag"))}}});
  CounterSample calls{at, "handler.calls", {}};
  for (std::size_t k = 0; k < kServerOps; ++k) {
    const ServiceInfo& info = k == kLookup ? *dir : *bank;
    calls.values.emplace_back(kRpcNames[k],
                              static_cast<double>(info.op(kRpcNames[k]).calls));
  }
  out.push_back(std::move(calls));
}

// ------------------------------------------------------------------ phases

/// What one measured window saw.
struct Window {
  double seconds = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latencies_ms;
  std::vector<std::vector<Span>> lanes;  // per client, traced only
  Snapshot begin;
  Snapshot end;

  [[nodiscard]] double completed() const {
    return static_cast<double>(std::max<std::uint64_t>(attempted - failed, 1));
  }
  void append(const Window& more) {
    seconds += more.seconds;
    attempted += more.attempted;
    failed += more.failed;
    latencies_ms.insert(latencies_ms.end(), more.latencies_ms.begin(),
                        more.latencies_ms.end());
  }
};

/// Runs the workload on every client until `max_ops` ops completed in all
/// or `max_time` passed, then waits for the ops in flight: the cluster is
/// quiet when this returns.  Each client keeps one op outstanding.
Window run_phase(Driver& driver, std::vector<Client>& clients,
                 const char* op_name, std::uint64_t max_ops,
                 std::chrono::duration<double> max_time, bool traced) {
  Window w;
  if (traced) w.lanes.resize(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i].latencies_ms.clear();
    clients[i].attempted = 0;
    clients[i].failed = 0;
    clients[i].lane = traced ? &w.lanes[i] : nullptr;
  }
  std::atomic<std::uint64_t> done{0};
  std::atomic<bool> stop{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto start = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (Client& c : clients) {
      threads.emplace_back([&, client = &c] {
        try {
          while (!stop.load(std::memory_order_relaxed)) {
            const auto t0 = Clock::now();
            const bool ok = driver.run_op(*client);
            const auto t1 = Clock::now();
            client->latencies_ms.push_back(
                std::chrono::duration<double, std::milli>(t1 - t0).count());
            ++client->attempted;
            client->failed += ok ? 0 : 1;
            if (client->lane != nullptr) {
              client->lane->push_back({op_name,
                                       t0.time_since_epoch().count(),
                                       (t1 - t0).count(), client->next_op,
                                       /*child=*/false});
            }
            ++client->next_op;
            if (done.fetch_add(1, std::memory_order_relaxed) + 1 >= max_ops) {
              stop.store(true);
            }
          }
        } catch (...) {
          const std::lock_guard lock(error_mutex);
          if (error == nullptr) error = std::current_exception();
          stop.store(true);
        }
      });
    }
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(max_time);
    while (!stop.load() && Clock::now() < deadline) {
      std::this_thread::sleep_for(5ms);
    }
    stop.store(true);
  }
  w.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  for (Client& c : clients) {
    c.lane = nullptr;
    w.attempted += c.attempted;
    w.failed += c.failed;
    w.latencies_ms.insert(w.latencies_ms.end(), c.latencies_ms.begin(),
                          c.latencies_ms.end());
  }
  if (error != nullptr) std::rethrow_exception(error);
  return w;
}

// ----------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Nearest-rank percentile.
[[nodiscard]] double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

[[nodiscard]] double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

[[nodiscard]] double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

[[nodiscard]] double delta(std::uint64_t end, std::uint64_t begin) {
  return static_cast<double>(end - begin);
}

/// KiB the servers wrote between two reads of their counters, per op.
[[nodiscard]] double disk_kb_per_op(const std::array<ProcSample, kRoles>& from,
                                    const std::array<ProcSample, kRoles>& to,
                                    double ops) {
  double written = 0.0;
  for (std::size_t r = 0; r < kServers; ++r) {
    written += delta(to[r].write_bytes, from[r].write_bytes);
  }
  return written / 1024.0 / ops;
}

/// The end-to-end metrics: bytes the servers wrote per op over the
/// window's fixed part, and the median set-up time.
std::vector<Metric> end_to_end_metrics(double fixed_disk_kb_per_op,
                                       const std::vector<double>& setup_s) {
  return {
      {"disk_kb_per_op", fixed_disk_kb_per_op, "KiB/op"},
      {"setup_s", median(setup_s), "s"},
  };
}

/// What a user of the cluster sees, from the untraced window: throughput,
/// latency, CPU and recovery time.  They are per-layer metrics because
/// their run-to-run spread on a shared host exceeds any allowed bound.
std::vector<Metric> run_metrics(const Window& w,
                                const std::vector<double>& recovery_s) {
  double cpu_s = 0.0;
  for (std::size_t r = 0; r < kRoles; ++r) {
    cpu_s += w.end.proc[r].cpu_s - w.begin.proc[r].cpu_s;
  }
  return {
      {"ops_per_s", w.completed() / w.seconds, "ops/s"},
      {"p50_ms", percentile(w.latencies_ms, 0.50), "ms"},
      {"p99_ms", percentile(w.latencies_ms, 0.99), "ms"},
      {"cpu_us_per_op", cpu_s * 1e6 / w.completed(), "us/op"},
      {"recovery_s", median(recovery_s), "s"},
      {"fail_ratio",
       ratio(static_cast<double>(w.failed), static_cast<double>(w.attempted)),
       "ratio"},
  };
}

/// Per-layer metrics of the traced window `w`; `untraced` gives the
/// baseline for trace.overhead_pct.
std::vector<Metric> layer_metrics(const Window& w, const Window& untraced,
                                  const Population& population,
                                  std::uint64_t bank_volume_bytes) {
  const double ops = w.completed();
  const Snapshot& b = w.begin;
  const Snapshot& e = w.end;
  const ServiceInfo& bank_b = b.info[kBank];
  const ServiceInfo& bank_e = e.info[kBank];

  // Per-stub client latencies and the op's own (self) time, from spans.
  // A lane holds an op's child spans right before the op's own span.
  std::map<std::string, std::vector<double>> stub_ms;
  std::vector<double> self_us;
  for (const auto& lane : w.lanes) {
    std::int64_t child_ns = 0;
    for (const Span& span : lane) {
      if (span.child) {
        stub_ms[span.name].push_back(static_cast<double>(span.dur_ns) / 1e6);
        child_ns += span.dur_ns;
      } else {
        self_us.push_back(static_cast<double>(span.dur_ns - child_ns) / 1e3);
        child_ns = 0;
      }
    }
  }

  std::vector<Metric> m;
  m.push_back({"net.frames_per_op",
               (delta(e.socket.frames_sent, b.socket.frames_sent) +
                delta(e.socket.frames_received, b.socket.frames_received)) /
                   ops,
               "frames/op"});
  m.push_back({"net.disconnects",
               delta(e.socket.disconnects, b.socket.disconnects), "count"});
  m.push_back({"rpc.retransmits_per_kop",
               delta(e.transport.retransmits, b.transport.retransmits) * 1e3 /
                   ops,
               "1/kop"});
  m.push_back({"rpc.timeouts",
               delta(e.transport.timeouts, b.transport.timeouts), "count"});
  m.push_back({"rpc.srtt_us",
               ratio(static_cast<double>(e.transport.srtt_us_sum),
                     static_cast<double>(e.transport.srtt_count)),
               "us"});
  m.push_back({"rpc.locates_per_kop",
               delta(e.transport.cache_misses, b.transport.cache_misses) *
                   1e3 / ops,
               "1/kop"});

  double calls = 0.0;
  double issued = 0.0;
  for (std::size_t k = 0; k < kServerOps; ++k) {
    const std::size_t role = k == kLookup ? kDirectory : kBank;
    const OpCounters ob = b.info[role].op(kRpcNames[k]);
    const OpCounters oe = e.info[role].op(kRpcNames[k]);
    const double op_calls = delta(oe.calls, ob.calls);
    const double handler_us = ratio(delta(oe.total_us, ob.total_us), op_calls);
    const auto stub = stub_ms.find(kRpcNames[k]);
    const double outside_us =
        stub == stub_ms.end() ? 0.0 : mean(stub->second) * 1e3 - handler_us;
    const std::string name = kRpcNames[k];
    m.push_back({"rpc.handler_us." + name, handler_us, "us"});
    m.push_back({"rpc.handler_max_us." + name,
                 static_cast<double>(oe.max_us), "us"});
    m.push_back({"rpc.outside_handler_us." + name, outside_us, "us"});
    calls += op_calls;
    issued += delta(e.issued[k], b.issued[k]);
  }
  m.push_back({"rpc.executions_per_request", ratio(calls, issued), "ratio"});

  const OpCounters balance_b = bank_b.op("bank.balance");
  const OpCounters balance_e = bank_e.op("bank.balance");
  const OpCounters transfer_b = bank_b.op("bank.transfer");
  const OpCounters transfer_e = bank_e.op("bank.transfer");
  m.push_back({"core.validations_per_s",
               (delta(balance_e.calls, balance_b.calls) +
                2.0 * delta(transfer_e.calls, transfer_b.calls)) /
                   w.seconds,
               "1/s"});
  m.push_back(
      {"crypto.restrict_local_us", population.restrict_local_us, "us"});

  const double groups =
      delta(bank_e.field("gc.groups"), bank_b.field("gc.groups"));
  // Requests the bank claimed: stub calls, with a batch envelope as one.
  const double bank_requests =
      delta(e.issued[kBalance], b.issued[kBalance]) -
      (kBatchEntries - 1) * delta(e.issued[kBatch], b.issued[kBatch]) +
      delta(e.issued[kTransfer], b.issued[kTransfer]) +
      delta(e.issued[kCreate], b.issued[kCreate]);
  m.push_back({"storage.flush_cycles_per_s", groups / w.seconds, "1/s"});
  m.push_back(
      {"storage.requests_per_flush", ratio(bank_requests, groups), "ratio"});
  for (std::size_t r = 0; r < kServers; ++r) {
    m.push_back({std::string("storage.disk_bytes_per_op.") + kRoleNames[r],
                 delta(e.proc[r].write_bytes, b.proc[r].write_bytes) / ops,
                 "B/op"});
  }
  for (std::size_t r = 0; r < kServers; ++r) {
    m.push_back(
        {std::string("storage.write_syscalls_per_op.") + kRoleNames[r],
         delta(e.proc[r].write_syscalls, b.proc[r].write_syscalls) / ops,
         "1/op"});
  }
  m.push_back({"storage.volume_bytes.bank",
               static_cast<double>(bank_volume_bytes), "B"});
  m.push_back({"storage.replica_lag",
               static_cast<double>(bank_e.field("replica.lag")), "count"});
  const OpCounters apply_b = b.info[kReplica].op("rep.append_group");
  const OpCounters apply_e = e.info[kReplica].op("rep.append_group");
  m.push_back({"storage.replica_apply_us",
               ratio(delta(apply_e.total_us, apply_b.total_us),
                     delta(apply_e.calls, apply_b.calls)),
               "us"});

  for (std::size_t r = 0; r < kRoles; ++r) {
    const std::string role = std::string("proc.") + kRoleNames[r];
    m.push_back({role + ".cpu_us_per_op",
                 (e.proc[r].cpu_s - b.proc[r].cpu_s) * 1e6 / ops, "us/op"});
    m.push_back({role + ".ctx_per_op",
                 delta(e.proc[r].ctx_switches, b.proc[r].ctx_switches) / ops,
                 "1/op"});
    m.push_back({role + ".rss_mb", e.proc[r].rss_mb, "MiB"});
  }

  for (const char* stub : kRpcNames) {
    const auto it = stub_ms.find(stub);
    const std::vector<double> none;
    const std::vector<double>& samples =
        it == stub_ms.end() ? none : it->second;
    m.push_back({std::string("servers.") + stub + ".p50_ms",
                 percentile(samples, 0.50), "ms"});
    m.push_back({std::string("servers.") + stub + ".p99_ms",
                 percentile(samples, 0.99), "ms"});
  }
  m.push_back({"client.self_us", mean(self_us), "us"});
  const double base = untraced.completed() / untraced.seconds;
  m.push_back({"trace.overhead_pct",
               100.0 * ratio(base - w.completed() / w.seconds, base), "%"});
  return m;
}

/// Server executions of each timed op since boot must equal the requests
/// the clients (and setup's creates) issued: nothing ran twice or was lost.
Check executions_check(const Snapshot& s) {
  Check check{"executions_per_request", true, ""};
  for (std::size_t k = 0; k < kServerOps; ++k) {
    const std::size_t role = k == kLookup ? kDirectory : kBank;
    const std::uint64_t calls = s.info[role].op(kRpcNames[k]).calls;
    const std::uint64_t issued =
        s.issued[k] + (k == kCreate ? std::uint64_t{kAccounts} : 0);
    if (calls != issued && check.ok) {
      check.ok = false;
      check.detail = std::string(kRpcNames[k]) + " ran " +
                     std::to_string(calls) + " times for " +
                     std::to_string(issued) + " requests";
    }
  }
  return check;
}

// ------------------------------------------------------------------ output

/// Shortest text that reads back as exactly `v` (JSON has no NaN).
[[nodiscard]] std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

[[nodiscard]] std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& metric : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + metric.name + "\": {\"value\": " + number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

void write_trace(const std::string& path, Workload workload, const Window& w,
                 const std::vector<CounterSample>& counters,
                 const Stamp& stamp) {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& lane : w.lanes) {
    for (const Span& span : lane) origin = std::min(origin, span.start_ns);
  }
  for (const auto& c : counters) origin = std::min(origin, c.at_ns);
  const auto us = [origin](std::int64_t ns) {
    return number(static_cast<double>(ns - origin) / 1e3);
  };
  std::ofstream out(path, std::ios::trunc);
  out << "{\"otherData\": " << to_json(stamp) << ",\n\"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (std::size_t c = 0; c < w.lanes.size(); ++c) {
    for (const Span& span : w.lanes[c]) {
      // Spans of one op share its id (workload, client, op number).
      const std::string id = std::string(workload_name(workload)) + "/" +
                             std::to_string(c) + "/" + std::to_string(span.op);
      sep();
      out << "{\"name\": \"" << span.name << "\", \"cat\": \""
          << (span.child ? "rpc" : "op")
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << c
          << ", \"ts\": " << us(span.start_ns)
          << ", \"dur\": " << number(static_cast<double>(span.dur_ns) / 1e3)
          << ", \"args\": {\"id\": \"" << id << "\"";
      if (span.child) out << ", \"parent\": \"" << id << "\"";
      out << "}}";
    }
  }
  for (const CounterSample& c : counters) {
    sep();
    out << "{\"name\": \"" << c.track
        << "\", \"ph\": \"C\", \"pid\": 1, \"ts\": " << us(c.at_ns)
        << ", \"args\": {";
    for (std::size_t i = 0; i < c.values.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << c.values[i].first
          << "\": " << number(c.values[i].second);
    }
    out << "}}";
  }
  out << "\n]}\n";
  if (!out) {
    throw std::runtime_error("bench_e2e: cannot write trace " + path);
  }
}

// --------------------------------------------------------------------- run

/// A populated cluster and the transport setup and checks use.  Members
/// die in reverse order: the transport before the network it runs on.
struct Setup {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<rpc::Transport> control;
  Population population;
};

Setup set_up(const fs::path& dir, bool with_variants) {
  Setup s;
  s.cluster = std::make_unique<Cluster>(AMOEBA_CLUSTER_NODE, dir);
  s.control = std::make_unique<rpc::Transport>(
      s.cluster->network().add_machine("control"), 701);
  Client::configure(*s.control);
  s.population = populate(*s.cluster, *s.control, with_variants);
  return s;
}

/// Runs one workload end to end; returns the exit status it earns.
int run_workload(const Options& opt, Workload workload,
                 const fs::path& run_dir) {
  const bool traced = !opt.trace.empty();
  const char* name = workload_name(workload);

  // 1. Set up kSetups times; keep the last cluster.  A discarded cluster's
  // files go before the next timing starts: left in place, their pending
  // writeback slowed the next set-up by up to 30%.
  std::vector<double> setup_s;
  std::optional<Setup> setup;
  for (int i = 0, n = opt.smoke ? 1 : kSetups; i < n; ++i) {
    setup.reset();  // the previous cluster's nodes die here
    if (i > 0) fs::remove_all(run_dir / ("setup" + std::to_string(i - 1)));
    const fs::path dir = run_dir / ("setup" + std::to_string(i));
    const auto start = Clock::now();
    setup.emplace(set_up(dir, workload == Workload::batch_read));
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  Cluster& cluster = *setup->cluster;
  rpc::Transport& control = *setup->control;
  const Population& population = setup->population;

  std::vector<Client> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back(
        cluster.network().add_machine("worker-" + std::to_string(i)),
        opt.seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(i) + 1);
  }
  Driver driver(workload, population, cluster.bank_port(), cluster.root());
  constexpr auto kUnbounded = std::numeric_limits<std::uint64_t>::max();
  const std::chrono::duration<double> window_time(opt.seconds);

  // 2. Warm up.
  (void)run_phase(driver, clients, name,
                  opt.smoke ? kSmokeWarmup : driver.warmup_ops(), 120s,
                  false);

  // 3. The untraced window: its fixed part, then the rest of --seconds.
  // The fixed part always runs to its end, even past --seconds: a
  // per-op cost read over fewer ops would cover a different op range.
  const Snapshot begin = take_snapshot(cluster, control, clients);
  const std::uint64_t fixed_target =
      opt.smoke ? kSmokeOps : driver.fixed_ops();
  Window untraced =
      run_phase(driver, clients, name, fixed_target, kFixedLimit, false);
  if (untraced.attempted < fixed_target) {
    throw std::runtime_error(
        "bench_e2e: the window's fixed part ran " +
        std::to_string(untraced.attempted) + " of " +
        std::to_string(fixed_target) + " ops in " +
        std::to_string(kFixedLimit.count()) + " s");
  }
  const double fixed_ops = untraced.completed();
  const double fixed_disk =
      disk_kb_per_op(begin.proc, read_procs(cluster), fixed_ops);
  if (!opt.smoke && untraced.seconds < opt.seconds) {
    untraced.append(run_phase(
        driver, clients, name, kUnbounded,
        window_time - std::chrono::duration<double>(untraced.seconds), false));
  }
  untraced.begin = begin;
  untraced.end = take_snapshot(cluster, control, clients);

  // 4. The traced window.
  Window traced_window;
  std::vector<CounterSample> counters;
  if (traced) {
    Snapshot traced_begin = take_snapshot(cluster, control, clients);
    std::exception_ptr sampler_error;
    {
      std::jthread sampler([&](std::stop_token stop) {
        try {
          std::mutex mutex;
          std::condition_variable_any wake;
          while (!stop.stop_requested()) {
            sample_counters(cluster, control, counters);
            std::unique_lock lock(mutex);
            wake.wait_for(lock, stop, kSampleEvery, [] { return false; });
          }
        } catch (...) {
          sampler_error = std::current_exception();
        }
      });
      traced_window =
          run_phase(driver, clients, name, opt.smoke ? kSmokeOps : kUnbounded,
                    window_time, true);
    }
    if (sampler_error != nullptr) std::rethrow_exception(sampler_error);
    traced_window.begin = std::move(traced_begin);
    traced_window.end = take_snapshot(cluster, control, clients);
  }
  const Window& last = traced ? traced_window : untraced;

  // 5. Crash and recover the bank.
  std::vector<Check> checks = {executions_check(last.end)};
  const std::uint64_t bank_volume_bytes = cluster.volume_bytes(kBank);
  rpc::Transport probe(cluster.network().add_machine("probe"), 702);
  probe.set_retransmit(1ms, 1ms);
  probe.set_default_timeout(100ms);
  std::vector<double> recovery_s;
  for (int i = 0, n = opt.smoke ? 1 : kRestarts; i < n; ++i) {
    recovery_s.push_back(
        cluster.restart_bank(probe, population.accounts.front()));
  }

  // 6. Output checks against the restarted bank.
  for (Check& check : verify(driver, population, clients, cluster, control)) {
    checks.push_back(std::move(check));
  }
  bool correct = true;
  for (const Check& check : checks) correct = correct && check.ok;

  // Report: the last line carries the end-to-end metrics, or with --trace
  // the per-layer ones; an --out row carries everything measured.
  const Stamp stamp =
      make_stamp(AMOEBA_SOURCE_DIR, AMOEBA_BUILD_TYPE, kNodeBackend,
                 opt.smoke ? "smoke" : (traced ? "trace" : "full"), opt.seed);
  const std::vector<Metric> e2e = end_to_end_metrics(fixed_disk, setup_s);
  std::vector<Metric> per_layer = run_metrics(untraced, recovery_s);
  if (traced) {
    for (Metric& m : layer_metrics(traced_window, untraced, population,
                                   bank_volume_bytes)) {
      per_layer.push_back(std::move(m));
    }
    write_trace(opt.trace, workload, traced_window, counters, stamp);
  }
  const std::vector<Metric>& printed = traced ? per_layer : e2e;
  std::vector<Metric> row = e2e;
  row.insert(row.end(), per_layer.begin(), per_layer.end());

  std::printf("bench_e2e: %s seed %llu: %.2f s untraced window, %llu ops "
              "(%.0f in its fixed part), %llu failed; stamp %s\n",
              name, static_cast<unsigned long long>(opt.seed),
              untraced.seconds,
              static_cast<unsigned long long>(untraced.attempted), fixed_ops,
              static_cast<unsigned long long>(untraced.failed),
              to_json(stamp).c_str());
  for (const Metric& metric : row) {
    std::printf("  %-44s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("  p99_ms is over %zu samples; setup_s of",
              untraced.latencies_ms.size());
  for (const double v : setup_s) std::printf(" %.3f", v);
  std::printf("; recovery_s of");
  for (const double v : recovery_s) std::printf(" %.4f", v);
  std::printf("\n");
  std::string checks_json = "{";
  for (const Check& check : checks) {
    std::printf("  check %-36s %s%s%s\n", check.name.c_str(),
                check.ok ? "ok" : "FAILED", check.detail.empty() ? "" : ": ",
                check.detail.c_str());
    if (checks_json.size() > 1) checks_json += ", ";
    checks_json += "\"" + check.name + "\": " + (check.ok ? "true" : "false");
  }
  checks_json += "}";

  const Window& reported = traced ? traced_window : untraced;
  if (!opt.out.empty()) {
    std::ofstream out(opt.out, std::ios::app);
    out << "{\"workload\": \"" << name << "\", \"stamp\": " << to_json(stamp)
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << reported.attempted
        << ", \"failed\": " << reported.failed
        << ", \"p99_samples\": " << untraced.latencies_ms.size()
        << ", \"checks\": " << checks_json
        << ", \"metrics\": " << metrics_json(row) << "}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(reported.attempted),
              static_cast<unsigned long long>(reported.failed),
              metrics_json(printed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Ends the process when one workload's run overstays kRunLimit; the
/// nodes follow through PR_SET_PDEATHSIG.
class Watchdog {
 public:
  Watchdog()
      : thread_([this](std::stop_token stop) {
          std::mutex mutex;
          std::condition_variable_any wake;
          while (!stop.stop_requested()) {
            if (Clock::now().time_since_epoch().count() > deadline_.load()) {
              std::fprintf(stderr, "bench_e2e: run exceeded %lld s\n",
                           static_cast<long long>(kRunLimit.count()));
              std::_Exit(3);
            }
            std::unique_lock lock(mutex);
            wake.wait_for(lock, stop, 100ms, [] { return false; });
          }
        }) {}

  void arm() {
    deadline_.store((Clock::now() + kRunLimit).time_since_epoch().count());
  }

 private:
  std::atomic<Clock::rep> deadline_{std::numeric_limits<Clock::rep>::max()};
  std::jthread thread_;
};

int run(const Options& opt) {
  const fs::path build_dir = fs::read_symlink("/proc/self/exe").parent_path();
  Watchdog watchdog;
  int status = 0;
  for (const Workload workload : opt.workloads) {
    watchdog.arm();
    const fs::path run_dir =
        build_dir / "runs" /
        (std::string(workload_name(workload)) + "-" +
         std::to_string(opt.seed) + "-" + std::to_string(::getpid()));
    int run_status = 1;
    try {
      run_status = run_workload(opt, workload, run_dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e: %s: %s\n", workload_name(workload),
                   e.what());
    }
    if (run_status == 0) {
      std::error_code ec;
      fs::remove_all(run_dir, ec);
    } else {
      std::fprintf(stderr, "bench_e2e: node logs kept in %s\n",
                   run_dir.c_str());
    }
    status |= run_status;
  }
  return status;
}

}  // namespace
}  // namespace amoeba::bench

int main(int argc, char** argv) {
  const auto opt = amoeba::bench::parse(argc, argv);
  if (!opt.compare_base.empty()) {
    return amoeba::bench::compare(
        opt.compare_base, opt.compare_candidate,
        std::string(AMOEBA_SOURCE_DIR) + "/BENCHMARK.json");
  }
  return amoeba::bench::run(opt);
}
