// The four workloads, the state they share (population and expected
// balances), and the output checks run against a restarted bank.
//
// Every workload draws accounts Zipf(0.99) over kAccounts from the run's
// seed; the servers see only the generated requests.  Each client thread
// owns one rpc::Transport with one request outstanding (closed loop: an
// Amoeba caller blocks in trans() until its reply arrives).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/capability.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/transport.hpp"
#include "cluster.hpp"

namespace amoeba::bench {

enum class Workload { read_mix, transfer, batch_read, session_churn };
inline constexpr std::array<Workload, 4> kWorkloads = {
    Workload::read_mix, Workload::transfer, Workload::batch_read,
    Workload::session_churn};
[[nodiscard]] const char* workload_name(Workload workload);
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

inline constexpr int kAccounts = 1024;
/// batch-read's scheme-3 restrictions per account: 16 x 1024 = 16,384
/// distinct capabilities against the bank's 4,096-entry validate cache.
inline constexpr int kVariants = 16;
inline constexpr int kBatchEntries = 128;
inline constexpr std::int64_t kSessionAmount = 5;

/// The client stub calls the benchmark times; the first four are server
/// operations whose handler counters std.info reports.
enum Rpc : std::size_t {
  kLookup = 0,
  kBalance,
  kTransfer,
  kCreate,
  kBatch,
  kRpcKinds
};
inline constexpr std::size_t kServerOps = 4;
inline constexpr std::array<const char*, kRpcKinds> kRpcNames = {
    "dir.lookup", "bank.balance", "bank.transfer", "bank.create_account",
    "bank.batch"};

/// One traced interval: an op (child == false) or a stub call inside it.
/// Spans of one op share (client, op).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t op = 0;
  bool child = false;
};

/// What setup leaves in the cluster: accounts with distinct minted
/// balances, each entered in the root directory as "acct-<k>", and for
/// batch-read the restricted variants (variants[k * kVariants + v]).
struct Population {
  std::vector<core::Capability> accounts;
  std::vector<std::int64_t> minted;
  std::vector<core::Capability> variants;
  double restrict_local_us = 0.0;  // client-side scheme-3 restriction
};
/// Creates, mints and enters every account with batched requests; throws
/// std::runtime_error when any request fails.
[[nodiscard]] Population populate(Cluster& cluster, rpc::Transport& control,
                                  bool with_variants);

/// Summed rpc::Transport counters of one client.
struct TransportTotals {
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t cache_misses = 0;  // LOCATEs
  std::uint64_t srtt_us_sum = 0;
  std::uint64_t srtt_count = 0;
  void add(const rpc::Transport::Stats& stats);
  TransportTotals& operator+=(const TransportTotals& other);
};

/// An account a session created, and what its transfer put in it.
struct Sink {
  core::Capability account;
  std::int64_t amount = 0;
};

/// One closed-loop client thread's state.  Only its own thread touches it
/// while a phase runs; the coordinator reads it between phases.
struct Client {
  Client(net::Machine& machine, std::uint64_t seed);

  /// Counters of every transport this client used, live and retired.
  [[nodiscard]] TransportTotals totals() const;
  /// Applies the benchmark's timeouts to a client transport.
  static void configure(rpc::Transport& transport);

  net::Machine* machine;
  std::unique_ptr<rpc::Transport> transport;
  Rng rng;
  std::uint64_t next_op = 0;
  std::array<std::uint64_t, kRpcKinds> issued{};  // per stub, since setup
  TransportTotals retired;  // session-churn's per-session transports
  std::vector<Sink> sinks;
  std::uint64_t wrong_reads = 0;
  // The current phase (cleared per phase):
  std::vector<double> latencies_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Span>* lane = nullptr;  // non-null while traced
};

/// Runs single ops of one workload and tracks every balance the bank
/// must hold after them.
class Driver {
 public:
  Driver(Workload workload, const Population& population, Port bank_port,
         const core::Capability& root);

  /// One op on `client`'s transport; false when any request in it failed.
  /// A read that returns a wrong balance counts in client.wrong_reads.
  bool run_op(Client& client);

  /// Ops run before measuring, so caches fill and lazy set-up finishes.
  [[nodiscard]] std::uint64_t warmup_ops() const;
  /// Ops in the measured window's fixed part: the same op range on every
  /// run, whatever the host's speed.
  [[nodiscard]] std::uint64_t fixed_ops() const;

  [[nodiscard]] std::int64_t expected(int account) const {
    return expected_[static_cast<std::size_t>(account)].load(
        std::memory_order_relaxed);
  }

 private:
  /// Times one stub call as a child span of the current op.
  template <typename F>
  auto stub(Client& client, Rpc rpc, F&& call);

  int draw_account(Rng& rng) const;
  bool read_mix(Client& client);
  bool transfer(Client& client);
  bool batch_read(Client& client);
  bool session(Client& client);

  Workload workload_;
  const Population& population_;
  Port bank_port_;
  core::Capability root_;
  std::vector<double> zipf_cdf_;
  std::vector<std::string> names_;
  std::vector<std::atomic<std::int64_t>> expected_;
};

/// One named output check.
struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Verifies the restarted cluster against what the clients confirmed:
/// every account holds its expected balance, every session sink holds
/// exactly kSessionAmount, money is conserved, every capability (accounts,
/// variants, sinks, directory entries) still validates, and no read
/// during the run returned a wrong balance.
[[nodiscard]] std::vector<Check> verify(const Driver& driver,
                                        const Population& population,
                                        const std::vector<Client>& clients,
                                        Cluster& cluster,
                                        rpc::Transport& control);

}  // namespace amoeba::bench
