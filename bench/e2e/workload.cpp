#include "workload.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "amoeba/core/schemes.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/servers/directory_server.hpp"
#include "cluster_proto.hpp"

namespace amoeba::bench {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;
using servers::currency::kDollar;
namespace bank_ops = servers::bank_ops;
namespace dir_ops = servers::dir_ops;

namespace {

using CreateOp = std::remove_cvref_t<decltype(bank_ops::kCreateAccount)>;
using BalanceOp = std::remove_cvref_t<decltype(bank_ops::kBalance)>;
using MintOp = std::remove_cvref_t<decltype(bank_ops::kMint)>;
using EnterOp = std::remove_cvref_t<decltype(dir_ops::kEnter)>;
template <typename OpT>
using Entry = rpc::TypedBatch::Entry<OpT>;

constexpr double kZipfSkew = 0.99;
constexpr std::int64_t kMintBase = 1'000'000;
/// The rights batch-read's variants delete in every combination; read
/// (what bank.balance needs) is never among them.
constexpr std::array<int, 4> kRestrictBits = {
    core::rights::kWriteBit, core::rights::kDestroyBit,
    core::rights::kAdminBit, servers::bank_rights::kWithdrawBit};
static_assert(1 << kRestrictBits.size() == kVariants);

[[nodiscard]] std::string account_name(int k) {
  return "acct-" + std::to_string(k);
}

void require(bool ok, const char* what) {
  if (!ok) {
    throw std::runtime_error(std::string("bench_e2e: setup failed: ") + what);
  }
}

/// Sends every batch at once and returns each batch's replies.
[[nodiscard]] std::vector<rpc::TypedBatch::Replies> run_all(
    std::vector<rpc::TypedBatch>& batches, const char* what) {
  std::vector<rpc::Future> futures;
  futures.reserve(batches.size());
  for (auto& batch : batches) futures.push_back(batch.run_async());
  std::vector<rpc::TypedBatch::Replies> out;
  out.reserve(futures.size());
  for (auto& future : futures) {
    auto replies = rpc::TypedBatch::parse_reply(future.get());
    require(replies.ok(), what);
    out.push_back(std::move(replies).value());
  }
  return out;
}

/// Balances of `caps`, read in pipelined batches; nullopt where a
/// capability failed to validate.
[[nodiscard]] std::vector<std::optional<std::int64_t>> read_balances(
    rpc::Transport& transport, Port bank,
    const std::vector<core::Capability>& caps) {
  std::vector<rpc::TypedBatch> batches;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    if (i % kBatchEntries == 0) batches.emplace_back(transport, bank);
    batches.back().add(bank_ops::kBalance, caps[i], {kDollar});
  }
  std::vector<std::optional<std::int64_t>> out(caps.size());
  std::vector<rpc::Future> futures;
  for (auto& batch : batches) futures.push_back(batch.run_async());
  for (std::size_t b = 0; b < futures.size(); ++b) {
    const auto replies = rpc::TypedBatch::parse_reply(futures[b].get());
    if (!replies.ok()) continue;
    for (std::size_t i = b * kBatchEntries;
         i < std::min(caps.size(), (b + 1) * kBatchEntries); ++i) {
      const auto reply =
          replies.value().get(Entry<BalanceOp>{i - b * kBatchEntries});
      if (reply.ok()) out[i] = reply.value().balance;
    }
  }
  return out;
}

}  // namespace

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::read_mix: return "read-mix";
    case Workload::transfer: return "transfer";
    case Workload::batch_read: return "batch-read";
    case Workload::session_churn: return "session-churn";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : kWorkloads) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

Population populate(Cluster& cluster, rpc::Transport& control,
                    bool with_variants) {
  Population pop;
  const int batches = kAccounts / kBatchEntries;
  {
    std::vector<rpc::TypedBatch> creates;
    for (int b = 0; b < batches; ++b) {
      creates.emplace_back(control, cluster.bank_port());
      for (int i = 0; i < kBatchEntries; ++i) {
        creates.back().add(bank_ops::kCreateAccount);
      }
    }
    for (const auto& replies : run_all(creates, "bank.create_account")) {
      for (std::size_t i = 0; i < kBatchEntries; ++i) {
        const auto created = replies.get(Entry<CreateOp>{i});
        require(created.ok(), "bank.create_account");
        pop.accounts.push_back(created.value().capability);
      }
    }
  }
  // Mints (bank) and enters (directory) go out together: the first
  // `batches` envelopes mint, the rest enter.
  std::vector<rpc::TypedBatch> effects;
  for (int b = 0; b < batches; ++b) {
    effects.emplace_back(control, cluster.bank_port());
  }
  for (int b = 0; b < batches; ++b) {
    effects.emplace_back(control, cluster.dir_port());
  }
  for (int k = 0; k < kAccounts; ++k) {
    const auto& account = pop.accounts[static_cast<std::size_t>(k)];
    const auto b = static_cast<std::size_t>(k / kBatchEntries);
    pop.minted.push_back(kMintBase + k);
    effects[b].add(bank_ops::kMint, cluster.master(),
                   {kDollar, kMintBase + k, account});
    effects[b + static_cast<std::size_t>(batches)].add(
        dir_ops::kEnter, cluster.root(), {account_name(k), account});
  }
  const auto replies = run_all(effects, "bank.mint / dir.enter");
  for (std::size_t b = 0; b < replies.size(); ++b) {
    const bool mint = b < static_cast<std::size_t>(batches);
    for (std::size_t i = 0; i < kBatchEntries; ++i) {
      require(mint ? replies[b].get(Entry<MintOp>{i}).ok()
                   : replies[b].get(Entry<EnterOp>{i}).ok(),
              mint ? "bank.mint" : "dir.enter");
    }
  }

  if (with_variants) {
    // Each variant v deletes the rights of v's set bits; it is derived
    // from the variant with v's lowest set bit still present, so every
    // variant costs exactly one client-side restriction.
    Rng scheme_rng(cluster::kSchemeSeed);
    const auto scheme =
        core::make_scheme(core::SchemeKind::commutative, scheme_rng);
    pop.variants.resize(pop.accounts.size() * kVariants);
    const auto start = Clock::now();
    for (std::size_t k = 0; k < pop.accounts.size(); ++k) {
      core::Capability* variants = &pop.variants[k * kVariants];
      variants[0] = pop.accounts[k];
      for (unsigned v = 1; v < kVariants; ++v) {
        const int bit = kRestrictBits[static_cast<std::size_t>(
            std::countr_zero(v))];
        auto restricted = scheme->restrict_local(variants[v & (v - 1)], bit);
        require(restricted.ok(), "restrict_local");
        variants[v] = restricted.value();
      }
    }
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count();
    pop.restrict_local_us =
        us / static_cast<double>(pop.accounts.size() * (kVariants - 1));
  }
  return pop;
}

// ---------------------------------------------------------------- clients

void TransportTotals::add(const rpc::Transport::Stats& stats) {
  retransmits += stats.retransmits;
  timeouts += stats.timeouts;
  cache_misses += stats.cache_misses;
  if (stats.rtt_samples > 0) {
    srtt_us_sum += stats.srtt_us;
    ++srtt_count;
  }
}

TransportTotals& TransportTotals::operator+=(const TransportTotals& other) {
  retransmits += other.retransmits;
  timeouts += other.timeouts;
  cache_misses += other.cache_misses;
  srtt_us_sum += other.srtt_us_sum;
  srtt_count += other.srtt_count;
  return *this;
}

Client::Client(net::Machine& on, std::uint64_t seed)
    : machine(&on),
      transport(std::make_unique<rpc::Transport>(on, seed)),
      rng(seed) {
  configure(*transport);
}

void Client::configure(rpc::Transport& transport) {
  // Fault-free runs should never time out; the cluster harness's
  // deadline keeps a slow fsync from being counted as a failure.
  transport.set_default_timeout(15'000ms);
}

TransportTotals Client::totals() const {
  TransportTotals out = retired;
  out.add(transport->stats());
  return out;
}

// ----------------------------------------------------------------- driver

Driver::Driver(Workload workload, const Population& population,
               Port bank_port, const core::Capability& root)
    : workload_(workload),
      population_(population),
      bank_port_(bank_port),
      root_(root),
      expected_(population.accounts.size()) {
  double total = 0.0;
  for (int i = 0; i < kAccounts; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfSkew);
    zipf_cdf_.push_back(total);
    names_.push_back(account_name(i));
  }
  for (double& c : zipf_cdf_) c /= total;
  for (std::size_t k = 0; k < expected_.size(); ++k) {
    expected_[k].store(population.minted[k], std::memory_order_relaxed);
  }
}

std::uint64_t Driver::warmup_ops() const {
  return workload_ == Workload::session_churn ? 300 : 1000;
}

std::uint64_t Driver::fixed_ops() const {
  return workload_ == Workload::session_churn ? 250 : 2000;
}

int Driver::draw_account(Rng& rng) const {
  const auto it =
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), rng.uniform01());
  return static_cast<int>(
      std::min<std::ptrdiff_t>(it - zipf_cdf_.begin(), kAccounts - 1));
}

template <typename F>
auto Driver::stub(Client& client, Rpc rpc, F&& call) {
  ++client.issued[rpc];
  if (client.lane == nullptr) {
    return call();
  }
  const auto start = Clock::now();
  auto result = call();
  const auto end = Clock::now();
  client.lane->push_back(
      {kRpcNames[rpc], start.time_since_epoch().count(),
       (end - start).count(), client.next_op, /*child=*/true});
  return result;
}

bool Driver::run_op(Client& client) {
  switch (workload_) {
    case Workload::read_mix: return read_mix(client);
    case Workload::transfer: return transfer(client);
    case Workload::batch_read: return batch_read(client);
    case Workload::session_churn: return session(client);
  }
  return false;
}

bool Driver::read_mix(Client& client) {
  const int k = draw_account(client.rng);
  servers::DirectoryClient dir(*client.transport, root_.server_port);
  const auto found = stub(client, kLookup, [&] {
    return dir.lookup(root_, names_[static_cast<std::size_t>(k)]);
  });
  if (!found.ok()) return false;
  if (found.value() != population_.accounts[static_cast<std::size_t>(k)]) {
    ++client.wrong_reads;
  }
  servers::BankClient bank(*client.transport, bank_port_);
  const auto balance = stub(
      client, kBalance, [&] { return bank.balance(found.value(), kDollar); });
  if (!balance.ok()) return false;
  if (balance.value() != expected(k)) ++client.wrong_reads;
  return true;
}

bool Driver::transfer(Client& client) {
  const int from = draw_account(client.rng);
  const int to = static_cast<int>(client.rng.below(kAccounts));
  servers::BankClient bank(*client.transport, bank_port_);
  const auto done = stub(client, kTransfer, [&] {
    return bank.transfer(population_.accounts[static_cast<std::size_t>(from)],
                         population_.accounts[static_cast<std::size_t>(to)],
                         kDollar, 1);
  });
  if (!done.ok()) return false;
  expected_[static_cast<std::size_t>(from)].fetch_sub(1);
  expected_[static_cast<std::size_t>(to)].fetch_add(1);
  return true;
}

bool Driver::batch_read(Client& client) {
  rpc::TypedBatch batch(*client.transport, bank_port_);
  std::array<int, kBatchEntries> drawn{};
  std::array<Entry<BalanceOp>, kBatchEntries> entries{};
  for (std::size_t i = 0; i < kBatchEntries; ++i) {
    drawn[i] = draw_account(client.rng);
    const std::size_t v = static_cast<std::size_t>(drawn[i]) * kVariants +
                          client.rng.below(kVariants);
    entries[i] =
        batch.add(bank_ops::kBalance, population_.variants[v], {kDollar});
  }
  client.issued[kBalance] += kBatchEntries;
  const auto replies = stub(client, kBatch, [&] { return batch.run(); });
  if (!replies.ok()) return false;
  bool ok = true;
  for (std::size_t i = 0; i < kBatchEntries; ++i) {
    const auto reply = replies.value().get(entries[i]);
    if (!reply.ok()) {
      ok = false;
    } else if (reply.value().balance != expected(drawn[i])) {
      ++client.wrong_reads;
    }
  }
  return ok;
}

bool Driver::session(Client& client) {
  // A fresh transport is a new at-most-once client id, and its empty
  // location cache LOCATEs the bank again.
  rpc::Transport transport(*client.machine, client.rng.next());
  Client::configure(transport);
  servers::BankClient bank(transport, bank_port_);
  const bool ok = [&] {
    const auto sink =
        stub(client, kCreate, [&] { return bank.create_account(); });
    if (!sink.ok()) return false;
    const int from = draw_account(client.rng);
    const auto moved = stub(client, kTransfer, [&] {
      return bank.transfer(population_.accounts[static_cast<std::size_t>(from)],
                           sink.value(), kDollar, kSessionAmount);
    });
    if (!moved.ok()) {
      client.sinks.push_back({sink.value(), 0});
      return false;
    }
    expected_[static_cast<std::size_t>(from)].fetch_sub(kSessionAmount);
    client.sinks.push_back({sink.value(), kSessionAmount});
    const auto balance = stub(
        client, kBalance, [&] { return bank.balance(sink.value(), kDollar); });
    if (!balance.ok()) return false;
    if (balance.value() != kSessionAmount) ++client.wrong_reads;
    return true;
  }();
  client.retired.add(transport.stats());
  return ok;
}

// ----------------------------------------------------------------- checks

std::vector<Check> verify(const Driver& driver, const Population& population,
                          const std::vector<Client>& clients,
                          Cluster& cluster, rpc::Transport& control) {
  Check reads{"reads_returned_expected", true, ""};
  Check confirmed{"balances_as_confirmed", true, ""};
  Check sinks_ok{"sinks_hold_amount", true, ""};
  Check conserved{"money_conserved", true, ""};
  Check validates{"capabilities_validate", true, ""};
  const auto fail = [](Check& check, const std::string& detail) {
    if (check.ok) check.detail = detail;  // keep the first violation
    check.ok = false;
  };

  std::uint64_t wrong_reads = 0;
  for (const Client& c : clients) wrong_reads += c.wrong_reads;
  if (wrong_reads != 0) {
    fail(reads, std::to_string(wrong_reads) + " reads were wrong");
  }

  std::int64_t minted = 0;
  std::int64_t held = 0;
  const auto accounts =
      read_balances(control, cluster.bank_port(), population.accounts);
  for (std::size_t k = 0; k < accounts.size(); ++k) {
    minted += population.minted[k];
    if (!accounts[k].has_value()) {
      fail(validates, "account " + std::to_string(k));
      continue;
    }
    held += *accounts[k];
    if (*accounts[k] != driver.expected(static_cast<int>(k))) {
      fail(confirmed, "account " + std::to_string(k) + " holds " +
                          std::to_string(*accounts[k]) + ", expected " +
                          std::to_string(driver.expected(static_cast<int>(k))));
    }
  }

  std::vector<core::Capability> sink_caps;
  std::vector<std::int64_t> sink_amounts;
  for (const Client& c : clients) {
    for (const Sink& sink : c.sinks) {
      sink_caps.push_back(sink.account);
      sink_amounts.push_back(sink.amount);
    }
  }
  const auto sinks = read_balances(control, cluster.bank_port(), sink_caps);
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    if (!sinks[i].has_value()) {
      fail(validates, "sink " + std::to_string(i));
      continue;
    }
    held += *sinks[i];
    if (*sinks[i] != sink_amounts[i]) {
      fail(sinks_ok, "sink " + std::to_string(i) + " holds " +
                         std::to_string(*sinks[i]));
    }
  }
  if (held != minted) {
    fail(conserved, "held " + std::to_string(held) + ", minted " +
                        std::to_string(minted));
  }

  const auto variants =
      read_balances(control, cluster.bank_port(), population.variants);
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const int k = static_cast<int>(i / kVariants);
    if (variants[i] != driver.expected(k)) {
      fail(validates, "variant " + std::to_string(i));
    }
  }

  std::vector<rpc::TypedBatch> lookups;
  for (int k = 0; k < kAccounts; ++k) {
    if (k % kBatchEntries == 0) {
      lookups.emplace_back(control, cluster.dir_port());
    }
    lookups.back().add(dir_ops::kLookup, cluster.root(), {account_name(k)});
  }
  std::size_t k = 0;
  for (auto& batch : lookups) {
    const auto replies = batch.run();
    for (std::size_t i = 0; i < kBatchEntries; ++i, ++k) {
      using LookupOp = dir_ops::LookupOp;
      const auto found =
          replies.ok() ? replies.value().get(Entry<LookupOp>{i})
                       : rpc::Outcome<LookupOp>(replies.error());
      if (!found.ok() ||
          found.value().capability != population.accounts[k]) {
        fail(validates, "directory entry " + account_name(static_cast<int>(k)));
      }
    }
  }
  return {reads, confirmed, sinks_ok, conserved, validates};
}

}  // namespace amoeba::bench
