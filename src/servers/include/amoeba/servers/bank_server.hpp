// The bank server (§3.6).
//
// "The basis for the resource control and accounting is the bank server,
// which manages 'bank account' objects.  The principal operation on bank
// accounts is transferring virtual money from one account to another. ...
// The bank server is prepared to maintain accounts in different, possibly
// convertible, possibly inconvertible, currencies."
//
// Rights: kRead inspects balances, kWithdraw (bit 4) moves money out,
// kDeposit (bit 5) lets money in.  New money enters the economy only
// through the master capability minted at server construction -- the model
// for "the bank" itself.  Currency conversion applies server-configured
// rational rates; pairs without a rate are inconvertible (bad_currency).
#pragma once

#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "amoeba/core/object_store.hpp"
#include "amoeba/rpc/batch.hpp"
#include "amoeba/rpc/server.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/common.hpp"

namespace amoeba::servers {

namespace bank_rights {
inline constexpr int kWithdrawBit = 4;
inline constexpr int kDepositBit = 5;
inline constexpr int kMintBit = 6;  // meaningful only on the master account
inline constexpr Rights kWithdraw{1u << kWithdrawBit};
inline constexpr Rights kDeposit{1u << kDepositBit};
inline constexpr Rights kMint{1u << kMintBit};
}  // namespace bank_rights

/// The bank's operation table: every op states its wire shape and the
/// rights the presented capability must grant, in one place.
namespace bank_ops {

struct BalanceRequest {
  std::uint32_t currency = 0;
  using Wire = rpc::Layout<BalanceRequest, rpc::Param<0, &BalanceRequest::currency>>;
};
struct BalanceReply {
  std::int64_t balance = 0;
  using Wire = rpc::Layout<BalanceReply, rpc::Param<0, &BalanceReply::balance>>;
};

struct TransferRequest {
  std::uint32_t currency = 0;
  std::int64_t amount = 0;
  core::Capability to;  // travels in the data field (§2.1)
  using Wire = rpc::Layout<TransferRequest,
                           rpc::Param<0, &TransferRequest::currency>,
                           rpc::Param<1, &TransferRequest::amount>,
                           rpc::Data<&TransferRequest::to>>;
};

struct ConvertRequest {
  std::uint32_t from_currency = 0;
  std::uint32_t to_currency = 0;
  std::int64_t amount = 0;
  using Wire = rpc::Layout<ConvertRequest,
                           rpc::Param<0, &ConvertRequest::from_currency>,
                           rpc::Param<1, &ConvertRequest::to_currency>,
                           rpc::Param<2, &ConvertRequest::amount>>;
};
struct ConvertReply {
  std::int64_t converted = 0;
  using Wire = rpc::Layout<ConvertReply, rpc::Param<0, &ConvertReply::converted>>;
};

struct MintRequest {
  std::uint32_t currency = 0;
  std::int64_t amount = 0;
  core::Capability to;
  using Wire = rpc::Layout<MintRequest,
                           rpc::Param<0, &MintRequest::currency>,
                           rpc::Param<1, &MintRequest::amount>,
                           rpc::Data<&MintRequest::to>>;
};

using TransferOp = rpc::Op<TransferRequest, rpc::Empty>;

inline constexpr rpc::Op<rpc::Empty, rpc::CapabilityReply> kCreateAccount{
    0x0501, "bank.create_account", rpc::kFactoryOp};
inline constexpr rpc::Op<BalanceRequest, BalanceReply> kBalance{
    0x0502, "bank.balance", core::rights::kRead};
inline constexpr TransferOp kTransfer{
    0x0503, "bank.transfer", bank_rights::kWithdraw, bank_rights::kDeposit};
inline constexpr rpc::Op<ConvertRequest, ConvertReply> kConvert{
    0x0504, "bank.convert",
    bank_rights::kWithdraw.with(bank_rights::kDepositBit)};
inline constexpr rpc::Op<MintRequest, rpc::Empty> kMint{
    0x0505, "bank.mint", bank_rights::kMint, bank_rights::kDeposit};

}  // namespace bank_ops

/// Currencies are small integers; the examples use these.
namespace currency {
inline constexpr std::uint32_t kDollar = 0;  // disk space
inline constexpr std::uint32_t kFranc = 1;   // CPU time
inline constexpr std::uint32_t kYen = 2;     // phototypesetter pages
}  // namespace currency

class BankServer final : public rpc::Service {
 public:
  /// `backend`, when set, makes the account table durable: every create,
  /// balance change, revocation, and destroy is write-ahead-journaled, and
  /// a constructor handed a non-empty volume RECOVERS -- accounts,
  /// balances, the master account, and every outstanding capability
  /// survive the restart, as do the at-most-once reply-cache floors
  /// (duplicates of pre-crash transfers still drop, never re-execute).
  BankServer(net::Machine& machine, Port get_port,
             std::shared_ptr<const core::ProtectionScheme> scheme,
             std::uint64_t seed,
             std::shared_ptr<storage::Backend> backend = nullptr);
  ~BankServer() override { stop(); }  // quiesce workers before members die

  /// The bank's own capability: the only source of new money (kMint).
  [[nodiscard]] core::Capability master_capability() const {
    return master_;
  }

  /// Configures a conversion rate: amount_to = amount_from * num / den
  /// (integer floor).  Unconfigured pairs are inconvertible.
  void set_conversion_rate(std::uint32_t from, std::uint32_t to,
                           std::int64_t num, std::int64_t den);

 private:
  struct Account {
    std::unordered_map<std::uint32_t, std::int64_t> balances;
    bool is_master = false;
  };
  using Store = core::ObjectStore<Account>;

  /// Payload codec + committer wiring for the durable store (empty handle
  /// when `committer` is null).
  [[nodiscard]] static core::Durability<Account> durability(
      std::shared_ptr<storage::GroupCommitter> committer);

  [[nodiscard]] Result<bank_ops::BalanceReply> do_balance(
      const bank_ops::BalanceRequest& req, Store::Opened& account);
  [[nodiscard]] Result<void> do_transfer(const core::Capability& from,
                                         const bank_ops::TransferRequest& req);
  [[nodiscard]] Result<bank_ops::ConvertReply> do_convert(
      const bank_ops::ConvertRequest& req, Store::Opened& account);
  [[nodiscard]] Result<void> do_mint(const core::Capability& master,
                                     const bank_ops::MintRequest& req);

  // Account state lives in (and is locked by) the sharded store; transfers
  // hold both accounts' shard locks via open2.  Only the rate table needs
  // its own lock (written by set_conversion_rate, read by converts).
  // Declared before store_: the store enqueues on it for its whole
  // lifetime (destruction order tears the store down first).
  std::shared_ptr<storage::GroupCommitter> committer_;
  Store store_;
  core::Capability master_;
  mutable std::shared_mutex rates_mutex_;
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::pair<std::int64_t, std::int64_t>>
      rates_;
};

/// Client stub for the bank service.
class BankClient : public rpc::ClientStub {
 public:
  using ClientStub::ClientStub;

  [[nodiscard]] Result<core::Capability> create_account() {
    return call<&rpc::CapabilityReply::capability>(bank_ops::kCreateAccount);
  }
  [[nodiscard]] Result<std::int64_t> balance(const core::Capability& account,
                                             std::uint32_t currency) {
    return call<&bank_ops::BalanceReply::balance>(bank_ops::kBalance, account,
                                                  {currency});
  }
  /// Moves `amount` of `currency` from `from` (withdraw right) to `to`
  /// (deposit right).  The target capability travels in the data field.
  [[nodiscard]] Result<void> transfer(const core::Capability& from,
                                      const core::Capability& to,
                                      std::uint32_t currency,
                                      std::int64_t amount) {
    return call(bank_ops::kTransfer, from, {currency, amount, to});
  }

  /// One independent transfer inside a multi-transfer (§3.6's payroll
  /// shape: one payer, many payees -- or any mix).
  struct Transfer {
    core::Capability from;
    core::Capability to;
    std::uint32_t currency = 0;
    std::int64_t amount = 0;
  };

  /// Executes independent transfers as ONE batched round trip; outcomes
  /// come back per transfer, in order.  Each entry is atomic exactly as a
  /// lone transfer is (both accounts under their shard locks); entries are
  /// independent of each other -- a failed entry does not roll back its
  /// neighbours.  An envelope-level failure is reported on every entry.
  [[nodiscard]] std::vector<Result<void>> transfer_many(
      std::span<const Transfer> transfers);
  /// Converts within one account at the configured rate.
  [[nodiscard]] Result<std::int64_t> convert(const core::Capability& account,
                                             std::uint32_t from_currency,
                                             std::uint32_t to_currency,
                                             std::int64_t amount) {
    return call<&bank_ops::ConvertReply::converted>(
        bank_ops::kConvert, account, {from_currency, to_currency, amount});
  }
  /// Creates new money (master capability only).
  [[nodiscard]] Result<void> mint(const core::Capability& master,
                                  const core::Capability& to,
                                  std::uint32_t currency, std::int64_t amount) {
    return call(bank_ops::kMint, master, {currency, amount, to});
  }
};

}  // namespace amoeba::servers
