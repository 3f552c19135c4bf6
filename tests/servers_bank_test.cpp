// Tests for the bank server (§3.6): accounts, transfers, currencies,
// conversion, minting, and the rights discipline around money movement.
#include <gtest/gtest.h>

#include <memory>

#include "amoeba/common/rng.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/servers/common.hpp"

namespace amoeba::servers {
namespace {

class BankSuite : public ::testing::Test {
 protected:
  BankSuite()
      : machine_(net_.add_machine("bank")),
        client_machine_(net_.add_machine("client")),
        rng_(31) {
    server_ = std::make_unique<BankServer>(
        machine_, Port(0xBA7C),
        core::make_scheme(core::SchemeKind::commutative, rng_), 1);
    server_->set_conversion_rate(currency::kDollar, currency::kYen, 150, 1);
    server_->set_conversion_rate(currency::kYen, currency::kDollar, 1, 150);
    server_->start();
    transport_ = std::make_unique<rpc::Transport>(client_machine_, 2);
    client_ = std::make_unique<BankClient>(*transport_, server_->put_port());
    alice_ = client_->create_account().value();
    bob_ = client_->create_account().value();
    // Seed alice with 1000 dollars.
    EXPECT_TRUE(client_
                    ->mint(server_->master_capability(), alice_,
                           currency::kDollar, 1000)
                    .ok());
  }

  net::Network net_;
  net::Machine& machine_;
  net::Machine& client_machine_;
  Rng rng_;
  std::unique_ptr<BankServer> server_;
  std::unique_ptr<rpc::Transport> transport_;
  std::unique_ptr<BankClient> client_;
  core::Capability alice_;
  core::Capability bob_;
};

TEST_F(BankSuite, BalancesStartAtZero) {
  EXPECT_EQ(client_->balance(bob_, currency::kDollar).value(), 0);
  EXPECT_EQ(client_->balance(alice_, currency::kYen).value(), 0);
  EXPECT_EQ(client_->balance(alice_, currency::kDollar).value(), 1000);
}

TEST_F(BankSuite, TransferMovesMoney) {
  ASSERT_TRUE(client_->transfer(alice_, bob_, currency::kDollar, 300).ok());
  EXPECT_EQ(client_->balance(alice_, currency::kDollar).value(), 700);
  EXPECT_EQ(client_->balance(bob_, currency::kDollar).value(), 300);
}

TEST_F(BankSuite, InsufficientFundsRejected) {
  EXPECT_EQ(client_->transfer(alice_, bob_, currency::kDollar, 1001).error(),
            ErrorCode::insufficient_funds);
  EXPECT_EQ(client_->balance(alice_, currency::kDollar).value(), 1000);
}

TEST_F(BankSuite, CurrenciesAreSeparate) {
  // Dollars cannot be spent as yen.
  EXPECT_EQ(client_->transfer(alice_, bob_, currency::kYen, 1).error(),
            ErrorCode::insufficient_funds);
}

TEST_F(BankSuite, NonPositiveAmountsRejected) {
  EXPECT_EQ(client_->transfer(alice_, bob_, currency::kDollar, 0).error(),
            ErrorCode::invalid_argument);
  EXPECT_EQ(client_->transfer(alice_, bob_, currency::kDollar, -5).error(),
            ErrorCode::invalid_argument);
}

TEST_F(BankSuite, SelfTransferIsNoOp) {
  ASSERT_TRUE(client_->transfer(alice_, alice_, currency::kDollar, 100).ok());
  EXPECT_EQ(client_->balance(alice_, currency::kDollar).value(), 1000);
}

TEST_F(BankSuite, ConversionAtConfiguredRate) {
  const auto yen = client_->convert(alice_, currency::kDollar,
                                    currency::kYen, 10);
  ASSERT_TRUE(yen.ok());
  EXPECT_EQ(yen.value(), 1500);
  EXPECT_EQ(client_->balance(alice_, currency::kDollar).value(), 990);
  EXPECT_EQ(client_->balance(alice_, currency::kYen).value(), 1500);
}

TEST_F(BankSuite, InconvertibleCurrencyRejected) {
  // No rate configured for dollar -> franc: "possibly inconvertible".
  EXPECT_EQ(client_->convert(alice_, currency::kDollar, currency::kFranc, 1)
                .error(),
            ErrorCode::bad_currency);
}

TEST_F(BankSuite, WithdrawRightRequiredToSpend) {
  // A deposit-only capability can receive but not spend.
  const Rights deposit_only =
      core::rights::kRead.with(bank_rights::kDepositBit);
  const auto deposit_cap = rpc::std_restrict(*transport_, alice_, deposit_only);
  ASSERT_TRUE(deposit_cap.ok());
  EXPECT_EQ(client_->transfer(deposit_cap.value(), bob_, currency::kDollar, 1)
                .error(),
            ErrorCode::permission_denied);
  // But it can be paid into.
  ASSERT_TRUE(client_->mint(server_->master_capability(),
                            deposit_cap.value(), currency::kDollar, 5)
                  .ok());
}

TEST_F(BankSuite, DepositRightRequiredToReceive) {
  const auto inspect_only =
      rpc::std_restrict(*transport_, bob_, core::rights::kRead);
  ASSERT_TRUE(inspect_only.ok());
  EXPECT_EQ(client_->transfer(alice_, inspect_only.value(),
                              currency::kDollar, 1)
                .error(),
            ErrorCode::permission_denied);
}

TEST_F(BankSuite, OrdinaryAccountCannotMint) {
  // Even a full-rights ordinary account is not the bank.
  EXPECT_EQ(client_->mint(alice_, bob_, currency::kDollar, 100).error(),
            ErrorCode::permission_denied);
  EXPECT_EQ(client_->balance(bob_, currency::kDollar).value(), 0);
}

TEST_F(BankSuite, ForgedCapabilityCannotTouchMoney) {
  core::Capability forged = alice_;
  forged.check = CheckField(forged.check.value() ^ 1);
  EXPECT_EQ(client_->balance(forged, currency::kDollar).error(),
            ErrorCode::bad_capability);
  EXPECT_EQ(client_->transfer(forged, bob_, currency::kDollar, 1).error(),
            ErrorCode::bad_capability);
}

TEST_F(BankSuite, MalformedTransferPayloadRejected) {
  // Transfer with garbage instead of a capability in the data field.
  net::Message req;
  req.header.dest = server_->put_port();
  req.header.opcode = bank_ops::kTransfer.opcode;
  set_header_capability(req, alice_);
  req.header.params[0] = currency::kDollar;
  req.header.params[1] = 1;
  req.data = {1, 2, 3};  // not 16 bytes
  const auto reply = transport_->trans(req);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().message.header.status, ErrorCode::invalid_argument);
}

TEST_F(BankSuite, PrePaymentPattern) {
  // "The client can pre-pay for a substantial amount of work, in order to
  // eliminate the overhead of going back to the bank on each request."
  const auto server_account = client_->create_account().value();
  ASSERT_TRUE(
      client_->transfer(alice_, server_account, currency::kDollar, 500).ok());
  EXPECT_EQ(client_->balance(server_account, currency::kDollar).value(), 500);
  EXPECT_EQ(client_->balance(alice_, currency::kDollar).value(), 500);
}

TEST_F(BankSuite, TransferManyBatchesIndependentOutcomes) {
  // Payroll shape: several independent transfers in ONE batched round
  // trip, each entry atomic on its own, failures isolated per entry.
  const auto carol = client_->create_account().value();
  const std::vector<BankClient::Transfer> payroll = {
      {alice_, bob_, currency::kDollar, 300},
      {alice_, carol, currency::kDollar, 200},
      {bob_, carol, currency::kYen, 50},        // bob has no yen
      {alice_, bob_, currency::kDollar, -5},    // rejected amount
      {alice_, carol, currency::kDollar, 100},
  };
  const auto before = net_.stats().unicasts.load();
  const auto outcomes = client_->transfer_many(payroll);
  // One request frame, one reply frame, for all five transfers.
  EXPECT_EQ(net_.stats().unicasts.load() - before, 2u);
  EXPECT_EQ(net_.stats().batch_frames.load(), 2u);
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_TRUE(outcomes[1].ok());
  EXPECT_EQ(outcomes[2].error(), ErrorCode::insufficient_funds);
  EXPECT_EQ(outcomes[3].error(), ErrorCode::invalid_argument);
  EXPECT_TRUE(outcomes[4].ok());
  EXPECT_EQ(client_->balance(alice_, currency::kDollar).value(), 400);
  EXPECT_EQ(client_->balance(bob_, currency::kDollar).value(), 300);
  EXPECT_EQ(client_->balance(carol, currency::kDollar).value(), 300);
}

TEST_F(BankSuite, TransferManyRightsDisciplineHoldsPerEntry) {
  // A read-only capability inside a batch must fail exactly like it does
  // in a lone transfer -- batching must not widen any right.
  const auto read_only =
      rpc::std_restrict(*transport_, alice_, core::rights::kRead).value();
  const std::vector<BankClient::Transfer> mixed = {
      {read_only, bob_, currency::kDollar, 10},
      {alice_, bob_, currency::kDollar, 10},
  };
  const auto outcomes = client_->transfer_many(mixed);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].error(), ErrorCode::permission_denied);
  EXPECT_TRUE(outcomes[1].ok());
  EXPECT_EQ(client_->balance(bob_, currency::kDollar).value(), 10);
}

}  // namespace
}  // namespace amoeba::servers
