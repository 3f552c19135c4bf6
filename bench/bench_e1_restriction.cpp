// E1: sub-capability fabrication -- server round-trip vs local.
//
// §2.3: under schemes 1/2, passing read-only access "requires going back
// to the server every time a sub-capability with fewer rights is needed";
// scheme 3 (commutative one-way functions) "does not have this drawback."
//
// Measured: the cost of producing a restricted capability (a) via the
// shared restrict RPC against a live server (schemes 0-2 path), and
// (b) locally with the commutative family (scheme 3), plus the pure
// cryptographic cost of a local restriction.  The expected shape: local
// restriction is orders of magnitude cheaper because it avoids the
// network round-trip entirely, even though a power map is slower than a
// table lookup.
#include <benchmark/benchmark.h>

#include "smoke.hpp"

#include <cstdio>
#include <memory>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/object_store.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/block_server.hpp"

namespace {

using namespace amoeba;

/// One live service + client, shared across benchmark iterations.
struct Rig {
  explicit Rig(core::SchemeKind kind)
      : server_machine(net.add_machine("server")),
        client_machine(net.add_machine("client")),
        rng(static_cast<std::uint64_t>(kind) + 1),
        scheme(core::make_scheme(kind, rng)) {
    servers::BlockServer::Geometry geometry;
    geometry.block_count = 16;
    geometry.block_size = 64;
    service = std::make_unique<servers::BlockServer>(
        server_machine, Port(0x6E7), scheme, 1, geometry);
    service->start();
    transport = std::make_unique<rpc::Transport>(client_machine, 2);
  }

  net::Network net;
  net::Machine& server_machine;
  net::Machine& client_machine;
  Rng rng;
  std::shared_ptr<const core::ProtectionScheme> scheme;
  std::unique_ptr<servers::BlockServer> service;
  std::unique_ptr<rpc::Transport> transport;
};

void BM_RestrictViaServerRpc(benchmark::State& state) {
  // The schemes 0-2 path: every sub-capability costs one transaction.
  const auto kind = static_cast<core::SchemeKind>(state.range(0));
  Rig rig(kind);
  servers::BlockClient client(*rig.transport, rig.service->put_port());
  const auto cap = client.allocate().value();
  for (auto _ : state) {
    auto restricted =
        rpc::std_restrict(*rig.transport, cap, core::rights::kRead);
    benchmark::DoNotOptimize(restricted);
  }
  state.SetLabel(std::string(core::scheme_name(kind)) + " via RPC");
}
BENCHMARK(BM_RestrictViaServerRpc)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMicrosecond);

void BM_RestrictLocalCommutative(benchmark::State& state) {
  // Scheme 3: any holder deletes a right with one power map, no network.
  Rig rig(core::SchemeKind::commutative);
  servers::BlockClient client(*rig.transport, rig.service->put_port());
  const auto cap = client.allocate().value();
  const auto& commutative =
      static_cast<const core::CommutativeScheme&>(*rig.scheme);
  for (auto _ : state) {
    auto restricted =
        commutative.restrict_local(cap, core::rights::kWriteBit);
    benchmark::DoNotOptimize(restricted);
  }
  state.SetLabel("commutative local (no RPC)");
}
BENCHMARK(BM_RestrictLocalCommutative)->Unit(benchmark::kMicrosecond);

void BM_DelegationChain(benchmark::State& state) {
  // A capability is passed down a delegation chain of `depth` principals,
  // each stripping one right.  Server path: depth transactions; local
  // path: depth power maps.
  const bool local = state.range(1) != 0;
  const int depth = static_cast<int>(state.range(0));
  Rig rig(core::SchemeKind::commutative);
  servers::BlockClient client(*rig.transport, rig.service->put_port());
  const auto cap = client.allocate().value();
  const auto& commutative =
      static_cast<const core::CommutativeScheme&>(*rig.scheme);
  for (auto _ : state) {
    core::Capability current = cap;
    for (int level = 0; level < depth; ++level) {
      if (local) {
        current = commutative.restrict_local(current, level).value();
      } else {
        current = rpc::std_restrict(*rig.transport, current,
                                    current.rights.without(level))
                      .value();
      }
    }
    benchmark::DoNotOptimize(current);
  }
  state.SetLabel(std::string(local ? "local" : "via RPC") + ", depth " +
                 std::to_string(depth));
}
BENCHMARK(BM_DelegationChain)
    ->Args({1, 0})->Args({2, 0})->Args({4, 0})->Args({7, 0})
    ->Args({1, 1})->Args({2, 1})->Args({4, 1})->Args({7, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_PowerMapOnly(benchmark::State& state) {
  // The raw crypto cost of F_k: one modular exponentiation mod n < 2^48.
  Rng rng(5);
  const crypto::CommutativeFamily family(rng);
  std::uint64_t x = family.random_element(rng);
  for (auto _ : state) {
    x = family.apply(3, x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_PowerMapOnly);

}  // namespace

int main(int argc, char** argv) {
  std::printf("E1: sub-capability fabrication -- the paper's claim is that "
              "scheme 3 avoids the server round-trip that schemes 1-2 "
              "need for every restriction.\n");
  amoeba::bench::initialize(argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
