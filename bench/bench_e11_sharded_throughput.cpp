// E11: multi-client validation throughput on the sharded object store.
//
// The paper's performance argument (§2.3) is that presenting a capability
// costs the server one table lookup plus one cheap cryptographic check.
// That only holds at scale if the lookup does not serialize the whole
// service: this benchmark drives open() from 1..8 threads against
//   (a) the sharded store (per-shard locks + validated-capability cache),
//   (b) the same store behind one global mutex -- the seed's old
//       service-wide locking discipline, kept as the contrast baseline,
// plus a hot-capability variant (pure cache hit) and a create/destroy
// churn mix.  On a multi-core host (a) scales with threads while (b)
// flatlines; items_per_second is the figure of merit.
//
// The lock-free follow-up adds the next rung on the same ladder: check()
// on a repeat capability runs entirely on atomic loads (seqlock probe of
// the slot + validated-capability cache), vs check_locked(), the same
// semantics behind the shard mutex.  The contrast report at the end runs
// both at 1..8 threads, appends one stamped JSON line to BENCH_validate.json
// (commit, host cores, build type: bench/e2e/stamp.hpp), and
// ENFORCES the acceptance bar -- lock-free throughput must be at least
// the mutex path's at every thread count (5% tolerance at 1 thread, where
// there is no contention to win back) -- exiting nonzero on regression so
// CI's bench-smoke catches it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "e2e/stamp.hpp"
#include "smoke.hpp"

#include "amoeba/common/epoch.hpp"
#include "amoeba/common/rng.hpp"
#include "amoeba/core/object_store.hpp"
#include "amoeba/core/schemes.hpp"

namespace {

using namespace amoeba;

constexpr Port kPort{0xBE11CAFE5EEDULL};
constexpr int kObjects = 4096;

/// Shared store + capability working set, built once per benchmark run and
/// torn down when the last thread leaves.
struct Rig {
  explicit Rig(core::SchemeKind kind) {
    Rng rng(17);
    store = std::make_unique<core::ObjectStore<int>>(
        core::make_scheme(kind, rng), kPort, 17);
    caps.reserve(kObjects);
    for (int i = 0; i < kObjects; ++i) {
      caps.push_back(store->create(i));
    }
  }
  std::unique_ptr<core::ObjectStore<int>> store;
  std::vector<core::Capability> caps;
};

std::mutex g_rig_mutex;
std::unique_ptr<Rig> g_rig;
int g_rig_users = 0;

Rig& acquire_rig(core::SchemeKind kind) {
  const std::lock_guard lock(g_rig_mutex);
  if (g_rig_users++ == 0) {
    g_rig = std::make_unique<Rig>(kind);
  }
  return *g_rig;
}

void release_rig() {
  const std::lock_guard lock(g_rig_mutex);
  if (--g_rig_users == 0) {
    g_rig.reset();
  }
}

/// (a) Sharded: threads validate random capabilities concurrently.
void BM_ShardedOpen(benchmark::State& state) {
  Rig& rig = acquire_rig(core::SchemeKind::encrypted);
  Rng rng(static_cast<std::uint64_t>(state.thread_index()) + 1);
  for (auto _ : state) {
    const auto& cap = rig.caps[rng.below(kObjects)];
    auto opened = rig.store->open(cap, core::rights::kRead);
    benchmark::DoNotOptimize(opened);
    if (!opened.ok()) {
      state.SkipWithError("open failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    const auto stats = rig.store->cache_stats();
    state.counters["cache_hit_ratio"] =
        stats.hits + stats.misses == 0
            ? 0.0
            : static_cast<double>(stats.hits) /
                  static_cast<double>(stats.hits + stats.misses);
  }
  release_rig();
}
BENCHMARK(BM_ShardedOpen)->ThreadRange(1, 8)->UseRealTime();

/// (b) Contrast: every open behind one global mutex (the seed's
/// service-wide lock).  The store underneath is identical.
void BM_GloballyLockedOpen(benchmark::State& state) {
  static std::mutex global_lock;
  Rig& rig = acquire_rig(core::SchemeKind::encrypted);
  Rng rng(static_cast<std::uint64_t>(state.thread_index()) + 1);
  for (auto _ : state) {
    const auto& cap = rig.caps[rng.below(kObjects)];
    const std::lock_guard lock(global_lock);
    auto opened = rig.store->open(cap, core::rights::kRead);
    benchmark::DoNotOptimize(opened);
  }
  state.SetItemsProcessed(state.iterations());
  release_rig();
}
BENCHMARK(BM_GloballyLockedOpen)->ThreadRange(1, 8)->UseRealTime();

/// Pure cache-hit path: one hot capability per thread, revalidated
/// endlessly -- the §2.4 soft-protection cache generalized.
void BM_ShardedOpenHot(benchmark::State& state) {
  Rig& rig = acquire_rig(core::SchemeKind::encrypted);
  const auto& cap =
      rig.caps[static_cast<std::size_t>(state.thread_index()) % kObjects];
  for (auto _ : state) {
    auto opened = rig.store->open(cap, core::rights::kRead);
    benchmark::DoNotOptimize(opened);
  }
  state.SetItemsProcessed(state.iterations());
  release_rig();
}
BENCHMARK(BM_ShardedOpenHot)->ThreadRange(1, 8)->UseRealTime();

/// Lifecycle churn: create/open/destroy mix exercising the per-shard free
/// lists and the epoch-based cache invalidation under contention.
void BM_ShardedChurn(benchmark::State& state) {
  Rig& rig = acquire_rig(core::SchemeKind::one_way_xor);
  Rng rng(static_cast<std::uint64_t>(state.thread_index()) + 99);
  std::vector<core::Capability> mine;
  for (auto _ : state) {
    const std::uint64_t op = rng.below(4);
    if (op == 0 || mine.empty()) {
      mine.push_back(rig.store->create(1));
    } else if (op == 1) {
      const std::size_t idx = rng.below(mine.size());
      benchmark::DoNotOptimize(rig.store->destroy(mine[idx]));
      mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      auto opened =
          rig.store->open(mine[rng.below(mine.size())], core::rights::kRead);
      benchmark::DoNotOptimize(opened);
    }
  }
  for (const auto& cap : mine) {
    benchmark::DoNotOptimize(rig.store->destroy(cap));
  }
  state.SetItemsProcessed(state.iterations());
  release_rig();
}
BENCHMARK(BM_ShardedChurn)->ThreadRange(1, 8)->UseRealTime();

/// Lock-free repeat validation: each thread hammers check() on one hot,
/// already-cached capability -- zero mutex acquisitions per iteration.
void BM_LockFreeCheck(benchmark::State& state) {
  Rig& rig = acquire_rig(core::SchemeKind::encrypted);
  const auto& cap =
      rig.caps[static_cast<std::size_t>(state.thread_index()) % kObjects];
  benchmark::DoNotOptimize(rig.store->check(cap, core::rights::kRead));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.store->check(cap, core::rights::kRead));
  }
  state.SetItemsProcessed(state.iterations());
  release_rig();
}
BENCHMARK(BM_LockFreeCheck)->ThreadRange(1, 8)->UseRealTime();

/// Contrast: identical validation through the shard mutex (check()'s slow
/// path, called directly).
void BM_LockedCheck(benchmark::State& state) {
  Rig& rig = acquire_rig(core::SchemeKind::encrypted);
  const auto& cap =
      rig.caps[static_cast<std::size_t>(state.thread_index()) % kObjects];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rig.store->check_locked(cap, core::rights::kRead));
  }
  state.SetItemsProcessed(state.iterations());
  release_rig();
}
BENCHMARK(BM_LockedCheck)->ThreadRange(1, 8)->UseRealTime();

/// One timed repeat-check run: `threads` workers, each spinning on its own
/// hot capability.  Returns wall-clock ms; `lock_acquisitions` accumulates
/// every CountedMutex acquisition the workers made (must stay 0 on the
/// lock-free path once the caps are warm).
[[nodiscard]] double timed_checks(Rig& rig, int threads, int ops_per_thread,
                                  bool lock_free,
                                  std::uint64_t& lock_acquisitions) {
  std::atomic<std::uint64_t> acquired{0};
  const double ms = amoeba::bench::timed_ms([&] {
    std::vector<std::jthread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const auto& cap = rig.caps[static_cast<std::size_t>(t) % kObjects];
        benchmark::DoNotOptimize(
            rig.store->check(cap, core::rights::kRead));  // warm the cache
        const std::uint64_t before =
            amoeba::common::this_thread_lock_counters().mutex_acquisitions;
        for (int i = 0; i < ops_per_thread; ++i) {
          benchmark::DoNotOptimize(
              lock_free ? rig.store->check(cap, core::rights::kRead)
                        : rig.store->check_locked(cap, core::rights::kRead));
        }
        acquired.fetch_add(
            amoeba::common::this_thread_lock_counters().mutex_acquisitions -
                before,
            std::memory_order_relaxed);
      });
    }
  });
  lock_acquisitions += acquired.load(std::memory_order_relaxed);
  return ms;
}

/// Contrast report + acceptance gate.  Returns the process exit code.
[[nodiscard]] int report(bool smoke) {
  const int ops = smoke ? 400'000 : 2'000'000;
  constexpr int kThreadCounts[] = {1, 2, 4, 8};
  Rig rig(core::SchemeKind::encrypted);

  std::printf(
      "\nE11 validate contrast (hot repeat check, %d ops/thread)\n"
      "  threads   lock-free ms   mutex ms   speedup   lock-free locks\n",
      ops);
  bool pass = true;
  double results[4][3];  // [idx] = {lockfree_ms, mutex_ms, speedup}
  std::uint64_t total_lockfree_acquisitions = 0;
  for (std::size_t idx = 0; idx < 4; ++idx) {
    const int threads = kThreadCounts[idx];
    // Best of three per mode: the gate must not flake on scheduler noise.
    double lf_ms = 0;
    double mx_ms = 0;
    std::uint64_t lf_locks = 0;
    std::uint64_t mx_locks = 0;
    for (int run = 0; run < 3; ++run) {
      const double lf = timed_checks(rig, threads, ops, true, lf_locks);
      const double mx = timed_checks(rig, threads, ops, false, mx_locks);
      lf_ms = run == 0 ? lf : std::min(lf_ms, lf);
      mx_ms = run == 0 ? mx : std::min(mx_ms, mx);
    }
    const double speedup = mx_ms / lf_ms;
    // The bar: lock-free throughput >= the mutex path's at every thread
    // count.  At 1 thread there is no contention to win back, so a 5%
    // tolerance absorbs the seqlock's extra fence; with threads the
    // lock-free path must win outright.
    const double bar = threads == 1 ? 0.95 : 1.0;
    const bool ok = speedup >= bar && lf_locks == 0;
    pass = pass && ok;
    total_lockfree_acquisitions += lf_locks;
    results[idx][0] = lf_ms;
    results[idx][1] = mx_ms;
    results[idx][2] = speedup;
    std::printf("  %7d   %12.1f   %8.1f   %6.2fx   %15llu%s\n", threads,
                lf_ms, mx_ms, speedup,
                static_cast<unsigned long long>(lf_locks),
                ok ? "" : "  FAIL");
  }

  const bench::Stamp stamp =
      bench::make_stamp(AMOEBA_SOURCE_DIR, AMOEBA_BUILD_TYPE, "none",
                        smoke ? "smoke" : "full", /*seed=*/17);
  if (std::FILE* json = std::fopen("BENCH_validate.json", "a")) {
    std::fprintf(json,
                 "{\"bench\": \"e11\", \"stamp\": %s, \"mode\": \"%s\", "
                 "\"ops_per_thread\": %d, \"lockfree_locks\": %llu, "
                 "\"contrast\": [",
                 bench::to_json(stamp).c_str(), stamp.mode.c_str(), ops,
                 static_cast<unsigned long long>(
                     total_lockfree_acquisitions));
    for (std::size_t idx = 0; idx < 4; ++idx) {
      std::fprintf(json,
                   "%s{\"threads\": %d, \"lockfree_ms\": %.3f, "
                   "\"mutex_ms\": %.3f, \"speedup\": %.3f}",
                   idx == 0 ? "" : ", ", kThreadCounts[idx], results[idx][0],
                   results[idx][1], results[idx][2]);
    }
    std::fprintf(json, "], \"pass\": %s}\n", pass ? "true" : "false");
    std::fclose(json);
  }

  if (!pass) {
    std::fprintf(stderr,
                 "E11 FAIL: lock-free check() regressed against the mutex "
                 "path (or acquired a lock) -- see contrast table above\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    smoke |= std::string_view(argv[i]) == "--smoke";
  }
  amoeba::bench::initialize(argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return report(smoke);
}
