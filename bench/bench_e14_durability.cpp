// E14: durability cost and recovery time of the journaled object store.
//
// The acceptance bar (PR 6): PURE-MUTATE throughput on the durable store
// -- real FileBackend, real fsync -- must stay within 1.5x of the
// in-memory store.  Group commit is what buys this: mutators encode under
// the shard lock, enqueue to the volume's flusher, and pipeline a bounded
// window of commit tickets (release_async + wait_durable) instead of
// paying one fsync per record.  One flusher cycle = one gather write + one
// fsync covering every record that piled up while the previous fsync was
// in flight.
//
// Benchmarked:
//   * open() validation (read path: identical for both stores -- reads
//     never journal),
//   * mutate through the accessor hook, in-memory vs. group commit with a
//     wait after every record vs. a pipelined window, on MemoryBackend and
//     FileBackend,
//   * pair mutation (the bank-transfer shape, one atomic append group),
//   * recovery time vs. journal length (and with compaction folding the
//     log into snapshots -- the log-length knee is the point of E14).
//
// The contrast report at the end prints the durable/in-memory ratios,
// appends one stamped JSON line to BENCH_durability.json (in the working
// directory), and ENFORCES two invariants, exiting nonzero on failure so
// CI's bench-smoke catches a regression: grouped FileBackend must beat
// per-record FileBackend per op, and the grouped mutator thread must
// issue no blocking write or fsync of its own (the flusher writes the
// journal and installs every compaction snapshot).
//
// Knobs:
//   --smoke               token repetitions + reduced contrast ops (CI)
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string_view>
#include <vector>

#include "e2e/stamp.hpp"
#include "smoke.hpp"

#include "amoeba/common/rng.hpp"
#include "amoeba/core/object_store.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"

namespace {

using namespace amoeba;

constexpr Port kPort{0xD07A51E5EEDULL};
constexpr int kObjects = 4096;
/// Pipelined durability window: outstanding release_async tickets before
/// the mutator blocks on the newest one (tickets are monotone, so one
/// wait covers the whole window).
constexpr int kWindow = 4096;

[[nodiscard]] std::shared_ptr<const core::ProtectionScheme> scheme() {
  static const std::shared_ptr<const core::ProtectionScheme> shared = [] {
    Rng rng(17);
    return std::shared_ptr<const core::ProtectionScheme>(
        core::make_scheme(core::SchemeKind::encrypted, rng));
  }();
  return shared;
}

/// Payload: a small fixed struct, the typical object-table entry shape.
struct Payload {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// A group-committed store on `backend`; in-memory when it is null.
[[nodiscard]] core::Durability<Payload> codec(
    const std::shared_ptr<storage::Backend>& backend,
    std::size_t compact_after = 16384) {
  if (backend == nullptr) {
    return {};
  }
  core::Durability<Payload> d;
  d.committer = storage::GroupCommitter::create(backend);
  d.encode = [](Writer& w, const Payload& p) {
    w.u64(p.a);
    w.u64(p.b);
  };
  d.decode = [](Reader& r, Payload& p) {
    p.a = r.u64();
    p.b = r.u64();
    return r.ok();
  };
  d.compact_after = compact_after;
  return d;
}

struct Rig {
  explicit Rig(const std::shared_ptr<storage::Backend>& backend,
               std::size_t compact_after = 16384) {
    store = std::make_unique<core::ObjectStore<Payload>>(
        scheme(), kPort, 17, core::ObjectStore<Payload>::kDefaultShards,
        codec(backend, compact_after));
    caps.reserve(kObjects);
    for (int i = 0; i < kObjects; ++i) {
      caps.push_back(store->create({static_cast<std::uint64_t>(i), 0}));
    }
  }
  std::unique_ptr<core::ObjectStore<Payload>> store;
  std::vector<core::Capability> caps;
};

/// Per-record mutate: every release blocks until its record is durable
/// (an in-memory store returns from release immediately; a durable store
/// pays a whole flush cycle per record -- the anti-pattern the pipelined
/// loop below exists to avoid).
void mutate_loop(benchmark::State& state, Rig& rig) {
  Rng rng(99);
  for (auto _ : state) {
    const auto& cap = rig.caps[rng.below(kObjects)];
    auto opened = rig.store->open(cap, core::rights::kWrite);
    if (!opened.ok()) {
      state.SkipWithError("open failed");
      break;
    }
    ++opened.value().value->b;
    opened.value().mark_dirty();
  }
  state.SetItemsProcessed(state.iterations());
}

/// Pipelined mutate: release_async carries the commit ticket; the loop
/// blocks once per kWindow releases and once at the end, so up to kWindow
/// records overlap each flusher fsync.
void mutate_loop_pipelined(benchmark::State& state, Rig& rig) {
  Rng rng(99);
  std::uint64_t ticket = 0;
  int outstanding = 0;
  for (auto _ : state) {
    const auto& cap = rig.caps[rng.below(kObjects)];
    auto opened = rig.store->open(cap, core::rights::kWrite);
    if (!opened.ok()) {
      state.SkipWithError("open failed");
      break;
    }
    ++opened.value().value->b;
    opened.value().mark_dirty();
    ticket = opened.value().release_async();
    if (++outstanding >= kWindow) {
      rig.store->wait_durable(ticket);
      outstanding = 0;
    }
  }
  rig.store->wait_durable(ticket);
  state.SetItemsProcessed(state.iterations());
}

void BM_OpenInMemory(benchmark::State& state) {
  Rig rig(nullptr);
  Rng rng(7);
  for (auto _ : state) {
    auto opened =
        rig.store->open(rig.caps[rng.below(kObjects)], core::rights::kRead);
    benchmark::DoNotOptimize(opened);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpenInMemory);

void BM_OpenJournaled(benchmark::State& state) {
  // Reads never journal: this must match BM_OpenInMemory.
  Rig rig(std::make_shared<storage::MemoryBackend>(16));
  Rng rng(7);
  for (auto _ : state) {
    auto opened =
        rig.store->open(rig.caps[rng.below(kObjects)], core::rights::kRead);
    benchmark::DoNotOptimize(opened);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpenJournaled);

void BM_MutateInMemory(benchmark::State& state) {
  Rig rig(nullptr);
  mutate_loop(state, rig);
}
BENCHMARK(BM_MutateInMemory);

void BM_MutatePerRecordMemoryBackend(benchmark::State& state) {
  Rig rig(std::make_shared<storage::MemoryBackend>(16));
  mutate_loop(state, rig);
}
BENCHMARK(BM_MutatePerRecordMemoryBackend);

void BM_MutateGroupedMemoryBackend(benchmark::State& state) {
  Rig rig(std::make_shared<storage::MemoryBackend>(16));
  mutate_loop_pipelined(state, rig);
}
BENCHMARK(BM_MutateGroupedMemoryBackend);

void BM_MutatePerRecordFileBackend(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() / "amoeba-e14-bm";
  std::filesystem::remove_all(dir);
  {
    Rig rig(std::make_shared<storage::FileBackend>(dir, 16));
    mutate_loop(state, rig);
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_MutatePerRecordFileBackend);

void BM_MutateGroupedFileBackend(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() / "amoeba-e14-bmg";
  std::filesystem::remove_all(dir);
  {
    Rig rig(std::make_shared<storage::FileBackend>(dir, 16));
    mutate_loop_pipelined(state, rig);
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_MutateGroupedFileBackend);

void BM_PairMutateJournaled(benchmark::State& state) {
  // The transfer shape: two objects, one atomic journal append group.
  Rig rig(std::make_shared<storage::MemoryBackend>(16));
  Rng rng(5);
  for (auto _ : state) {
    const auto& a = rig.caps[rng.below(kObjects)];
    const auto& b = rig.caps[rng.below(kObjects)];
    auto pair = rig.store->open2(a, core::rights::kWrite, b,
                                 core::rights::kWrite);
    if (!pair.ok()) {
      state.SkipWithError("open2 failed");
      break;
    }
    ++pair.value().a.value->b;
    --pair.value().b.value->b;
    pair.value().a.mark_dirty();
    pair.value().b.mark_dirty();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PairMutateJournaled);

/// Recovery time as a function of journal length: Arg = mutations
/// journaled before the "crash".  The paired /Compacted variant folds the
/// log every 512 records, so recovery replays snapshots + a short tail.
void recovery_bench(benchmark::State& state, std::size_t compact_after) {
  const int mutations = static_cast<int>(state.range(0));
  const std::shared_ptr<storage::Backend> backend =
      std::make_shared<storage::MemoryBackend>(16);
  {
    core::ObjectStore<Payload> store(scheme(), kPort, 17, 16,
                                     codec(backend, compact_after));
    std::vector<core::Capability> caps;
    for (int i = 0; i < 256; ++i) {
      caps.push_back(store.create({static_cast<std::uint64_t>(i), 0}));
    }
    Rng rng(3);
    std::uint64_t ticket = 0;
    for (int i = 0; i < mutations; ++i) {
      auto opened = store.open(caps[rng.below(256)], core::rights::kWrite);
      ++opened.value().value->b;
      opened.value().mark_dirty();
      ticket = opened.value().release_async();
    }
    store.wait_durable(ticket);
  }
  std::uint64_t recovered = 0;
  for (auto _ : state) {
    core::ObjectStore<Payload> store(scheme(), kPort, 18, 16,
                                     codec(backend, compact_after));
    recovered = store.live_count();
    benchmark::DoNotOptimize(recovered);
  }
  state.counters["objects"] = static_cast<double>(recovered);
  state.SetItemsProcessed(state.iterations() * mutations);
}

void BM_RecoveryVsLogLength(benchmark::State& state) {
  recovery_bench(state, /*compact_after=*/1 << 30);  // never auto-compact
}
BENCHMARK(BM_RecoveryVsLogLength)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_RecoveryVsLogLengthCompacted(benchmark::State& state) {
  recovery_bench(state, /*compact_after=*/512);
}
BENCHMARK(BM_RecoveryVsLogLengthCompacted)->Arg(1024)->Arg(8192)->Arg(65536);

/// One pure-mutate timing: `ops` mutations through the pipelined release
/// path, waiting once per `window` releases (an in-memory store returns
/// ticket 0, so the same loop shape serves every mode -- the comparison
/// stays apples-to-apples).  A window of 1 is the per-record shape.
[[nodiscard]] double timed_mutates(Rig& rig, int ops, int window = kWindow) {
  Rng rng(1);
  return amoeba::bench::timed_ms([&] {
    std::uint64_t ticket = 0;
    int outstanding = 0;
    for (int i = 0; i < ops; ++i) {
      auto opened = rig.store->open(rig.caps[rng.below(kObjects)],
                                    core::rights::kWrite);
      ++opened.value().value->b;
      opened.value().mark_dirty();
      ticket = opened.value().release_async();
      if (++outstanding >= window) {
        rig.store->wait_durable(ticket);
        outstanding = 0;
      }
    }
    rig.store->wait_durable(ticket);
  });
}

/// Contrast report: the PR-6 acceptance numbers, printed for humans,
/// appended as one stamped JSON line to BENCH_durability.json, and (the
/// ordering and zero-mutator-syscall invariants only) enforced.  Returns
/// the process exit code.
///
/// The headline is PURE MUTATE -- every op journals, the worst case for
/// durability -- on the real FileBackend with real fsyncs.  Group commit
/// pays ~one fsync per flush cycle instead of one per record; the
/// pipelined window keeps kWindow records in flight against it.
[[nodiscard]] int report(bool smoke) {
  const int ops = smoke ? 40'000 : 400'000;
  // A flush cycle per record is ~100 us/op: cap its op count and compare
  // per-op.
  const int per_record_file_ops = smoke ? 500 : 4'000;
  const auto tmp = std::filesystem::temp_directory_path();

  const double memory_ms = [&] {
    Rig rig(nullptr);
    return timed_mutates(rig, ops);
  }();
  const double grouped_mem_ms = [&] {
    Rig rig(std::make_shared<storage::MemoryBackend>(16));
    return timed_mutates(rig, ops);
  }();
  const double per_record_file_ms = [&] {
    const auto dir = tmp / "amoeba-e14-per-record";
    std::filesystem::remove_all(dir);
    double ms = 0;
    {
      Rig rig(std::make_shared<storage::FileBackend>(dir, 16));
      ms = timed_mutates(rig, per_record_file_ops, /*window=*/1);
    }
    std::filesystem::remove_all(dir);
    return ms;
  }();
  // The grouped leg also counts the mutator thread's own blocking
  // write/fsync calls: the flusher writes the commit log and installs the
  // compaction snapshots, so there must be none.  Smoke's shorter run
  // compacts sooner, so that it too installs snapshots.
  double grouped_file_ms = 0;
  storage::GroupCommitter::Stats flusher_stats;
  std::uint64_t mutator_blocked_syscalls = 0;
  {
    const auto dir = tmp / "amoeba-e14-grouped";
    std::filesystem::remove_all(dir);
    {
      Rig rig(std::make_shared<storage::FileBackend>(dir, 16),
              smoke ? 2048 : 16384);
      const storage::IoCounters before = storage::this_thread_io_counters();
      grouped_file_ms = timed_mutates(rig, ops);
      const storage::IoCounters after = storage::this_thread_io_counters();
      mutator_blocked_syscalls = (after.writes - before.writes) +
                                 (after.fsyncs - before.fsyncs);
      flusher_stats = rig.store->committer()->stats();
    }
    std::filesystem::remove_all(dir);
  }

  const double per_op_per_record_file_us =
      per_record_file_ms * 1e3 / per_record_file_ops;
  const double per_op_grouped_file_us = grouped_file_ms * 1e3 / ops;
  const double headline = grouped_file_ms / memory_ms;
  std::printf(
      "\nE14 durability contrast (pure mutate: every op journals)\n"
      "  in-memory store               : %9.1f ms  (%6.2f us/op)\n"
      "  grouped,      MemoryBackend   : %9.1f ms  (%6.2f us/op)\n"
      "  per-record,   FileBackend     : %9.1f ms  (%6.2f us/op, a flush "
      "cycle per record, %d ops)\n"
      "  grouped,      FileBackend     : %9.1f ms  (%6.2f us/op, window "
      "%d)\n"
      "  flusher: %llu groups, %llu records, %llu installs, max group "
      "%llu; %llu blocking mutator syscalls (must be 0)\n"
      "  grouped-file / in-memory      : %9.2fx  (acceptance bar: <= "
      "1.5x)%s\n"
      "  grouped-file / per-record-file: %9.3fx per op (must be < 1)\n",
      memory_ms, memory_ms * 1e3 / ops, grouped_mem_ms,
      grouped_mem_ms * 1e3 / ops, per_record_file_ms,
      per_op_per_record_file_us, per_record_file_ops, grouped_file_ms,
      per_op_grouped_file_us, kWindow,
      static_cast<unsigned long long>(flusher_stats.groups),
      static_cast<unsigned long long>(flusher_stats.records),
      static_cast<unsigned long long>(flusher_stats.installs),
      static_cast<unsigned long long>(flusher_stats.max_group),
      static_cast<unsigned long long>(mutator_blocked_syscalls),
      headline, headline <= 1.5 ? "  PASS" : "  FAIL",
      per_op_grouped_file_us / per_op_per_record_file_us);

  const bench::Stamp stamp =
      bench::make_stamp(AMOEBA_SOURCE_DIR, AMOEBA_BUILD_TYPE, "file",
                        smoke ? "smoke" : "full", /*seed=*/0);
  if (std::FILE* json = std::fopen("BENCH_durability.json", "a")) {
    std::fprintf(
        json,
        "{\"bench\": \"e14\", \"stamp\": %s, \"ops\": %d, \"window\": %d, "
        "\"in_memory_ms\": %.3f, \"grouped_memory_ms\": %.3f, "
        "\"per_record_file_us_per_op\": %.3f, \"grouped_file_ms\": %.3f, "
        "\"grouped_file_us_per_op\": %.3f, "
        "\"grouped_file_vs_in_memory\": %.3f, \"flush_groups\": %llu, "
        "\"flush_installs\": %llu, \"max_group\": %llu, "
        "\"mutator_blocked_syscalls\": %llu}\n",
        bench::to_json(stamp).c_str(), ops, kWindow, memory_ms,
        grouped_mem_ms, per_op_per_record_file_us, grouped_file_ms,
        per_op_grouped_file_us, headline,
        static_cast<unsigned long long>(flusher_stats.groups),
        static_cast<unsigned long long>(flusher_stats.installs),
        static_cast<unsigned long long>(flusher_stats.max_group),
        static_cast<unsigned long long>(mutator_blocked_syscalls));
    std::fclose(json);
  }

  // The enforced invariants.  Group commit must beat a flush cycle per
  // record per op (the 1.5x headline is reported above; it is load- and
  // disk-dependent, so only the ordering is enforced, which a broken
  // flusher cannot fake), and no compaction may write from the mutator.
  int status = 0;
  if (per_op_grouped_file_us >= per_op_per_record_file_us) {
    std::fprintf(stderr,
                 "E14 FAIL: grouped FileBackend (%.2f us/op) did not beat "
                 "per-record flushes (%.2f us/op)\n",
                 per_op_grouped_file_us, per_op_per_record_file_us);
    status = 1;
  }
  if (mutator_blocked_syscalls != 0 || flusher_stats.installs == 0) {
    std::fprintf(stderr,
                 "E14 FAIL: the grouped mutator thread issued %llu blocking "
                 "write/fsync calls across %llu snapshot installs (must be "
                 "0 across at least one)\n",
                 static_cast<unsigned long long>(mutator_blocked_syscalls),
                 static_cast<unsigned long long>(flusher_stats.installs));
    status = 1;
  }
  return status;
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
