// E7: the modular file stack (§3.2-3.4) under load.
//
// Measured: flat-file read/write throughput as a function of request size
// (each file byte flows through TWO services: file server -> block
// server), and directory path-resolution latency as a function of depth,
// including a cross-server variant.  The modularity cost the paper accepts
// is visible as the block-server RPCs behind every file operation.
#include <benchmark/benchmark.h>

#include "smoke.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/servers/block_server.hpp"
#include "amoeba/servers/common.hpp"
#include "amoeba/servers/directory_server.hpp"
#include "amoeba/servers/flat_file_server.hpp"
#include "amoeba/servers/unixfs.hpp"

namespace {

using namespace amoeba;

struct Rig {
  Rig()
      : storage(net.add_machine("storage")),
        fs_host(net.add_machine("fileserver")),
        names(net.add_machine("naming")),
        names2(net.add_machine("naming-2")),
        client_machine(net.add_machine("client")),
        rng(1),
        scheme(core::make_scheme(core::SchemeKind::one_way_xor, rng)) {
    servers::BlockServer::Geometry geometry;
    geometry.block_count = 8192;
    geometry.block_size = 4096;
    blocks = std::make_unique<servers::BlockServer>(storage, Port(0xB10C),
                                                    scheme, 1, geometry);
    blocks->start();
    files = std::make_unique<servers::FlatFileServer>(
        fs_host, Port(0xF17E), scheme, 2, blocks->put_port());
    files->start();
    dirs = std::make_unique<servers::DirectoryServer>(names, Port(0xD1),
                                                      scheme, 3);
    dirs->start();
    dirs2 = std::make_unique<servers::DirectoryServer>(names2, Port(0xD2),
                                                       scheme, 4);
    dirs2->start();
    transport = std::make_unique<rpc::Transport>(client_machine, 5);
  }

  net::Network net;
  net::Machine& storage;
  net::Machine& fs_host;
  net::Machine& names;
  net::Machine& names2;
  net::Machine& client_machine;
  Rng rng;
  std::shared_ptr<const core::ProtectionScheme> scheme;
  std::unique_ptr<servers::BlockServer> blocks;
  std::unique_ptr<servers::FlatFileServer> files;
  std::unique_ptr<servers::DirectoryServer> dirs;
  std::unique_ptr<servers::DirectoryServer> dirs2;
  std::unique_ptr<rpc::Transport> transport;
};

void BM_FileWrite(benchmark::State& state) {
  Rig rig;
  servers::FlatFileClient client(*rig.transport, rig.files->put_port());
  const auto file = client.create().value();
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  Buffer data(size, 'w');
  // Pre-touch so growth/allocation happens once, then steady-state writes.
  (void)client.write(file, 0, data);
  for (auto _ : state) {
    auto result = client.write(file, 0, data);
    benchmark::DoNotOptimize(result);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_FileWrite)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Arg(65536)->Unit(benchmark::kMicrosecond);

void BM_FileRead(benchmark::State& state) {
  Rig rig;
  servers::FlatFileClient client(*rig.transport, rig.files->put_port());
  const auto file = client.create().value();
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  (void)client.write(file, 0, Buffer(size, 'r'));
  for (auto _ : state) {
    auto data = client.read(file, 0, size);
    benchmark::DoNotOptimize(data);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_FileRead)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Arg(65536)->Unit(benchmark::kMicrosecond);

void BM_PathResolution(benchmark::State& state) {
  // Lookup latency vs path depth, all on one directory server.
  Rig rig;
  servers::DirectoryClient dirs(*rig.transport, rig.dirs->put_port());
  const int depth = static_cast<int>(state.range(0));
  const auto root = dirs.create_dir().value();
  core::Capability current = root;
  std::string path;
  for (int level = 0; level < depth; ++level) {
    const auto child = dirs.create_dir().value();
    const std::string name = std::string("d").append(std::to_string(level));
    (void)dirs.enter(current, name, child);
    path += (level ? "/" : "") + name;
    current = child;
  }
  for (auto _ : state) {
    auto found = servers::resolve_path(*rig.transport, root, path);
    benchmark::DoNotOptimize(found);
  }
  state.SetLabel("depth " + std::to_string(depth));
}
BENCHMARK(BM_PathResolution)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_PathResolutionCrossServer(benchmark::State& state) {
  // Alternating components across two directory servers: transparency has
  // no extra client-side cost beyond addressing the other port.
  Rig rig;
  servers::DirectoryClient d1(*rig.transport, rig.dirs->put_port());
  servers::DirectoryClient d2(*rig.transport, rig.dirs2->put_port());
  const int depth = static_cast<int>(state.range(0));
  const auto root = d1.create_dir().value();
  core::Capability current = root;
  std::string path;
  for (int level = 0; level < depth; ++level) {
    auto& owner = (level % 2 == 0) ? d2 : d1;  // alternate servers
    const auto child = owner.create_dir().value();
    const std::string name = std::string("x").append(std::to_string(level));
    servers::DirectoryClient at(*rig.transport, current.server_port);
    (void)at.enter(current, name, child);
    path += (level ? "/" : "") + name;
    current = child;
  }
  for (auto _ : state) {
    auto found = servers::resolve_path(*rig.transport, root, path);
    benchmark::DoNotOptimize(found);
  }
  state.SetLabel("depth " + std::to_string(depth) + ", 2 servers");
}
BENCHMARK(BM_PathResolutionCrossServer)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

/// Builds a directory of `files` one-block files and returns the mounted
/// fs; the ls(1) shape both readdir+stat variants run against.
servers::UnixFs populate_listing(Rig& rig, int files) {
  auto fs = servers::UnixFs::format(*rig.transport, rig.dirs->put_port(),
                                    rig.files->put_port())
                .value();
  const Buffer payload(64, 'x');
  for (int i = 0; i < files; ++i) {
    const int fd =
        fs.open(std::string("f").append(std::to_string(i)),
                servers::UnixFs::kWrite | servers::UnixFs::kCreate)
            .value();
    (void)fs.write(fd, payload);
    (void)fs.close(fd);
  }
  return fs;
}

/// The ls -l storm, naive: readdir then one stat() per entry, each stat
/// re-resolving its path and asking for the size -- 1 + 2N round trips.
void BM_ReaddirStatLoop(benchmark::State& state) {
  Rig rig;
  auto fs = populate_listing(rig, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto entries = fs.readdir("").value();
    for (const auto& entry : entries) {
      auto st = fs.stat(entry.name);
      benchmark::DoNotOptimize(st);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReaddirStatLoop)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// The same storm on readdir_stat(): one LIST plus one typed batch frame
/// per server, every frame in flight at once.
void BM_ReaddirStatBatched(benchmark::State& state) {
  Rig rig;
  auto fs = populate_listing(rig, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto entries = fs.readdir_stat("");
    benchmark::DoNotOptimize(entries);
    if (!entries.ok() ||
        entries.value().size() != static_cast<std::size_t>(state.range(0))) {
      state.SkipWithError("readdir_stat failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReaddirStatBatched)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// Prints the round-trip arithmetic the batched listing saves.
void readdir_stat_report() {
  constexpr int kFiles = 256;
  Rig rig;
  auto fs = populate_listing(rig, kFiles);
  const auto before_loop = rig.transport->stats().transactions;
  const double loop_ms = bench::timed_ms([&] {
    const auto entries = fs.readdir("").value();
    for (const auto& entry : entries) {
      (void)fs.stat(entry.name);
    }
  });
  const auto loop_rts = rig.transport->stats().transactions - before_loop;
  const auto before_batched = rig.transport->stats().transactions;
  const double batched_ms =
      bench::timed_ms([&] { (void)fs.readdir_stat(""); });
  const auto batched_rts =
      rig.transport->stats().transactions - before_batched;
  std::printf("---- ls -l over %d files: stat loop vs readdir_stat ----\n",
              kFiles);
  std::printf("  stat loop:    %8.2f ms, %4llu round trips\n", loop_ms,
              static_cast<unsigned long long>(loop_rts));
  std::printf("  readdir_stat: %8.2f ms, %4llu round trips (%.1fx faster, "
              "%.0fx fewer trips)\n",
              batched_ms, static_cast<unsigned long long>(batched_rts),
              loop_ms / batched_ms,
              static_cast<double>(loop_rts) /
                  static_cast<double>(batched_rts));
  std::printf("--------------------------------------------------------\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("E7: the block/file/directory stack -- every file byte crosses "
              "two services; every path component is one lookup RPC.\n");
  readdir_stat_report();
  amoeba::bench::initialize(argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
