// Tests for the directory server (§3.4), including the transparent
// cross-server path walk the paper highlights.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/servers/common.hpp"
#include "amoeba/servers/directory_server.hpp"
#include "amoeba/servers/flat_file_server.hpp"
#include "amoeba/servers/block_server.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/record.hpp"
#include "test_seed.hpp"
#include "volumes.hpp"

namespace amoeba::servers {
namespace {

class DirectorySuite : public ::testing::Test {
 protected:
  DirectorySuite()
      : machine_(net_.add_machine("dirserver")),
        client_machine_(net_.add_machine("client")),
        rng_(5) {
    const auto scheme = core::make_scheme(core::SchemeKind::commutative, rng_);
    server_ = std::make_unique<DirectoryServer>(machine_, Port(0xD1D1),
                                                scheme, 1);
    server_->start();
    transport_ = std::make_unique<rpc::Transport>(client_machine_, 2);
    client_ = std::make_unique<DirectoryClient>(*transport_,
                                                server_->put_port());
  }

  core::Capability dummy_cap(std::uint32_t tag) const {
    return core::Capability{Port(0xFA15E0000000ULL + tag), ObjectNumber(tag),
                            Rights::all(), CheckField(tag * 7919)};
  }

  net::Network net_;
  net::Machine& machine_;
  net::Machine& client_machine_;
  Rng rng_;
  std::unique_ptr<DirectoryServer> server_;
  std::unique_ptr<rpc::Transport> transport_;
  std::unique_ptr<DirectoryClient> client_;
};

TEST_F(DirectorySuite, EnterLookupRemove) {
  const auto dir = client_->create_dir();
  ASSERT_TRUE(dir.ok());
  const core::Capability target = dummy_cap(1);
  ASSERT_TRUE(client_->enter(dir.value(), "readme", target).ok());
  const auto found = client_->lookup(dir.value(), "readme");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), target);
  ASSERT_TRUE(client_->remove(dir.value(), "readme").ok());
  EXPECT_EQ(client_->lookup(dir.value(), "readme").error(),
            ErrorCode::not_found);
}

TEST_F(DirectorySuite, DuplicateNameRejected) {
  const auto dir = client_->create_dir();
  ASSERT_TRUE(client_->enter(dir.value(), "x", dummy_cap(1)).ok());
  EXPECT_EQ(client_->enter(dir.value(), "x", dummy_cap(2)).error(),
            ErrorCode::exists);
}

TEST_F(DirectorySuite, EmptyNameRejected) {
  const auto dir = client_->create_dir();
  EXPECT_EQ(client_->enter(dir.value(), "", dummy_cap(1)).error(),
            ErrorCode::invalid_argument);
}

TEST_F(DirectorySuite, RemoveAbsentNameFails) {
  const auto dir = client_->create_dir();
  EXPECT_EQ(client_->remove(dir.value(), "ghost").error(),
            ErrorCode::not_found);
}

TEST_F(DirectorySuite, ListReturnsSortedEntries) {
  const auto dir = client_->create_dir();
  ASSERT_TRUE(client_->enter(dir.value(), "bravo", dummy_cap(2)).ok());
  ASSERT_TRUE(client_->enter(dir.value(), "alpha", dummy_cap(1)).ok());
  const auto entries = client_->list(dir.value());
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 2u);
  EXPECT_EQ(entries.value()[0].name, "alpha");
  EXPECT_EQ(entries.value()[0].capability, dummy_cap(1));
  EXPECT_EQ(entries.value()[1].name, "bravo");
}

TEST_F(DirectorySuite, DeleteOnlyWhenEmpty) {
  const auto dir = client_->create_dir();
  ASSERT_TRUE(client_->enter(dir.value(), "x", dummy_cap(1)).ok());
  EXPECT_EQ(client_->delete_dir(dir.value()).error(), ErrorCode::not_empty);
  ASSERT_TRUE(client_->remove(dir.value(), "x").ok());
  EXPECT_TRUE(client_->delete_dir(dir.value()).ok());
  EXPECT_EQ(client_->list(dir.value()).error(), ErrorCode::no_such_object);
}

TEST_F(DirectorySuite, ReadOnlyDirectoryCapability) {
  const auto dir = client_->create_dir();
  const auto read_only =
      restrict_capability(*transport_, dir.value(), core::rights::kRead);
  ASSERT_TRUE(read_only.ok());
  ASSERT_TRUE(client_->enter(dir.value(), "x", dummy_cap(1)).ok());
  EXPECT_TRUE(client_->lookup(read_only.value(), "x").ok());
  EXPECT_TRUE(client_->list(read_only.value()).ok());
  EXPECT_EQ(client_->enter(read_only.value(), "y", dummy_cap(2)).error(),
            ErrorCode::permission_denied);
  EXPECT_EQ(client_->remove(read_only.value(), "x").error(),
            ErrorCode::permission_denied);
}

TEST_F(DirectorySuite, NestedDirectoriesSameServer) {
  const auto root = client_->create_dir();
  const auto sub = client_->create_dir();
  ASSERT_TRUE(client_->enter(root.value(), "sub", sub.value()).ok());
  ASSERT_TRUE(client_->enter(sub.value(), "leaf", dummy_cap(3)).ok());
  const auto resolved = resolve_path(*transport_, root.value(), "sub/leaf");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value(), dummy_cap(3));
}

TEST_F(DirectorySuite, ResolveEdgeCases) {
  const auto root = client_->create_dir();
  // Empty path resolves to the root itself.
  EXPECT_EQ(resolve_path(*transport_, root.value(), "").value(), root.value());
  // Empty components are malformed.
  EXPECT_EQ(resolve_path(*transport_, root.value(), "a//b").error(),
            ErrorCode::invalid_argument);
  // Missing component.
  EXPECT_EQ(resolve_path(*transport_, root.value(), "missing").error(),
            ErrorCode::not_found);
}

TEST(CrossServerTraversal, PathWalkHopsBetweenDirectoryServers) {
  // "If the capability returned happens to be for a directory managed by a
  // different directory server, then the ensuing request to look up 'b'
  // just goes to the new server. ... The distribution is completely
  // transparent."
  net::Network net;
  net::Machine& m1 = net.add_machine("dirserver1");
  net::Machine& m2 = net.add_machine("dirserver2");
  net::Machine& cm = net.add_machine("client");
  Rng rng(11);
  const auto scheme1 = core::make_scheme(core::SchemeKind::one_way_xor, rng);
  const auto scheme2 = core::make_scheme(core::SchemeKind::commutative, rng);
  DirectoryServer server1(m1, Port(0xD1), scheme1, 1);
  DirectoryServer server2(m2, Port(0xD2), scheme2, 2);
  server1.start();
  server2.start();
  ASSERT_NE(server1.put_port(), server2.put_port());

  rpc::Transport transport(cm, 3);
  DirectoryClient dir1(transport, server1.put_port());
  DirectoryClient dir2(transport, server2.put_port());

  // Root "a" on server 1; "a/b" is a directory on server 2; "a/b/c" is a
  // file capability entered there.
  const auto a = dir1.create_dir().value();
  const auto b = dir2.create_dir().value();
  const core::Capability c{Port(0xF00D), ObjectNumber(9), Rights::all(),
                           CheckField(0x1234)};
  ASSERT_TRUE(dir1.enter(a, "b", b).ok());
  ASSERT_TRUE(dir2.enter(b, "c", c).ok());

  const auto resolved = resolve_path(transport, a, "b/c");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value(), c);
  // Both servers actually served a lookup.
  EXPECT_GE(server1.requests_served(), 1u);
  EXPECT_GE(server2.requests_served(), 1u);
}

TEST(DirectoryHeterogeneous, DirectoryHoldsFileAndDirectoryCapabilities) {
  // "The capabilities within a directory need not all be file capabilities
  // and certainly need not all be ... managed by the same server."
  net::Network net;
  net::Machine& m = net.add_machine("servers");
  net::Machine& cm = net.add_machine("client");
  Rng rng(13);
  const auto scheme = core::make_scheme(core::SchemeKind::one_way_xor, rng);

  BlockServer::Geometry geometry;
  geometry.block_count = 16;
  geometry.block_size = 64;
  BlockServer blocks(m, Port(0xB1), scheme, 1, geometry);
  blocks.start();
  FlatFileServer files(m, Port(0xF1), scheme, 2, blocks.put_port());
  files.start();
  DirectoryServer dirs(m, Port(0xD1), scheme, 3);
  dirs.start();

  rpc::Transport transport(cm, 4);
  DirectoryClient dir_client(transport, dirs.put_port());
  FlatFileClient file_client(transport, files.put_port());

  const auto root = dir_client.create_dir().value();
  const auto file = file_client.create().value();
  ASSERT_TRUE(file_client.write(file, 0, Buffer{'h', 'i'}).ok());
  ASSERT_TRUE(dir_client.enter(root, "notes.txt", file).ok());

  // Another client resolves the name and reads the file through whatever
  // server the capability points at.
  const auto found = resolve_path(transport, root, "notes.txt");
  ASSERT_TRUE(found.ok());
  FlatFileClient reader(transport, found.value().server_port);
  EXPECT_EQ(reader.read(found.value(), 0, 2).value(), (Buffer{'h', 'i'}));
}

TEST(BatchedPathWalk, ResolvePathsSharesFramesAcrossWalks) {
  // Two directory servers; a tree spanning both; many paths resolved at
  // once.  Walks standing at the same server in the same round must share
  // one batch frame, and every outcome must match its one-at-a-time
  // resolve_path counterpart.
  net::Network net;
  net::Machine& m1 = net.add_machine("dirserver1");
  net::Machine& m2 = net.add_machine("dirserver2");
  net::Machine& cm = net.add_machine("client");
  Rng rng(17);
  const auto scheme1 = core::make_scheme(core::SchemeKind::one_way_xor, rng);
  const auto scheme2 = core::make_scheme(core::SchemeKind::commutative, rng);
  DirectoryServer server1(m1, Port(0xDA), scheme1, 1);
  DirectoryServer server2(m2, Port(0xDB), scheme2, 2);
  server1.start();
  server2.start();

  rpc::Transport transport(cm, 3);
  DirectoryClient dir1(transport, server1.put_port());
  DirectoryClient dir2(transport, server2.put_port());

  // root(a, server1) -> {sub1 on server1, sub2 on server2}; leaves on each.
  const auto root = dir1.create_dir().value();
  const auto sub1 = dir1.create_dir().value();
  const auto sub2 = dir2.create_dir().value();
  const core::Capability leaf1{Port(0x111), ObjectNumber(1), Rights::all(),
                               CheckField(0xAAA)};
  const core::Capability leaf2{Port(0x222), ObjectNumber(2), Rights::all(),
                               CheckField(0xBBB)};
  ASSERT_TRUE(dir1.enter(root, "sub1", sub1).ok());
  ASSERT_TRUE(dir1.enter(root, "sub2", sub2).ok());
  ASSERT_TRUE(dir1.enter(sub1, "leaf", leaf1).ok());
  ASSERT_TRUE(dir2.enter(sub2, "leaf", leaf2).ok());

  const std::vector<std::string> paths = {
      "sub1/leaf", "sub2/leaf", "sub1", "missing/x", "sub1//bad", "",
  };
  const auto before_frames = net.stats().batch_frames.load();
  const auto results = resolve_paths(transport, root, paths);
  ASSERT_EQ(results.size(), paths.size());
  EXPECT_EQ(results[0].value(), leaf1);
  EXPECT_EQ(results[1].value(), leaf2);
  EXPECT_EQ(results[2].value(), sub1);
  EXPECT_EQ(results[3].error(), ErrorCode::not_found);
  EXPECT_EQ(results[4].error(), ErrorCode::invalid_argument);
  EXPECT_EQ(results[5].value(), root);  // empty path is the root itself

  // Round 1: all four live walks stand at server1 -> one frame.  Round 2:
  // one walk each at server1 and server2 -> two frames.  Six frames total
  // counting the three batched replies.
  EXPECT_EQ(net.stats().batch_frames.load() - before_frames, 6u);

  // The batched walk agrees with the sequential one on every path.
  for (const auto& path : paths) {
    const auto sequential = resolve_path(transport, root, path);
    const auto batched = resolve_paths(transport, root, {&path, 1});
    ASSERT_EQ(batched.size(), 1u);
    EXPECT_EQ(batched[0].ok(), sequential.ok());
    EXPECT_EQ(batched[0].error(), sequential.error());
    if (sequential.ok()) {
      EXPECT_EQ(batched[0].value(), sequential.value());
    }
  }
}

TEST(BatchedPathWalk, FileInTheMiddleOfAPathIsInvalidArgument) {
  // A sub-request LOOKUP answered with no_such_operation (a file server's
  // opcode space) must map to invalid_argument exactly like resolve_path.
  net::Network net;
  net::Machine& m = net.add_machine("servers");
  net::Machine& cm = net.add_machine("client");
  Rng rng(19);
  const auto scheme = core::make_scheme(core::SchemeKind::one_way_xor, rng);
  BlockServer::Geometry geometry;
  geometry.block_count = 16;
  geometry.block_size = 64;
  BlockServer blocks(m, Port(0xB2), scheme, 1, geometry);
  blocks.start();
  FlatFileServer files(m, Port(0xF2), scheme, 2, blocks.put_port());
  files.start();
  DirectoryServer dirs(m, Port(0xD3), scheme, 3);
  dirs.start();

  rpc::Transport transport(cm, 4);
  DirectoryClient dir_client(transport, dirs.put_port());
  FlatFileClient file_client(transport, files.put_port());
  const auto root = dir_client.create_dir().value();
  const auto file = file_client.create().value();
  ASSERT_TRUE(dir_client.enter(root, "notes", file).ok());

  const std::vector<std::string> paths = {"notes/deeper", "notes"};
  const auto results = resolve_paths(transport, root, paths);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].error(), ErrorCode::invalid_argument);  // ENOTDIR
  EXPECT_EQ(results[1].value(), file);
}

// ---------------------------------------------------------------------
// Durable directories.  dir.enter and dir.remove journal one-entry delta
// patches (docs/PROTOCOL.md §8.2) instead of re-encoding the whole map,
// so the bytes an enter writes do not grow with the directory.

/// A directory's contents as list() reports them.
using Listing = std::map<std::string, core::Capability>;

[[nodiscard]] std::shared_ptr<const core::ProtectionScheme> durable_scheme() {
  static const std::shared_ptr<const core::ProtectionScheme> shared = [] {
    Rng rng(37);
    return std::shared_ptr<const core::ProtectionScheme>(
        core::make_scheme(core::SchemeKind::commutative, rng));
  }();
  return shared;
}

[[nodiscard]] core::Capability entry_cap(std::uint32_t tag) {
  return core::Capability{Port(0xC0DE00000000ULL + tag), ObjectNumber(tag),
                          Rights::all(), CheckField(tag * 104729ULL + 1)};
}

/// Patches built from the format in docs/PROTOCOL.md §8.2, independently
/// of the server's own encoder: kind u8 (1 enter, 2 remove), name str,
/// and for an enter the 16-byte capability.
[[nodiscard]] Buffer enter_patch(const std::string& name,
                                 const core::Capability& target) {
  Writer w;
  w.u8(1);
  w.str(name);
  w.raw(core::pack(target));
  return w.take();
}

[[nodiscard]] Buffer remove_patch(const std::string& name) {
  Writer w;
  w.u8(2);
  w.str(name);
  return w.take();
}

/// Journal bytes in the object shards (the reply stream excluded).
[[nodiscard]] std::uint64_t object_journal_bytes(
    const storage::Backend& volume) {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < volume.shard_count(); ++s) {
    total += volume.read_journal(s).size();
  }
  return total;
}

/// One step of a directory workload: an enter when `target` is set, a
/// remove otherwise.
struct DirStep {
  std::size_t dir = 0;
  std::string name;
  std::optional<core::Capability> target;
};

/// Enters, removes, then re-enters under new capabilities, interleaved
/// across two directories.
[[nodiscard]] std::vector<DirStep> two_directory_workload() {
  std::vector<DirStep> steps;
  std::uint32_t tag = 1;
  for (int round = 0; round < 3; ++round) {
    for (const char* name : {"bin", "etc", "usr"}) {
      for (std::size_t dir = 0; dir < 2; ++dir) {
        std::optional<core::Capability> target;
        if (round != 1) {
          target = entry_cap(tag++);
        }
        steps.push_back({dir, name, target});
      }
    }
  }
  return steps;
}

/// states[i] is the contents of every directory after the first i steps.
template <std::size_t N>
[[nodiscard]] std::vector<std::array<Listing, N>> acknowledged_states(
    const std::vector<DirStep>& steps) {
  std::vector<std::array<Listing, N>> states(1);
  for (const DirStep& step : steps) {
    std::array<Listing, N> next = states.back();
    if (step.target.has_value()) {
      next[step.dir][step.name] = *step.target;
    } else {
      next[step.dir].erase(step.name);
    }
    states.push_back(std::move(next));
  }
  return states;
}

class DurableDirectorySuite : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kGetPort = 0xD1D2;

  DurableDirectorySuite()
      : server_machine_(net_.add_machine("dirserver")),
        client_machine_(net_.add_machine("client")),
        transport_(client_machine_, 9) {}

  /// Boots a directory server on `volume` (recovering whatever it holds).
  [[nodiscard]] std::unique_ptr<DirectoryServer> boot(
      std::shared_ptr<storage::Backend> volume) {
    auto server = std::make_unique<DirectoryServer>(
        server_machine_, Port(kGetPort), durable_scheme(), seed_++,
        std::move(volume));
    server->start(1);
    transport_.flush_cache();
    return server;
  }

  [[nodiscard]] std::optional<Listing> listing(const core::Capability& dir) {
    DirectoryClient client(transport_, dir.server_port);
    const auto entries = client.list(dir);
    if (!entries.ok()) {
      return std::nullopt;
    }
    Listing out;
    for (const DirEntry& entry : entries.value()) {
      out.emplace(entry.name, entry.capability);
    }
    return out;
  }

  /// Runs `steps` through `apply` while capturing the volume at every
  /// journal append, then recovers a directory server from each image:
  /// its two directories must equal the state after the steps that were
  /// acknowledged when the image was taken, or after one more (the step
  /// in flight).
  template <typename Apply>
  void sweep_every_barrier(
      const std::shared_ptr<storage::MemoryBackend>& volume,
      const std::array<core::Capability, 2>& dirs,
      const std::vector<DirStep>& steps, Apply apply,
      const std::function<void()>& before_recovery) {
    struct Image {
      std::shared_ptr<storage::MemoryBackend> volume;
      std::size_t acked;
    };
    std::mutex images_mutex;
    std::vector<Image> images;
    std::atomic<std::size_t> acked{0};
    volume->set_append_hook([&](std::uint64_t) {
      const std::lock_guard lock(images_mutex);
      images.push_back({volume->capture(), acked.load()});
    });
    for (const DirStep& step : steps) {
      ASSERT_TRUE(apply(step)) << "step " << acked.load();
      acked.fetch_add(1);
    }
    volume->set_append_hook(nullptr);
    before_recovery();
    ASSERT_GE(images.size(), steps.size());

    std::printf("%zu steps, %zu crash images\n", steps.size(), images.size());
    const auto states = acknowledged_states<2>(steps);
    for (std::size_t img = 0; img < images.size(); ++img) {
      SCOPED_TRACE("crash image " + std::to_string(img) + ", " +
                   std::to_string(images[img].acked) + " steps acknowledged");
      auto server = boot(images[img].volume);
      const auto first = listing(dirs[0]);
      const auto second = listing(dirs[1]);
      ASSERT_TRUE(first.has_value() && second.has_value())
          << "a directory capability stopped validating";
      const std::array<Listing, 2> recovered = {*first, *second};
      bool prefix = false;
      for (std::size_t i = images[img].acked;
           i < states.size() && i <= images[img].acked + 1; ++i) {
        prefix = prefix || states[i] == recovered;
      }
      EXPECT_TRUE(prefix) << "recovered state is no acknowledged prefix";
      server->stop();
    }
  }

  net::Network net_;
  net::Machine& server_machine_;
  net::Machine& client_machine_;
  rpc::Transport transport_;
  std::uint64_t seed_ = 1;
};

TEST_F(DurableDirectorySuite, JournalBytesPerEnterStayFlatAsTheDirectoryGrows) {
  auto volume = std::make_shared<storage::MemoryBackend>(16);
  auto server = boot(volume);
  DirectoryClient client(transport_, server->put_port());
  const core::Capability dir = client.create_dir().value();
  constexpr std::uint32_t kNames = 2000;
  constexpr std::uint32_t kWindow = 100;
  std::vector<std::uint64_t> marks;  // journal bytes at each window edge
  for (std::uint32_t i = 0; i < kNames; ++i) {
    if (i == 0 || i == kWindow || i == kNames - kWindow) {
      marks.push_back(object_journal_bytes(*volume));
    }
    ASSERT_TRUE(
        client.enter(dir, "acct-" + std::to_string(i), entry_cap(i)).ok())
        << "enter " << i;
  }
  marks.push_back(object_journal_bytes(*volume));
  // No compaction ran, so the journal sizes are the bytes written.
  for (std::size_t s = 0; s < volume->shard_count(); ++s) {
    ASSERT_TRUE(volume->read_snapshot(s).empty()) << "shard " << s;
  }
  const double first = static_cast<double>(marks[1] - marks[0]) / kWindow;
  const double last = static_cast<double>(marks[3] - marks[2]) / kWindow;
  std::printf("journal bytes per enter: first %u names %.1f, last %u %.1f\n",
              kWindow, first, kWindow, last);
  EXPECT_LE(last, 1.5 * first);
  // A whole-image record would hold every entry: > 2,000 x 20 bytes.
  EXPECT_LT(last, 128.0);
  server->stop();
}

TEST_F(DurableDirectorySuite, EveryBarrierRecoversAnAcknowledgedPrefix) {
  auto volume = std::make_shared<storage::MemoryBackend>(16);
  auto server = boot(volume);
  DirectoryClient client(transport_, server->put_port());
  const std::array<core::Capability, 2> dirs = {client.create_dir().value(),
                                                client.create_dir().value()};
  sweep_every_barrier(
      volume, dirs, two_directory_workload(),
      [&](const DirStep& step) {
        return step.target.has_value()
                   ? client.enter(dirs[step.dir], step.name, *step.target).ok()
                   : client.remove(dirs[step.dir], step.name).ok();
      },
      [&] {
        server->stop();
        server.reset();
      });
}

TEST_F(DurableDirectorySuite, SnapshotsFoldDeltaChainsMidSweep) {
  // The same sweep on a store that takes a checkpoint every 8 steps:
  // images land before, inside and after each checkpoint that folds a
  // delta chain, and the server's own recovery reads them all.
  auto volume = std::make_shared<storage::MemoryBackend>(16);
  core::Durability<DirectoryServer::Directory> durability =
      DirectoryServer::durability(storage::GroupCommitter::create(volume));
  core::ObjectStore<DirectoryServer::Directory> store(
      durable_scheme(), server_machine_.fbox().listen_port(Port(kGetPort)),
      77, core::ObjectStore<DirectoryServer::Directory>::kDefaultShards,
      std::move(durability));
  const std::array<core::Capability, 2> dirs = {
      store.create(DirectoryServer::Directory{}),
      store.create(DirectoryServer::Directory{})};
  const auto steps = two_directory_workload();
  std::size_t applied = 0;
  sweep_every_barrier(
      volume, dirs, steps,
      [&](const DirStep& step) {
        {
          auto opened = store.open(dirs[step.dir], core::rights::kWrite);
          if (!opened.ok()) {
            return false;
          }
          DirectoryServer::Directory& entries = *opened.value().value;
          if (step.target.has_value()) {
            entries.insert_or_assign(step.name, core::pack(*step.target));
            opened.value().mark_dirty_delta(
                enter_patch(step.name, *step.target));
          } else {
            entries.erase(step.name);
            opened.value().mark_dirty_delta(remove_patch(step.name));
          }
        }
        if (++applied % 8 == 0) {
          store.compact();
        }
        return true;
      },
      [] {});
  bool compacted = false;
  for (std::size_t s = 0; s < volume->shard_count(); ++s) {
    compacted = compacted || !volume->read_snapshot(s).empty();
  }
  EXPECT_TRUE(compacted) << "no snapshot folded a delta chain";
}

TEST_F(DurableDirectorySuite, MutatedPatchFieldsRefuseOrRecoverAPrefix) {
  // Field-level mutation of the directory's delta records.  With the
  // checksum recomputed, a mutated kind byte, name length, or
  // capability (truncated, or trailing bytes) must make recovery refuse
  // the volume with UsageError; a frame whose checksum no longer matches
  // is a torn tail, and recovery must stop exactly before it.
  auto volume = std::make_shared<storage::MemoryBackend>(16);
  core::Capability dir;
  std::vector<DirStep> steps;
  {
    auto server = boot(volume);
    DirectoryClient client(transport_, server->put_port());
    dir = client.create_dir().value();
    std::uint32_t tag = 1;
    for (const char* name : {"alpha", "beta", "gamma", "delta"}) {
      steps.push_back({0, name, entry_cap(tag++)});
    }
    steps.push_back({0, "beta", std::nullopt});
    steps.push_back({0, "beta", entry_cap(tag++)});
    steps.push_back({0, "gamma", std::nullopt});
    for (const DirStep& step : steps) {
      ASSERT_TRUE(step.target.has_value()
                      ? client.enter(dir, step.name, *step.target).ok()
                      : client.remove(dir, step.name).ok());
    }
    server->stop();
  }
  const auto states = acknowledged_states<1>(steps);

  // The directory's shard: its create record, then one delta per step.
  std::size_t shard = volume->shard_count();
  std::vector<storage::Record> records;
  for (std::size_t s = 0; s < volume->shard_count(); ++s) {
    auto decoded = storage::decode_journal(volume->read_journal(s));
    if (!decoded.empty()) {
      shard = s;
      records = std::move(decoded);
    }
  }
  ASSERT_LT(shard, volume->shard_count());
  ASSERT_EQ(records.size(), steps.size() + 1);
  ASSERT_EQ(records[0].type, storage::RecordType::create);

  Rng rng(test::seed_base(14) * 0x9E3779B97F4A7C15ULL + 14);
  for (int iter = 0; iter < 150; ++iter) {
    const std::size_t k = rng.below(steps.size());  // the mutated step
    std::vector<storage::Record> mutated = records;
    Buffer& patch = mutated[k + 1].payload;
    ASSERT_EQ(mutated[k + 1].type, storage::RecordType::delta);
    const std::uint64_t which = iter % 5;
    switch (which) {
      case 0:  // kind byte
        patch[0] = static_cast<std::uint8_t>(patch[0] + 1 + rng.below(255));
        break;
      case 1: {  // name length
        const std::uint32_t length = static_cast<std::uint32_t>(
            patch[1] | patch[2] << 8 | patch[3] << 16 | patch[4] << 24);
        std::uint32_t bent = length;
        while (bent == length) {
          bent = rng.below(2) == 0
                     ? static_cast<std::uint32_t>(rng.below(length + 24))
                     : static_cast<std::uint32_t>(rng.next());
        }
        for (int b = 0; b < 4; ++b) {
          patch[1 + b] = static_cast<std::uint8_t>(bent >> (8 * b));
        }
        break;
      }
      case 2:  // truncated tail (the capability of an enter)
        patch.resize(patch.size() - 1 - rng.below(std::min<std::size_t>(
                                              patch.size(), 17)));
        break;
      case 3:  // trailing bytes
        for (std::uint64_t n = 1 + rng.below(8); n > 0; --n) {
          patch.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        break;
      default:
        break;  // torn frame: damaged below, after framing
    }
    Buffer journal;
    for (const storage::Record& record : mutated) {
      storage::encode_record(record, journal);
      if (which == 4 && &record == &mutated[k + 1]) {
        // A payload byte flipped after framing: the checksum fails.
        journal[journal.size() - 1 - rng.below(record.payload.size())] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
      }
    }
    auto image = std::make_shared<storage::MemoryBackend>(16);
    for (std::size_t s = 0; s < volume->shard_count(); ++s) {
      const Buffer bytes = s == shard ? journal : volume->read_journal(s);
      if (!bytes.empty()) {
        test::append_run(*image, s, bytes);
      }
    }
    SCOPED_TRACE("iteration " + std::to_string(iter) + ", step " +
                 std::to_string(k) + ", mutation " + std::to_string(which) +
                 " (seed base " + std::to_string(test::seed_base(14)) + ")");
    std::unique_ptr<DirectoryServer> server;
    bool refused = false;
    try {
      server = boot(image);
    } catch (const UsageError&) {
      refused = true;
    }
    if (which == 4) {
      // Torn: the prefix before the damaged frame, nothing of it or after.
      ASSERT_FALSE(refused);
      EXPECT_EQ(listing(dir), std::optional<Listing>(states[k][0]));
      server->stop();
    } else {
      EXPECT_TRUE(refused) << "a mutated patch was accepted";
      if (server != nullptr) {
        server->stop();
      }
    }
  }
}

}  // namespace
}  // namespace amoeba::servers
