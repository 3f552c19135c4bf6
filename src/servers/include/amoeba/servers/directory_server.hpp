// The directory server (§3.4).
//
// "The directory server manages directories, each of which is a set of
// (ASCII name, capability) pairs. ... Note that the capabilities within a
// directory need not all be file capabilities and certainly need not all
// be located in the same place or managed by the same server."
//
// Directories map names to arbitrary 16-byte capabilities -- files on any
// file server, other directories on *other directory servers*, bank
// accounts, anything.  Path resolution (resolve_path) follows each
// returned capability's SERVER field, so a walk hops between servers
// without the client noticing: "the distribution is completely
// transparent."
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "amoeba/core/object_store.hpp"
#include "amoeba/rpc/batch.hpp"
#include "amoeba/rpc/server.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/common.hpp"

namespace amoeba::servers {

/// One directory entry as returned by list().
struct DirEntry {
  std::string name;
  core::Capability capability;
};

/// Data-stream codec for directory entries (name + 16-byte capability).
inline void wire_write(Writer& w, const DirEntry& entry) {
  wire_write(w, entry.name);
  wire_write(w, entry.capability);
}
[[nodiscard]] inline bool wire_read(Reader& r, DirEntry& entry) {
  return wire_read(r, entry.name) && wire_read(r, entry.capability);
}

/// The directory server's operation table.
namespace dir_ops {

struct NameRequest {
  std::string name;
  using Wire = rpc::Layout<NameRequest, rpc::Data<&NameRequest::name>>;
};

struct EnterRequest {
  std::string name;
  core::Capability target;
  using Wire = rpc::Layout<EnterRequest,
                           rpc::Data<&EnterRequest::name>,
                           rpc::Data<&EnterRequest::target>>;
};

struct ListReply {
  std::vector<DirEntry> entries;
  using Wire = rpc::Layout<ListReply, rpc::Data<&ListReply::entries>>;
};

using LookupOp = rpc::Op<NameRequest, rpc::CapabilityReply>;
using ListOp = rpc::Op<rpc::Empty, ListReply>;

inline constexpr rpc::Op<rpc::Empty, rpc::CapabilityReply> kCreateDir{
    0x0301, "dir.create", rpc::kFactoryOp};
inline constexpr LookupOp kLookup{0x0302, "dir.lookup", core::rights::kRead};
inline constexpr rpc::Op<EnterRequest, rpc::Empty> kEnter{
    0x0303, "dir.enter", core::rights::kWrite};
inline constexpr rpc::Op<NameRequest, rpc::Empty> kRemove{
    0x0304, "dir.remove", core::rights::kWrite};
inline constexpr ListOp kList{0x0305, "dir.list", core::rights::kRead};
inline constexpr rpc::Op<rpc::Empty, rpc::Empty> kDeleteDir{
    0x0306, "dir.delete", core::rights::kDestroy};

}  // namespace dir_ops

class DirectoryServer final : public rpc::Service {
 public:
  /// `backend`, when set, write-ahead-journals every directory mutation;
  /// a non-empty volume recovers the whole name space (entries AND the
  /// check-field secrets, so directory capabilities issued before a crash
  /// keep resolving) plus the at-most-once reply-cache floors.
  DirectoryServer(net::Machine& machine, Port get_port,
                  std::shared_ptr<const core::ProtectionScheme> scheme,
                  std::uint64_t seed,
                  std::shared_ptr<storage::Backend> backend = nullptr);
  ~DirectoryServer() override { stop(); }  // quiesce workers before members die

  using Directory = std::map<std::string, core::CapabilityBytes>;

  /// The directory volume's codecs: full images for creates and
  /// snapshots, one-entry delta patches (docs/PROTOCOL.md §8.2) for
  /// dir.enter and dir.remove.  Public so a store built on them (e.g. one
  /// a test checkpoints mid-sweep) writes volumes this server recovers.
  [[nodiscard]] static core::Durability<Directory> durability(
      std::shared_ptr<storage::GroupCommitter> committer);

 private:
  using Store = core::ObjectStore<Directory>;

  [[nodiscard]] Result<rpc::CapabilityReply> do_lookup(
      const dir_ops::NameRequest& req, Store::Opened& dir);
  [[nodiscard]] Result<void> do_enter(const dir_ops::EnterRequest& req,
                                      Store::Opened& dir);
  [[nodiscard]] Result<void> do_remove(const dir_ops::NameRequest& req,
                                       Store::Opened& dir);
  [[nodiscard]] Result<dir_ops::ListReply> do_list(Store::Opened& dir);
  /// Deletes an empty directory; shared by dir.delete and std.destroy
  /// (the accessor is consumed on success).
  [[nodiscard]] Result<void> do_delete(Store::Opened&& dir);

  // No service-wide lock: each directory is exclusive under its shard
  // lock for the duration of the open() accessor.
  // Declared before store_: the store enqueues on it for its whole
  // lifetime (destruction order tears the store down first).
  std::shared_ptr<storage::GroupCommitter> committer_;
  Store store_;
};

/// Client stub for a directory service.
class DirectoryClient {
 public:
  DirectoryClient(rpc::Transport& transport, Port server_port)
      : transport_(&transport), server_port_(server_port) {}

  [[nodiscard]] Result<core::Capability> create_dir();
  [[nodiscard]] Result<core::Capability> lookup(const core::Capability& dir,
                                                const std::string& name);
  [[nodiscard]] Result<void> enter(const core::Capability& dir,
                                   const std::string& name,
                                   const core::Capability& target);
  [[nodiscard]] Result<void> remove(const core::Capability& dir,
                                    const std::string& name);
  [[nodiscard]] Result<std::vector<DirEntry>> list(
      const core::Capability& dir);
  /// Deletes an empty directory (not_empty otherwise).
  [[nodiscard]] Result<void> delete_dir(const core::Capability& dir);

  [[nodiscard]] Port server_port() const { return server_port_; }

 private:
  rpc::Transport* transport_;
  Port server_port_;
};

/// Walks `path` ("a/b/c") component by component starting from `root`.
/// Each step is addressed to the *current* capability's server port, so
/// the walk transparently crosses directory servers.  Empty components are
/// rejected; an empty path returns `root` itself.
[[nodiscard]] Result<core::Capability> resolve_path(
    rpc::Transport& transport, const core::Capability& root,
    std::string_view path);

/// The path walk on batched round trips: resolves many paths relative to
/// `root` level-synchronously -- each round advances every unfinished walk
/// by one component, and all walks currently standing at the same server
/// share one batch frame of LOOKUPs.  W paths of depth D over S servers
/// cost at most D*S round trips instead of W*D, while hops between
/// directory servers stay as transparent as in resolve_path.  Outcomes
/// come back in input order.
[[nodiscard]] std::vector<Result<core::Capability>> resolve_paths(
    rpc::Transport& transport, const core::Capability& root,
    std::span<const std::string> paths);

}  // namespace amoeba::servers
