// The block server (§3.2).
//
// "The block server can be requested to allocate a disk block and return a
// capability for it.  Using this capability, the block can be written,
// read, or deallocated.  The block server has no concept of a file."
//
// Splitting block storage from file semantics is the modularity claim of
// the paper's first file system: anyone holding block capabilities can
// build their own special-purpose file system on top (the flat file server
// in this repo is exactly such a client).
#pragma once

#include <memory>
#include <mutex>

#include "amoeba/core/object_store.hpp"
#include "amoeba/rpc/server.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/disk.hpp"

namespace amoeba::servers {

/// The block server's operation table.
namespace block_ops {

struct InfoReply {
  std::uint32_t block_count = 0;
  std::uint32_t block_size = 0;
  std::uint32_t free_blocks = 0;
  using Wire = rpc::Layout<InfoReply,
                           rpc::Param<0, &InfoReply::block_count>,
                           rpc::Param<1, &InfoReply::block_size>,
                           rpc::Param<2, &InfoReply::free_blocks>>;
};

inline constexpr rpc::Op<rpc::Empty, rpc::CapabilityReply> kAllocate{
    0x0101, "block.allocate", rpc::kFactoryOp};
inline constexpr rpc::Op<rpc::Empty, rpc::BytesReply> kRead{
    0x0102, "block.read", core::rights::kRead};
inline constexpr rpc::Op<rpc::BytesRequest, rpc::Empty> kWrite{
    0x0103, "block.write", core::rights::kWrite};
inline constexpr rpc::Op<rpc::Empty, rpc::Empty> kFree{
    0x0104, "block.free", core::rights::kDestroy};
inline constexpr rpc::Op<rpc::Empty, InfoReply> kInfo{
    0x0105, "block.info", rpc::kFactoryOp};  // geometry + free space

}  // namespace block_ops

class BlockServer final : public rpc::Service {
 public:
  struct Geometry {
    std::uint32_t block_count = 4096;
    std::uint32_t block_size = 1024;
    bool write_once = false;
  };

  /// `backend`, when set, journals block allocations and writes (the
  /// journal carries the block index AND its content, so the simulated
  /// disk is rebuilt on recovery); capabilities and the write-once state
  /// survive a crash, as do the at-most-once reply-cache floors.
  BlockServer(net::Machine& machine, Port get_port,
              std::shared_ptr<const core::ProtectionScheme> scheme,
              std::uint64_t seed, Geometry geometry,
              std::shared_ptr<storage::Backend> backend = nullptr);
  ~BlockServer() override { stop(); }  // quiesce workers before members die

  [[nodiscard]] std::uint32_t block_size() const {
    return geometry_.block_size;
  }

  /// Disk statistics snapshot (for benches / tests).
  [[nodiscard]] SimDisk::Stats disk_stats() const;

 private:
  using Store = core::ObjectStore<std::uint32_t>;  // payload: disk block index

  /// The block payload codec captures `this`: encoding reads the block's
  /// current content out of the disk (under mutex_, taken AFTER the shard
  /// lock like every handler), decoding restores it.  disk_ is declared
  /// before store_ so recovery may touch it.
  [[nodiscard]] core::Durability<std::uint32_t> durability(
      std::shared_ptr<storage::GroupCommitter> committer);

  [[nodiscard]] Result<rpc::CapabilityReply> do_allocate();
  [[nodiscard]] Result<rpc::BytesReply> do_read(Store::Opened& block);
  [[nodiscard]] Result<void> do_write(const rpc::BytesRequest& req,
                                      Store::Opened& block);
  /// Frees the disk block and destroys the slot; shared by block.free and
  /// std.destroy (the accessor is consumed).
  [[nodiscard]] Result<void> do_free(Store::Opened&& block);
  [[nodiscard]] Result<block_ops::InfoReply> do_info() const;
  /// The disk's allocation map and contents sit beside the table, which
  /// cannot attribute them to one object: a handler that reports them
  /// records the committer's newest effect as its read.
  void note_disk_read() const;

  Geometry geometry_;
  mutable std::mutex mutex_;  // guards disk_ (the store shards itself)
  SimDisk disk_;
  // Declared before store_: the store enqueues on it for its whole
  // lifetime (destruction order tears the store down first).
  std::shared_ptr<storage::GroupCommitter> committer_;
  Store store_;
};

/// Client stub for the block service.
class BlockClient : public rpc::ClientStub {
 public:
  using ClientStub::ClientStub;

  [[nodiscard]] Result<core::Capability> allocate() {
    return call<&rpc::CapabilityReply::capability>(block_ops::kAllocate);
  }
  [[nodiscard]] Result<Buffer> read(const core::Capability& block) {
    return call<&rpc::BytesReply::bytes>(block_ops::kRead, block);
  }
  [[nodiscard]] Result<void> write(const core::Capability& block,
                                   std::span<const std::uint8_t> data) {
    return call(block_ops::kWrite, block, {Buffer(data.begin(), data.end())});
  }
  [[nodiscard]] Result<void> free_block(const core::Capability& block) {
    return call(block_ops::kFree, block);
  }

  using Info = block_ops::InfoReply;
  [[nodiscard]] Result<Info> info() { return call(block_ops::kInfo); }
};

}  // namespace amoeba::servers
