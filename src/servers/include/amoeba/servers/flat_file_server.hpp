// The flat file server (§3.3).
//
// "The flat file server provides its clients with files consisting of a
// linear sequence of bytes, numbered from 0 to the file size - 1. ...
// The server does not have any concept of an 'open' file.  One can operate
// on any file for which a valid capability can be presented."
//
// It stores no data itself: it is a *client of the block server*, holding
// block capabilities in its per-file tables -- the paper's modular
// file-system stack made concrete.  Optionally it charges for storage
// through the bank server (§3.6): when pricing is configured, CREATE FILE
// must carry a payment account capability in the data field, and block
// allocations are paid for at the configured price per block.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "amoeba/core/object_store.hpp"
#include "amoeba/rpc/server.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/servers/block_server.hpp"

namespace amoeba::servers {

/// The flat file server's operation table.
namespace file_ops {

struct CreateRequest {
  /// Payment account capability; required when the server charges for
  /// storage, ignored-if-well-formed otherwise (trailing-optional field).
  std::optional<core::Capability> payment;
  using Wire = rpc::Layout<CreateRequest, rpc::Data<&CreateRequest::payment>>;
};

struct ReadRequest {
  std::uint64_t position = 0;
  std::uint64_t length = 0;
  using Wire = rpc::Layout<ReadRequest,
                           rpc::Param<0, &ReadRequest::position>,
                           rpc::Param<1, &ReadRequest::length>>;
};

struct WriteRequest {
  std::uint64_t position = 0;
  Buffer bytes;
  using Wire = rpc::Layout<WriteRequest,
                           rpc::Param<0, &WriteRequest::position>,
                           rpc::RawData<&WriteRequest::bytes>>;
};

struct SizeReply {
  std::uint64_t size = 0;
  using Wire = rpc::Layout<SizeReply, rpc::Param<0, &SizeReply::size>>;
};

using ReadOp = rpc::Op<ReadRequest, rpc::BytesReply>;
using SizeOp = rpc::Op<rpc::Empty, SizeReply>;

inline constexpr rpc::Op<CreateRequest, rpc::CapabilityReply> kCreate{
    0x0201, "file.create", rpc::kFactoryOp};
inline constexpr rpc::Op<rpc::Empty, rpc::Empty> kDestroy{
    0x0202, "file.destroy", core::rights::kDestroy};
inline constexpr ReadOp kRead{0x0203, "file.read", core::rights::kRead};
inline constexpr rpc::Op<WriteRequest, rpc::Empty> kWrite{
    0x0204, "file.write", core::rights::kWrite};
inline constexpr SizeOp kSize{0x0205, "file.size", core::rights::kRead};
// Restriction/revocation/info/touch use the std_* suite (rpc/typed.hpp).

}  // namespace file_ops

class FlatFileServer final : public rpc::Service {
 public:
  /// Quota-by-pricing (§3.6): x units per block of disk space.
  struct Pricing {
    Port bank_port;
    core::Capability server_account;  // deposit right required
    std::uint32_t currency = 0;
    std::int64_t price_per_block = 1;
  };

  /// `backend`, when set, journals every inode mutation (size, block
  /// capabilities, payer).  A recovered file server resumes serving its
  /// old capabilities; the block capabilities inside recovered inodes stay
  /// valid as long as the block server itself restarted from its own
  /// volume (the cross-server recovery story the crash tests exercise).
  FlatFileServer(net::Machine& machine, Port get_port,
                 std::shared_ptr<const core::ProtectionScheme> scheme,
                 std::uint64_t seed, Port block_server_port,
                 std::shared_ptr<storage::Backend> backend = nullptr);
  ~FlatFileServer() override { stop(); }  // quiesce workers before members die

  /// Enables storage charging.  Must be called before start().
  void set_pricing(Pricing pricing);

 private:
  struct Inode {
    std::uint64_t size = 0;
    std::vector<core::Capability> blocks;  // block-server capabilities
    core::Capability payer;                // account charged for growth
    bool paid = false;                     // pricing active for this file
  };
  using Store = core::ObjectStore<Inode>;

  [[nodiscard]] static core::Durability<Inode> durability(
      std::shared_ptr<storage::GroupCommitter> committer);

  /// Charges `blocks` worth of space to the inode's payer; no-op when
  /// pricing is off or the file was created before pricing.
  [[nodiscard]] Result<void> charge(const Inode& inode, std::int64_t blocks);

  /// Lazily learns the block size from the block server (it may not have
  /// been started before us).
  [[nodiscard]] Result<std::uint32_t> ensure_block_size();

  [[nodiscard]] Result<rpc::CapabilityReply> do_create(
      const file_ops::CreateRequest& req);
  /// Destroys the inode, frees its blocks, refunds storage charges;
  /// shared by file.destroy and std.destroy (the accessor is consumed).
  [[nodiscard]] Result<void> do_destroy(Store::Opened&& file);
  [[nodiscard]] Result<rpc::BytesReply> do_read(
      const file_ops::ReadRequest& req, Store::Opened& file);
  [[nodiscard]] Result<void> do_write(const file_ops::WriteRequest& req,
                                      Store::Opened& file);

  // Inodes are exclusive under their shard lock while opened; a worker
  // holds that lock across its block-server RPCs, so writes to one file
  // serialize while different files proceed in parallel.
  // Declared before store_: the store enqueues on it for its whole
  // lifetime (destruction order tears the store down first).
  std::shared_ptr<storage::GroupCommitter> committer_;
  Store store_;
  rpc::Transport transport_;  // for talking to the block (and bank) server
  BlockClient blocks_;
  std::atomic<std::uint32_t> block_size_{0};  // lazily fetched; 0 = unknown
  mutable std::mutex pricing_mutex_;
  std::optional<Pricing> pricing_;
};

/// Client stub for the flat file service.
class FlatFileClient : public rpc::ClientStub {
 public:
  using ClientStub::ClientStub;

  /// Creates an empty file.  `payment`: account capability when the server
  /// charges for storage.
  [[nodiscard]] Result<core::Capability> create(
      const core::Capability* payment = nullptr) {
    return call<&rpc::CapabilityReply::capability>(
        file_ops::kCreate,
        {payment != nullptr ? std::optional{*payment} : std::nullopt});
  }
  [[nodiscard]] Result<void> destroy(const core::Capability& file) {
    return call(file_ops::kDestroy, file);
  }
  [[nodiscard]] Result<Buffer> read(const core::Capability& file,
                                    std::uint64_t position,
                                    std::uint64_t length) {
    return call<&rpc::BytesReply::bytes>(file_ops::kRead, file,
                                         {position, length});
  }
  [[nodiscard]] Result<void> write(const core::Capability& file,
                                   std::uint64_t position,
                                   std::span<const std::uint8_t> data) {
    return call(file_ops::kWrite, file,
                {position, Buffer(data.begin(), data.end())});
  }
  [[nodiscard]] Result<std::uint64_t> size(const core::Capability& file) {
    return call<&file_ops::SizeReply::size>(file_ops::kSize, file);
  }
  /// Server-side sub-capability fabrication (schemes 0-2 path).
  [[nodiscard]] Result<core::Capability> restrict(const core::Capability& file,
                                                  Rights mask) {
    return rpc::std_restrict(transport(), file, mask);
  }
  /// Rotates the object's random number: instant revocation.
  [[nodiscard]] Result<core::Capability> revoke(const core::Capability& file) {
    return rpc::std_revoke(transport(), file);
  }
};

}  // namespace amoeba::servers
