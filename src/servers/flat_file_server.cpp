#include "amoeba/servers/flat_file_server.hpp"

#include <algorithm>
#include <limits>

#include "amoeba/servers/common.hpp"

namespace amoeba::servers {

core::Durability<FlatFileServer::Inode> FlatFileServer::durability(
    std::shared_ptr<storage::GroupCommitter> committer) {
  if (committer == nullptr) {
    return {};
  }
  core::Durability<Inode> d;
  d.committer = std::move(committer);
  d.encode = [](Writer& w, const Inode& inode) {
    w.u64(inode.size);
    w.u32(static_cast<std::uint32_t>(inode.blocks.size()));
    for (const auto& block : inode.blocks) {
      w.raw(core::pack(block));
    }
    w.raw(core::pack(inode.payer));
    w.u8(inode.paid ? 1 : 0);
  };
  d.decode = [](Reader& r, Inode& inode) {
    inode.size = r.u64();
    const std::uint32_t count = r.u32();
    inode.blocks.reserve(count);
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
      core::CapabilityBytes bytes{};
      r.raw(bytes);
      inode.blocks.push_back(core::unpack(bytes));
    }
    core::CapabilityBytes payer{};
    r.raw(payer);
    inode.payer = core::unpack(payer);
    inode.paid = r.u8() != 0;
    return r.ok();
  };
  return d;
}

FlatFileServer::FlatFileServer(
    net::Machine& machine, Port get_port,
    std::shared_ptr<const core::ProtectionScheme> scheme, std::uint64_t seed,
    Port block_server_port,
    std::shared_ptr<storage::Backend> backend)
    : rpc::Service(machine, get_port, "flatfile"),
      committer_(storage::GroupCommitter::create(backend)),
      store_(std::move(scheme), machine.fbox().listen_port(get_port), seed,
             Store::kDefaultShards, durability(committer_)),
      transport_(machine, seed ^ 0xF17EULL),
      blocks_(transport_, block_server_port) {
  attach_durability(committer_);
  // std.destroy must free the file's blocks and refund the payer too.
  rpc::register_std_ops(
      *this, store_,
      {.destroy = [this](Store::Opened&& file) {
         return do_destroy(std::move(file));
       }});
  on(file_ops::kCreate,
     [this](const auto& call) { return do_create(call.body); });
  on(file_ops::kDestroy, store_, [this](const auto&, auto& file) {
    return do_destroy(std::move(file));
  });
  // kRead/kSize ride open()'s lock-free validate prefix on repeat
  // capabilities (the common case for a file being streamed).
  on(file_ops::kRead, store_, [this](const auto& call, auto& file) {
    return do_read(call.body, file);
  });
  on(file_ops::kWrite, store_, [this](const auto& call, auto& file) {
    return do_write(call.body, file);
  });
  on(file_ops::kSize, store_,
     [](const auto&, auto& file) -> Result<file_ops::SizeReply> {
       return file_ops::SizeReply{file.value->size};
     });
}

void FlatFileServer::set_pricing(Pricing pricing) {
  const std::lock_guard lock(pricing_mutex_);
  pricing_ = std::move(pricing);
}

Result<void> FlatFileServer::charge(const Inode& inode,
                                    std::int64_t block_count) {
  std::optional<Pricing> pricing;
  {
    const std::lock_guard lock(pricing_mutex_);
    pricing = pricing_;
  }
  if (!pricing.has_value() || !inode.paid || block_count == 0) {
    return {};
  }
  BankClient bank(transport_, pricing->bank_port);
  if (block_count > 0) {
    return bank.transfer(inode.payer, pricing->server_account,
                         pricing->currency,
                         block_count * pricing->price_per_block);
  }
  // Negative: refund on destroy ("returning the resource might result in
  // the client getting his money back").
  return bank.transfer(pricing->server_account, inode.payer,
                       pricing->currency,
                       -block_count * pricing->price_per_block);
}

Result<std::uint32_t> FlatFileServer::ensure_block_size() {
  std::uint32_t size = block_size_.load(std::memory_order_relaxed);
  if (size != 0) {
    return size;
  }
  auto info = blocks_.info();
  if (!info.ok()) {
    return ErrorCode::internal;
  }
  size = info.value().block_size;
  block_size_.store(size, std::memory_order_relaxed);
  return size;
}

Result<rpc::CapabilityReply> FlatFileServer::do_create(
    const file_ops::CreateRequest& req) {
  bool priced = false;
  {
    const std::lock_guard lock(pricing_mutex_);
    priced = pricing_.has_value();
  }
  Inode inode;
  if (priced) {
    // Payment account capability required in the data field.
    if (!req.payment.has_value() || req.payment->is_null()) {
      return ErrorCode::invalid_argument;
    }
    inode.payer = *req.payment;
    inode.paid = true;
  }
  return rpc::CapabilityReply{store_.create(std::move(inode))};
}

Result<void> FlatFileServer::do_destroy(Store::Opened&& file) {
  Inode inode = std::move(*file.value);
  const auto destroyed = store_.destroy(std::move(file));
  if (!destroyed.ok()) {
    return destroyed.error();
  }
  // Shard lock released: the block frees and the refund are plain client
  // RPCs against the other services.
  for (const auto& block_cap : inode.blocks) {
    (void)blocks_.free_block(block_cap);  // best effort
  }
  (void)charge(inode, -static_cast<std::int64_t>(inode.blocks.size()));
  return {};
}

Result<rpc::BytesReply> FlatFileServer::do_read(
    const file_ops::ReadRequest& req, Store::Opened& file) {
  const auto block_size_result = ensure_block_size();
  if (!block_size_result.ok()) {
    return block_size_result.error();
  }
  const std::uint32_t block_size = block_size_result.value();
  const Inode& inode = *file.value;
  if (req.position >= inode.size) {
    return rpc::BytesReply{};  // empty read
  }
  const std::uint64_t length =
      std::min(req.length, inode.size - req.position);
  Buffer out;
  out.reserve(length);
  std::uint64_t pos = req.position;
  while (out.size() < length) {
    const std::uint64_t block_index = pos / block_size;
    const std::uint64_t offset = pos % block_size;
    auto data = blocks_.read(inode.blocks[block_index]);
    if (!data.ok()) {
      return ErrorCode::internal;
    }
    const std::uint64_t take =
        std::min<std::uint64_t>(block_size - offset, length - out.size());
    out.insert(out.end(),
               data.value().begin() + static_cast<std::ptrdiff_t>(offset),
               data.value().begin() + static_cast<std::ptrdiff_t>(offset + take));
    pos += take;
  }
  return rpc::BytesReply{std::move(out)};
}

Result<void> FlatFileServer::do_write(const file_ops::WriteRequest& req,
                                      Store::Opened& file) {
  const auto block_size_result = ensure_block_size();
  if (!block_size_result.ok()) {
    return block_size_result.error();
  }
  const std::uint32_t block_size = block_size_result.value();
  Inode& inode = *file.value;
  const auto& data = req.bytes;
  if (data.empty()) {
    return {};
  }
  // Position is client-controlled: reject offsets whose end position
  // cannot be represented (the block arithmetic below must not wrap).
  if (req.position > std::numeric_limits<std::uint64_t>::max() - block_size -
                         data.size()) {
    return ErrorCode::invalid_argument;
  }
  const std::uint64_t end = req.position + data.size();

  // Grow: allocate (and charge for) the blocks the write needs.
  const std::uint64_t needed_blocks = (end + block_size - 1) / block_size;
  if (needed_blocks > inode.blocks.size()) {
    const std::int64_t growth =
        static_cast<std::int64_t>(needed_blocks - inode.blocks.size());
    if (const auto paid = charge(inode, growth); !paid.ok()) {
      return paid.error();
    }
    while (inode.blocks.size() < needed_blocks) {
      auto block = blocks_.allocate();
      if (!block.ok()) {
        return ErrorCode::no_space;
      }
      inode.blocks.push_back(block.value());
    }
  }

  // Write block by block, read-modify-write at the ragged edges.
  std::uint64_t pos = req.position;
  std::size_t consumed = 0;
  while (consumed < data.size()) {
    const std::uint64_t block_index = pos / block_size;
    const std::uint64_t offset = pos % block_size;
    const std::uint64_t take = std::min<std::uint64_t>(
        block_size - offset, data.size() - consumed);
    Buffer content;
    if (offset != 0 || take != block_size) {
      auto existing = blocks_.read(inode.blocks[block_index]);
      if (!existing.ok()) {
        return ErrorCode::internal;
      }
      content = std::move(existing.value());
    } else {
      content.resize(block_size, 0);
    }
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(consumed), take,
                content.begin() + static_cast<std::ptrdiff_t>(offset));
    if (const auto written = blocks_.write(inode.blocks[block_index], content);
        !written.ok()) {
      return written.error();
    }
    pos += take;
    consumed += take;
  }
  inode.size = std::max(inode.size, end);
  // Size and block-capability list changed (and the data now lives behind
  // those block capabilities): journal the inode image.
  file.mark_dirty();
  return {};
}

}  // namespace amoeba::servers
