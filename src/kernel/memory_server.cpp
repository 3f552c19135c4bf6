#include "amoeba/kernel/memory_server.hpp"

#include <algorithm>

namespace amoeba::kernel {

core::Durability<MemoryServer::Payload> MemoryServer::durability(
    std::shared_ptr<storage::GroupCommitter> committer) {
  if (committer == nullptr) {
    return {};
  }
  core::Durability<Payload> d;
  d.committer = std::move(committer);
  d.encode = [](Writer& w, const Payload& payload) {
    if (const auto* segment = std::get_if<Segment>(&payload)) {
      w.u8(1);
      w.bytes(segment->bytes);
    } else {
      const auto& process = std::get<Process>(payload);
      w.u8(2);
      w.u8(static_cast<std::uint8_t>(process.state));
      w.u32(static_cast<std::uint32_t>(process.segments.size()));
      for (const auto& cap : process.segments) {
        w.raw(core::pack(cap));
      }
    }
  };
  d.decode = [](Reader& r, Payload& payload) {
    const std::uint8_t tag = r.u8();
    if (tag == 1) {
      Segment segment;
      segment.bytes = r.bytes();
      payload = std::move(segment);
      return r.ok();
    }
    if (tag == 2) {
      Process process;
      process.state = static_cast<ProcessState>(r.u8());
      const std::uint32_t count = r.u32();
      process.segments.reserve(count);
      for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
        core::CapabilityBytes cap{};
        r.raw(cap);
        process.segments.push_back(core::unpack(cap));
      }
      payload = std::move(process);
      return r.ok();
    }
    return false;
  };
  return d;
}

MemoryServer::MemoryServer(net::Machine& machine, Port get_port,
                           std::shared_ptr<const core::ProtectionScheme> scheme,
                           std::uint64_t seed, std::uint64_t memory_limit,
                           std::shared_ptr<storage::Backend> backend)
    : rpc::Service(machine, get_port, "memory"),
      committer_(storage::GroupCommitter::create(backend)),
      store_(std::move(scheme), machine.fbox().listen_port(get_port), seed,
             Store::kDefaultShards, durability(committer_)),
      memory_limit_(memory_limit) {
  if (store_.durability_stats().recovered) {
    // Restart path: the machine budget is derived state -- recompute it
    // from the recovered segments.
    std::uint64_t in_use = 0;
    store_.for_each([&](ObjectNumber, const Payload& payload) {
      if (const auto* segment = std::get_if<Segment>(&payload)) {
        in_use += segment->bytes.size();
      }
    });
    const std::lock_guard lock(memory_mutex_);
    memory_in_use_ = in_use;
  }
  attach_durability(committer_);
  // std.destroy must return a segment's bytes to the machine budget.
  rpc::register_std_ops(
      *this, store_,
      {.destroy = [this](Store::Opened&& opened) {
         return do_delete_any(std::move(opened));
       }});
  on(mem_ops::kCreateSegment,
     [this](const auto& call) { return do_create_segment(call.body); });
  // kReadSegment/kSegmentInfo repeat the same segment capability per
  // page-in; open()'s seqlock'd cache proves it without the shard mutex.
  on(mem_ops::kReadSegment, store_, [this](const auto& call, auto& opened) {
    return do_read_segment(call.body, opened);
  });
  on(mem_ops::kWriteSegment, store_, [this](const auto& call, auto& opened) {
    return do_write_segment(call.body, opened);
  });
  on(mem_ops::kSegmentInfo, store_,
     [](const auto&, auto& opened) -> Result<mem_ops::SegmentInfoReply> {
       const auto* segment = std::get_if<Segment>(opened.value);
       if (segment == nullptr) {
         return ErrorCode::invalid_argument;
       }
       return mem_ops::SegmentInfoReply{segment->bytes.size()};
     });
  on(mem_ops::kDeleteSegment, store_, [this](const auto&, auto& opened) {
    return do_delete_segment(std::move(opened));
  });
  on(mem_ops::kMakeProcess,
     [this](const auto& call) { return do_make_process(call.body); });
  on(mem_ops::kStartProcess, store_, [this](const auto&, auto& opened) {
    return do_process_state(opened, ProcessState::running);
  });
  on(mem_ops::kStopProcess, store_, [this](const auto&, auto& opened) {
    return do_process_state(opened, ProcessState::stopped);
  });
  on(mem_ops::kProcessInfo, store_,
     [](const auto&, auto& opened) -> Result<mem_ops::ProcessInfoReply> {
       const auto* process = std::get_if<Process>(opened.value);
       if (process == nullptr) {
         return ErrorCode::invalid_argument;
       }
       return mem_ops::ProcessInfoReply{process->state,
                                        process->segments.size()};
     });
  on(mem_ops::kDeleteProcess, store_, [this](const auto&, auto& opened) {
    if (std::get_if<Process>(opened.value) == nullptr) {
      return Result<void>{ErrorCode::invalid_argument};
    }
    return store_.destroy(std::move(opened));
  });
}

std::uint64_t MemoryServer::memory_in_use() const {
  const std::lock_guard lock(memory_mutex_);
  return memory_in_use_;
}

Result<rpc::CapabilityReply> MemoryServer::do_create_segment(
    const mem_ops::CreateSegmentRequest& req) {
  const std::uint64_t size = req.size;
  {
    // Reserve the budget first.  Overflow-safe form: `in_use + size` with
    // a client-controlled size could wrap past the limit check.
    const std::lock_guard lock(memory_mutex_);
    if (size > memory_limit_ || memory_in_use_ > memory_limit_ - size) {
      if (committer_ != nullptr) {
        // The budget is every segment's, which no one slot attributes.
        committer_->note_unattributed_read();
      }
      return ErrorCode::no_space;
    }
    memory_in_use_ += size;
  }
  try {
    Segment segment;
    segment.bytes.resize(size, 0);
    return rpc::CapabilityReply{store_.create(Payload{std::move(segment)})};
  } catch (...) {
    // Allocation or slot creation failed after the budget was reserved:
    // roll the reservation back before the service loop reports the
    // failure, or the leaked budget would eventually wedge every create.
    const std::lock_guard lock(memory_mutex_);
    memory_in_use_ -= size;
    throw;
  }
}

Result<rpc::BytesReply> MemoryServer::do_read_segment(
    const mem_ops::ReadSegmentRequest& req, Store::Opened& opened) {
  const auto* segment = std::get_if<Segment>(opened.value);
  if (segment == nullptr) {
    return ErrorCode::invalid_argument;
  }
  if (req.offset > segment->bytes.size()) {
    return ErrorCode::invalid_argument;
  }
  const std::uint64_t take =
      std::min(req.length, segment->bytes.size() - req.offset);
  rpc::BytesReply reply;
  reply.bytes.assign(
      segment->bytes.begin() + static_cast<std::ptrdiff_t>(req.offset),
      segment->bytes.begin() + static_cast<std::ptrdiff_t>(req.offset + take));
  return reply;
}

Result<void> MemoryServer::do_write_segment(
    const mem_ops::WriteSegmentRequest& req, Store::Opened& opened) {
  auto* segment = std::get_if<Segment>(opened.value);
  if (segment == nullptr) {
    return ErrorCode::invalid_argument;
  }
  // Overflow-safe bounds check: `offset + bytes.size()` with a
  // client-controlled offset could wrap and pass.
  if (req.offset > segment->bytes.size() ||
      req.bytes.size() > segment->bytes.size() - req.offset) {
    return ErrorCode::invalid_argument;
  }
  std::copy(req.bytes.begin(), req.bytes.end(),
            segment->bytes.begin() + static_cast<std::ptrdiff_t>(req.offset));
  opened.mark_dirty();
  return {};
}

Result<void> MemoryServer::do_delete_segment(Store::Opened&& opened) {
  const auto* segment = std::get_if<Segment>(opened.value);
  if (segment == nullptr) {
    return ErrorCode::invalid_argument;
  }
  const std::uint64_t freed = segment->bytes.size();
  const auto destroyed = store_.destroy(std::move(opened));
  if (destroyed.ok()) {
    const std::lock_guard lock(memory_mutex_);
    memory_in_use_ -= freed;
  }
  return destroyed;
}

Result<void> MemoryServer::do_delete_any(Store::Opened&& opened) {
  if (std::holds_alternative<Segment>(*opened.value)) {
    return do_delete_segment(std::move(opened));
  }
  return store_.destroy(std::move(opened));
}

Result<rpc::CapabilityReply> MemoryServer::do_make_process(
    const mem_ops::MakeProcessRequest& req) {
  Process process;
  process.segments.reserve(req.segments.size());
  for (const core::Capability& segment_cap : req.segments) {
    // Each segment capability must be valid for THIS memory server and
    // grant the rights the op table declares (read: the child's image is
    // loaded from it).
    auto segment =
        store_.open(segment_cap, mem_ops::kMakeProcess.data_rights);
    if (!segment.ok()) {
      return segment.error();
    }
    if (std::get_if<Segment>(segment.value().value) == nullptr) {
      return ErrorCode::invalid_argument;
    }
    process.segments.push_back(segment_cap);
  }
  return rpc::CapabilityReply{store_.create(Payload{std::move(process)})};
}

Result<void> MemoryServer::do_process_state(Store::Opened& opened,
                                            ProcessState state) {
  auto* process = std::get_if<Process>(opened.value);
  if (process == nullptr) {
    return ErrorCode::invalid_argument;
  }
  process->state = state;
  opened.mark_dirty();
  return {};
}

}  // namespace amoeba::kernel
