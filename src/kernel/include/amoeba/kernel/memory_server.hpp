// The memory server (§3.1).
//
// "The memory server is a process that manages physical memory and
// processes at the lowest level.  It is actually part of the kernel
// present on each machine, but it communicates with other processes via
// the normal message protocol so that its clients do not perceive it as
// being special in any way."
//
// Segments are byte arrays created/loaded/read via capabilities; MAKE
// PROCESS turns a list of segment capabilities (text, data, stack) into a
// process object that can be started and stopped.  Because requests are
// plain RPC, a parent can direct CREATE SEGMENT at a *remote* machine's
// memory server and build the child there -- "providing a more convenient
// and efficient interface than the traditional FORK + EXEC."  Process
// execution itself is simulated (processes are resource objects with a
// lifecycle); the capability interface is what the paper describes, and
// what this reproduction exercises.  An "electronic disk" is nothing but a
// segment read and written by local or remote processes.
#pragma once

#include <memory>
#include <mutex>
#include <variant>
#include <vector>

#include "amoeba/core/object_store.hpp"
#include "amoeba/rpc/server.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"

namespace amoeba::kernel {

enum class ProcessState : std::uint8_t {
  constructed = 0,
  running = 1,
  stopped = 2,
};

/// The memory server's operation table.
namespace mem_ops {

struct CreateSegmentRequest {
  std::uint64_t size = 0;
  using Wire = rpc::Layout<CreateSegmentRequest,
                           rpc::Param<0, &CreateSegmentRequest::size>>;
};

struct ReadSegmentRequest {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  using Wire = rpc::Layout<ReadSegmentRequest,
                           rpc::Param<0, &ReadSegmentRequest::offset>,
                           rpc::Param<1, &ReadSegmentRequest::length>>;
};

struct WriteSegmentRequest {
  std::uint64_t offset = 0;
  Buffer bytes;
  using Wire = rpc::Layout<WriteSegmentRequest,
                           rpc::Param<0, &WriteSegmentRequest::offset>,
                           rpc::RawData<&WriteSegmentRequest::bytes>>;
};

struct SegmentInfoReply {
  std::uint64_t size = 0;
  using Wire =
      rpc::Layout<SegmentInfoReply, rpc::Param<0, &SegmentInfoReply::size>>;
};

struct MakeProcessRequest {
  std::vector<core::Capability> segments;  // text, data, stack, ...
  using Wire = rpc::Layout<MakeProcessRequest,
                           rpc::Data<&MakeProcessRequest::segments>>;
};

struct ProcessInfoReply {
  ProcessState state = ProcessState::constructed;
  std::uint64_t segment_count = 0;
  using Wire = rpc::Layout<ProcessInfoReply,
                           rpc::Param<0, &ProcessInfoReply::state>,
                           rpc::Param<1, &ProcessInfoReply::segment_count>>;
};

inline constexpr rpc::Op<CreateSegmentRequest, rpc::CapabilityReply>
    kCreateSegment{0x0601, "mem.create_segment", rpc::kFactoryOp};
inline constexpr rpc::Op<ReadSegmentRequest, rpc::BytesReply> kReadSegment{
    0x0602, "mem.read_segment", core::rights::kRead};
inline constexpr rpc::Op<WriteSegmentRequest, rpc::Empty> kWriteSegment{
    0x0603, "mem.write_segment", core::rights::kWrite};
inline constexpr rpc::Op<rpc::Empty, SegmentInfoReply> kSegmentInfo{
    0x0604, "mem.segment_info", core::rights::kRead};
inline constexpr rpc::Op<rpc::Empty, rpc::Empty> kDeleteSegment{
    0x0605, "mem.delete_segment", core::rights::kDestroy};
// MAKE PROCESS consumes segment capabilities from the data field; each
// must grant read (the child's image is loaded from it).
inline constexpr rpc::Op<MakeProcessRequest, rpc::CapabilityReply>
    kMakeProcess{0x0606, "mem.make_process", rpc::kFactoryOp,
                 core::rights::kRead};
inline constexpr rpc::Op<rpc::Empty, rpc::Empty> kStartProcess{
    0x0607, "mem.start_process", core::rights::kWrite};
inline constexpr rpc::Op<rpc::Empty, rpc::Empty> kStopProcess{
    0x0608, "mem.stop_process", core::rights::kWrite};
inline constexpr rpc::Op<rpc::Empty, ProcessInfoReply> kProcessInfo{
    0x0609, "mem.process_info", core::rights::kRead};
inline constexpr rpc::Op<rpc::Empty, rpc::Empty> kDeleteProcess{
    0x060A, "mem.delete_process", core::rights::kDestroy};

}  // namespace mem_ops

class MemoryServer final : public rpc::Service {
 public:
  /// `memory_limit` bounds the summed segment sizes (no_space beyond it).
  /// `backend`, when set, journals segments (content included) and
  /// processes; the restart path replays the volume and recomputes the
  /// machine's memory budget from the recovered segments.
  MemoryServer(net::Machine& machine, Port get_port,
               std::shared_ptr<const core::ProtectionScheme> scheme,
               std::uint64_t seed, std::uint64_t memory_limit = 64 << 20,
               std::shared_ptr<storage::Backend> backend = nullptr);
  ~MemoryServer() override { stop(); }  // quiesce workers before members die

  [[nodiscard]] std::uint64_t memory_in_use() const;

 private:
  struct Segment {
    Buffer bytes;
  };
  struct Process {
    std::vector<core::Capability> segments;
    ProcessState state = ProcessState::constructed;
  };
  using Payload = std::variant<Segment, Process>;
  using Store = core::ObjectStore<Payload>;

  [[nodiscard]] static core::Durability<Payload> durability(
      std::shared_ptr<storage::GroupCommitter> committer);

  [[nodiscard]] Result<rpc::CapabilityReply> do_create_segment(
      const mem_ops::CreateSegmentRequest& req);
  [[nodiscard]] Result<rpc::BytesReply> do_read_segment(
      const mem_ops::ReadSegmentRequest& req, Store::Opened& opened);
  [[nodiscard]] Result<void> do_write_segment(
      const mem_ops::WriteSegmentRequest& req, Store::Opened& opened);
  /// Returns the budget on destruction; shared by mem.delete_segment and
  /// std.destroy (which also accepts processes).
  [[nodiscard]] Result<void> do_delete_segment(Store::Opened&& opened);
  [[nodiscard]] Result<void> do_delete_any(Store::Opened&& opened);
  [[nodiscard]] Result<rpc::CapabilityReply> do_make_process(
      const mem_ops::MakeProcessRequest& req);
  [[nodiscard]] Result<void> do_process_state(Store::Opened& opened,
                                              ProcessState state);

  // Segments/processes are exclusive under their shard locks while
  // opened; only the machine-wide memory budget needs its own lock.
  // Declared before store_: the store enqueues on it for its whole
  // lifetime (destruction order tears the store down first).
  std::shared_ptr<storage::GroupCommitter> committer_;
  Store store_;
  std::uint64_t memory_limit_;
  mutable std::mutex memory_mutex_;
  std::uint64_t memory_in_use_ = 0;  // guarded by memory_mutex_
};

/// Client stub for a (possibly remote) memory server.
class MemoryClient : public rpc::ClientStub {
 public:
  using ClientStub::ClientStub;

  [[nodiscard]] Result<core::Capability> create_segment(std::uint64_t size) {
    return call<&rpc::CapabilityReply::capability>(mem_ops::kCreateSegment,
                                                   {size});
  }
  [[nodiscard]] Result<Buffer> read(const core::Capability& segment,
                                    std::uint64_t offset,
                                    std::uint64_t length) {
    return call<&rpc::BytesReply::bytes>(mem_ops::kReadSegment, segment,
                                         {offset, length});
  }
  [[nodiscard]] Result<void> write(const core::Capability& segment,
                                   std::uint64_t offset,
                                   std::span<const std::uint8_t> data) {
    return call(mem_ops::kWriteSegment, segment,
                {offset, Buffer(data.begin(), data.end())});
  }
  [[nodiscard]] Result<std::uint64_t> segment_size(
      const core::Capability& segment) {
    return call<&mem_ops::SegmentInfoReply::size>(mem_ops::kSegmentInfo,
                                                  segment);
  }
  [[nodiscard]] Result<void> delete_segment(const core::Capability& segment) {
    return call(mem_ops::kDeleteSegment, segment);
  }

  /// MAKE PROCESS: segment capabilities (text, data, stack, ...) become a
  /// process capability "with which the child can be started, stopped, and
  /// generally manipulated."
  [[nodiscard]] Result<core::Capability> make_process(
      std::span<const core::Capability> segments) {
    return call<&rpc::CapabilityReply::capability>(
        mem_ops::kMakeProcess,
        {std::vector<core::Capability>(segments.begin(), segments.end())});
  }
  [[nodiscard]] Result<void> start(const core::Capability& process) {
    return call(mem_ops::kStartProcess, process);
  }
  [[nodiscard]] Result<void> stop(const core::Capability& process) {
    return call(mem_ops::kStopProcess, process);
  }
  using ProcessInfo = mem_ops::ProcessInfoReply;
  [[nodiscard]] Result<ProcessInfo> process_info(
      const core::Capability& process) {
    return call(mem_ops::kProcessInfo, process);
  }
  [[nodiscard]] Result<void> delete_process(const core::Capability& process) {
    return call(mem_ops::kDeleteProcess, process);
  }
};

}  // namespace amoeba::kernel
