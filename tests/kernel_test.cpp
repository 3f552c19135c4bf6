// Tests for the memory server (§3.1): segments, process construction from
// segment capabilities, lifecycle, remote child creation, and the
// electronic-disk pattern.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "amoeba/common/rng.hpp"
#include "amoeba/kernel/memory_server.hpp"
#include "amoeba/rpc/typed.hpp"

namespace amoeba::kernel {
namespace {

class MemorySuite : public ::testing::Test {
 protected:
  MemorySuite()
      : machine_(net_.add_machine("host")),
        client_machine_(net_.add_machine("parent")),
        rng_(41) {
    server_ = std::make_unique<MemoryServer>(
        machine_, Port(0x3E3), core::make_scheme(core::SchemeKind::encrypted, rng_),
        1, /*memory_limit=*/1 << 16);
    server_->start();
    transport_ = std::make_unique<rpc::Transport>(client_machine_, 2);
    client_ = std::make_unique<MemoryClient>(*transport_,
                                             server_->put_port());
  }

  net::Network net_;
  net::Machine& machine_;
  net::Machine& client_machine_;
  Rng rng_;
  std::unique_ptr<MemoryServer> server_;
  std::unique_ptr<rpc::Transport> transport_;
  std::unique_ptr<MemoryClient> client_;
};

TEST_F(MemorySuite, SegmentCreateWriteRead) {
  const auto segment = client_->create_segment(256);
  ASSERT_TRUE(segment.ok());
  EXPECT_EQ(client_->segment_size(segment.value()).value(), 256u);
  const Buffer code = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(client_->write(segment.value(), 16, code).ok());
  EXPECT_EQ(client_->read(segment.value(), 16, 4).value(), code);
  EXPECT_EQ(client_->read(segment.value(), 0, 4).value(), Buffer(4, 0));
}

TEST_F(MemorySuite, SegmentBoundsEnforced) {
  const auto segment = client_->create_segment(32);
  ASSERT_TRUE(segment.ok());
  EXPECT_EQ(client_->write(segment.value(), 30, Buffer(4)).error(),
            ErrorCode::invalid_argument);
  EXPECT_EQ(client_->read(segment.value(), 33, 1).error(),
            ErrorCode::invalid_argument);
  // Read at the boundary truncates cleanly.
  EXPECT_EQ(client_->read(segment.value(), 30, 10).value().size(), 2u);
}

TEST_F(MemorySuite, MemoryLimitEnforcedAndReclaimed) {
  const auto big = client_->create_segment(1 << 15);
  ASSERT_TRUE(big.ok());
  const auto second = client_->create_segment(1 << 15);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(client_->create_segment(1).error(), ErrorCode::no_space);
  ASSERT_TRUE(client_->delete_segment(big.value()).ok());
  EXPECT_TRUE(client_->create_segment(1).ok());
  EXPECT_EQ(server_->memory_in_use(), (1u << 15) + 1u);
}

TEST_F(MemorySuite, MakeProcessFromSegments) {
  // "The parent process will normally repeat this cycle, creating and
  // loading segments ... for example, text, data, and stack segments."
  std::array<core::Capability, 3> segments;
  for (auto& cap : segments) {
    auto created = client_->create_segment(128);
    ASSERT_TRUE(created.ok());
    cap = created.value();
  }
  ASSERT_TRUE(client_->write(segments[0], 0, Buffer{'t', 'e', 'x', 't'}).ok());
  const auto process = client_->make_process(segments);
  ASSERT_TRUE(process.ok());
  const auto info = client_->process_info(process.value());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().state, ProcessState::constructed);
  EXPECT_EQ(info.value().segment_count, 3u);
}

TEST_F(MemorySuite, ProcessLifecycle) {
  const auto segment = client_->create_segment(64);
  const std::array<core::Capability, 1> segs = {segment.value()};
  const auto process = client_->make_process(segs);
  ASSERT_TRUE(process.ok());
  ASSERT_TRUE(client_->start(process.value()).ok());
  EXPECT_EQ(client_->process_info(process.value()).value().state,
            ProcessState::running);
  ASSERT_TRUE(client_->stop(process.value()).ok());
  EXPECT_EQ(client_->process_info(process.value()).value().state,
            ProcessState::stopped);
  ASSERT_TRUE(client_->delete_process(process.value()).ok());
  EXPECT_EQ(client_->process_info(process.value()).error(),
            ErrorCode::no_such_object);
}

TEST_F(MemorySuite, MakeProcessRejectsForeignOrForgedSegments) {
  const auto segment = client_->create_segment(64);
  core::Capability forged = segment.value();
  forged.check = CheckField(forged.check.value() ^ 2);
  const std::array<core::Capability, 1> segs = {forged};
  EXPECT_EQ(client_->make_process(segs).error(), ErrorCode::bad_capability);
}

TEST_F(MemorySuite, ProcessOpsRejectSegmentCaps) {
  const auto segment = client_->create_segment(64);
  EXPECT_EQ(client_->start(segment.value()).error(),
            ErrorCode::invalid_argument);
  const std::array<core::Capability, 1> segs = {segment.value()};
  const auto process = client_->make_process(segs);
  EXPECT_EQ(client_->read(process.value(), 0, 1).error(),
            ErrorCode::invalid_argument);
}

TEST_F(MemorySuite, RemoteChildCreation) {
  // "By directing the CREATE SEGMENT requests to a memory server on a
  // remote machine, the parent can create the child wherever it wants to."
  net::Machine& remote = net_.add_machine("remote-host");
  Rng rng(43);
  MemoryServer remote_server(remote, Port(0x3E4),
                             core::make_scheme(core::SchemeKind::encrypted, rng),
                             9, 1 << 16);
  remote_server.start();
  MemoryClient remote_client(*transport_, remote_server.put_port());

  const auto text = remote_client.create_segment(128);
  ASSERT_TRUE(text.ok());
  ASSERT_TRUE(remote_client.write(text.value(), 0, Buffer{'c', 'o', 'd', 'e'})
                  .ok());
  const std::array<core::Capability, 1> segs = {text.value()};
  const auto child = remote_client.make_process(segs);
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE(remote_client.start(child.value()).ok());
  EXPECT_EQ(remote_client.process_info(child.value()).value().state,
            ProcessState::running);
  // Segment caps from one memory server are meaningless at another, even
  // when the object numbers collide (the local secret differs).
  ASSERT_TRUE(client_->create_segment(16).ok());  // occupy local object 0
  const auto foreign = client_->make_process(segs);
  ASSERT_FALSE(foreign.ok());
  EXPECT_TRUE(foreign.error() == ErrorCode::bad_capability ||
              foreign.error() == ErrorCode::no_such_object);
}

TEST_F(MemorySuite, ElectronicDisk) {
  // "An electronic disk of the required size is created using CREATE
  // SEGMENT, and then can be read and written, either by local or remote
  // processes using READ and WRITE."
  const auto disk = client_->create_segment(4096);
  ASSERT_TRUE(disk.ok());
  // A second "process" on another machine uses the same capability.
  rpc::Transport other_transport(net_.add_machine("other"), 8);
  MemoryClient other(other_transport, server_->put_port());
  ASSERT_TRUE(other.write(disk.value(), 1000, Buffer{42}).ok());
  EXPECT_EQ(client_->read(disk.value(), 1000, 1).value(), Buffer{42});
}

TEST_F(MemorySuite, OverflowingOffsetsAndSizesRejected) {
  // Client-controlled 64-bit parameters must not wrap the bounds checks:
  // a write at offset 2^64-8 or a segment of size 2^64-1 is an error
  // reply, not memory corruption or a dead server process.
  const auto segment = client_->create_segment(64);
  ASSERT_TRUE(segment.ok());
  const Buffer data(16, 0xAB);
  EXPECT_EQ(client_->write(segment.value(),
                           ~std::uint64_t{0} - 8, data).error(),
            ErrorCode::invalid_argument);
  EXPECT_EQ(client_->create_segment(~std::uint64_t{0}).error(),
            ErrorCode::no_space);
  // The server survived both: normal traffic still works and the budget
  // was not inflated by the rejected creation.
  EXPECT_TRUE(client_->write(segment.value(), 0, data).ok());
  EXPECT_EQ(server_->memory_in_use(), 64u);
}

TEST_F(MemorySuite, ReadOnlySegmentDelegation) {
  const auto segment = client_->create_segment(64);
  ASSERT_TRUE(client_->write(segment.value(), 0, Buffer{7}).ok());
  const auto read_only =
      rpc::std_restrict(*transport_, segment.value(), core::rights::kRead);
  ASSERT_TRUE(read_only.ok());
  EXPECT_TRUE(client_->read(read_only.value(), 0, 1).ok());
  EXPECT_EQ(client_->write(read_only.value(), 0, Buffer{8}).error(),
            ErrorCode::permission_denied);
}

}  // namespace
}  // namespace amoeba::kernel
