// io_uring-backed commit log: the async leg of group commit.
//
// FileBackend's submit_append_group blocks the flusher in write(2) +
// fsync(2) once per cycle -- on a single-core box those syscalls run ON
// the mutator's core, which is exactly the residual gap ROADMAP flags
// (grouped-file ~ grouped-memory, i.e. the disk stopped being the cost).
// UringFileBackend replaces only that path: the encoded group frame goes
// down as a chained SQE pair on a dedicated ring --
//
//   writev(commit.log frame)  [IOSQE_IO_LINK | IOSQE_IO_DRAIN]
//     `-> fdatasync           [IORING_OP_FSYNC, IORING_FSYNC_DATASYNC]
//
// -- and submit_append_group returns the moment the SQEs are on the ring.
// A reaper thread blocks in io_uring_enter(GETEVENTS), pairs up CQEs, and
// invokes the group-commit completion hook strictly in submission order:
// a ticket releases on the CQE of the linked fdatasync, never on syscall
// return (docs/PROTOCOL.md §8.5).
//
// Ordering: IOSQE_IO_DRAIN on each chain's writev serializes chains, so
// frame N+1 can never land on disk before frame N -- recovery's torn-tail
// rule assumes the log has no holes.  On any chain
// failure the reaper waits for every in-flight chain to finish, truncates
// commit.log back to the FIRST failed chain's start offset (removing any
// later frame that landed past the gap), and fails every outstanding
// completion in order; the committer latches and nothing was ever
// acknowledged optimistically.
//
// Every append goes this way: a synchronous append_journal() is a group
// of one that waits for its CQE.  Everything else -- recovery, snapshots,
// GC, metadata -- is inherited from FileBackend; the
// quiesce_commit_locked() override drains the ring before any of those
// paths read or replace commit.log.
//
// No liburing: raw io_uring_setup/io_uring_enter syscalls and hand-mmapped
// rings keep the build dependency-light, and the runtime probe
// (available()) falls back to the sync FileBackend in containers that deny
// io_uring_setup (ENOSYS/EPERM seccomp policies are common).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "amoeba/storage/backend.hpp"

struct io_uring_sqe;
struct io_uring_cqe;
struct iovec;

namespace amoeba::storage {

class UringFileBackend final : public FileBackend {
 public:
  /// Throws UsageError when the kernel denies io_uring_setup; call
  /// available() (or use make_backend) to fall back gracefully.
  explicit UringFileBackend(std::filesystem::path directory,
                            std::size_t shards = 16);
  ~UringFileBackend() override;

  void submit_append_group(std::vector<ShardAppend>&& appends,
                           AppendCompletion complete) override;
  [[nodiscard]] AsyncIoStats async_io_stats() const override;

  /// One cached runtime probe: io_uring_setup succeeds and the env knob
  /// AMOEBA_NO_URING is unset/0.  The env knob is re-read per call so CI
  /// can force the fallback path on a box whose kernel allows the ring.
  [[nodiscard]] static bool available();

  /// TEST HOOK: while true, submit_append_group stages chains (tickets
  /// issued, frames encoded, offsets claimed) WITHOUT pushing SQEs to the
  /// kernel -- the submitted-but-uncompleted state a crash test needs to
  /// hold open indefinitely.  Turning it off pushes every held chain in
  /// order.  Not for production use: quiesce/GC would wait forever on a
  /// held chain.
  void set_hold_submissions(bool hold);

 protected:
  /// Blocks (commit_mutex_ held) until the ring has no in-flight chains,
  /// so recovery reads and the GC's inode swap observe a settled log.
  void quiesce_commit_locked() const override;

 private:
  /// One submitted group: the frame bytes (kept alive until the CQE), the
  /// fd + log offset it targets (the truncate-repair point), and the two
  /// CQE slots of its writev -> fdatasync chain.
  struct Chain;

  void setup_ring();
  void teardown_ring();
  /// Pushes one chain's SQE pair and submits; ring_mutex_ held, and the
  /// caller holds commit_mutex_ (submission order = pending order).  Takes
  /// VALUES, not the Chain: once its SQEs are in the kernel a chain's CQEs
  /// can settle it and the reaper may free it at any moment, so the pusher
  /// must not touch chain memory outside pending_mutex_ (`iov` is only
  /// ever passed on to the kernel, never dereferenced here).
  void push_chain(std::uint64_t id, int fd, const iovec* iov);
  void reaper();
  /// Applies one CQE to its chain; pending_mutex_ held.
  void handle_cqe_locked(std::uint64_t user_data, std::int32_t res);
  /// Pops every settled chain off the front of pending_, in order, into
  /// `ready`; enters repair (truncate + fail-all) when the front failed.
  void drain_settled_locked(
      std::vector<std::pair<AppendCompletion, std::exception_ptr>>& ready);

  int ring_fd_ = -1;
  unsigned sq_entry_count_ = 0;
  unsigned cq_entry_count_ = 0;
  void* sq_ring_ = nullptr;
  std::size_t sq_ring_bytes_ = 0;
  void* cq_ring_ = nullptr;
  std::size_t cq_ring_bytes_ = 0;
  io_uring_sqe* sqes_ = nullptr;
  std::size_t sqes_bytes_ = 0;
  bool single_mmap_ = false;
  // Raw ring pointers into the mmapped regions (kernel-shared; accessed
  // through std::atomic_ref with acquire/release as the io_uring ABI
  // requires).
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  io_uring_cqe* cq_cqes_ = nullptr;

  /// Guards the SQ tail + io_uring_enter(submit).  Taken after
  /// commit_mutex_ on the submission path; the destructor takes it alone
  /// to push its wake-the-reaper NOP.
  std::mutex ring_mutex_;

  /// Guards pending_ / hold_ / failure state.  The reaper takes ONLY this
  /// (never commit_mutex_), which is what lets quiesce_commit_locked()
  /// wait on it while holding commit_mutex_ without deadlock.
  mutable std::mutex pending_mutex_;
  mutable std::condition_variable pending_cv_;  // reaper -> quiesce/dtor
  std::deque<std::unique_ptr<Chain>> pending_;  // FIFO by submission
  std::uint64_t next_chain_id_ = 0;
  bool hold_ = false;
  bool failed_ = false;     // ring latched after an I/O error
  std::string failure_;     // first error, reported to later submitters
  std::atomic<bool> stopping_{false};

  // Monotone counters for async_io_stats(); relaxed everywhere (they are
  // statistics -- readers need freshness, not ordering with the I/O they
  // count).
  std::atomic<std::uint64_t> sqe_submitted_{0};
  std::atomic<std::uint64_t> cqe_completed_{0};

  std::thread reaper_;  // last member: started after the state above
};

/// The --backend knob, end to end: servers, cluster nodes, benches and
/// tests all pick a volume flavor through this one factory.
enum class BackendKind : std::uint8_t { memory, file, uring };

[[nodiscard]] std::string_view to_string(BackendKind kind);
/// Parses "memory" | "file" | "uring"; throws UsageError otherwise.
[[nodiscard]] BackendKind parse_backend_kind(std::string_view name);

/// Builds a volume of `kind` at `directory` (ignored for memory).  `uring`
/// falls back TRANSPARENTLY to the sync FileBackend when the probe fails
/// -- same directory layout, same recovery, just blocking syscalls -- so
/// a deployment can pin --backend=uring and still boot inside a container
/// that denies io_uring_setup.
[[nodiscard]] std::shared_ptr<Backend> make_backend(
    BackendKind kind, const std::filesystem::path& directory,
    std::size_t shards = 16);

}  // namespace amoeba::storage
