#include "amoeba/storage/uring_backend.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <utility>

#include "amoeba/common/error.hpp"

#if defined(__linux__)
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>
#endif

namespace amoeba::storage {

// ---------------------------------------------------------------- factory

std::string_view to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::memory:
      return "memory";
    case BackendKind::file:
      return "file";
    case BackendKind::uring:
      return "uring";
  }
  return "?";
}

BackendKind parse_backend_kind(std::string_view name) {
  if (name == "memory") {
    return BackendKind::memory;
  }
  if (name == "file") {
    return BackendKind::file;
  }
  if (name == "uring") {
    return BackendKind::uring;
  }
  throw UsageError("unknown backend kind '" + std::string(name) +
                   "' (expected memory|file|uring)");
}

std::shared_ptr<Backend> make_backend(BackendKind kind,
                                      const std::filesystem::path& directory,
                                      std::size_t shards) {
  switch (kind) {
    case BackendKind::memory:
      return std::make_shared<MemoryBackend>(shards);
    case BackendKind::file:
      return std::make_shared<FileBackend>(directory, shards);
    case BackendKind::uring:
      // Transparent fallback: same on-disk layout either way, so a volume
      // written by one flavor always recovers under the other.
      if (UringFileBackend::available()) {
        return std::make_shared<UringFileBackend>(directory, shards);
      }
      return std::make_shared<FileBackend>(directory, shards);
  }
  throw UsageError("make_backend: bad kind");
}

// ------------------------------------------------------- non-Linux stubs

#if !defined(__linux__)

struct UringFileBackend::Chain {};

bool UringFileBackend::available() { return false; }

UringFileBackend::UringFileBackend(std::filesystem::path directory,
                                   std::size_t shards)
    : FileBackend(std::move(directory), shards) {
  throw UsageError("UringFileBackend: io_uring requires Linux");
}

UringFileBackend::~UringFileBackend() = default;
void UringFileBackend::submit_append_group(std::vector<ShardAppend>&&,
                                           AppendCompletion) {}
AsyncIoStats UringFileBackend::async_io_stats() const { return {}; }
void UringFileBackend::set_hold_submissions(bool) {}
void UringFileBackend::quiesce_commit_locked() const {}

#else  // __linux__

namespace {

int sys_io_uring_setup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, params));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete,
                       unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

/// user_data layout: chain id << 1 | (0 = writev CQE, 1 = fdatasync CQE).
/// The NOP the destructor uses to wake the reaper is the all-ones value.
constexpr std::uint64_t kWakeNop = ~std::uint64_t{0};

constexpr unsigned kRingEntries = 256;  // 128 chains outstanding, plenty

}  // namespace

struct UringFileBackend::Chain {
  std::uint64_t id = 0;
  Buffer frame;            // the encoded group frame; alive until its CQE
  struct iovec iov {};     // points into `frame`
  int fd = -1;             // commit_fd_ at submit time
  std::uint64_t offset = 0;  // log size before this frame (repair point)
  AppendCompletion complete;
  bool pushed = false;       // SQE pair is on the ring
  bool write_done = false;
  bool fsync_done = false;
  std::int32_t write_res = 0;
  std::int32_t fsync_res = 0;
};

bool UringFileBackend::available() {
  // The env knob wins even where the kernel cooperates: CI's forced-
  // fallback run and the bench's contrast mode both set it.
  if (const char* no = std::getenv("AMOEBA_NO_URING");
      no != nullptr && no[0] != '\0' && !(no[0] == '0' && no[1] == '\0')) {
    return false;
  }
  static const bool probed = [] {
    io_uring_params params{};
    const int fd = sys_io_uring_setup(4, &params);
    if (fd < 0) {
      return false;  // ENOSYS (old kernel) or EPERM (container seccomp)
    }
    ::close(fd);
    return true;
  }();
  return probed;
}

UringFileBackend::UringFileBackend(std::filesystem::path directory,
                                   std::size_t shards)
    : FileBackend(std::move(directory), shards) {
  setup_ring();
  reaper_ = std::thread([this] { reaper(); });
}

UringFileBackend::~UringFileBackend() {
  // A committer always drains before destroying its backend, so pending_
  // is normally empty here.  Held (test-hook) chains never reached the
  // kernel: fail them so their completions are not silently dropped.
  std::vector<std::pair<AppendCompletion, std::exception_ptr>> orphaned;
  {
    const std::lock_guard lock(pending_mutex_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (!(*it)->pushed) {
        orphaned.emplace_back(
            std::move((*it)->complete),
            std::make_exception_ptr(UsageError(
                "UringFileBackend: destroyed with held submissions")));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& [complete, error] : orphaned) {
    if (complete) {
      complete(error);
    }
  }
  stopping_.store(true, std::memory_order_release);
  {
    // One NOP pops the reaper out of its GETEVENTS wait.
    const std::lock_guard lock(ring_mutex_);
    const unsigned tail = sq_tail_ != nullptr ? *sq_tail_ : 0;
    if (sqes_ != nullptr) {
      io_uring_sqe& sqe = sqes_[tail & sq_mask_];
      std::memset(&sqe, 0, sizeof(sqe));
      sqe.opcode = IORING_OP_NOP;
      sqe.user_data = kWakeNop;
      sq_array_[tail & sq_mask_] = tail & sq_mask_;
      std::atomic_ref<unsigned>(*sq_tail_).store(tail + 1,
                                                 std::memory_order_release);
      (void)sys_io_uring_enter(ring_fd_, 1, 0, 0);
    }
  }
  if (reaper_.joinable()) {
    reaper_.join();
  }
  teardown_ring();
}

void UringFileBackend::setup_ring() {
  io_uring_params params{};
  ring_fd_ = sys_io_uring_setup(kRingEntries, &params);
  if (ring_fd_ < 0) {
    throw UsageError(std::string("UringFileBackend: io_uring_setup failed (") +
                     std::strerror(errno) + ")");
  }
  sq_entry_count_ = params.sq_entries;
  cq_entry_count_ = params.cq_entries;
  sq_ring_bytes_ = params.sq_off.array + params.sq_entries * sizeof(unsigned);
  cq_ring_bytes_ =
      params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
  single_mmap_ = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap_) {
    sq_ring_bytes_ = cq_ring_bytes_ = std::max(sq_ring_bytes_, cq_ring_bytes_);
  }
  const auto ring_mmap = [&](std::size_t bytes, std::uint64_t off) -> void* {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, ring_fd_,
                     static_cast<off_t>(off));
    return p == MAP_FAILED ? nullptr : p;
  };
  sq_ring_ = ring_mmap(sq_ring_bytes_, IORING_OFF_SQ_RING);
  cq_ring_ = single_mmap_ ? sq_ring_
                          : ring_mmap(cq_ring_bytes_, IORING_OFF_CQ_RING);
  sqes_bytes_ = params.sq_entries * sizeof(io_uring_sqe);
  sqes_ = static_cast<io_uring_sqe*>(ring_mmap(sqes_bytes_, IORING_OFF_SQES));
  if (sq_ring_ == nullptr || cq_ring_ == nullptr || sqes_ == nullptr) {
    teardown_ring();
    throw UsageError("UringFileBackend: ring mmap failed");
  }
  auto* sq = static_cast<std::uint8_t*>(sq_ring_);
  sq_head_ = reinterpret_cast<unsigned*>(sq + params.sq_off.head);
  sq_tail_ = reinterpret_cast<unsigned*>(sq + params.sq_off.tail);
  sq_mask_ = *reinterpret_cast<unsigned*>(sq + params.sq_off.ring_mask);
  sq_array_ = reinterpret_cast<unsigned*>(sq + params.sq_off.array);
  auto* cq = static_cast<std::uint8_t*>(cq_ring_);
  cq_head_ = reinterpret_cast<unsigned*>(cq + params.cq_off.head);
  cq_tail_ = reinterpret_cast<unsigned*>(cq + params.cq_off.tail);
  cq_mask_ = *reinterpret_cast<unsigned*>(cq + params.cq_off.ring_mask);
  cq_cqes_ = reinterpret_cast<io_uring_cqe*>(cq + params.cq_off.cqes);
}

void UringFileBackend::teardown_ring() {
  if (sqes_ != nullptr) {
    ::munmap(sqes_, sqes_bytes_);
    sqes_ = nullptr;
  }
  if (cq_ring_ != nullptr && !single_mmap_) {
    ::munmap(cq_ring_, cq_ring_bytes_);
  }
  cq_ring_ = nullptr;
  if (sq_ring_ != nullptr) {
    ::munmap(sq_ring_, sq_ring_bytes_);
    sq_ring_ = nullptr;
  }
  if (ring_fd_ >= 0) {
    ::close(ring_fd_);
    ring_fd_ = -1;
  }
}

void UringFileBackend::push_chain(std::uint64_t id, int fd,
                                  const iovec* iov) {
  // Caller holds ring_mutex_ (and commit_mutex_ upstream, so successive
  // chains hit the SQ in pending_ order).  The committer caps in-flight
  // cycles far below kRingEntries/2, so the ring cannot fill on the
  // production path; held-then-released test chains are pushed one call
  // at a time, and io_uring_enter consumes SQEs synchronously (no
  // SQPOLL), so two free slots are always back by the time we return.
  const unsigned head =
      std::atomic_ref<unsigned>(*sq_head_).load(std::memory_order_acquire);
  unsigned tail = *sq_tail_;  // sole writer under ring_mutex_
  if (sq_entry_count_ - (tail - head) < 2) {
    throw UsageError("UringFileBackend: submission ring overflow");
  }
  io_uring_sqe& write_sqe = sqes_[tail & sq_mask_];
  std::memset(&write_sqe, 0, sizeof(write_sqe));
  write_sqe.opcode = IORING_OP_WRITEV;
  // LINK chains the fdatasync behind the write; DRAIN orders the whole
  // chain behind every previously submitted SQE, so frames land in
  // submission order and the log can tear only at its tail (§8.5).
  write_sqe.flags = IOSQE_IO_LINK | IOSQE_IO_DRAIN;
  write_sqe.fd = fd;
  write_sqe.off = ~std::uint64_t{0};  // current position; fd is O_APPEND
  write_sqe.addr = reinterpret_cast<std::uint64_t>(iov);
  write_sqe.len = 1;
  write_sqe.user_data = id << 1;
  sq_array_[tail & sq_mask_] = tail & sq_mask_;
  ++tail;
  io_uring_sqe& sync_sqe = sqes_[tail & sq_mask_];
  std::memset(&sync_sqe, 0, sizeof(sync_sqe));
  sync_sqe.opcode = IORING_OP_FSYNC;
  sync_sqe.fd = fd;
  sync_sqe.fsync_flags = IORING_FSYNC_DATASYNC;
  sync_sqe.user_data = (id << 1) | 1;
  sq_array_[tail & sq_mask_] = tail & sq_mask_;
  ++tail;
  std::atomic_ref<unsigned>(*sq_tail_).store(tail, std::memory_order_release);
  // Statistics only: relaxed is enough, readers want freshness not
  // ordering against the I/O these count.
  sqe_submitted_.fetch_add(2, std::memory_order_relaxed);
  unsigned remaining = 2;
  while (remaining > 0) {
    const int n = sys_io_uring_enter(ring_fd_, remaining, 0, 0);
    if (n >= 0) {
      remaining -= std::min(remaining, static_cast<unsigned>(n));
      continue;
    }
    if (errno == EINTR) {
      continue;
    }
    if (remaining == 2) {
      // Nothing reached the kernel: withdraw the SQE pair so the caller
      // can unstage the chain and report the failure synchronously.
      std::atomic_ref<unsigned>(*sq_tail_).store(tail - 2,
                                                 std::memory_order_release);
      sqe_submitted_.fetch_sub(2, std::memory_order_relaxed);
      throw UsageError(
          std::string("UringFileBackend: io_uring_enter failed (") +
          std::strerror(errno) + ")");
    }
    // Half a chain is inside the kernel and the other half cannot follow:
    // the fdatasync that acknowledges the frame will never run, and there
    // is no API to withdraw the consumed half.  No safe continuation.
    std::abort();
  }
}

void UringFileBackend::submit_append_group(std::vector<ShardAppend>&& appends,
                                           AppendCompletion complete) {
  std::erase_if(appends,
                [](const ShardAppend& a) { return a.bytes.empty(); });
  if (appends.empty()) {
    // Nothing to write; complete inline.  The committer's completion
    // pipeline re-orders against in-flight cycles, so an early empty
    // completion cannot leapfrog durability.
    if (complete) {
      complete(nullptr);
    }
    return;
  }
  auto chain = std::make_unique<Chain>();
  encode_group_frame(appends, chain->frame);
  chain->complete = std::move(complete);
  bool push = false;
  std::uint64_t id = 0;
  int fd = -1;
  const iovec* iov = nullptr;
  AppendCompletion fail_complete;
  std::exception_ptr error;
  {
    const std::lock_guard commit_lock(commit_mutex_);
    {
      const std::lock_guard lock(pending_mutex_);
      if (failed_) {
        error = std::make_exception_ptr(
            UsageError("UringFileBackend: ring failed earlier: " + failure_));
        fail_complete = std::move(chain->complete);
      } else {
        // EVERY access to the chain happens here, under pending_mutex_
        // (push_chain below gets values, not the Chain): the mutex is
        // what orders this thread's writes against the reaper's eventual
        // free of the chain -- the kernel's SQE->CQE path orders the
        // free in time, but the memory model cannot see it.
        chain->id = next_chain_id_++;
        chain->fd = commit_fd_;
        chain->offset = commit_log_bytes_;
        chain->iov = {chain->frame.data(), chain->frame.size()};
        commit_log_bytes_ += chain->frame.size();
        commit_split_.clear();
        push = !hold_;
        chain->pushed = push;
        id = chain->id;
        fd = chain->fd;
        iov = &chain->iov;
        pending_.push_back(std::move(chain));
      }
    }
    if (push) {
      try {
        // Still under commit_mutex_: SQ order must equal pending_ order.
        const std::lock_guard ring_lock(ring_mutex_);
        push_chain(id, fd, iov);
      } catch (...) {
        // push_chain withdrew the SQE pair; unstage the chain (it is the
        // back -- commit_mutex_ kept later submits out) and latch.
        error = std::current_exception();
        const std::lock_guard lock(pending_mutex_);
        Chain& raw = *pending_.back();
        commit_log_bytes_ -= raw.frame.size();
        fail_complete = std::move(raw.complete);
        pending_.pop_back();
        failed_ = true;
        if (failure_.empty()) {
          failure_ = "io_uring_enter failed";
        }
      }
    }
  }
  if (error) {
    if (fail_complete) {
      fail_complete(error);
    } else {
      std::rethrow_exception(error);
    }
  }
}

void UringFileBackend::handle_cqe_locked(std::uint64_t user_data,
                                         std::int32_t res) {
  const std::uint64_t id = user_data >> 1;
  for (const auto& chain : pending_) {
    if (chain->id != id) {
      continue;
    }
    if ((user_data & 1) == 0) {
      chain->write_done = true;
      chain->write_res = res;
    } else {
      chain->fsync_done = true;
      chain->fsync_res = res;
    }
    return;
  }
  // A CQE for an unknown chain would mean the bookkeeping lost a frame;
  // ignoring it silently could mask an acknowledgement bug, but there is
  // no safe recovery either -- latch the ring instead.
  failed_ = true;
  if (failure_.empty()) {
    failure_ = "CQE for unknown chain";
  }
}

void UringFileBackend::drain_settled_locked(
    std::vector<std::pair<AppendCompletion, std::exception_ptr>>& ready) {
  // Strict FIFO: chain N's completion (and therefore the committer's
  // durable_ advance and replication ship hook) fires before N+1's, in
  // exactly the order the frames hit the log.
  while (!pending_.empty()) {
    Chain& front = *pending_.front();
    if (!front.pushed || !front.write_done || !front.fsync_done) {
      return;  // head still in flight; later settled chains must wait
    }
    const bool wrote_all =
        front.write_res == static_cast<std::int32_t>(front.frame.size());
    if (wrote_all && front.fsync_res == 0) {
      ready.emplace_back(std::move(front.complete), nullptr);
      pending_.pop_front();
      continue;
    }
    // Failure repair.  Every chain behind the head keeps its CQEs coming
    // (DRAIN orders, it does not cancel), so wait for all of them before
    // touching the file.
    for (const auto& chain : pending_) {
      if (chain->pushed && (!chain->write_done || !chain->fsync_done)) {
        return;  // reap the rest first; we re-enter with all settled
      }
    }
    const int err = front.write_res < 0   ? -front.write_res
                    : front.fsync_res < 0 ? -front.fsync_res
                                          : EIO;
    failed_ = true;
    failure_ = std::string("commit log chain failed (") +
               std::strerror(err) + ") in " + directory().string();
    // Later frames may have landed beyond the failed one's gap; a
    // recovery walk would read them as valid and replay records whose
    // predecessors are missing.  Truncating back to the first failed
    // chain's start offset removes the gap and everything after it --
    // all of it unacknowledged, so nothing durable is lost.
    if (::ftruncate(front.fd, static_cast<off_t>(front.offset)) != 0) {
      // The log now holds frames recovery must not replay and the disk
      // refuses to remove them; no safe continuation exists.
      std::abort();
    }
    const auto error = std::make_exception_ptr(UsageError(
        "UringFileBackend: " + failure_));
    while (!pending_.empty()) {
      ready.emplace_back(std::move(pending_.front()->complete), error);
      pending_.pop_front();
    }
    return;
  }
}

void UringFileBackend::reaper() {
  std::vector<std::pair<AppendCompletion, std::exception_ptr>> ready;
  for (;;) {
    bool reaped = false;
    {
      const std::lock_guard lock(pending_mutex_);
      unsigned head = *cq_head_;  // sole consumer
      const unsigned tail =
          std::atomic_ref<unsigned>(*cq_tail_).load(std::memory_order_acquire);
      while (head != tail) {
        const io_uring_cqe& cqe = cq_cqes_[head & cq_mask_];
        if (cqe.user_data != kWakeNop) {
          cqe_completed_.fetch_add(1, std::memory_order_relaxed);
          handle_cqe_locked(cqe.user_data, cqe.res);
        }
        ++head;
        reaped = true;
      }
      std::atomic_ref<unsigned>(*cq_head_).store(head,
                                                 std::memory_order_release);
      drain_settled_locked(ready);
    }
    if (!ready.empty()) {
      // Completions run OUTSIDE pending_mutex_: they re-enter the
      // committer (durable_ advance, replication ship with ack waits)
      // and must not hold up quiesce waiters or CQE bookkeeping.
      for (auto& [complete, error] : ready) {
        if (complete) {
          complete(error);
        }
      }
      ready.clear();
      pending_cv_.notify_all();
      continue;  // completions may have taken a while; re-poll first
    }
    if (reaped) {
      pending_cv_.notify_all();
    }
    {
      const std::lock_guard lock(pending_mutex_);
      if (stopping_.load(std::memory_order_acquire) && pending_.empty()) {
        return;
      }
    }
    const int n = sys_io_uring_enter(ring_fd_, 0, 1, IORING_ENTER_GETEVENTS);
    if (n < 0 && errno != EINTR && errno != EAGAIN && errno != EBUSY) {
      // Nothing to wait on (ring torn down under us?): spin-exit rather
      // than busy-loop a broken wait.
      return;
    }
  }
}

void UringFileBackend::quiesce_commit_locked() const {
  // commit_mutex_ is held by the caller; the reaper never takes it, so
  // waiting here cannot deadlock -- in-flight chains keep completing.
  std::unique_lock lock(pending_mutex_);
  pending_cv_.wait(lock, [&] { return pending_.empty() || failed_; });
}

void UringFileBackend::set_hold_submissions(bool hold) {
  struct Staged {
    std::uint64_t id;
    int fd;
    const iovec* iov;
  };
  std::vector<Staged> release;
  const std::lock_guard commit_lock(commit_mutex_);
  {
    // As in submit_append_group: chain memory is touched only under
    // pending_mutex_; push_chain gets copies.
    const std::lock_guard lock(pending_mutex_);
    hold_ = hold;
    if (!hold) {
      for (const auto& chain : pending_) {
        if (!chain->pushed) {
          chain->pushed = true;
          release.push_back({chain->id, chain->fd, &chain->iov});
        }
      }
    }
  }
  if (!release.empty()) {
    const std::lock_guard ring_lock(ring_mutex_);
    for (const Staged& staged : release) {
      push_chain(staged.id, staged.fd, staged.iov);
    }
  }
}

AsyncIoStats UringFileBackend::async_io_stats() const {
  AsyncIoStats out;
  // Relaxed loads: monotone statistics counters; see the members.
  out.sqe_submitted = sqe_submitted_.load(std::memory_order_relaxed);
  out.cqe_completed = cqe_completed_.load(std::memory_order_relaxed);
  {
    const std::lock_guard lock(pending_mutex_);
    out.inflight = pending_.size();
  }
  out.async = true;
  return out;
}

#endif  // __linux__

}  // namespace amoeba::storage
