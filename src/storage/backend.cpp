#include "amoeba/storage/backend.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>

#include "amoeba/common/error.hpp"
#include "amoeba/storage/record.hpp"

namespace amoeba::storage {
namespace {

void check_shards(std::size_t shards) {
  if (shards == 0) {
    throw UsageError("storage::Backend: need at least one shard");
  }
}

/// The frame size of a normal-form run's leading snapshot record; 0 when
/// its first record is not one.
[[nodiscard]] std::size_t image_record_size(
    std::span<const std::uint8_t> run) {
  const auto first = peek_record(run);
  return first && first->type == RecordType::snapshot ? first->size : 0;
}

}  // namespace

IoCounters& this_thread_io_counters() {
  // One instance per thread: a mutator's count must not include the
  // flusher's commit-log writes, so the counters are not shared.
  thread_local IoCounters counters;
  return counters;
}

// ----------------------------------------------------------------- Backend

void Backend::append_journal(std::size_t shard,
                             std::span<const std::uint8_t> bytes) {
  std::vector<ShardAppend> group;
  group.push_back({shard, Buffer(bytes.begin(), bytes.end())});
  append_journal_batch(std::move(group));
}

Buffer Backend::read_snapshot(std::size_t stream) const {
  const Buffer run = read_stream(stream);
  const std::size_t size = image_record_size(run);
  if (size == 0) {
    return {};
  }
  // Record frame: length u32 | checksum u32 | type u8 | object u32 |
  // secret u64 | lsn u64 | payload (u32 length + bytes).
  const std::span<const std::uint8_t> record(run.data(), size);
  Reader r(record.subspan(8 + 21));
  return r.bytes();
}

Buffer Backend::read_journal(std::size_t stream) const {
  Buffer run = read_stream(stream);
  run.erase(run.begin(), run.begin() + static_cast<std::ptrdiff_t>(
                                           image_record_size(run)));
  return run;
}

// ----------------------------------------------------------- MemoryBackend

MemoryBackend::MemoryBackend(std::size_t shards) {
  check_shards(shards);
  shards_.reserve(shards + 1);
  for (std::size_t s = 0; s <= shards; ++s) {  // + the reply stream
    shards_.push_back(std::make_unique<Shard>());
  }
}

void MemoryBackend::append_journal_batch(std::vector<ShardAppend>&& appends) {
  if (appends.empty()) {
    return;
  }
  {
    // All involved shard locks held together (ascending order, matching
    // capture()), so a crash image contains the whole group or none of it.
    std::vector<std::size_t> order;
    order.reserve(appends.size());
    for (const ShardAppend& a : appends) {
      order.push_back(a.shard);
    }
    std::sort(order.begin(), order.end());
    order.erase(std::unique(order.begin(), order.end()), order.end());
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(order.size());
    for (const std::size_t s : order) {
      locks.emplace_back(shards_.at(s)->mutex);
    }
    for (const ShardAppend& a : appends) {
      Buffer& records = shards_[a.shard]->records;
      records.insert(records.end(), a.bytes.begin(), a.bytes.end());
      if (holds_snapshot(a.bytes)) {
        records = live_records(records);
      }
    }
  }
  appends_.fetch_add(appends.size(), std::memory_order_relaxed);
  hook_after_append();
}

Buffer MemoryBackend::read_stream(std::size_t stream) const {
  const Shard& s = *shards_.at(stream);
  const std::lock_guard lock(s.mutex);
  return live_records(s.records);
}

bool MemoryBackend::empty() const {
  for (const auto& shard : shards_) {
    const std::lock_guard lock(shard->mutex);
    if (!shard->records.empty()) {
      return false;
    }
  }
  return true;
}

void MemoryBackend::set_append_hook(std::function<void(std::uint64_t)> hook) {
  const std::lock_guard lock(hook_mutex_);
  hook_ = std::move(hook);
  hook_set_.store(hook_ != nullptr, std::memory_order_release);
}

void MemoryBackend::hook_after_append() {
  if (!hook_set_.load(std::memory_order_acquire)) {
    return;  // fast path: no barrier armed, no lock taken
  }
  std::function<void(std::uint64_t)> hook;
  {
    const std::lock_guard lock(hook_mutex_);
    hook = hook_;
  }
  if (hook) {
    // Outside every shard lock: the hook may capture() the volume.
    hook(appends_.load(std::memory_order_relaxed));
  }
}

std::shared_ptr<MemoryBackend> MemoryBackend::capture() const {
  auto image = std::make_shared<MemoryBackend>(shard_count());
  // Every shard lock ascending: multi-shard append groups are either fully
  // on the image or fully absent.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mutex);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    image->shards_[s]->records = shards_[s]->records;
  }
  image->appends_.store(appends_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  return image;
}

// ------------------------------------------------------------- FileBackend

namespace {

/// Loops write(2) until every byte is on the fd (short writes, EINTR).
void write_all(int fd, std::span<const std::uint8_t> bytes,
               const std::filesystem::path& dir, const char* what) {
  ++this_thread_io_counters().writes;
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw UsageError(std::string("FileBackend: ") + what + " write failed (" +
                       std::strerror(errno) + ") in " + dir.string());
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsync_or_throw(int fd, const std::filesystem::path& dir,
                    const char* what) {
  ++this_thread_io_counters().fsyncs;
  if (::fsync(fd) != 0) {
    throw UsageError(std::string("FileBackend: ") + what + " fsync failed (" +
                     std::strerror(errno) + ") in " + dir.string());
  }
}

[[nodiscard]] Buffer read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return {};
  }
  const std::streamsize size = std::max<std::streamsize>(in.tellg(), 0);
  Buffer out(static_cast<std::size_t>(size));
  in.seekg(0);
  if (size > 0) {
    in.read(reinterpret_cast<char*>(out.data()), size);
  }
  return out;
}

// commit.log is a run of group frames (storage/record.hpp's
// encode_group_frame) whose runs are already-framed journal records.  The
// checksum covers the WHOLE body, so a group is on the recovered volume
// entirely or not at all.
constexpr std::uint64_t kCommitLogGcBytes = std::uint64_t{8} << 20;

/// Splits commit.log into per-stream live runs (normal form).  A run that
/// brings a snapshot record reduces its stream at once, so the split never
/// holds a superseded image.  Stops silently at the first torn, corrupt or
/// malformed frame: a crash mid-append loses the unacknowledged tail group
/// and nothing before it.  `intact`, when non-null, receives the byte
/// length of the frames before that point.  An intact group naming a
/// stream the volume lacks is no crash artifact but a volume written with
/// another shard count: it throws UsageError naming `path`.
[[nodiscard]] std::vector<Buffer> split_commit_log(
    std::span<const std::uint8_t> log, std::size_t streams,
    const std::filesystem::path& path, std::size_t* intact = nullptr) {
  std::vector<Buffer> split(streams);
  std::vector<ShardAppend> group;
  std::size_t pos = 0;
  while (pos < log.size()) {
    Reader frame(log.subspan(pos));
    const std::uint32_t length = frame.u32();
    const std::uint32_t checksum = frame.u32();
    if (!frame.ok() || frame.remaining() < length) {
      break;  // torn tail: the final group never got acknowledged
    }
    const auto body = log.subspan(pos + 8, length);
    if (frame_checksum(body) != checksum || !decode_group_body(body, group)) {
      break;
    }
    for (const ShardAppend& a : group) {
      if (a.shard >= streams) {
        throw UsageError("FileBackend: " + path.string() +
                         " holds a group naming stream " +
                         std::to_string(a.shard) + ", but the volume has " +
                         std::to_string(streams) +
                         " streams (wrong shard count); refusing the volume");
      }
    }
    for (const ShardAppend& a : group) {
      Buffer& run = split[a.shard];
      run.insert(run.end(), a.bytes.begin(), a.bytes.end());
      if (holds_snapshot(a.bytes)) {
        run = live_records(run);
      }
    }
    pos += 8 + length;
  }
  for (Buffer& run : split) {
    run = live_records(run);
  }
  if (intact != nullptr) {
    *intact = pos;
  }
  return split;
}

}  // namespace

FileBackend::FileBackend(std::filesystem::path directory, std::size_t shards)
    : directory_(std::move(directory)), object_shards_(shards) {
  check_shards(shards);
  std::filesystem::create_directories(directory_);
  // Formats 1 and 2 kept a journal file per stream, formats 1 to 3 a
  // metadata area of meta-KEY.bin blobs, and formats 1 to 4 a snapshot
  // file per stream.  A server only ever left the journals empty; records
  // in one come from a synchronous writer of an older binary, and
  // recovering without them would lose acknowledged state.  A blob is
  // format 1's unmigrated reply-floors image (dropping it would re-execute
  // requests) or a format-3 backup's applied floor.  A snapshot file holds
  // state commit.log's records no longer do.
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    const std::string name = entry.path().filename().string();
    const bool legacy = name.ends_with(".journal") || name.ends_with(".snap") ||
                        (name.starts_with("meta-") && name.ends_with(".bin"));
    std::error_code ec;
    if (legacy && std::filesystem::file_size(entry.path(), ec) > 0 && !ec) {
      throw UsageError("FileBackend: " + entry.path().string() +
                       " holds data of an older on-disk format, which this "
                       "format does not read; refusing the volume");
    }
  }
  dir_fd_ = ::open(directory_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd_ < 0) {
    throw UsageError("FileBackend: cannot open directory " +
                     directory_.string());
  }
  commit_fd_ = ::open(commit_log_path().c_str(),
                      O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (commit_fd_ < 0) {
    throw UsageError("FileBackend: cannot open commit log in " +
                     directory_.string());
  }
  // Recovery stops at the first torn or corrupt frame, so a group appended
  // behind one would be acknowledged and then never recovered: cut the log
  // back to its intact prefix, durably, before the first append.
  const Buffer log = read_file(commit_log_path());
  std::size_t intact = 0;
  commit_split_ =
      split_commit_log(log, stream_count(), commit_log_path(), &intact);
  if (intact < log.size()) {
    if (::ftruncate(commit_fd_, static_cast<off_t>(intact)) != 0) {
      throw UsageError("FileBackend: cannot cut the torn commit log tail in " +
                       directory_.string());
    }
    fsync_or_throw(commit_fd_, directory_, "torn tail cut");
  }
  commit_log_bytes_ = intact;
  // A newly created commit.log lives in the directory inode; without this
  // fsync a crash could unlink it even after its contents were
  // acknowledged durable.
  fsync_or_throw(dir_fd_, directory_, "volume open");
}

FileBackend::~FileBackend() {
  if (commit_fd_ >= 0) {
    ::close(commit_fd_);
  }
  if (dir_fd_ >= 0) {
    ::close(dir_fd_);
  }
}

std::filesystem::path FileBackend::commit_log_path() const {
  return directory_ / "commit.log";
}

Buffer FileBackend::read_stream(std::size_t stream) const {
  const std::lock_guard lock(commit_mutex_);
  return commit_split_locked().at(stream);
}

const std::vector<Buffer>& FileBackend::commit_split_locked() const {
  // Every write to the log (append, GC rewrite) clears the split.
  if (commit_split_.empty()) {
    commit_split_ = split_commit_log(read_file(commit_log_path()),
                                     stream_count(), commit_log_path());
  }
  return commit_split_;
}

void FileBackend::append_journal_batch(std::vector<ShardAppend>&& appends) {
  std::erase_if(appends,
                [](const ShardAppend& a) { return a.bytes.empty(); });
  for (const ShardAppend& a : appends) {
    if (a.shard >= stream_count()) {
      throw UsageError("FileBackend: append to stream " +
                       std::to_string(a.shard) + " of " +
                       std::to_string(stream_count()));
    }
  }
  if (appends.empty()) {
    return;
  }
  const std::lock_guard lock(commit_mutex_);
  encode_group_frame(appends, commit_frame_);
  // One contiguous write and ONE fsync make the entire group durable.
  // A write-ahead append that did not reach the disk must not be
  // reported as durable -- the caller would otherwise reply to a
  // client with an effect the volume cannot recover.
  commit_split_.clear();
  write_all(commit_fd_, commit_frame_, directory_, "commit log");
  fsync_or_throw(commit_fd_, directory_, "commit log");
  commit_log_bytes_ += commit_frame_.size();
  // Threshold plus a low-water doubling guard: when a rewrite barely
  // shrinks the log (other streams' records still live), the next one
  // waits until the log has doubled instead of thrashing rewrites.
  if (commit_log_bytes_ >= kCommitLogGcBytes &&
      commit_log_bytes_ >= 2 * commit_gc_low_) {
    gc_commit_log_locked();
  }
}

void FileBackend::gc_commit_log_locked() {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<Buffer>& split = commit_split_locked();
  std::vector<ShardAppend> survivors;
  for (std::size_t sh = 0; sh < split.size(); ++sh) {
    if (!split[sh].empty()) {
      survivors.push_back({sh, split[sh]});
    }
  }
  // Survivors collapse into ONE frame: the rewrite is an atomic whole-file
  // replacement, so per-group framing buys nothing here.  Nothing left:
  // an empty log beats an empty frame.
  Buffer rebuilt;
  if (!survivors.empty()) {
    encode_group_frame(survivors, rebuilt);
  }
  // Write-temp + fsync + rename + directory fsync.  The content must be
  // on the platter BEFORE the rename makes it reachable, and the rename
  // itself lives in the directory inode: without the last fsync a crash
  // can roll the directory back to the old log.
  const auto tmp = commit_log_path().string() + ".tmp";
  const int fresh = ::open(tmp.c_str(),
                           O_WRONLY | O_APPEND | O_CREAT | O_TRUNC | O_CLOEXEC,
                           0644);
  if (fresh < 0) {
    throw UsageError("FileBackend: cannot open temp commit log in " +
                     directory_.string());
  }
  try {
    write_all(fresh, rebuilt, directory_, "commit log rewrite");
    fsync_or_throw(fresh, directory_, "commit log rewrite");
    std::filesystem::rename(tmp, commit_log_path());
  } catch (...) {
    ::close(fresh);
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
  // The fd written above is the new log's own: it becomes the append fd.
  ::close(commit_fd_);
  commit_fd_ = fresh;
  fsync_or_throw(dir_fd_, directory_, "commit log rewrite");
  commit_log_bytes_ = rebuilt.size();
  commit_gc_low_ = rebuilt.size();
  commit_split_.clear();
  ++rewrite_stats_.rewrites;
  rewrite_stats_.rewrite_us_max = std::max<std::uint64_t>(
      rewrite_stats_.rewrite_us_max,
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

Backend::RewriteStats FileBackend::rewrite_stats() const {
  const std::lock_guard lock(commit_mutex_);
  return rewrite_stats_;
}

bool FileBackend::empty() const {
  const std::lock_guard lock(commit_mutex_);
  return commit_log_bytes_ == 0;
}

}  // namespace amoeba::storage
