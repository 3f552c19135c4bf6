#include "amoeba/storage/backend.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
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

/// The frame size of a state run's leading snapshot record; 0 when its
/// first record is not one.
[[nodiscard]] std::size_t image_record_size(
    std::span<const std::uint8_t> run) {
  const auto first = peek_record(run);
  return first && first->type == RecordType::snapshot ? first->size : 0;
}

/// What a scan of a whole log (header and frames) found.
struct LogScan {
  std::size_t intact = 0;  // header and whole frames before any torn bytes
  std::uint64_t last_seq = 0;
  std::vector<Buffer> streams;  // every stream's state
};

/// Scans a log.  Stops silently at the first torn, corrupt or malformed
/// frame: a crash mid-write loses the unacknowledged tail and nothing
/// before it.  A log without the format-7 header, or with an intact frame
/// that names a stream the volume lacks or breaks the numbering, is no
/// crash artifact: it throws UsageError naming `name`.
[[nodiscard]] LogScan scan_log(std::span<const std::uint8_t> log,
                               std::size_t streams, const std::string& name) {
  LogScan scan;
  scan.streams.resize(streams);
  if (log.empty()) {
    return scan;
  }
  if (!has_log_header(log)) {
    throw UsageError("storage: " + name +
                     " is not an on-disk format 7 commit log (format 6 or "
                     "older), which this format does not read; refusing the "
                     "volume");
  }
  if (log.size() < kLogHeaderBytes) {
    return scan;  // a torn first write: not even the header landed
  }
  std::string broken;
  const std::size_t walked = walk_frames(
      log.subspan(kLogHeaderBytes), streams,
      [&](const Frame& frame, std::span<const std::uint8_t>) {
        for (const ShardAppend& a : frame.appends) {
          Buffer& run = scan.streams[a.shard];
          run.insert(run.end(), a.bytes.begin(), a.bytes.end());
        }
        scan.last_seq = frame.seq;
      },
      &broken);
  if (!broken.empty()) {
    throw UsageError("storage: " + name + " holds " + broken +
                     "; refusing the volume");
  }
  scan.intact = kLogHeaderBytes + walked;
  for (Buffer& run : scan.streams) {
    run = live_records(run);
  }
  return scan;
}

}  // namespace

IoCounters& this_thread_io_counters() {
  // One instance per thread: a mutator's count must not include the
  // flusher's commit-log writes, so the counters are not shared.
  thread_local IoCounters counters;
  return counters;
}

std::uint64_t last_frame_seq(std::span<const std::uint8_t> frames) {
  // Headers only: the frames are whole, so no checksum and no decode.
  std::uint64_t last = 0;
  for (std::size_t pos = 0; pos + 16 <= frames.size();) {
    Reader r(frames.subspan(pos));
    const std::uint32_t length = r.u32();
    r.u32();
    last = r.u64();
    pos += 8 + std::size_t{length};
  }
  return last;
}

std::size_t walk_frames(
    std::span<const std::uint8_t> frames, std::size_t streams,
    const std::function<void(const Frame&, std::span<const std::uint8_t>)>&
        visit,
    std::string* broken) {
  Frame frame;
  std::uint64_t prev = 0;
  std::size_t pos = 0;
  while (pos < frames.size()) {
    const std::size_t size = decode_frame(frames.subspan(pos), frame);
    if (size == 0) {
      break;
    }
    std::string why;
    if (pos != 0 && frame.seq != prev + 1) {
      why = "frame " + std::to_string(frame.seq) + " after frame " +
            std::to_string(prev);
    }
    for (const ShardAppend& a : frame.appends) {
      if (a.shard >= streams) {
        why = "a frame naming stream " + std::to_string(a.shard) +
              ", but the volume has " + std::to_string(streams) +
              " streams (wrong shard count)";
      }
    }
    if (!why.empty()) {
      if (broken != nullptr) {
        *broken = std::move(why);
      }
      break;
    }
    visit(frame, frames.subspan(pos, size));
    prev = frame.seq;
    pos += size;
  }
  return pos;
}

// ----------------------------------------------------------------- Backend

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

MemoryBackend::MemoryBackend(std::size_t shards) : shards_(shards) {
  check_shards(shards);
}

void MemoryBackend::write(std::span<const std::uint8_t> frames,
                          bool replace) {
  {
    const std::lock_guard lock(mutex_);
    if (frames.empty() && (!replace || log_.empty())) {
      return;  // nothing written, so no barrier either
    }
    split_.reset();
    if (replace) {
      log_.clear();
    }
    if (log_.empty() && !frames.empty()) {
      encode_log_header(log_);
    }
    log_.insert(log_.end(), frames.begin(), frames.end());
    last_seq_ = last_frame_seq(frames);
  }
  appends_.fetch_add(1, std::memory_order_relaxed);
  if (!hook_set_.load(std::memory_order_acquire)) {
    return;  // fast path: no barrier armed, no lock taken
  }
  std::function<void(std::uint64_t)> hook;
  {
    const std::lock_guard lock(hook_mutex_);
    hook = hook_;
  }
  if (hook) {
    // Outside the log lock: the hook may capture() the volume.
    hook(appends_.load(std::memory_order_relaxed));
  }
}

void MemoryBackend::append_frames(std::span<const std::uint8_t> frames) {
  write(frames, /*replace=*/false);
}

void MemoryBackend::replace_log(std::span<const std::uint8_t> frames) {
  write(frames, /*replace=*/true);
}

Buffer MemoryBackend::read_log() const {
  const std::lock_guard lock(mutex_);
  return log_;
}

std::uint64_t MemoryBackend::last_seq() const {
  const std::lock_guard lock(mutex_);
  return last_seq_;
}

std::uint64_t MemoryBackend::log_bytes() const {
  const std::lock_guard lock(mutex_);
  return log_.size();
}

Buffer MemoryBackend::read_stream(std::size_t stream) const {
  const std::lock_guard lock(mutex_);
  if (!split_.has_value()) {
    split_ = scan_log(log_, stream_count(), "memory volume").streams;
  }
  return split_->at(stream);
}

void MemoryBackend::set_append_hook(std::function<void(std::uint64_t)> hook) {
  const std::lock_guard lock(hook_mutex_);
  hook_ = std::move(hook);
  hook_set_.store(hook_ != nullptr, std::memory_order_release);
}

std::shared_ptr<MemoryBackend> MemoryBackend::capture() const {
  auto image = std::make_shared<MemoryBackend>(shard_count());
  const std::lock_guard lock(mutex_);
  image->log_ = log_;
  image->last_seq_ = last_seq_;
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
  this_thread_io_counters().read_bytes += out.size();
  return out;
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
  // Scanned before anything is opened for writing: a refused log is left
  // exactly as it was.
  const Buffer log = read_file(commit_log_path());
  LogScan scan = scan_log(log, stream_count(), commit_log_path().string());
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
  // Recovery stops at the first torn or corrupt frame, so a frame appended
  // behind one would be acknowledged and then never recovered: cut the log
  // back to its intact prefix, durably, before the first append.  A torn
  // first write leaves less than the header, and the log is cut to empty.
  const std::size_t intact = scan.intact;
  if (intact < log.size()) {
    if (::ftruncate(commit_fd_, static_cast<off_t>(intact)) != 0) {
      throw UsageError("FileBackend: cannot cut the torn commit log tail in " +
                       directory_.string());
    }
    fsync_or_throw(commit_fd_, directory_, "torn tail cut");
  }
  commit_log_bytes_ = intact;
  last_seq_ = scan.last_seq;
  split_ = std::move(scan.streams);
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
  if (!split_.has_value()) {
    split_ = scan_log(read_file(commit_log_path()), stream_count(),
                      commit_log_path().string())
                 .streams;
  }
  return split_->at(stream);
}

Buffer FileBackend::read_log() const {
  const std::lock_guard lock(commit_mutex_);
  return read_file(commit_log_path());
}

std::uint64_t FileBackend::last_seq() const {
  const std::lock_guard lock(commit_mutex_);
  return last_seq_;
}

std::uint64_t FileBackend::log_bytes() const {
  const std::lock_guard lock(commit_mutex_);
  return commit_log_bytes_;
}

void FileBackend::append_frames(std::span<const std::uint8_t> frames) {
  if (frames.empty()) {
    return;
  }
  const std::lock_guard lock(commit_mutex_);
  // A first write carries the header with it: one write, no fsync more.
  Buffer first;
  if (commit_log_bytes_ == 0) {
    encode_log_header(first);
    first.insert(first.end(), frames.begin(), frames.end());
  }
  const std::span<const std::uint8_t> bytes = first.empty() ? frames : first;
  // One contiguous write and ONE fsync make the frames durable.  A
  // write-ahead append that did not reach the disk must not be reported
  // as durable -- the caller would otherwise reply to a client with an
  // effect the volume cannot recover.
  split_.reset();
  write_all(commit_fd_, bytes, directory_, "commit log");
  fsync_or_throw(commit_fd_, directory_, "commit log");
  commit_log_bytes_ += bytes.size();
  last_seq_ = last_frame_seq(frames);
}

void FileBackend::replace_log(std::span<const std::uint8_t> frames) {
  std::unique_lock lock(commit_mutex_);
  if (commit_log_bytes_ == 0) {
    lock.unlock();
    append_frames(frames);  // nothing to replace: an append (or nothing)
    return;
  }
  Buffer fresh_log;
  if (!frames.empty()) {
    encode_log_header(fresh_log);
    fresh_log.insert(fresh_log.end(), frames.begin(), frames.end());
  }
  // Write-temp + fsync + rename + directory fsync.  The content must be
  // on the platter BEFORE the rename makes it reachable, and the rename
  // itself lives in the directory inode: without the last fsync a crash
  // can roll the directory back to the old log.  A temp file a crash left
  // behind is truncated here.
  const auto tmp = commit_log_path().string() + ".tmp";
  const int fresh = ::open(tmp.c_str(),
                           O_WRONLY | O_APPEND | O_CREAT | O_TRUNC | O_CLOEXEC,
                           0644);
  if (fresh < 0) {
    throw UsageError("FileBackend: cannot open temp commit log in " +
                     directory_.string());
  }
  try {
    write_all(fresh, fresh_log, directory_, "commit log replacement");
    fsync_or_throw(fresh, directory_, "commit log replacement");
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
  split_.reset();
  fsync_or_throw(dir_fd_, directory_, "commit log replacement");
  commit_log_bytes_ = fresh_log.size();
  last_seq_ = last_frame_seq(frames);
}

}  // namespace amoeba::storage
