#include "amoeba/storage/backend.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <exception>
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

}  // namespace

IoCounters& this_thread_io_counters() {
  // One instance per thread: the mutator asserts ITS counters stayed flat
  // while the uring reaper was doing the writing, so the counters must not
  // be shared across threads.
  thread_local IoCounters counters;
  return counters;
}

// ----------------------------------------------------------------- Backend

void Backend::append_journal_batch(std::vector<ShardAppend>&& appends) {
  // Blocking backends complete inline, so the common wait is two
  // uncontended locks.  The completion notifies under the lock: once the
  // waiter can see `done`, the completion no longer touches this frame.
  struct Wait {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::exception_ptr error;
  } wait;
  submit_append_group(std::move(appends), [w = &wait](std::exception_ptr e) {
    const std::lock_guard lock(w->mutex);
    w->error = std::move(e);
    w->done = true;
    w->cv.notify_one();
  });
  std::unique_lock lock(wait.mutex);
  wait.cv.wait(lock, [&wait] { return wait.done; });
  if (wait.error != nullptr) {
    std::rethrow_exception(wait.error);
  }
}

void Backend::append_journal(std::size_t shard,
                             std::span<const std::uint8_t> bytes) {
  std::vector<ShardAppend> group;
  group.push_back({shard, Buffer(bytes.begin(), bytes.end())});
  append_journal_batch(std::move(group));
}

// ----------------------------------------------------------- MemoryBackend

MemoryBackend::MemoryBackend(std::size_t shards) {
  check_shards(shards);
  shards_.reserve(shards + 1);
  for (std::size_t s = 0; s <= shards; ++s) {  // + the reply stream
    shards_.push_back(std::make_unique<Shard>());
  }
}

void MemoryBackend::submit_append_group(std::vector<ShardAppend>&& appends,
                                        AppendCompletion complete) {
  if (appends.empty()) {
    complete(nullptr);
    return;
  }
  std::exception_ptr error;
  try {
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
      Buffer& journal = shards_[a.shard]->journal;
      journal.insert(journal.end(), a.bytes.begin(), a.bytes.end());
    }
  } catch (...) {
    error = std::current_exception();
  }
  if (error == nullptr) {
    appends_.fetch_add(appends.size(), std::memory_order_relaxed);
    hook_after_append();
  }
  complete(error);
}

Buffer MemoryBackend::read_journal(std::size_t shard) const {
  const Shard& s = *shards_.at(shard);
  const std::lock_guard lock(s.mutex);
  return s.journal;
}

void MemoryBackend::install_snapshot(std::size_t shard,
                                     std::span<const std::uint8_t> bytes) {
  Shard& s = *shards_.at(shard);
  const std::lock_guard lock(s.mutex);
  s.snapshot.assign(bytes.begin(), bytes.end());
  if (shard != reply_stream()) {
    s.journal.clear();  // compaction: the snapshot subsumes the log
    return;
  }
  // The reply stream's snapshot is installed while appends go on
  // (rpc::Service): drop exactly the records it subsumes, as commit.log's
  // GC floor does on a file volume.
  const std::uint64_t applied = peek_snapshot_lsn(bytes);
  Buffer kept;
  for (const Record& record : decode_journal(s.journal)) {
    if (record.lsn > applied) {
      encode_record(record, kept);
    }
  }
  s.journal = std::move(kept);
}

Buffer MemoryBackend::read_snapshot(std::size_t shard) const {
  const Shard& s = *shards_.at(shard);
  const std::lock_guard lock(s.mutex);
  return s.snapshot;
}

void MemoryBackend::put_meta(std::string_view key,
                             std::span<const std::uint8_t> value) {
  const std::lock_guard lock(meta_mutex_);
  meta_[std::string(key)] = Buffer(value.begin(), value.end());
}

Buffer MemoryBackend::get_meta(std::string_view key) const {
  const std::lock_guard lock(meta_mutex_);
  const auto it = meta_.find(key);
  return it == meta_.end() ? Buffer{} : it->second;
}

std::vector<std::string> MemoryBackend::meta_keys() const {
  const std::lock_guard lock(meta_mutex_);
  std::vector<std::string> keys;
  keys.reserve(meta_.size());
  for (const auto& [key, value] : meta_) {
    keys.push_back(key);
  }
  return keys;
}

bool MemoryBackend::empty() const {
  for (const auto& shard : shards_) {
    const std::lock_guard lock(shard->mutex);
    if (!shard->journal.empty() || !shard->snapshot.empty()) {
      return false;
    }
  }
  const std::lock_guard lock(meta_mutex_);
  return meta_.empty();
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
  // Every shard lock ascending, then meta: multi-shard append groups are
  // either fully on the image or fully absent.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mutex);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    image->shards_[s]->journal = shards_[s]->journal;
    image->shards_[s]->snapshot = shards_[s]->snapshot;
  }
  {
    const std::lock_guard meta_lock(meta_mutex_);
    image->meta_ = meta_;
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

inline std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

inline std::uint64_t load_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_u32(p)) |
         static_cast<std::uint64_t>(load_u32(p + 4)) << 32;
}

/// Splits commit.log into per-stream record runs.  Stops silently at the
/// first torn, corrupt or malformed frame: a crash mid-append loses the
/// unacknowledged tail group and nothing before it.
[[nodiscard]] std::vector<Buffer> split_commit_log(
    std::span<const std::uint8_t> log, std::size_t streams) {
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
      if (a.shard < streams) {
        split[a.shard].insert(split[a.shard].end(), a.bytes.begin(),
                              a.bytes.end());
      }
    }
    pos += 8 + length;
  }
  return split;
}

}  // namespace

FileBackend::FileBackend(std::filesystem::path directory, std::size_t shards)
    : directory_(std::move(directory)),
      object_shards_(shards),
      snapshot_mutexes_(shards + 1) {
  check_shards(shards);
  std::filesystem::create_directories(directory_);
  // Formats 1 and 2 kept a journal file per stream.  A server only ever
  // left them empty; records in one come from a synchronous writer of an
  // older binary, and recovering without them would lose acknowledged
  // state.
  for (std::size_t s = 0; s <= shards; ++s) {
    const auto legacy =
        directory_ / (s == shards ? std::string("reply.journal")
                                  : "shard-" + std::to_string(s) + ".journal");
    std::error_code ec;
    if (std::filesystem::file_size(legacy, ec) > 0 && !ec) {
      throw UsageError("FileBackend: " + legacy.string() +
                       " holds per-stream journal records, which this "
                       "on-disk format does not read; refusing the volume");
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
  const off_t size = ::lseek(commit_fd_, 0, SEEK_END);
  commit_log_bytes_ = size > 0 ? static_cast<std::uint64_t>(size) : 0;
  // GC floors: a commit-log record at or below its shard's snapshot LSN is
  // already subsumed.  Seed from the on-disk snapshots so a reopened
  // volume's first GC is as effective as a long-lived one's.
  commit_floor_.assign(stream_count(), 0);
  for (std::size_t s = 0; s < commit_floor_.size(); ++s) {
    commit_floor_[s] = peek_snapshot_lsn(read_file(snapshot_path(s)));
  }
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

std::filesystem::path FileBackend::snapshot_path(std::size_t shard) const {
  if (shard == reply_stream()) {
    return directory_ / "reply.snap";
  }
  return directory_ / ("shard-" + std::to_string(shard) + ".snap");
}

std::filesystem::path FileBackend::commit_log_path() const {
  return directory_ / "commit.log";
}

namespace {

/// Filename-safe, LOSSLESS key encoding: alphanumerics and '-' pass
/// through, every other byte becomes %XX.  Reversible so meta_keys() can
/// reconstruct the original keys from a directory listing (the replication
/// resync path replays them on the backup under their true names).
[[nodiscard]] std::string escape_meta_key(std::string_view key) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string safe;
  safe.reserve(key.size());
  for (const char c : key) {
    const auto byte = static_cast<unsigned char>(c);
    if (std::isalnum(byte) != 0 || c == '-') {
      safe.push_back(c);
    } else {
      safe.push_back('%');
      safe.push_back(kHex[byte >> 4]);
      safe.push_back(kHex[byte & 0xF]);
    }
  }
  return safe;
}

[[nodiscard]] std::string unescape_meta_key(std::string_view safe) {
  std::string key;
  key.reserve(safe.size());
  for (std::size_t i = 0; i < safe.size(); ++i) {
    if (safe[i] == '%' && i + 2 < safe.size()) {
      const auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9') {
          return c - '0';
        }
        if (c >= 'A' && c <= 'F') {
          return c - 'A' + 10;
        }
        return -1;
      };
      const int hi = nibble(safe[i + 1]);
      const int lo = nibble(safe[i + 2]);
      if (hi >= 0 && lo >= 0) {
        key.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
        continue;
      }
    }
    key.push_back(safe[i]);
  }
  return key;
}

}  // namespace

std::filesystem::path FileBackend::meta_path(std::string_view key) const {
  return directory_ / ("meta-" + escape_meta_key(key) + ".bin");
}

Buffer FileBackend::read_journal(std::size_t shard) const {
  const std::lock_guard lock(commit_mutex_);
  return commit_split_locked().at(shard);
}

const std::vector<Buffer>& FileBackend::commit_split_locked() const {
  // An async subclass may still have acknowledged-to-nobody frames in
  // flight; recovery must read a log with every completed frame on it.
  quiesce_commit_locked();
  // Every write to the log (append, GC rewrite) clears the split.
  if (commit_split_.empty()) {
    commit_split_ =
        split_commit_log(read_file(commit_log_path()), stream_count());
  }
  return commit_split_;
}

void FileBackend::submit_append_group(std::vector<ShardAppend>&& appends,
                                      AppendCompletion complete) {
  std::erase_if(appends,
                [](const ShardAppend& a) { return a.bytes.empty(); });
  std::exception_ptr error;
  try {
    for (const ShardAppend& a : appends) {
      if (a.shard >= stream_count()) {
        throw UsageError("FileBackend: append to stream " +
                         std::to_string(a.shard) + " of " +
                         std::to_string(stream_count()));
      }
    }
    if (!appends.empty()) {
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
    }
  } catch (...) {
    error = std::current_exception();
  }
  complete(error);
}

void FileBackend::replace_file_durably(const std::filesystem::path& path,
                                       std::span<const std::uint8_t> bytes,
                                       const char* what) {
  const auto tmp = path.string() + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw UsageError(std::string("FileBackend: cannot open temp ") + what +
                     " in " + directory_.string());
  }
  try {
    // Content must be on the platter BEFORE the rename makes it reachable:
    // an unwritten image must never replace the durable one (the old copy
    // is the shard's only recoverable state).
    write_all(fd, bytes, directory_, what);
    fsync_or_throw(fd, directory_, what);
  } catch (...) {
    ::close(fd);
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
  ::close(fd);
  std::filesystem::rename(tmp, path);
  // The rename itself lives in the directory inode; without this fsync a
  // crash can roll the directory back to the old entry even though the
  // new file's content is safe.
  fsync_or_throw(dir_fd_, directory_, what);
}

void FileBackend::install_snapshot(std::size_t shard,
                                   std::span<const std::uint8_t> bytes) {
  const std::lock_guard lock(snapshot_mutexes_.at(shard));
  replace_file_durably(snapshot_path(shard), bytes, "snapshot");
  // Advance the commit-log GC floor (every record of this shard already in
  // the log was framed -- LSN-stamped -- before this snapshot was encoded,
  // so the snapshot subsumes them all), and rewrite the log once it has
  // grown past the threshold.  LSN gating makes the lag harmless: a stale
  // record left in the log replays as a no-op.
  const std::lock_guard commit_lock(commit_mutex_);
  commit_floor_[shard] =
      std::max(commit_floor_[shard], peek_snapshot_lsn(bytes));
  // Threshold plus a low-water doubling guard: when a rewrite barely
  // shrinks the log (other shards' records still live), the next one
  // waits until the log has doubled instead of thrashing rewrites at
  // every snapshot.
  if (commit_log_bytes_ >= kCommitLogGcBytes &&
      commit_log_bytes_ >= 2 * commit_gc_low_) {
    gc_commit_log_locked();
  }
}

void FileBackend::gc_commit_log_locked() {
  // This runs on a mutator's snapshot-install path, so it stays a linear
  // byte scan: a record's LSN sits at a fixed offset, so surviving
  // records are copied as opaque spans -- no record decode, no per-record
  // allocation.  (commit_split_locked() quiesces the ring first: the
  // rewrite swaps commit_fd_ to a fresh inode, and in-flight ring writes
  // against the old one would be silently dropped.)
  const std::vector<Buffer>& split = commit_split_locked();
  std::vector<ShardAppend> survivors;
  for (std::size_t sh = 0; sh < split.size(); ++sh) {
    const Buffer& bytes = split[sh];
    Buffer kept;
    std::size_t pos = 0;
    while (pos + 8 <= bytes.size()) {
      const std::uint32_t length = load_u32(bytes.data() + pos);
      if (length < 25 || pos + 8 + length > bytes.size()) {
        break;  // malformed tail inside a checksummed group: stop here
      }
      // Record frame: length u32 | checksum u32 | type u8 | object u32 |
      // secret u64 | lsn u64 | payload -- the LSN lives at offset 21.
      if (load_u64(bytes.data() + pos + 21) > commit_floor_[sh]) {
        const auto* from = bytes.data() + pos;
        kept.insert(kept.end(), from, from + 8 + length);
      }
      pos += 8 + length;
    }
    if (!kept.empty()) {
      survivors.push_back({sh, std::move(kept)});
    }
  }
  // Survivors collapse into ONE frame: the rewrite is an atomic whole-file
  // replacement, so per-group framing buys nothing here.  Nothing left:
  // an empty log beats an empty frame.
  Buffer rebuilt;
  if (!survivors.empty()) {
    encode_group_frame(survivors, rebuilt);
  }
  replace_file_durably(commit_log_path(), rebuilt, "commit log");
  // The O_APPEND fd still points at the replaced inode; reopen the new one.
  const int fresh = ::open(commit_log_path().c_str(),
                           O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fresh < 0) {
    throw UsageError("FileBackend: cannot reopen commit log in " +
                     directory_.string());
  }
  ::close(commit_fd_);
  commit_fd_ = fresh;
  commit_log_bytes_ = rebuilt.size();
  commit_gc_low_ = rebuilt.size();
  commit_split_.clear();
}

Buffer FileBackend::read_snapshot(std::size_t shard) const {
  const std::lock_guard lock(snapshot_mutexes_.at(shard));
  return read_file(snapshot_path(shard));
}

void FileBackend::put_meta(std::string_view key,
                           std::span<const std::uint8_t> value) {
  const std::lock_guard lock(meta_mutex_);
  // An unwritten floor image must not replace the durable one (the
  // write-ahead ordering of §8.4 depends on it); replace_file_durably
  // fsyncs the content before the rename and the directory after it.
  replace_file_durably(meta_path(key), value, "metadata");
}

Buffer FileBackend::get_meta(std::string_view key) const {
  const std::lock_guard lock(meta_mutex_);
  return read_file(meta_path(key));
}

std::vector<std::string> FileBackend::meta_keys() const {
  const std::lock_guard lock(meta_mutex_);
  std::vector<std::string> keys;
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    const auto name = entry.path().filename().string();
    if (name.starts_with("meta-") && name.ends_with(".bin")) {
      keys.push_back(unescape_meta_key(
          std::string_view(name).substr(5, name.size() - 9)));
    }
  }
  return keys;
}

bool FileBackend::empty() const {
  for (std::size_t s = 0; s < stream_count(); ++s) {
    std::error_code ec;
    if (std::filesystem::exists(snapshot_path(s), ec)) {
      return false;
    }
  }
  {
    const std::lock_guard lock(commit_mutex_);
    quiesce_commit_locked();
    if (commit_log_bytes_ > 0) {
      return false;
    }
  }
  const std::lock_guard lock(meta_mutex_);
  for (const auto& entry :
       std::filesystem::directory_iterator(directory_)) {
    const auto name = entry.path().filename().string();
    if (name.starts_with("meta-")) {
      return false;
    }
  }
  return true;
}

}  // namespace amoeba::storage
