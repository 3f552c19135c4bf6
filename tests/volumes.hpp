// Writing a volume the way a test builds one: a group appended as one
// frame, with no group committer in between.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/record.hpp"

namespace amoeba::test {

/// Appends `appends` as one frame numbered after the log's last (durable
/// on return).
inline void append_group(storage::Backend& volume,
                         const std::vector<storage::ShardAppend>& appends) {
  Buffer frame;
  storage::encode_frame(volume.last_seq() + 1, /*checkpoint=*/false, appends,
                        frame);
  volume.append_frames(frame);
}

/// A group of one record run on `stream`.
inline void append_run(storage::Backend& volume, std::size_t stream,
                       std::span<const std::uint8_t> bytes) {
  append_group(volume, {{stream, Buffer(bytes.begin(), bytes.end())}});
}

}  // namespace amoeba::test
