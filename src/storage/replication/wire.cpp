#include "amoeba/storage/replication/wire.hpp"

#include "amoeba/storage/record.hpp"

namespace amoeba::storage {

Buffer encode_cycle_frame(std::uint64_t rep_lsn,
                          std::span<const ShardAppend> appends) {
  Writer w;
  w.u64(rep_lsn);
  Buffer body = w.take();
  encode_group_body(appends, body);
  Writer frame;
  frame.u32(static_cast<std::uint32_t>(body.size()));
  frame.u32(frame_checksum(body));
  frame.raw(body);
  return frame.take();
}

bool decode_cycle_frame(std::span<const std::uint8_t> bytes,
                        CycleFrame& out) {
  Reader header(bytes);
  const std::uint32_t length = header.u32();
  const std::uint32_t checksum = header.u32();
  if (!header.ok() || header.remaining() != length) {
    return false;  // truncated or trailing garbage: not one whole frame
  }
  const auto body = bytes.subspan(8, length);
  if (frame_checksum(body) != checksum) {
    return false;
  }
  Reader r(body);
  out.rep_lsn = r.u64();
  if (!r.ok()) {
    return false;
  }
  // The rest of the body is the append section: a commit.log group body.
  return decode_group_body(body.subspan(8), out.appends);
}

}  // namespace amoeba::storage
