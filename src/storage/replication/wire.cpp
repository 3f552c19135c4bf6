#include "amoeba/storage/replication/wire.hpp"

namespace amoeba::storage {
namespace {

constexpr std::uint8_t kResyncFlag = 0x01;

}  // namespace

Buffer encode_shipment(bool resync, std::span<const std::uint8_t> frames) {
  Buffer out;
  out.reserve(1 + frames.size());
  out.push_back(resync ? kResyncFlag : 0);
  out.insert(out.end(), frames.begin(), frames.end());
  return out;
}

bool decode_shipment(std::span<const std::uint8_t> shipment, bool& resync,
                     std::span<const std::uint8_t>& frames) {
  if (shipment.empty() || (shipment[0] & ~kResyncFlag) != 0) {
    return false;
  }
  resync = (shipment[0] & kResyncFlag) != 0;
  frames = shipment.subspan(1);
  return true;
}

}  // namespace amoeba::storage
