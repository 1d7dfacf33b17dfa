#include "net/packet.hpp"

#include <cstring>
#include <stdexcept>

namespace anton::net {

PacketPtr allocatePacket() { return PacketPtr::make(packetPool()); }

PayloadPtr makePayload(const void* data, std::size_t size) {
  if (size > kMaxPayloadBytes)
    throw std::length_error("packet payload exceeds 256 bytes");
  auto buf = util::PoolRef<PayloadBuf>::make(payloadPool(), size);
  if (size != 0) std::memcpy(buf->data(), data, size);
  return buf;
}

PayloadPtr makeZeroPayload(std::size_t size) {
  if (size > kMaxPayloadBytes)
    throw std::length_error("packet payload exceeds 256 bytes");
  return util::PoolRef<PayloadBuf>::make(payloadPool(), size);
}

}  // namespace anton::net
