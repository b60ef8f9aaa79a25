#include "netio/wire.h"

#include "obs/metrics.h"

namespace cs::netio {
namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  out.push_back(static_cast<std::uint8_t>(value >> 24));
  out.push_back(static_cast<std::uint8_t>(value >> 16));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value));
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
  return (static_cast<std::uint32_t>(in[at]) << 24) |
         (static_cast<std::uint32_t>(in[at + 1]) << 16) |
         (static_cast<std::uint32_t>(in[at + 2]) << 8) |
         static_cast<std::uint32_t>(in[at + 3]);
}

}  // namespace

std::vector<std::uint8_t> encode_frame(FrameKind kind, net::Ipv4 client,
                                       net::Ipv4 server,
                                       std::span<const std::uint8_t> payload,
                                       std::uint8_t attempt) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.push_back('C');
  out.push_back('S');
  out.push_back(kFrameVersion);
  out.push_back(static_cast<std::uint8_t>(kind));
  out.push_back(attempt);
  put_u32(out, client.value());
  put_u32(out, server.value());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::optional<Frame> decode_frame(std::span<const std::uint8_t> datagram) {
  if (datagram.size() < kFrameHeaderSize) return std::nullopt;
  if (datagram[0] != 'C' || datagram[1] != 'S') return std::nullopt;
  if (datagram[2] != kFrameVersion) return std::nullopt;
  if (datagram[3] > static_cast<std::uint8_t>(FrameKind::kUnreachable))
    return std::nullopt;
  Frame frame;
  frame.kind = static_cast<FrameKind>(datagram[3]);
  frame.attempt = datagram[4];
  frame.client = net::Ipv4{get_u32(datagram, 5)};
  frame.server = net::Ipv4{get_u32(datagram, 9)};
  frame.payload = datagram.subspan(kFrameHeaderSize);
  return frame;
}

void set_frame_attempt(std::span<std::uint8_t> datagram,
                       std::uint8_t attempt) {
  if (datagram.size() >= kFrameHeaderSize) datagram[4] = attempt;
}

std::optional<std::uint16_t> dns_id(std::span<const std::uint8_t> payload) {
  if (payload.size() < 2) return std::nullopt;
  return static_cast<std::uint16_t>((payload[0] << 8) | payload[1]);
}

void rewrite_dns_id(std::span<std::uint8_t> payload, std::uint16_t id) {
  if (payload.size() < 2) return;
  payload[0] = static_cast<std::uint8_t>(id >> 8);
  payload[1] = static_cast<std::uint8_t>(id & 0xFF);
}

std::vector<WireCopy> wire_copies(const fault::Plan& plan,
                                  fault::Direction direction,
                                  std::uint64_t key, std::uint32_t attempt,
                                  std::span<const std::uint8_t> datagram) {
  static auto& drops = obs::counter("fault.wire.drop");
  static auto& reorders = obs::counter("fault.wire.reorder");
  static auto& dups = obs::counter("fault.wire.dup");
  static auto& delays = obs::counter("fault.wire.delay");
  static auto& corrupts = obs::counter("fault.wire.corrupt");
  const auto decision = plan.wire(direction, key, attempt, datagram.size());
  if (decision.drop) {
    drops.inc();
    return {};
  }
  if (decision.reorder) reorders.inc();
  if (decision.delay_us > 0) delays.inc();
  std::vector<std::uint8_t> bytes{datagram.begin(), datagram.end()};
  if (decision.corrupt_mask != 0) {
    corrupts.inc();
    bytes[decision.corrupt_offset] ^= decision.corrupt_mask;
  }
  std::vector<WireCopy> copies;
  if (decision.duplicate) {
    dups.inc();
    copies.push_back(WireCopy{bytes, decision.duplicate_delay_us});
  }
  copies.push_back(WireCopy{std::move(bytes), decision.delay_us});
  return copies;
}

}  // namespace cs::netio
