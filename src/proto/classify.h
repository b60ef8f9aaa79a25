#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "pcap/flow.h"

/// Protocol classification of assembled flows — the breakdown behind
/// Table 2 (ICMP / HTTP / HTTPS / DNS / other TCP / other UDP).
namespace cs::proto {

enum class Service {
  kIcmp,
  kHttp,      ///< TCP with an HTTP request line (or port 80/8080 fallback)
  kHttps,     ///< TCP with a TLS handshake (or port 443 fallback)
  kDns,       ///< UDP port 53
  kOtherTcp,
  kOtherUdp,
};

std::string to_string(Service service);

/// The most bytes of a flow's initiator-to-responder payload that
/// classify() reads.
inline constexpr std::size_t kClassifyBytes = 8;

/// Classifies a flow by payload evidence first, well-known port second —
/// the same precedence Bro's detectors use. `to_responder` is the flow's
/// initiator-to-responder payload; only its first kClassifyBytes count.
Service classify(const net::FiveTuple& tuple,
                 std::span<const std::uint8_t> to_responder);

/// classify() over a flow's own payload.
Service classify(const pcap::Flow& flow);

}  // namespace cs::proto
