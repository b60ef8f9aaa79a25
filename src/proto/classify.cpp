#include "proto/classify.h"

#include "proto/http.h"
#include "proto/tls.h"
#include "util/strings.h"

namespace cs::proto {
namespace {

bool payload_is_http_request(std::span<const std::uint8_t> data) {
  static constexpr std::string_view kMethods[] = {
      "GET ", "POST ", "HEAD ", "PUT ", "DELETE ", "OPTIONS ", "PATCH "};
  if (data.size() < 4) return false;
  const std::string_view head{reinterpret_cast<const char*>(data.data()),
                              std::min(data.size(), kClassifyBytes)};
  for (const auto method : kMethods)
    if (util::istarts_with(head, method)) return true;
  return false;
}

}  // namespace

std::string to_string(Service service) {
  switch (service) {
    case Service::kIcmp:
      return "ICMP";
    case Service::kHttp:
      return "HTTP (TCP)";
    case Service::kHttps:
      return "HTTPS (TCP)";
    case Service::kDns:
      return "DNS (UDP)";
    case Service::kOtherTcp:
      return "Other (TCP)";
    case Service::kOtherUdp:
      return "Other (UDP)";
  }
  return "?";
}

Service classify(const net::FiveTuple& tuple,
                 std::span<const std::uint8_t> to_responder) {
  switch (tuple.proto) {
    case net::IpProto::kIcmp:
      return Service::kIcmp;
    case net::IpProto::kTcp: {
      if (payload_is_http_request(to_responder)) return Service::kHttp;
      if (looks_like_tls(to_responder)) return Service::kHttps;
      const auto port = tuple.dst.port;
      if (port == 80 || port == 8080) return Service::kHttp;
      if (port == 443) return Service::kHttps;
      return Service::kOtherTcp;
    }
    case net::IpProto::kUdp: {
      if (tuple.dst.port == 53 || tuple.src.port == 53) return Service::kDns;
      return Service::kOtherUdp;
    }
    case net::IpProto::kOther:
      return Service::kOtherTcp;
  }
  return Service::kOtherTcp;
}

Service classify(const pcap::Flow& flow) {
  return classify(flow.tuple, flow.payload_to_responder);
}

}  // namespace cs::proto
