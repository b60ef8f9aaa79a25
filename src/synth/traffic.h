#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pcap/packet.h"
#include "synth/world.h"

/// Synthesizes the campus packet capture of §2.1/§3: one week of
/// university-initiated traffic to EC2 and Azure, written as real
/// Ethernet/IP/TCP/UDP/ICMP packets (HTTP messages and TLS handshakes
/// included) so the analysis pipeline decodes it exactly as Bro did.
///
/// Calibration targets (relative shape, scaled to `total_web_bytes`):
///  - Table 1: EC2 81.7% / Azure 18.3% of bytes;
///  - Table 2: per-cloud protocol mix (EC2 HTTPS-heavy, Azure HTTP-heavy,
///    Azure's UDP flow bulge);
///  - Table 5: Dropbox-like HTTPS elephant at ~68% of web bytes plus the
///    named top-15 per cloud;
///  - Table 6: content-type mix by Content-Length;
///  - Figure 3: heavy-tailed flow counts/sizes, HTTPS flows larger than
///    HTTP flows.
///
/// Emitted wire bytes per flow are capped (huge objects carry a truncated
/// body while Content-Length reports the logical size), so absolute GB
/// differ from the paper's 1.4 TB but every share and distribution shape
/// is preserved. See DESIGN.md for this substitution's rationale.
namespace cs::synth {

struct TrafficConfig {
  std::uint64_t seed = 77;
  /// Capture start: Tue Jun 26 2012 00:00 UTC, as in the paper.
  double start_time = 1340668800.0;
  double duration_sec = 7 * 86400.0;
  /// Total HTTP+HTTPS wire bytes to emit across both clouds.
  std::uint64_t total_web_bytes = 48ull * 1024 * 1024;
  /// Per-flow cap on emitted response payload (keeps packet counts sane).
  std::size_t emitted_flow_cap = 256 * 1024;
};

/// A cloud-hosted traffic endpoint the generator can aim flows at.
struct TrafficEndpoint {
  std::string domain;    ///< registered domain ("dropbox.com")
  std::string hostname;  ///< Host header / SNI ("client1.dropbox.com")
  std::string cert_cn;   ///< certificate CN ("*.dropbox.com")
  net::Ipv4 ip;
  cloud::ProviderKind provider = cloud::ProviderKind::kEc2;
  bool in_alexa = false;  ///< whether the domain exists in the World
};

class TrafficGenerator {
 public:
  /// Launches the paper's named heavy-hitter tenants (dropbox.com,
  /// atdmt.com, ...) into the generator's own copies of the world's
  /// providers; the world itself is never modified.
  TrafficGenerator(const World& world, TrafficConfig config);

  /// The most frames one batch of generate_batches carries.
  static constexpr std::size_t kBatchFrames = 8192;

  /// Receives one batch of a unit; `unit_ends` marks the unit's last.
  using BatchSink =
      std::function<void(std::vector<pcap::Packet>&& batch, bool unit_ends)>;

  /// The capture as a sequence of units — each web endpoint's flows, then
  /// both clouds' non-web flows as one final unit — each delivered as
  /// time-ordered batches of at most kBatchFrames frames (an empty unit
  /// as one empty batch). Every canonical five-tuple lives inside exactly
  /// one unit: each endpoint owns a freshly launched server IP, and the
  /// non-web unit's servers are disjoint from the web ports. A unit's
  /// flows are drawn first, with every random draw, into per-packet
  /// plans of 16 bytes that are sorted by timestamp; frames are then
  /// built one batch at a time, in parallel, and die when the sink
  /// returns, so memory holds the plans of a few units and one batch of
  /// frames. The frames are the same at every CS_THREADS. Returns the
  /// total packet count.
  std::size_t generate_batches(const BatchSink& sink);

  /// generate_batches with each unit's batches joined into one
  /// time-sorted vector per unit.
  std::size_t generate_units(
      const std::function<void(std::vector<pcap::Packet>&&)>& sink);

  /// The full capture in one vector, sorted by timestamp.
  std::vector<pcap::Packet> generate();

  /// Writes straight to a pcap file.
  void generate_to_file(const std::string& path);

  /// The endpoints the generator aims at (exposed for tests).
  const std::vector<TrafficEndpoint>& endpoints() const noexcept {
    return endpoints_;
  }

 private:
  void setup_endpoints();
  TrafficEndpoint make_endpoint(const std::string& domain,
                                const std::string& host_prefix,
                                cloud::ProviderKind provider,
                                const std::string& region, bool in_alexa);

  const World& world_;
  /// Copies of the world's providers: the tenants launch here, and
  /// non-web flows sample servers from here.
  cloud::Provider ec2_;
  cloud::Provider azure_;
  TrafficConfig config_;
  std::vector<TrafficEndpoint> endpoints_;
  /// Parallel to endpoints_: target share of total web bytes.
  std::vector<double> byte_shares_;
  /// Whether the endpoint's flows are HTTPS (vs HTTP).
  std::vector<bool> https_;
};

}  // namespace cs::synth
