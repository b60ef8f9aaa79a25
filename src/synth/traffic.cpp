#include "synth/traffic.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <span>
#include <utility>

#include "exec/config.h"
#include "exec/parallel.h"
#include "exec/sharded_rng.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pcap/decode.h"
#include "pcap/file.h"
#include "proto/http.h"
#include "proto/tls.h"
#include "util/format.h"
#include "util/rng.h"

namespace cs::synth {
namespace {

using cloud::ProviderKind;

/// Capture start: Tue Jun 26 2012 00:00 UTC, as in the paper.
constexpr double kCaptureStart = 1340668800.0;
/// The paper's capture ran one week.
constexpr double kCaptureSeconds = 7 * 86400.0;
/// Per-flow cap on emitted payload bytes; it keeps packet counts sane,
/// so the largest objects appear as Content-Length only.
constexpr std::size_t kEmittedFlowCap = 256 * 1024;

/// A flow's start time, drawn uniformly over the capture week.
double capture_time(util::Rng& rng) {
  return kCaptureStart + rng.uniform01() * kCaptureSeconds;
}

/// Table 5's named tenants with their share of total HTTP(S) bytes and
/// the protocol their traffic rides on.
struct HeavyHitter {
  const char* domain;
  const char* host_prefix;
  double share_percent;
  ProviderKind provider;
  bool https;
  const char* region;
};

constexpr HeavyHitter kHeavyHitters[] = {
    // EC2 top 15.
    {"dropbox.com", "client1", 68.21, ProviderKind::kEc2, true,
     "ec2.us-east-1"},
    {"netflix.com", "movies", 1.70, ProviderKind::kEc2, false,
     "ec2.us-east-1"},
    {"truste.com", "consent", 1.06, ProviderKind::kEc2, false,
     "ec2.us-east-1"},
    {"channel3000.com", "www", 0.74, ProviderKind::kEc2, false,
     "ec2.us-east-1"},
    {"pinterest.com", "www", 0.59, ProviderKind::kEc2, false,
     "ec2.us-east-1"},
    {"adsafeprotected.com", "pixel", 0.53, ProviderKind::kEc2, false,
     "ec2.us-east-1"},
    {"zynga.com", "games", 0.44, ProviderKind::kEc2, false, "ec2.us-east-1"},
    {"sharefile.com", "files", 0.42, ProviderKind::kEc2, true,
     "ec2.us-east-1"},
    {"zoolz.com", "backup", 0.36, ProviderKind::kEc2, true, "ec2.us-east-1"},
    {"echoenabled.com", "api", 0.31, ProviderKind::kEc2, false,
     "ec2.us-east-1"},
    {"vimeo.com", "player", 0.26, ProviderKind::kEc2, false,
     "ec2.us-east-1"},
    {"foursquare.com", "api", 0.25, ProviderKind::kEc2, true,
     "ec2.us-east-1"},
    {"sourcefire.com", "updates", 0.22, ProviderKind::kEc2, true,
     "ec2.us-east-1"},
    {"instagram.com", "photos", 0.17, ProviderKind::kEc2, true,
     "ec2.us-east-1"},
    {"copperegg.com", "metrics", 0.17, ProviderKind::kEc2, false,
     "ec2.us-east-1"},
    // Azure top 15.
    {"atdmt.com", "ads", 3.10, ProviderKind::kAzure, false, "az.us-south"},
    {"msn.com", "www", 2.39, ProviderKind::kAzure, false, "az.us-south"},
    {"microsoft.com", "download", 2.26, ProviderKind::kAzure, false,
     "az.us-north"},
    {"msecnd.net", "cdn1", 1.55, ProviderKind::kAzure, false, "az.us-south"},
    {"s-msn.com", "static", 1.43, ProviderKind::kAzure, false,
     "az.us-south"},
    {"live.com", "login", 1.35, ProviderKind::kAzure, true, "az.us-north"},
    {"virtualearth.net", "tiles", 1.06, ProviderKind::kAzure, false,
     "az.us-south"},
    {"dreamspark.com", "www", 0.81, ProviderKind::kAzure, true,
     "az.us-north"},
    {"hotmail.com", "mail", 0.72, ProviderKind::kAzure, true, "az.us-south"},
    {"mesh.com", "sync", 0.52, ProviderKind::kAzure, true, "az.us-south"},
    {"wonderwall.com", "www", 0.36, ProviderKind::kAzure, false,
     "az.us-south"},
    {"msads.net", "serve", 0.29, ProviderKind::kAzure, false, "az.us-south"},
    {"aspnetcdn.com", "ajax", 0.26, ProviderKind::kAzure, false,
     "az.us-north"},
    {"windowsphone.com", "store", 0.23, ProviderKind::kAzure, true,
     "az.us-south"},
    {"windowsphone-int.com", "dev", 0.23, ProviderKind::kAzure, true,
     "az.us-south"},
};

/// Table 6 content-type plan: byte share (%), mean object KB.
struct ContentPlan {
  const char* type;
  double byte_share;
  double mean_kb;
};
constexpr ContentPlan kContentPlans[] = {
    {"text/html", 24.10, 16.0},
    {"text/plain", 23.37, 5.0},
    {"image/jpeg", 10.64, 20.0},
    {"application/x-shockwave-flash", 8.66, 36.0},
    {"application/octet-stream", 7.85, 29.0},
    {"application/pdf", 3.15, 656.0},
    {"text/xml", 3.10, 5.0},
    {"image/png", 2.94, 6.0},
    {"application/zip", 2.81, 1664.0},
    {"video/mp4", 2.21, 6578.0},
    {"application/javascript", 4.20, 10.0},
    {"text/css", 3.00, 8.0},
    {"image/gif", 3.97, 4.0},
};

constexpr std::size_t kMss = 1400;

/// Which frame sequence a flow emits (see UnitPlan::frame).
enum class FlowKind : std::uint8_t { kHttp, kHttps, kDns, kUdp, kIcmp, kTcp };

/// One flow as drawn: everything its frames are built from except their
/// timestamps, which its packets' plans carry.
struct FlowPlan {
  net::Endpoint client;
  net::Endpoint server;
  FlowKind kind = FlowKind::kTcp;
  std::uint8_t content = 0;  ///< http: the kContentPlans entry
  std::uint16_t head = 0;    ///< http: response head bytes
  std::uint32_t seq = 0;     ///< http, https: the client's first seq
  std::uint64_t content_length = 0;  ///< http: the announced length
  /// Bytes of the flow's one stream: the response body sent (http), the
  /// application bytes (https, tcp), the query (dns) or each datagram
  /// (udp).
  std::uint64_t size = 0;
  std::uint64_t reply = 0;  ///< dns: reply bytes
};

/// One packet of a unit, 16 bytes until its batch is built.
struct PacketPlan {
  double timestamp;
  std::uint32_t flow;     ///< index into the unit's flows
  std::uint32_t ordinal;  ///< which of the flow's packets, in emission order
};
static_assert(sizeof(PacketPlan) == 16);

/// Up to kMss bytes of one filler value: every synthetic body is a run of
/// one byte.
template <std::uint8_t kByte>
std::span<const std::uint8_t> filler(std::size_t n) {
  static const auto run = [] {
    std::array<std::uint8_t, kMss> bytes;
    bytes.fill(kByte);
    return bytes;
  }();
  return std::span<const std::uint8_t>{run}.first(n);
}

/// One unit as drawn: its flows, and their packets in capture order once
/// sorted. Frames are built from it a batch at a time.
struct UnitPlan {
  std::vector<FlowPlan> flows;
  std::vector<PacketPlan> packets;
  /// What every flow of a web endpoint sends alike.
  std::vector<std::uint8_t> request;
  std::vector<std::uint8_t> hello;
  std::vector<std::uint8_t> certificate;

  /// Starts a flow; its packets follow through emit().
  FlowPlan& open(FlowKind kind, net::Endpoint client, net::Endpoint server) {
    flows.push_back({.client = client, .server = server, .kind = kind});
    next_ordinal = 0;
    return flows.back();
  }

  /// The last opened flow's next packet, at `timestamp`.
  void emit(double timestamp) {
    packets.push_back({timestamp, static_cast<std::uint32_t>(flows.size() - 1),
                       next_ordinal++});
  }

  pcap::Packet frame(const PacketPlan& packet) const;

  std::uint32_t next_ordinal = 0;
};

/// Bytes [offset, offset + take) of an http flow's response: its head,
/// then a body of 'x'.
std::vector<std::uint8_t> response_bytes(const FlowPlan& flow,
                                         std::uint64_t offset,
                                         std::size_t take) {
  std::vector<std::uint8_t> bytes;
  if (offset < flow.head) {
    const auto head = proto::build_response_head(
        200, kContentPlans[flow.content].type, flow.content_length);
    const auto from = head.begin() + static_cast<std::ptrdiff_t>(offset);
    bytes.assign(from, from + static_cast<std::ptrdiff_t>(std::min(
                                  take, head.size() - offset)));
  }
  bytes.resize(take, 'x');
  return bytes;
}

pcap::Packet UnitPlan::frame(const PacketPlan& packet) const {
  using pcap::make_tcp_packet;
  using pcap::make_udp_packet;
  const FlowPlan& f = flows[packet.flow];
  const double t = packet.timestamp;
  const std::uint32_t k = packet.ordinal;
  const pcap::TcpFlags data{.ack = true, .psh = true};
  const pcap::TcpFlags fin{.ack = true, .fin = true};
  switch (f.kind) {
    case FlowKind::kHttp:
    case FlowKind::kHttps: {
      // SYN, SYN-ACK, request or ClientHello, (Certificate,) the
      // server's stream cut at kMss, FIN.
      const bool https = f.kind == FlowKind::kHttps;
      if (k == 0)
        return make_tcp_packet(t, f.client, f.server, {.syn = true}, f.seq,
                               {});
      if (k == 1)
        return make_tcp_packet(t, f.server, f.client,
                               {.syn = true, .ack = true}, 0, {});
      if (k == 2)
        return make_tcp_packet(t, f.client, f.server, data, f.seq + 1,
                               https ? hello : request);
      if (https && k == 3)
        return make_tcp_packet(t, f.server, f.client, data, 1, certificate);
      const std::uint64_t stream = https ? f.size : f.head + f.size;
      const std::uint64_t offset = std::uint64_t{k - (https ? 4u : 3u)} * kMss;
      if (offset >= stream)
        return make_tcp_packet(t, f.client, f.server, fin, f.seq + 2, {});
      const auto take =
          static_cast<std::size_t>(std::min<std::uint64_t>(kMss, stream - offset));
      if (https)
        return make_tcp_packet(t, f.server, f.client, data,
                               static_cast<std::uint32_t>(1000 + offset),
                               filler<0x5A>(take));
      return make_tcp_packet(t, f.server, f.client, data,
                             static_cast<std::uint32_t>(1 + offset),
                             response_bytes(f, offset, take));
    }
    case FlowKind::kDns:
      return k == 0 ? make_udp_packet(t, f.client, f.server,
                                      filler<0x11>(f.size))
                    : make_udp_packet(t, f.server, f.client,
                                      filler<0x22>(f.reply));
    case FlowKind::kUdp:
      return make_udp_packet(t, f.client, f.server, filler<0x33>(f.size));
    case FlowKind::kIcmp:
      return k == 0 ? pcap::make_icmp_packet(t, f.client.addr, f.server.addr,
                                             8, filler<0x44>(48))
                    : pcap::make_icmp_packet(t, f.server.addr, f.client.addr,
                                             0, filler<0x44>(48));
    case FlowKind::kTcp: {
      // SYN, SYN-ACK, the client's stream cut at kMss, FIN.
      if (k == 0)
        return make_tcp_packet(t, f.client, f.server, {.syn = true}, 1, {});
      if (k == 1)
        return make_tcp_packet(t, f.server, f.client,
                               {.syn = true, .ack = true}, 0, {});
      const std::uint64_t offset = std::uint64_t{k - 2} * kMss;
      if (offset >= f.size)
        return make_tcp_packet(t, f.client, f.server, fin,
                               static_cast<std::uint32_t>(1 + f.size), {});
      return make_tcp_packet(
          t, f.client, f.server, data, static_cast<std::uint32_t>(1 + offset),
          filler<0x55>(static_cast<std::size_t>(
              std::min<std::uint64_t>(kMss, f.size - offset))));
    }
  }
  return {};
}

}  // namespace

TrafficGenerator::TrafficGenerator(const World& world, TrafficConfig config)
    : world_(world),
      ec2_(world.ec2()),
      azure_(world.azure()),
      config_(config) {
  setup_endpoints();
}

TrafficEndpoint TrafficGenerator::make_endpoint(const std::string& domain,
                                                const std::string& host_prefix,
                                                ProviderKind provider,
                                                const std::string& region,
                                                bool in_alexa) {
  TrafficEndpoint ep;
  ep.domain = domain;
  ep.hostname = host_prefix + "." + domain;
  ep.cert_cn = "*." + domain;
  ep.provider = provider;
  ep.in_alexa = in_alexa;
  auto& cloud = provider == ProviderKind::kEc2 ? ec2_ : azure_;
  ep.ip = cloud
              .launch({.account = "traffic-" + domain,
                       .region = region,
                       .type = "web-server"})
              .public_ip;
  return ep;
}

void TrafficGenerator::setup_endpoints() {
  for (const auto& hh : kHeavyHitters) {
    const bool in_alexa = world_.domain(hh.domain) != nullptr;
    endpoints_.push_back(make_endpoint(hh.domain, hh.host_prefix,
                                       hh.provider, hh.region, in_alexa));
    byte_shares_.push_back(hh.share_percent / 100.0);
    https_.push_back(hh.https);
  }

  // Tail: EC2 gets ~6.4% of bytes, Azure ~1.7%, split zipf-style between
  // (a) cloud-using Alexa domains from the world and (b) domains only seen
  // at this vantage (the paper found half its capture domains outside the
  // Alexa top million).
  util::Rng rng{config_.seed ^ 0x7A11ULL};
  struct TailPlan {
    ProviderKind provider;
    double total_share;
    const char* region;
  };
  const TailPlan plans[] = {{ProviderKind::kEc2, 0.064, "ec2.us-east-1"},
                            {ProviderKind::kAzure, 0.017, "az.us-south"}};
  // Candidate Alexa cloud domains.
  std::vector<std::string> alexa_candidates;
  for (const auto& d : world_.domains())
    if (d.cloud_using()) alexa_candidates.push_back(d.name.to_string());

  for (const auto& plan : plans) {
    constexpr int kTailCount = 30;
    double weight_sum = 0.0;
    std::vector<double> weights;
    for (int i = 0; i < kTailCount; ++i) {
      weights.push_back(1.0 / (i + 2.0));
      weight_sum += weights.back();
    }
    for (int i = 0; i < kTailCount; ++i) {
      std::string domain;
      bool in_alexa = false;
      if (i % 2 == 0 && !alexa_candidates.empty()) {
        domain = alexa_candidates[rng.next_below(alexa_candidates.size())];
        in_alexa = true;
      } else {
        domain = util::fmt(
            "uonly{}{}.com", plan.provider == ProviderKind::kEc2 ? "e" : "a",
            i);
      }
      endpoints_.push_back(make_endpoint(domain, "www", plan.provider,
                                         plan.region, in_alexa));
      byte_shares_.push_back(plan.total_share * weights[i] / weight_sum);
      // Azure tail skews HTTPS to lift the cloud's HTTPS byte share
      // toward Table 2's 37%.
      https_.push_back(plan.provider == ProviderKind::kAzure
                           ? rng.chance(0.8)
                           : rng.chance(0.3));
    }
  }
}

std::size_t TrafficGenerator::generate_batches(const BatchSink& sink) {
  obs::Span span{"synth.traffic.generate"};
  // Every parallel unit of work (one endpoint's flows, one cloud's
  // non-web flows) draws from its own deterministic RNG stream, so the
  // capture is byte-identical at every CS_THREADS.
  const exec::ShardedRng shards{config_.seed};

  auto university_client = [](util::Rng& rng) {
    return net::Endpoint{
        net::Ipv4{128, 104, static_cast<std::uint8_t>(rng.next_below(256)),
                  static_cast<std::uint8_t>(1 + rng.next_below(250))},
        static_cast<std::uint16_t>(32768 + rng.next_below(28000))};
  };

  // Content-type pick weights by flow count: byte share / mean size.
  std::vector<double> content_weights;
  for (const auto& plan : kContentPlans)
    content_weights.push_back(plan.byte_share / plan.mean_kb);

  // The draws below are the generator's whole randomness: a flow's frames
  // are built later, from its plan, and draw nothing.
  auto plan_http_flow = [&](util::Rng& rng, UnitPlan& unit,
                            const TrafficEndpoint& ep, double start,
                            std::uint64_t& emitted, std::uint64_t budget) {
    FlowPlan& flow =
        unit.open(FlowKind::kHttp, university_client(rng), {ep.ip, 80});
    double t = start;
    flow.seq = static_cast<std::uint32_t>(rng() % 100000);
    unit.emit(t);  // SYN
    t += 0.04;
    unit.emit(t);  // SYN-ACK
    t += 0.04;
    unit.emit(t);  // request
    emitted += 54 + unit.request.size();

    const auto content = rng.weighted_pick(content_weights);
    const auto& plan = kContentPlans[content];
    // Content-Length: lognormal with the plan's mean.
    const double sigma = 1.0;
    const double mu = std::log(plan.mean_kb * 1024.0) - sigma * sigma / 2.0;
    const auto content_length =
        static_cast<std::uint64_t>(std::max(64.0, rng.lognormal(mu, sigma)));
    // Emitted body is much smaller than the logical object (the capture's
    // HTTP flows are short; Figure 3c medians ~2 KB on EC2). Azure's HTTP
    // flows run larger, which is what gives EC2 its 80% flow share.
    const double emit_median =
        ep.provider == ProviderKind::kEc2 ? 0.5 * 1024 : 5.5 * 1024;
    const double emit_sigma = ep.provider == ProviderKind::kEc2 ? 0.9 : 1.2;
    std::uint64_t emit_cap = static_cast<std::uint64_t>(
        rng.lognormal(std::log(emit_median), emit_sigma));
    emit_cap = std::min<std::uint64_t>(emit_cap, kEmittedFlowCap);
    if (budget > emitted)
      emit_cap = std::min(emit_cap, (budget - emitted) + 2048);
    flow.content = static_cast<std::uint8_t>(content);
    flow.content_length = content_length;
    flow.size = std::min(emit_cap, content_length);
    flow.head = static_cast<std::uint16_t>(
        proto::build_response_head(200, plan.type, content_length).size());
    // The response goes out in MSS-sized segments.
    const std::uint64_t response = flow.head + flow.size;
    for (std::uint64_t offset = 0; offset < response; offset += kMss) {
      t += 0.002 + rng.exponential(50.0);
      unit.emit(t);
      emitted += 54 + std::min<std::uint64_t>(kMss, response - offset);
    }
    t += 0.02;
    unit.emit(t);  // FIN
    emitted += 54 * 2;
  };

  auto plan_https_flow = [&](util::Rng& rng, UnitPlan& unit,
                             const TrafficEndpoint& ep, bool elephant,
                             double start, std::uint64_t& emitted,
                             std::uint64_t budget) {
    FlowPlan& flow =
        unit.open(FlowKind::kHttps, university_client(rng), {ep.ip, 443});
    double t = start;
    flow.seq = static_cast<std::uint32_t>(rng() % 100000);
    unit.emit(t);  // SYN
    t += 0.04;
    unit.emit(t);  // SYN-ACK
    t += 0.04;
    unit.emit(t);  // ClientHello
    t += 0.05;
    unit.emit(t);  // Certificate
    emitted += 108 + unit.hello.size() + unit.certificate.size();

    // Encrypted application bytes: elephants (storage services) push to
    // the cap; ordinary HTTPS flows are ~10 KB median.
    const double median = elephant ? 15.0 * 1024 : 12.0 * 1024;
    const double sigma = elephant ? 2.0 : 1.5;
    double want = rng.lognormal(std::log(median), sigma);
    want = std::min(want, static_cast<double>(kEmittedFlowCap));
    if (budget > emitted)
      want = std::min(want, static_cast<double>(budget - emitted) + 4096);
    flow.size = static_cast<std::size_t>(want);
    // Long-lived storage sessions: stretch gaps (still under the flow
    // table's idle timeout).
    const double gap_scale = elephant && rng.chance(0.1) ? 60.0 : 1.0;
    for (std::uint64_t offset = 0; offset < flow.size; offset += kMss) {
      t += (0.002 + rng.exponential(80.0)) * gap_scale;
      unit.emit(t);
      emitted += 54 + std::min<std::uint64_t>(kMss, flow.size - offset);
    }
    t += 0.02;
    unit.emit(t);  // FIN
    emitted += 54 * 2;
  };

  const auto by_timestamp = [](const PacketPlan& a, const PacketPlan& b) {
    return a.timestamp < b.timestamp;
  };

  // A unit reaches the sink as batches of at most kBatchFrames frames,
  // each built in parallel from its plans: only one batch of frames is
  // ever alive. A unit with no packets is one empty batch.
  std::uint64_t total_packets = 0;
  std::uint64_t total_wire_bytes = 0;
  auto deliver = [&](const UnitPlan& unit) {
    const std::size_t n = unit.packets.size();
    std::size_t begin = 0;
    do {
      const std::size_t end = std::min(n, begin + kBatchFrames);
      auto batch = exec::parallel_map(end - begin, [&](std::size_t i) {
        return unit.frame(unit.packets[begin + i]);
      });
      total_packets += batch.size();
      for (const auto& p : batch) total_wire_bytes += p.data.size();
      sink(std::move(batch), end == n);
      begin = end;
    } while (begin < n);
  };

  // --- Web traffic by byte budget -------------------------------------
  // One task per endpoint: endpoint i draws its unit's plan from RNG
  // stream i. Endpoints are planned in windows of a few pool widths, and
  // units reach the sink in endpoint order regardless of the window size.
  std::size_t ec2_web_flows = 0, azure_web_flows = 0;
  const std::size_t window =
      std::max<std::size_t>(2 * exec::thread_count(), 1);
  for (std::size_t base = 0; base < endpoints_.size(); base += window) {
    const std::size_t count = std::min(window, endpoints_.size() - base);
    auto units = exec::parallel_map(
        count,
        [&](std::size_t offset) {
          obs::Span ep_span{"synth.traffic.endpoint"};
          const std::size_t i = base + offset;
          UnitPlan unit;
          util::Rng rng = shards.stream(i);
          const auto& ep = endpoints_[i];
          if (https_[i]) {
            unit.hello = proto::build_client_hello(ep.hostname);
            unit.certificate = proto::build_certificate(ep.cert_cn);
          } else {
            unit.request =
                proto::build_request("GET", ep.hostname, "/index.html");
          }
          const auto budget = static_cast<std::uint64_t>(
              byte_shares_[i] * static_cast<double>(config_.total_web_bytes));
          const bool elephant = byte_shares_[i] > 0.05;
          std::uint64_t emitted = 0;
          while (emitted < budget) {
            const double start = capture_time(rng);
            if (https_[i])
              plan_https_flow(rng, unit, ep, elephant, start, emitted,
                              budget);
            else
              plan_http_flow(rng, unit, ep, start, emitted, budget);
          }
          // Sorted inside the task so the ordering work runs in parallel.
          // Stable: equal timestamps keep emission order, which is what
          // lets generate()'s global stable_sort reproduce the capture
          // byte for byte.
          std::stable_sort(unit.packets.begin(), unit.packets.end(),
                           by_timestamp);
          return unit;
        },
        /*grain=*/1);
    for (std::size_t offset = 0; offset < units.size(); ++offset) {
      if (endpoints_[base + offset].provider == ProviderKind::kEc2)
        ec2_web_flows += units[offset].flows.size();
      else
        azure_web_flows += units[offset].flows.size();
      deliver(units[offset]);
      units[offset] = {};
    }
  }

  // --- Non-web flows by count (Table 2 flow mix) -----------------------
  // Per-cloud totals follow from web flow counts and the web share of
  // each cloud's flows: EC2 ~77%, Azure ~72%.
  const auto ec2_total =
      static_cast<std::size_t>(ec2_web_flows / 0.7697);
  const auto azure_total =
      static_cast<std::size_t>(azure_web_flows / 0.7233);

  auto cloud_dns_servers = [&](ProviderKind kind) {
    std::vector<net::Ipv4> out;
    const auto& provider = kind == ProviderKind::kEc2 ? ec2_ : azure_;
    for (const auto& inst : provider.instances())
      if (inst.type == "dns-vm") out.push_back(inst.public_ip);
    if (out.empty()) out.push_back(endpoints_.front().ip);
    return out;
  };
  auto any_instance_ip = [&](util::Rng& rng, ProviderKind kind) {
    const auto& provider = kind == ProviderKind::kEc2 ? ec2_ : azure_;
    const auto& instances = provider.instances();
    return instances[rng.next_below(instances.size())].public_ip;
  };

  auto plan_count_flows = [&](util::Rng& rng, UnitPlan& unit,
                              ProviderKind kind, std::size_t total) {
    const auto dns_servers = cloud_dns_servers(kind);
    const double dns_frac = kind == ProviderKind::kEc2 ? 0.1033 : 0.1159;
    const double udp_frac = kind == ProviderKind::kEc2 ? 0.0019 : 0.1477;
    const double icmp_frac = kind == ProviderKind::kEc2 ? 0.0003 : 0.0018;
    const double tcp_frac = kind == ProviderKind::kEc2 ? 0.0040 : 0.0110;

    const auto n_dns = static_cast<std::size_t>(total * dns_frac);
    for (std::size_t i = 0; i < n_dns; ++i) {
      const auto client = university_client(rng);
      const net::Endpoint server{
          dns_servers[rng.next_below(dns_servers.size())], 53};
      const double t = capture_time(rng);
      FlowPlan& flow = unit.open(FlowKind::kDns, client, server);
      flow.size = 40 + rng.next_below(30);
      flow.reply = 120 + rng.next_below(200);
      unit.emit(t);
      unit.emit(t + 0.03);
    }
    const auto n_udp = static_cast<std::size_t>(total * udp_frac);
    for (std::size_t i = 0; i < n_udp; ++i) {
      const auto client = university_client(rng);
      const net::Endpoint server{any_instance_ip(rng, kind),
                                 static_cast<std::uint16_t>(
                                     3000 + rng.next_below(30000))};
      const double t = capture_time(rng);
      const int datagrams = 1 + static_cast<int>(rng.next_below(3));
      unit.open(FlowKind::kUdp, client, server).size =
          100 + rng.next_below(300);
      for (int d = 0; d < datagrams; ++d) unit.emit(t + d * 0.2);
    }
    const auto n_icmp = std::max<std::size_t>(
        1, static_cast<std::size_t>(total * icmp_frac));
    for (std::size_t i = 0; i < n_icmp; ++i) {
      const auto client = university_client(rng);
      const net::Endpoint server{any_instance_ip(rng, kind), 0};
      const double t = capture_time(rng);
      unit.open(FlowKind::kIcmp, client, server);
      unit.emit(t);
      unit.emit(t + 0.05);
    }
    const auto n_tcp = static_cast<std::size_t>(total * tcp_frac);
    for (std::size_t i = 0; i < n_tcp; ++i) {
      const auto client = university_client(rng);
      const net::Endpoint server{any_instance_ip(rng, kind),
                                 rng.chance(0.5) ? std::uint16_t{22}
                                                 : std::uint16_t{25}};
      double t = capture_time(rng);
      FlowPlan& flow = unit.open(FlowKind::kTcp, client, server);
      unit.emit(t);         // SYN
      unit.emit(t + 0.04);  // SYN-ACK
      // Bulky non-web TCP (scp-like): more bytes per flow than HTTP.
      flow.size = static_cast<std::size_t>(
          std::min(rng.lognormal(std::log(12.0 * 1024), 1.0),
                   static_cast<double>(kEmittedFlowCap)));
      for (std::uint64_t offset = 0; offset < flow.size; offset += kMss) {
        t += 0.01;
        unit.emit(t);
      }
      unit.emit(t + 0.02);  // FIN
    }
  };

  // Non-web flows for the two clouds run as two more tasks, with RNG
  // streams placed after the per-endpoint streams.
  struct NonWebPlan {
    ProviderKind kind;
    std::size_t total;
  };
  const NonWebPlan non_web_plans[] = {
      {ProviderKind::kEc2, ec2_total},
      {ProviderKind::kAzure, azure_total},
  };
  auto non_web = exec::parallel_map(
      std::size(non_web_plans),
      [&](std::size_t i) {
        obs::Span nw_span{"synth.traffic.non_web"};
        UnitPlan unit;
        util::Rng rng = shards.stream(endpoints_.size() + i);
        plan_count_flows(rng, unit, non_web_plans[i].kind,
                         non_web_plans[i].total);
        return unit;
      },
      /*grain=*/1);

  // Both clouds' non-web flows form ONE unit: their only possible tuple
  // overlap (the shared fallback DNS server of a world with no dns-vm
  // instances) must stay inside a single unit so flow assembly sees those
  // packets in global capture order.
  UnitPlan tail;
  for (auto& part : non_web) {
    const auto first_flow = static_cast<std::uint32_t>(tail.flows.size());
    tail.flows.insert(tail.flows.end(), part.flows.begin(), part.flows.end());
    for (auto packet : part.packets) {
      packet.flow += first_flow;
      tail.packets.push_back(packet);
    }
    part = {};
  }
  std::stable_sort(tail.packets.begin(), tail.packets.end(), by_timestamp);
  deliver(tail);

  obs::counter("synth.traffic.packets").inc(total_packets);
  obs::counter("synth.traffic.bytes").inc(total_wire_bytes);
  obs::log_debug("synth.traffic", "generated {} packets ({} wire bytes)",
                 total_packets, total_wire_bytes);
  return total_packets;
}

std::size_t TrafficGenerator::generate_units(
    const std::function<void(std::vector<pcap::Packet>&&)>& sink) {
  std::vector<pcap::Packet> unit;
  return generate_batches([&](std::vector<pcap::Packet>&& batch,
                              bool unit_ends) {
    unit.insert(unit.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
    if (unit_ends) sink(std::exchange(unit, {}));
  });
}

std::vector<pcap::Packet> TrafficGenerator::generate() {
  std::vector<pcap::Packet> packets;
  generate_batches([&](std::vector<pcap::Packet>&& batch, bool) {
    packets.insert(packets.end(), std::make_move_iterator(batch.begin()),
                   std::make_move_iterator(batch.end()));
  });
  // stable_sort, not sort: units arrive individually time-sorted with
  // emission order preserved at equal timestamps, so the stable global
  // sort rebuilds exactly the capture the pre-streaming generator
  // produced — independent of the thread count *and* of the sort
  // implementation's tie-breaking.
  std::stable_sort(packets.begin(), packets.end(),
                   [](const pcap::Packet& a, const pcap::Packet& b) {
                     return a.timestamp < b.timestamp;
                   });
  return packets;
}

void TrafficGenerator::generate_to_file(const std::string& path) {
  const auto packets = generate();
  pcap::PcapWriter writer{path};
  for (const auto& p : packets) writer.write(p);
}

}  // namespace cs::synth
