// Property-based sweeps (TEST_P) over randomized inputs: invariants that
// must hold for every seed, not just the fixtures' hand-picked cases.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/ranges.h"
#include "dns/message.h"
#include "net/prefix_set.h"
#include "pcap/decode.h"
#include "pcap/flow.h"
#include "proto/http.h"
#include "proto/tls.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cs {
namespace {

// ---------------------------------------------------------------------
// DNS wire-format round trip over randomly generated messages.
class DnsCodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

dns::Name random_name(util::Rng& rng) {
  static const char* kWords[] = {"www", "api", "cdn", "lb-1",  "edge",
                                 "ns1", "m",   "a",   "x9-q7", "svc"};
  static const char* kTlds[] = {"com", "net", "org"};
  std::vector<std::string> labels;
  const int depth = 1 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < depth; ++i)
    labels.emplace_back(kWords[rng.next_below(std::size(kWords))]);
  labels.emplace_back(kTlds[rng.next_below(std::size(kTlds))]);
  return *dns::Name::from_labels(std::move(labels));
}

dns::ResourceRecord random_rr(util::Rng& rng) {
  const auto name = random_name(rng);
  switch (rng.next_below(5)) {
    case 0:
      return dns::ResourceRecord::a(
          name, net::Ipv4{static_cast<std::uint32_t>(rng())},
          static_cast<std::uint32_t>(rng.next_below(86400)));
    case 1:
      return dns::ResourceRecord::ns(name, random_name(rng));
    case 2:
      return dns::ResourceRecord::cname(name, random_name(rng));
    case 3: {
      dns::SoaRecord soa;
      soa.mname = random_name(rng);
      soa.rname = random_name(rng);
      soa.serial = static_cast<std::uint32_t>(rng());
      return dns::ResourceRecord::soa(name, soa);
    }
    default: {
      std::vector<std::string> strings;
      const int n = 1 + static_cast<int>(rng.next_below(3));
      for (int i = 0; i < n; ++i)
        strings.push_back(std::string(rng.next_below(40), 't'));
      return dns::ResourceRecord::txt(name, std::move(strings));
    }
  }
}

TEST_P(DnsCodecProperty, EncodeDecodeIsIdentity) {
  util::Rng rng{GetParam()};
  auto query = dns::Message::query(
      static_cast<std::uint16_t>(rng()), random_name(rng),
      rng.chance(0.5) ? dns::RrType::kA : dns::RrType::kNs, rng.chance(0.5));
  auto message = dns::Message::response_to(
      query, static_cast<dns::Rcode>(rng.next_below(6)), rng.chance(0.5));
  const int answers = static_cast<int>(rng.next_below(6));
  for (int i = 0; i < answers; ++i)
    message.answers.push_back(random_rr(rng));
  const int authority = static_cast<int>(rng.next_below(3));
  for (int i = 0; i < authority; ++i)
    message.authority.push_back(random_rr(rng));
  const int additional = static_cast<int>(rng.next_below(3));
  for (int i = 0; i < additional; ++i)
    message.additional.push_back(random_rr(rng));

  const auto decoded = dns::Message::decode(message.encode());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, message);
}

TEST_P(DnsCodecProperty, TruncationNeverDecodes) {
  util::Rng rng{GetParam() * 31};
  auto message = dns::Message::query(7, random_name(rng), dns::RrType::kA);
  message.answers.push_back(random_rr(rng));
  const auto wire = message.encode();
  // Any strict prefix must be rejected (or decode to a different message,
  // never crash) — exhaustive over all cut points.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const std::span<const std::uint8_t> prefix{wire.data(), cut};
    const auto decoded = dns::Message::decode(prefix);
    if (decoded) {
      EXPECT_NE(*decoded, message);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnsCodecProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

// ---------------------------------------------------------------------
// PrefixMap agrees with a brute-force linear scan.
class PrefixMapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixMapProperty, MatchesLinearScan) {
  util::Rng rng{GetParam()};
  net::PrefixMap<int> map;
  std::vector<std::pair<net::Cidr, int>> blocks;
  for (int i = 0; i < 40; ++i) {
    const net::Cidr block{net::Ipv4{static_cast<std::uint32_t>(rng())},
                          static_cast<int>(rng.next_below(33))};
    // Skip duplicate prefixes: insert() overwrites, the scan must too.
    bool duplicate = false;
    for (auto& [existing, tag] : blocks)
      if (existing == block) {
        tag = i;
        duplicate = true;
      }
    if (!duplicate) blocks.emplace_back(block, i);
    map.insert(block, i);
  }
  for (int trial = 0; trial < 300; ++trial) {
    const net::Ipv4 addr{static_cast<std::uint32_t>(rng())};
    // Linear longest-prefix scan.
    int best_len = -1, best_tag = -1;
    for (const auto& [block, tag] : blocks) {
      if (block.contains(addr) && block.prefix_len() > best_len) {
        best_len = block.prefix_len();
        best_tag = tag;
      }
    }
    const auto got = map.lookup(addr);
    if (best_tag < 0) {
      EXPECT_FALSE(got);
    } else {
      ASSERT_TRUE(got);
      EXPECT_EQ(*got, best_tag);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixMapProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------
// Flow-table conservation: bytes and packets in == bytes and packets out.
class FlowConservationProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowConservationProperty, NothingLostNothingInvented) {
  util::Rng rng{GetParam()};
  pcap::FlowTable table;
  std::uint64_t total_ip_bytes = 0;
  std::size_t total_packets = 0;
  for (int i = 0; i < 400; ++i) {
    const net::Endpoint src{net::Ipv4{10, 0, 0,
                                      static_cast<std::uint8_t>(
                                          1 + rng.next_below(5))},
                            static_cast<std::uint16_t>(
                                1000 + rng.next_below(20))};
    const net::Endpoint dst{net::Ipv4{54, 0, 0, 1},
                            rng.chance(0.5) ? std::uint16_t{80}
                                            : std::uint16_t{443}};
    const std::vector<std::uint8_t> payload(rng.next_below(900), 'p');
    pcap::Packet packet;
    if (rng.chance(0.8)) {
      packet = pcap::make_tcp_packet(
          i * 0.5, src, dst,
          {.syn = rng.chance(0.1), .ack = true, .fin = rng.chance(0.05)},
          static_cast<std::uint32_t>(i), payload);
    } else {
      packet = pcap::make_udp_packet(i * 0.5, src, dst, payload);
    }
    total_ip_bytes += packet.size() - 14;  // minus Ethernet header
    ++total_packets;
    table.add(packet);
  }
  const auto flows = table.finish();
  std::uint64_t flow_bytes = 0, flow_packets = 0;
  for (const auto& flow : flows) {
    flow_bytes += flow.bytes;
    flow_packets += flow.packets;
    EXPECT_GE(flow.last_ts, flow.first_ts);
    EXPECT_EQ(flow.bytes, flow.bytes_to_responder + flow.bytes_to_initiator);
  }
  EXPECT_EQ(flow_bytes, total_ip_bytes);
  EXPECT_EQ(flow_packets, total_packets);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowConservationProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

// ---------------------------------------------------------------------
// HTTP build->parse is lossless for the fields the study extracts.
class HttpRoundTripProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HttpRoundTripProperty, FieldsSurvive) {
  util::Rng rng{GetParam()};
  static const char* kTypes[] = {"text/html", "application/pdf",
                                 "image/png", "video/mp4"};
  for (int trial = 0; trial < 30; ++trial) {
    const std::string host =
        "h" + std::to_string(rng.next_below(1000)) + ".example.com";
    const auto request = proto::build_request("GET", host, "/p");
    std::size_t offset = 0;
    const auto parsed_request = proto::parse_request(request, offset);
    ASSERT_TRUE(parsed_request);
    EXPECT_EQ(parsed_request->host().value_or(""), host);

    const auto* type = kTypes[rng.next_below(std::size(kTypes))];
    const auto length = rng.next_below(1 << 24);
    const auto response = proto::build_response(
        200, type, length, static_cast<std::size_t>(rng.next_below(2048)));
    offset = 0;
    const auto parsed_response = proto::parse_response(response, offset);
    ASSERT_TRUE(parsed_response);
    EXPECT_EQ(parsed_response->content_type().value_or(""), type);
    EXPECT_EQ(parsed_response->content_length().value_or(~0ull), length);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HttpRoundTripProperty,
                         ::testing::Range<std::uint64_t>(1, 6));

// ---------------------------------------------------------------------
// TLS SNI/CN extraction round-trips for arbitrary host names.
class TlsRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(TlsRoundTripProperty, SniAndCnSurvive) {
  util::Rng rng{GetParam()};
  for (int trial = 0; trial < 40; ++trial) {
    std::string host = "s" + std::to_string(rng());
    host += rng.chance(0.5) ? ".dropbox.com" : ".cloudapp.net";
    EXPECT_EQ(proto::extract_sni(proto::build_client_hello(host)).value_or(""),
              host);
    const std::string cn = "*." + host;
    EXPECT_EQ(
        proto::extract_certificate_cn(proto::build_certificate(cn))
            .value_or(""),
        cn);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlsRoundTripProperty,
                         ::testing::Range<std::uint64_t>(1, 5));

// ---------------------------------------------------------------------
// Cloud range classification is a partition: an address belongs to at
// most one provider, and every published block classifies to itself.
class RangePartitionProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RangePartitionProperty, ClassificationIsAPartition) {
  auto ec2 = cloud::Provider::make_ec2(GetParam());
  auto azure = cloud::Provider::make_azure(GetParam());
  analysis::CloudRanges ranges{ec2, azure};
  util::Rng rng{GetParam() * 7};
  for (int trial = 0; trial < 2000; ++trial) {
    const net::Ipv4 addr{static_cast<std::uint32_t>(rng())};
    const auto c = ranges.classify(addr);
    const bool in_ec2 = ec2.region_of(addr).has_value();
    const bool in_azure = azure.region_of(addr).has_value();
    const bool in_cdn = ec2.cdn_block().contains(addr);
    switch (c.kind) {
      case analysis::IpClassification::Kind::kEc2:
        EXPECT_TRUE(in_ec2);
        EXPECT_EQ(c.region, *ec2.region_of(addr));
        break;
      case analysis::IpClassification::Kind::kAzure:
        EXPECT_TRUE(in_azure);
        break;
      case analysis::IpClassification::Kind::kCloudFront:
        EXPECT_TRUE(in_cdn);
        break;
      case analysis::IpClassification::Kind::kOther:
        EXPECT_FALSE(in_ec2 || in_azure || in_cdn);
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangePartitionProperty,
                         ::testing::Range<std::uint64_t>(1, 5));

// ---------------------------------------------------------------------
// Quantiles are monotone for arbitrary samples.
class QuantileProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileProperty, MonotoneAndBounded) {
  util::Rng rng{GetParam()};
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.pareto(1.0, 1.2));
  const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  double last = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = util::quantile(xs, q);
    EXPECT_GE(v, last);
    EXPECT_GE(v, *lo);
    EXPECT_LE(v, *hi);
    last = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileProperty,
                         ::testing::Range<std::uint64_t>(1, 5));

}  // namespace
}  // namespace cs
