#include "proto/logs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>

#include "pcap/decode.h"

namespace cs::proto {
namespace {

const net::Endpoint kClient{net::Ipv4(10, 0, 0, 1), 50123};

/// Builds one HTTP flow end-to-end through the packet pipeline.
pcap::Flow make_http_flow(const std::string& host,
                          const std::string& content_type,
                          std::uint64_t body) {
  pcap::FlowTable table;
  const net::Endpoint server{net::Ipv4(54, 0, 0, 9), 80};
  table.add(pcap::make_tcp_packet(1.0, kClient, server,
                                  pcap::TcpFlags{.syn = true}, 0, {}));
  table.add(pcap::make_tcp_packet(1.1, kClient, server,
                                  pcap::TcpFlags{.ack = true, .psh = true}, 1,
                                  build_request("GET", host, "/")));
  table.add(pcap::make_tcp_packet(
      1.2, server, kClient, pcap::TcpFlags{.ack = true, .psh = true}, 1,
      build_response(200, content_type, body, 128)));
  auto flows = table.finish();
  return flows.at(0);
}

pcap::Flow make_https_flow(const std::string& sni, const std::string& cn) {
  pcap::FlowTable table;
  const net::Endpoint server{net::Ipv4(54, 0, 0, 10), 443};
  table.add(pcap::make_tcp_packet(2.0, kClient, server,
                                  pcap::TcpFlags{.psh = true}, 0,
                                  build_client_hello(sni)));
  table.add(pcap::make_tcp_packet(2.1, server, kClient,
                                  pcap::TcpFlags{.psh = true}, 0,
                                  build_certificate(cn)));
  auto flows = table.finish();
  return flows.at(0);
}

TEST(Logs, HttpFlowProducesConnAndHttpRecords) {
  const auto logs =
      analyze_flows({make_http_flow("www.netflix.com", "video/mp4", 9999)});
  ASSERT_EQ(logs.conns.size(), 1u);
  EXPECT_EQ(logs.conns[0].service, Service::kHttp);
  EXPECT_EQ(logs.conns[0].hostname.value_or(""), "www.netflix.com");
  ASSERT_EQ(logs.http.size(), 1u);
  EXPECT_EQ(logs.http[0].host, "www.netflix.com");
  EXPECT_EQ(logs.http[0].content_type.value_or(""), "video/mp4");
  EXPECT_EQ(logs.http[0].content_length.value_or(0), 9999u);
  EXPECT_TRUE(logs.ssl.empty());
}

TEST(Logs, HttpsFlowUsesCertificateCn) {
  const auto logs = analyze_flows(
      {make_https_flow("client1.dropbox.com", "*.dropbox.com")});
  ASSERT_EQ(logs.conns.size(), 1u);
  EXPECT_EQ(logs.conns[0].service, Service::kHttps);
  // CN is preferred over SNI, matching the paper's methodology.
  EXPECT_EQ(logs.conns[0].hostname.value_or(""), "*.dropbox.com");
  ASSERT_EQ(logs.ssl.size(), 1u);
  EXPECT_EQ(logs.ssl[0].sni.value_or(""), "client1.dropbox.com");
  EXPECT_EQ(logs.ssl[0].certificate_cn.value_or(""), "*.dropbox.com");
}

TEST(Logs, HttpsWithoutCertFallsBackToSni) {
  pcap::FlowTable table;
  const net::Endpoint server{net::Ipv4(54, 0, 0, 10), 443};
  table.add(pcap::make_tcp_packet(2.0, kClient, server,
                                  pcap::TcpFlags{.psh = true}, 0,
                                  build_client_hello("only.sni.com")));
  const auto logs = analyze_flows(table.finish());
  ASSERT_EQ(logs.conns.size(), 1u);
  EXPECT_EQ(logs.conns[0].hostname.value_or(""), "only.sni.com");
}

TEST(Logs, NonWebFlowHasNoHostname) {
  pcap::FlowTable table;
  table.add(pcap::make_udp_packet(1.0, kClient,
                                  {net::Ipv4(8, 8, 8, 8), 53},
                                  std::vector<std::uint8_t>{1, 2, 3}));
  const auto logs = analyze_flows(table.finish());
  ASSERT_EQ(logs.conns.size(), 1u);
  EXPECT_EQ(logs.conns[0].service, Service::kDns);
  EXPECT_FALSE(logs.conns[0].hostname);
  EXPECT_TRUE(logs.http.empty());
  EXPECT_TRUE(logs.ssl.empty());
}

TEST(Logs, PipelinedHttpPairsRequestsWithResponses) {
  pcap::Flow flow;
  flow.tuple = {kClient, {net::Ipv4(54, 0, 0, 9), 80}, net::IpProto::kTcp};
  auto requests = build_request("GET", "a.example.com", "/1");
  const auto req2 = build_request("GET", "b.example.com", "/2");
  requests.insert(requests.end(), req2.begin(), req2.end());
  flow.payload_to_responder = requests;
  auto responses = build_response(200, "text/html", 10, 10);
  const auto resp2 = build_response(200, "image/png", 20, 20);
  responses.insert(responses.end(), resp2.begin(), resp2.end());
  flow.payload_to_initiator = responses;
  const auto logs = analyze_flows({flow});
  ASSERT_EQ(logs.http.size(), 2u);
  EXPECT_EQ(logs.http[0].host, "a.example.com");
  EXPECT_EQ(logs.http[0].content_type.value_or(""), "text/html");
  EXPECT_EQ(logs.http[1].host, "b.example.com");
  EXPECT_EQ(logs.http[1].content_type.value_or(""), "image/png");
}

TEST(Logs, RequestWithoutResponseStillLogged) {
  pcap::Flow flow;
  flow.tuple = {kClient, {net::Ipv4(54, 0, 0, 9), 80}, net::IpProto::kTcp};
  flow.payload_to_responder = build_request("GET", "lost.example.com", "/");
  const auto logs = analyze_flows({flow});
  ASSERT_EQ(logs.http.size(), 1u);
  EXPECT_EQ(logs.http[0].host, "lost.example.com");
  EXPECT_EQ(logs.http[0].status, 0);
}

TEST(Logs, ConnRecordCarriesFlowAccounting) {
  auto flow = make_http_flow("x.com", "text/plain", 3);
  const auto logs = analyze_flows({flow});
  ASSERT_EQ(logs.conns.size(), 1u);
  EXPECT_EQ(logs.conns[0].bytes, flow.bytes);
  EXPECT_EQ(logs.conns[0].packets, flow.packets);
  EXPECT_NEAR(logs.conns[0].duration, flow.duration(), 1e-9);
}

void expect_same_logs(const TraceLogs& a, const TraceLogs& b) {
  ASSERT_EQ(a.conns.size(), b.conns.size());
  for (std::size_t i = 0; i < a.conns.size(); ++i) {
    EXPECT_EQ(a.conns[i].tuple, b.conns[i].tuple) << "conn " << i;
    EXPECT_EQ(a.conns[i].service, b.conns[i].service) << "conn " << i;
    EXPECT_EQ(a.conns[i].first_ts, b.conns[i].first_ts) << "conn " << i;
    EXPECT_EQ(a.conns[i].duration, b.conns[i].duration) << "conn " << i;
    EXPECT_EQ(a.conns[i].bytes, b.conns[i].bytes) << "conn " << i;
    EXPECT_EQ(a.conns[i].packets, b.conns[i].packets) << "conn " << i;
    EXPECT_EQ(a.conns[i].hostname, b.conns[i].hostname) << "conn " << i;
  }
  ASSERT_EQ(a.http.size(), b.http.size());
  for (std::size_t i = 0; i < a.http.size(); ++i) {
    EXPECT_EQ(a.http[i].host, b.http[i].host) << "http " << i;
    EXPECT_EQ(a.http[i].method, b.http[i].method) << "http " << i;
    EXPECT_EQ(a.http[i].target, b.http[i].target) << "http " << i;
    EXPECT_EQ(a.http[i].status, b.http[i].status) << "http " << i;
    EXPECT_EQ(a.http[i].content_type, b.http[i].content_type) << "http " << i;
    EXPECT_EQ(a.http[i].content_length, b.http[i].content_length)
        << "http " << i;
  }
  ASSERT_EQ(a.ssl.size(), b.ssl.size());
  for (std::size_t i = 0; i < a.ssl.size(); ++i) {
    EXPECT_EQ(a.ssl[i].sni, b.ssl[i].sni) << "ssl " << i;
    EXPECT_EQ(a.ssl[i].certificate_cn, b.ssl[i].certificate_cn)
        << "ssl " << i;
  }
}

/// One HTTP exchange on client port `port`; `syn` opens it with a SYN and
/// `fin` closes it with a FIN from the client.
void http_exchange(std::vector<pcap::Packet>& unit, double t,
                   std::uint16_t port, const std::string& host, bool syn,
                   bool fin) {
  const net::Endpoint client{kClient.addr, port};
  const net::Endpoint server{net::Ipv4(54, 0, 0, 9), 80};
  if (syn)
    unit.push_back(pcap::make_tcp_packet(t, client, server,
                                         pcap::TcpFlags{.syn = true}, 0, {}));
  unit.push_back(pcap::make_tcp_packet(
      t + 0.1, client, server, pcap::TcpFlags{.ack = true, .psh = true}, 1,
      build_request("GET", host, "/" + host)));
  unit.push_back(pcap::make_tcp_packet(
      t + 0.2, server, client, pcap::TcpFlags{.ack = true, .psh = true}, 1,
      build_response(200, "text/html", 300, 300)));
  if (fin)
    unit.push_back(pcap::make_tcp_packet(
        t + 0.3, client, server, pcap::TcpFlags{.ack = true, .fin = true}, 2,
        {}));
}

/// The records the stream analyzer gives `packets` fed in batches of
/// `batch` packets (0: one batch), as one unit.
TraceLogs stream_logs(std::span<const pcap::Packet> packets,
                      pcap::FlowOptions options = {}, std::size_t batch = 0) {
  StreamAnalyzer analyzer{options};
  if (batch == 0) batch = std::max<std::size_t>(packets.size(), 1);
  for (std::size_t off = 0; off < packets.size(); off += batch)
    analyzer.feed(packets.subspan(off, std::min(batch, packets.size() - off)));
  return analyzer.finish();
}

TraceLogs table_logs(std::span<const pcap::Packet> packets,
                     pcap::FlowOptions options = {}) {
  pcap::FlowTable table{options};
  for (const auto& packet : packets) table.add(packet);
  auto flows = table.finish();
  std::sort(flows.begin(), flows.end(), pcap::FlowOrder{});
  return analyze_flows(flows);
}

// One tuple closes with a FIN and reopens with a SYN, then idles past the
// timeout and starts again: three flows on one tuple. A second unit, fed
// first, holds flows that start before and after them. Through the
// stream analyzer, unit by unit and with the reused tuple's unit cut
// into batches, the records must come out as a FlowTable over every
// packet yields them, in time order.
TEST(StreamAnalyzer, UnitsWithReusedTuplesMatchFlowTable) {
  std::vector<pcap::Packet> reused;
  http_exchange(reused, 10.0, 50200, "first.example.com", true, true);
  http_exchange(reused, 11.0, 50200, "reopened.example.com", true, false);
  http_exchange(reused, 200.0, 50200, "after-idle.example.com", false, true);

  std::vector<pcap::Packet> other;
  http_exchange(other, 5.0, 50300, "early.example.com", true, true);
  other.push_back(pcap::make_tcp_packet(
      100.0, kClient, {net::Ipv4(54, 0, 0, 10), 443},
      pcap::TcpFlags{.psh = true}, 0, build_client_hello("tls.example.com")));
  other.push_back(pcap::make_tcp_packet(
      100.1, {net::Ipv4(54, 0, 0, 10), 443}, kClient,
      pcap::TcpFlags{.psh = true}, 0, build_certificate("*.example.com")));
  http_exchange(other, 300.0, 50301, "late.example.com", true, true);

  const pcap::FlowOptions options{.idle_timeout_sec = 60.0};
  pcap::FlowTable table{options};
  for (const auto* unit : {&reused, &other})
    for (const auto& packet : *unit) table.add(packet);
  const auto want = analyze_flows(table.finish());
  ASSERT_EQ(want.conns.size(), 6u);
  ASSERT_EQ(want.ssl.size(), 1u);

  for (const std::size_t batch : {std::size_t{1}, std::size_t{2},
                                  std::size_t{5}, reused.size()}) {
    StreamAnalyzer analyzer{options};
    analyzer.feed(other);
    analyzer.end_unit();
    const std::span<const pcap::Packet> unit{reused};
    for (std::size_t off = 0; off < unit.size(); off += batch)
      analyzer.feed(unit.subspan(off, std::min(batch, unit.size() - off)));
    analyzer.end_unit();
    const auto got = analyzer.finish();
    expect_same_logs(got, want);
    EXPECT_EQ(got.http[2].host, "reopened.example.com");
  }
}

/// A capture of interleaved tuples: HTTP and HTTPS conversations, one
/// reused tuple, DNS, other UDP, ICMP and a non-web TCP stream.
std::vector<pcap::Packet> mixed_capture() {
  std::vector<pcap::Packet> packets;
  for (std::uint16_t i = 0; i < 24; ++i) {
    const double t = 1.0 + 0.37 * ((i * 13) % 24);
    const bool tls = i % 3 == 0;
    const net::Endpoint client{net::Ipv4(10, 0, 1, static_cast<std::uint8_t>(i)),
                               static_cast<std::uint16_t>(40000 + i)};
    const net::Endpoint server{net::Ipv4(54, 2, 3, static_cast<std::uint8_t>(i % 5)),
                               static_cast<std::uint16_t>(tls ? 443 : 80)};
    const auto host = "h" + std::to_string(i) + ".example.com";
    packets.push_back(pcap::make_tcp_packet(t, client, server,
                                            pcap::TcpFlags{.syn = true}, 0,
                                            {}));
    packets.push_back(pcap::make_tcp_packet(
        t + 0.01, client, server, pcap::TcpFlags{.ack = true, .psh = true},
        1, tls ? build_client_hello(host) : build_request("GET", host, "/")));
    packets.push_back(pcap::make_tcp_packet(
        t + 0.02, server, client, pcap::TcpFlags{.ack = true, .psh = true},
        1,
        tls ? build_certificate("*." + host)
            : build_response(200, "text/html", 300 + i, 300 + i)));
    packets.push_back(pcap::make_tcp_packet(
        t + 0.03, client, server, pcap::TcpFlags{.ack = true, .fin = true},
        2, {}));
  }
  http_exchange(packets, 3.0, 50200, "again.example.com", true, true);
  packets.push_back(pcap::make_udp_packet(2.5, kClient,
                                          {net::Ipv4(54, 0, 0, 53), 53},
                                          std::vector<std::uint8_t>(40, 1)));
  packets.push_back(pcap::make_udp_packet(2.6, kClient,
                                          {net::Ipv4(54, 0, 0, 54), 9000},
                                          std::vector<std::uint8_t>(90, 2)));
  packets.push_back(pcap::make_icmp_packet(3.5, kClient.addr,
                                           net::Ipv4(54, 0, 0, 55), 8));
  packets.push_back(pcap::make_tcp_packet(
      4.0, kClient, {net::Ipv4(54, 0, 0, 56), 22},
      pcap::TcpFlags{.ack = true, .psh = true}, 1,
      std::vector<std::uint8_t>(700, 0x55)));
  return packets;
}

// Any batch split of a capture gives analyze_flows' records over the
// FlowAssembler-assembled whole capture.
TEST(StreamAnalyzer, AnyBatchSplitMatchesWholeCaptureAnalysis) {
  const auto packets = mixed_capture();
  const auto want = analyze_flows(pcap::assemble_flows(packets));
  ASSERT_GT(want.http.size(), 10u);
  ASSERT_GT(want.ssl.size(), 5u);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{0}})
    expect_same_logs(stream_logs(packets, {}, batch), want);
}

/// One TCP conversation: `up` from the client in segments that start at
/// `up_cuts`, then `down` from the server in segments cut at `down_cuts`.
std::vector<pcap::Packet> conversation(const std::vector<std::uint8_t>& up,
                                       std::vector<std::size_t> up_cuts,
                                       const std::vector<std::uint8_t>& down,
                                       std::vector<std::size_t> down_cuts,
                                       std::uint16_t port) {
  const net::Endpoint server{net::Ipv4(54, 0, 0, 9), port};
  std::vector<pcap::Packet> packets;
  double t = 1.0;
  auto send = [&](const std::vector<std::uint8_t>& bytes,
                  std::vector<std::size_t> cuts, bool from_client) {
    cuts.push_back(bytes.size());
    std::size_t from = 0;
    for (const auto cut : cuts) {
      if (cut <= from || cut > bytes.size()) continue;
      const std::vector<std::uint8_t> piece{bytes.begin() + from,
                                            bytes.begin() + cut};
      packets.push_back(pcap::make_tcp_packet(
          t += 0.01, from_client ? kClient : server,
          from_client ? server : kClient,
          pcap::TcpFlags{.ack = true, .psh = true}, 1, piece));
      from = cut;
    }
  };
  send(up, std::move(up_cuts), true);
  send(down, std::move(down_cuts), false);
  return packets;
}

// Both directions of a flow split at every point, and cut by a payload
// cap that falls inside a segment or a head: the stream analyzer's
// records (service included) are analyze_flows' over the FlowTable.
TEST(StreamAnalyzer, EverySplitAndCapMatchesFlowTable) {
  const auto requests =
      [] {
        auto out = build_request("GET", "a.example.com", "/1");
        const auto more = build_request("DELETE", "b.example.com", "/2");
        out.insert(out.end(), more.begin(), more.end());
        return out;
      }();
  auto responses = build_response(200, "text/html", 40, 40);
  const auto second = build_response(200, "image/png", 900, 120);
  responses.insert(responses.end(), second.begin(), second.end());
  const auto hello = build_client_hello("client1.dropbox.com");
  auto certificate = build_certificate("*.dropbox.com");
  certificate.insert(certificate.end(), 400, 0x5A);

  struct Stream {
    std::vector<std::uint8_t> up, down;
    std::uint16_t port;
  };
  const Stream streams[] = {
      {requests, responses, 80},
      {requests, responses, 22},  // classified by payload alone
      {hello, certificate, 443},
      {hello, certificate, 8443},
      {responses, requests, 80},  // no request line: HTTP by port
      {std::vector<std::uint8_t>(5, 0x16), certificate, 443},  // < 8 bytes
      {std::vector<std::uint8_t>(3, 'G'), responses, 9000},
  };
  for (const auto& stream : streams) {
    for (std::size_t k = 0; k <= stream.up.size(); ++k) {
      const auto down_cut = k * stream.down.size() /
                            std::max<std::size_t>(stream.up.size(), 1);
      const auto packets = conversation(stream.up, {k, k + 3}, stream.down,
                                        {down_cut, down_cut + 1}, stream.port);
      for (const std::size_t cap : {std::size_t{256 * 1024}, std::size_t{7},
                                    std::size_t{60}, std::size_t{130}}) {
        const pcap::FlowOptions options{.payload_cap = cap};
        SCOPED_TRACE(testing::Message() << "port " << stream.port << " split "
                                        << k << " cap " << cap);
        expect_same_logs(stream_logs(packets, options, 2),
                         table_logs(packets, options));
      }
    }
  }
}

// Many segments per direction, with each direction's cap falling inside
// a segment: the records match a FlowTable's, which copies the bytes.
TEST(StreamAnalyzer, CapInsideASegmentMatchesFlowTable) {
  std::vector<pcap::Packet> packets;
  std::vector<std::uint8_t> up, down;
  for (int i = 0; i < 12; ++i) {
    const auto req =
        build_request("GET", "h" + std::to_string(i) + ".example.com", "/");
    up.insert(up.end(), req.begin(), req.end());
    const auto resp = build_response(200, "text/plain", 37, 37);
    down.insert(down.end(), resp.begin(), resp.end());
  }
  std::vector<std::size_t> up_cuts, down_cuts;
  for (std::size_t c = 37; c < up.size(); c += 37) up_cuts.push_back(c);
  for (std::size_t c = 53; c < down.size(); c += 53) down_cuts.push_back(c);
  packets = conversation(up, up_cuts, down, down_cuts, 80);
  for (const std::size_t cap : {std::size_t{1000}, std::size_t{555}}) {
    const pcap::FlowOptions options{.payload_cap = cap};
    const auto want = table_logs(packets, options);
    ASSERT_GT(want.http.size(), 3u);
    ASSERT_LT(want.http.size(), 12u);
    expect_same_logs(stream_logs(packets, options, 3), want);
  }
}

}  // namespace
}  // namespace cs::proto
