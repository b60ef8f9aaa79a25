#include "proto/logs.h"

#include <gtest/gtest.h>

#include "pcap/decode.h"
#include "proto/tls.h"

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

// One tuple closes with a FIN and reopens with a SYN, then idles past the
// timeout and starts again: three flows on one tuple. A second unit, fed
// first, holds flows that start before and after them. Through the unit
// path the records must come out as a FlowTable over every packet yields
// them, in time order.
TEST(LogCollector, UnitsWithReusedTuplesMatchFlowTable) {
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

  const pcap::FlowTable::Options options{.idle_timeout_sec = 60.0};
  pcap::FlowTable table{options};
  for (const auto* unit : {&reused, &other})
    for (const auto& packet : *unit) table.add(packet);
  const auto want = analyze_flows(table.finish());
  ASSERT_EQ(want.conns.size(), 6u);
  ASSERT_EQ(want.ssl.size(), 1u);

  LogCollector collector;
  collector.add(pcap::assemble_unit(other, options));
  collector.add(pcap::assemble_unit(reused, options));
  const auto got = collector.finish();
  expect_same_logs(got, want);
  EXPECT_EQ(got.http[2].host, "reopened.example.com");
}

}  // namespace
}  // namespace cs::proto
