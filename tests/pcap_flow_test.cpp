#include "pcap/flow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>

namespace cs::pcap {
namespace {

const net::Endpoint kClient{net::Ipv4(10, 0, 0, 1), 50123};
const net::Endpoint kServer{net::Ipv4(54, 1, 2, 3), 80};

std::vector<std::uint8_t> bytes_of(std::string_view text) {
  return {text.begin(), text.end()};
}

TEST(FlowTable, SingleDirectionFlow) {
  FlowTable table;
  table.add(make_tcp_packet(1.0, kClient, kServer, TcpFlags{.syn = true}, 0,
                            {}));
  table.add(make_tcp_packet(1.1, kClient, kServer,
                            TcpFlags{.ack = true, .psh = true}, 1,
                            bytes_of("GET / HTTP/1.1\r\n\r\n")));
  const auto flows = table.finish();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].packets, 2u);
  EXPECT_TRUE(flows[0].saw_syn);
  EXPECT_EQ(flows[0].tuple.src, kClient);
  EXPECT_NEAR(flows[0].duration(), 0.1, 1e-9);
}

TEST(FlowTable, BothDirectionsMergeToOneFlow) {
  FlowTable table;
  table.add(make_tcp_packet(1.0, kClient, kServer, TcpFlags{.syn = true}, 0,
                            {}));
  table.add(make_tcp_packet(1.05, kServer, kClient,
                            TcpFlags{.syn = true, .ack = true}, 0, {}));
  table.add(make_tcp_packet(1.1, kClient, kServer, TcpFlags{.ack = true}, 1,
                            bytes_of("req")));
  table.add(make_tcp_packet(1.2, kServer, kClient,
                            TcpFlags{.ack = true, .psh = true}, 1,
                            bytes_of("resp")));
  const auto flows = table.finish();
  ASSERT_EQ(flows.size(), 1u);
  const auto& flow = flows[0];
  EXPECT_EQ(flow.packets, 4u);
  // Initiator is the SYN sender.
  EXPECT_EQ(flow.tuple.src, kClient);
  EXPECT_EQ(flow.payload_to_responder, bytes_of("req"));
  EXPECT_EQ(flow.payload_to_initiator, bytes_of("resp"));
  EXPECT_GT(flow.bytes_to_responder, 0u);
  EXPECT_GT(flow.bytes_to_initiator, 0u);
  EXPECT_EQ(flow.bytes, flow.bytes_to_responder + flow.bytes_to_initiator);
}

TEST(FlowTable, DistinctTuplesDistinctFlows) {
  FlowTable table;
  for (std::uint16_t port = 1000; port < 1005; ++port) {
    net::Endpoint src{kClient.addr, port};
    table.add(make_tcp_packet(1.0, src, kServer, TcpFlags{.syn = true}, 0,
                              {}));
  }
  EXPECT_EQ(table.open_flows(), 5u);
  EXPECT_EQ(table.finish().size(), 5u);
}

TEST(FlowTable, FinThenSynStartsNewLogicalFlow) {
  FlowTable table;
  table.add(make_tcp_packet(1.0, kClient, kServer, TcpFlags{.syn = true}, 0,
                            {}));
  table.add(make_tcp_packet(2.0, kClient, kServer,
                            TcpFlags{.ack = true, .fin = true}, 10, {}));
  // Same 5-tuple reused for a brand-new connection.
  table.add(make_tcp_packet(3.0, kClient, kServer, TcpFlags{.syn = true}, 0,
                            {}));
  const auto flows = table.finish();
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].packets, 2u);
  EXPECT_EQ(flows[1].packets, 1u);
}

TEST(FlowTable, IdleTimeoutSplitsFlows) {
  FlowTable table{FlowTable::Options{.idle_timeout_sec = 60.0}};
  table.add(make_udp_packet(1.0, kClient, {kServer.addr, 53}, bytes_of("q")));
  table.add(make_udp_packet(100.0, kClient, {kServer.addr, 53},
                            bytes_of("q2")));
  const auto flows = table.finish();
  ASSERT_EQ(flows.size(), 2u);
}

TEST(FlowTable, WithinTimeoutStaysOneFlow) {
  FlowTable table{FlowTable::Options{.idle_timeout_sec = 60.0}};
  table.add(make_udp_packet(1.0, kClient, {kServer.addr, 53}, bytes_of("q")));
  table.add(make_udp_packet(30.0, kClient, {kServer.addr, 53},
                            bytes_of("q2")));
  EXPECT_EQ(table.finish().size(), 1u);
}

TEST(FlowTable, PayloadCapRespected) {
  FlowTable table{FlowTable::Options{.payload_cap = 10}};
  table.add(make_tcp_packet(1.0, kClient, kServer, TcpFlags{.psh = true}, 0,
                            bytes_of("0123456789ABCDEF")));
  const auto flows = table.finish();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].payload_to_responder.size(), 10u);
  // Byte accounting still counts the full packet.
  EXPECT_EQ(flows[0].bytes, 20u + 20u + 16u);
}

TEST(FlowTable, UndecodablePacketsCounted) {
  FlowTable table;
  Packet junk;
  junk.timestamp = 1.0;
  junk.data = {1, 2, 3};
  table.add(junk);
  EXPECT_EQ(table.undecodable_packets(), 1u);
  EXPECT_TRUE(table.finish().empty());
}

TEST(FlowTable, RstAlsoTerminatesForReopen) {
  FlowTable table;
  table.add(make_tcp_packet(1.0, kClient, kServer, TcpFlags{.syn = true}, 0,
                            {}));
  table.add(make_tcp_packet(1.5, kServer, kClient, TcpFlags{.rst = true}, 0,
                            {}));
  table.add(make_tcp_packet(2.0, kClient, kServer, TcpFlags{.syn = true}, 0,
                            {}));
  EXPECT_EQ(table.finish().size(), 2u);
}

TEST(FlowTable, FinishSortsByFirstTimestamp) {
  FlowTable table;
  net::Endpoint a{kClient.addr, 1111};
  net::Endpoint b{kClient.addr, 2222};
  table.add(make_tcp_packet(5.0, b, kServer, TcpFlags{.syn = true}, 0, {}));
  table.add(make_tcp_packet(1.0, a, kServer, TcpFlags{.syn = true}, 0, {}));
  const auto flows = table.finish();
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_LT(flows[0].first_ts, flows[1].first_ts);
}

TEST(FlowTable, IcmpTypeRecorded) {
  FlowTable table;
  table.add(make_icmp_packet(1.0, kClient.addr, kServer.addr, 8));
  const auto flows = table.finish();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].icmp_type, 8);
}

// Scale regression: a single flow's byte counters must keep counting past
// 2^31 (a paper-scale web endpoint crosses it easily). Feeds pre-decoded
// headers so the test doesn't have to materialize 2+ GB of frames.
TEST(FlowTable, ByteCountersPassTwoGigabytes) {
  FlowTable table;
  Decoded d;
  d.tuple = {kClient, kServer, net::IpProto::kTcp};
  d.tcp_flags = TcpFlags{.ack = true};
  d.ip_total_length = 60000;
  constexpr std::uint64_t kPackets = 40000;  // 2.4e9 bytes total
  for (std::uint64_t i = 0; i < kPackets; ++i)
    table.add_decoded(d, 1.0 + 0.001 * static_cast<double>(i));
  const auto flows = table.finish();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].packets, kPackets);
  EXPECT_EQ(flows[0].bytes, kPackets * 60000);
  EXPECT_GT(flows[0].bytes, std::uint64_t{1} << 31);
  EXPECT_EQ(flows[0].bytes_to_responder, kPackets * 60000);
}

std::vector<Packet> mixed_capture() {
  std::vector<Packet> packets;
  // ~50 interleaved tuples: TCP conversations with both directions, a UDP
  // query stream, and ICMP — timestamps deliberately shuffled across
  // tuples (the generator emits per-unit sorted batches, not globally
  // sorted ones, so the assembler must not depend on global order).
  for (std::uint16_t i = 0; i < 48; ++i) {
    const net::Endpoint src{net::Ipv4(10, 0, 1, static_cast<std::uint8_t>(i)),
                            static_cast<std::uint16_t>(40000 + i)};
    const net::Endpoint dst{net::Ipv4(54, 2, 3, static_cast<std::uint8_t>(i % 7)),
                            static_cast<std::uint16_t>(i % 2 ? 443 : 80)};
    const double base = 1.0 + 0.37 * ((i * 13) % 48);
    packets.push_back(
        make_tcp_packet(base, src, dst, TcpFlags{.syn = true}, 0, {}));
    packets.push_back(make_tcp_packet(base + 0.01, dst, src,
                                      TcpFlags{.syn = true, .ack = true}, 0,
                                      {}));
    packets.push_back(make_tcp_packet(base + 0.02, src, dst,
                                      TcpFlags{.ack = true, .psh = true}, 1,
                                      bytes_of("GET / HTTP/1.1\r\n\r\n")));
    packets.push_back(make_tcp_packet(
        base + 0.03, dst, src, TcpFlags{.ack = true, .psh = true}, 1,
        std::vector<std::uint8_t>(200 + i, 'x')));
    packets.push_back(make_tcp_packet(base + 0.04, src, dst,
                                      TcpFlags{.ack = true, .fin = true}, 20,
                                      {}));
  }
  packets.push_back(make_udp_packet(2.5, kClient, {kServer.addr, 53},
                                    bytes_of("query")));
  packets.push_back(make_icmp_packet(3.5, kClient.addr, kServer.addr, 8));
  return packets;
}

void expect_same_flows(const std::vector<Flow>& a, const std::vector<Flow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tuple, b[i].tuple) << "flow " << i;
    EXPECT_EQ(a[i].first_ts, b[i].first_ts) << "flow " << i;
    EXPECT_EQ(a[i].last_ts, b[i].last_ts) << "flow " << i;
    EXPECT_EQ(a[i].packets, b[i].packets) << "flow " << i;
    EXPECT_EQ(a[i].bytes, b[i].bytes) << "flow " << i;
    EXPECT_EQ(a[i].payload_to_responder, b[i].payload_to_responder)
        << "flow " << i;
    EXPECT_EQ(a[i].payload_to_initiator, b[i].payload_to_initiator)
        << "flow " << i;
  }
}

// The streaming contract the paper-scale pipeline rests on: feeding ANY
// batch split of a capture through a FlowAssembler yields exactly the
// flows one assemble_flows() call produces.
TEST(FlowAssembler, AnyBatchSplitMatchesWholeCaptureAssembly) {
  const auto packets = mixed_capture();
  const auto whole = assemble_flows(packets);
  ASSERT_FALSE(whole.empty());
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, packets.size()}) {
    FlowAssembler assembler;
    for (std::size_t off = 0; off < packets.size(); off += batch) {
      const auto n = std::min(batch, packets.size() - off);
      assembler.feed(std::span<const Packet>{packets}.subspan(off, n));
    }
    expect_same_flows(assembler.finish(), whole);
    EXPECT_EQ(assembler.packets_fed(), packets.size());
  }
}

// A tuple that idles past the timeout across a batch boundary must still
// split into two logical flows — shard tables persist between feeds.
TEST(FlowAssembler, IdleTimeoutSpansBatchBoundaries) {
  std::vector<Packet> first{
      make_udp_packet(1.0, kClient, {kServer.addr, 53}, bytes_of("q"))};
  std::vector<Packet> second{
      make_udp_packet(500.0, kClient, {kServer.addr, 53}, bytes_of("q2"))};
  FlowAssembler assembler;  // default idle timeout 300 s
  assembler.feed(first);
  assembler.feed(second);
  EXPECT_EQ(assembler.finish().size(), 2u);
}

// A payload cut at its cap holds the same bytes whether it copied the
// segments or viewed them; a lone view is handed out as it is, several
// are gathered into the caller's scratch.
TEST(Payload, CapCutsTheCrossingSegmentAlikeOwnedOrBorrowed) {
  const auto hello = bytes_of("hello ");
  const auto world = bytes_of("world");
  const std::array<std::span<const std::uint8_t>, 2> segments{hello, world};
  Payload owned;
  Payload borrowed;
  for (const auto segment : segments) {
    owned.append(segment, 8, /*borrow=*/false);
    borrowed.append(segment, 8, /*borrow=*/true);
  }
  EXPECT_EQ(owned.size(), 8u);
  EXPECT_EQ(borrowed.size(), 8u);
  EXPECT_EQ(owned, borrowed);
  EXPECT_EQ(borrowed, Payload{bytes_of("hello wo")});

  std::vector<std::uint8_t> scratch;
  const auto gathered = borrowed.bytes(scratch);
  EXPECT_EQ(gathered.data(), scratch.data());
  Payload lone;
  lone.append(hello, 8, /*borrow=*/true);
  scratch.clear();
  const auto as_is = lone.bytes(scratch);
  EXPECT_EQ(as_is.data(), hello.data());
  EXPECT_TRUE(scratch.empty());
}

// One conversation of many segments per direction, each direction's cap
// falling inside a segment: assemble_unit's borrowed payloads gather to
// exactly the bytes a FlowTable copies.
TEST(AssembleUnit, BorrowedPayloadsMatchOwnedOnes) {
  std::vector<Packet> packets;
  std::vector<std::uint8_t> sent;
  packets.push_back(make_tcp_packet(1.0, kClient, kServer,
                                    TcpFlags{.syn = true}, 0, {}));
  for (std::uint8_t i = 0; i < 40; ++i) {
    const std::vector<std::uint8_t> up(
        37, static_cast<std::uint8_t>('a' + i % 26));
    const std::vector<std::uint8_t> down(53, i);
    sent.insert(sent.end(), up.begin(), up.end());
    packets.push_back(make_tcp_packet(1.1 + 0.01 * i, kClient, kServer,
                                      TcpFlags{.ack = true, .psh = true}, 1,
                                      up));
    packets.push_back(make_tcp_packet(1.105 + 0.01 * i, kServer, kClient,
                                      TcpFlags{.ack = true, .psh = true}, 1,
                                      down));
  }
  const FlowTable::Options options{.payload_cap = 1000};
  FlowTable table{options};
  for (const auto& packet : packets) table.add(packet);
  const auto owned = table.finish();
  const auto borrowed = assemble_unit(packets, options);
  expect_same_flows(borrowed, owned);
  ASSERT_EQ(borrowed.size(), 1u);
  EXPECT_EQ(borrowed[0].payload_to_responder.size(), 1000u);
  EXPECT_EQ(borrowed[0].payload_to_initiator.size(), 1000u);
  sent.resize(1000);
  EXPECT_EQ(borrowed[0].payload_to_responder, Payload{sent});
}

// A whole capture taken as one unit assembles to the flows of
// assemble_flows, payloads included.
TEST(AssembleUnit, MatchesWholeCaptureAssembly) {
  const auto packets = mixed_capture();
  expect_same_flows(assemble_unit(packets), assemble_flows(packets));
}

}  // namespace
}  // namespace cs::pcap
