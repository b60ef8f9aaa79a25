#include "dns/server.h"

#include <gtest/gtest.h>

#include <string>

namespace cs::dns {
namespace {

SoaRecord soa_for(std::string_view origin) {
  SoaRecord soa;
  soa.mname = *Name::must_parse(origin).child("ns1");
  soa.rname = *Name::must_parse(origin).child("hostmaster");
  soa.serial = 42;
  return soa;
}

AuthoritativeServer make_server() {
  AuthoritativeServer server;
  auto& zone = server.add_zone(Name::must_parse("example.com"),
                               soa_for("example.com"));
  zone.add(ResourceRecord::a(Name::must_parse("www.example.com"),
                             net::Ipv4(192, 0, 2, 10)));
  zone.add(ResourceRecord::cname(Name::must_parse("m.example.com"),
                                 Name::must_parse("www.example.com")));
  zone.add(ResourceRecord::cname(
      Name::must_parse("cdn.example.com"),
      Name::must_parse("d111.cloudfront.example-cdn.net")));
  zone.add(ResourceRecord::ns(Name::must_parse("api.example.com"),
                              Name::must_parse("ns.api.example.com")));
  zone.add(ResourceRecord::a(Name::must_parse("ns.api.example.com"),
                             net::Ipv4(192, 0, 2, 53)));
  zone.add(ResourceRecord::txt(Name::must_parse("txt-only.example.com"),
                               {"hello"}));
  return server;
}

Message ask(const AuthoritativeServer& server, std::string_view name,
            RrType type, net::Ipv4 client = net::Ipv4(198, 51, 100, 1)) {
  return server.handle(client,
                       Message::query(99, Name::must_parse(name), type));
}

TEST(Server, AuthoritativeAnswer) {
  const auto server = make_server();
  const auto r = ask(server, "www.example.com", RrType::kA);
  EXPECT_EQ(r.header.rcode, Rcode::kNoError);
  EXPECT_TRUE(r.header.aa);
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(std::get<ARecord>(r.answers[0].data).address,
            net::Ipv4(192, 0, 2, 10));
}

TEST(Server, InZoneCnameChase) {
  const auto server = make_server();
  const auto r = ask(server, "m.example.com", RrType::kA);
  ASSERT_EQ(r.answers.size(), 2u);
  EXPECT_EQ(r.answers[0].type(), RrType::kCname);
  EXPECT_EQ(r.answers[1].type(), RrType::kA);
}

TEST(Server, OutOfZoneCnameReturnsCnameOnly) {
  const auto server = make_server();
  const auto r = ask(server, "cdn.example.com", RrType::kA);
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(r.answers[0].type(), RrType::kCname);
  EXPECT_EQ(r.header.rcode, Rcode::kNoError);
}

TEST(Server, CnameQueryNotChased) {
  const auto server = make_server();
  const auto r = ask(server, "m.example.com", RrType::kCname);
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(r.answers[0].type(), RrType::kCname);
}

TEST(Server, NxDomainCarriesSoa) {
  const auto server = make_server();
  const auto r = ask(server, "missing.example.com", RrType::kA);
  EXPECT_EQ(r.header.rcode, Rcode::kNxDomain);
  ASSERT_EQ(r.authority.size(), 1u);
  EXPECT_EQ(r.authority[0].type(), RrType::kSoa);
}

TEST(Server, NodataIsNoErrorWithSoa) {
  const auto server = make_server();
  const auto r = ask(server, "txt-only.example.com", RrType::kA);
  EXPECT_EQ(r.header.rcode, Rcode::kNoError);
  EXPECT_TRUE(r.answers.empty());
  ASSERT_EQ(r.authority.size(), 1u);
  EXPECT_EQ(r.authority[0].type(), RrType::kSoa);
}

TEST(Server, ReferralWithGlue) {
  const auto server = make_server();
  const auto r = ask(server, "deep.api.example.com", RrType::kA);
  EXPECT_EQ(r.header.rcode, Rcode::kNoError);
  EXPECT_FALSE(r.header.aa);
  EXPECT_TRUE(r.answers.empty());
  ASSERT_EQ(r.authority.size(), 1u);
  EXPECT_EQ(r.authority[0].type(), RrType::kNs);
  ASSERT_EQ(r.additional.size(), 1u);
  EXPECT_EQ(std::get<ARecord>(r.additional[0].data).address,
            net::Ipv4(192, 0, 2, 53));
}

TEST(Server, RefusesForeignZone) {
  const auto server = make_server();
  const auto r = ask(server, "www.other.org", RrType::kA);
  EXPECT_EQ(r.header.rcode, Rcode::kRefused);
}

TEST(Server, AxfrDeniedByDefault) {
  const auto server = make_server();
  const auto r = ask(server, "example.com", RrType::kAxfr);
  EXPECT_EQ(r.header.rcode, Rcode::kRefused);
}

TEST(Server, AxfrPolicyAllows) {
  auto server = make_server();
  server.set_axfr_policy(
      [](net::Ipv4 client, const Name&) { return client.octet(0) == 198; });
  const auto allowed = ask(server, "example.com", RrType::kAxfr,
                           net::Ipv4(198, 51, 100, 7));
  EXPECT_EQ(allowed.header.rcode, Rcode::kNoError);
  EXPECT_GE(allowed.answers.size(), 3u);
  EXPECT_EQ(allowed.answers.front().type(), RrType::kSoa);
  EXPECT_EQ(allowed.answers.back().type(), RrType::kSoa);

  const auto denied = ask(server, "example.com", RrType::kAxfr,
                          net::Ipv4(203, 0, 113, 7));
  EXPECT_EQ(denied.header.rcode, Rcode::kRefused);
}

TEST(Server, AxfrOnlyAtApex) {
  auto server = make_server();
  server.set_axfr_policy([](net::Ipv4, const Name&) { return true; });
  const auto r = ask(server, "www.example.com", RrType::kAxfr);
  EXPECT_EQ(r.header.rcode, Rcode::kRefused);
}

TEST(Server, MostSpecificZoneWins) {
  AuthoritativeServer server;
  server.add_zone(Name::must_parse("com"), soa_for("com"));
  auto& child =
      server.add_zone(Name::must_parse("example.com"), soa_for("example.com"));
  child.add(ResourceRecord::a(Name::must_parse("www.example.com"),
                              net::Ipv4(1, 2, 3, 4)));
  const auto r = ask(server, "www.example.com", RrType::kA);
  EXPECT_TRUE(r.header.aa);
  ASSERT_EQ(r.answers.size(), 1u);
}

TEST(Server, WireRoundTrip) {
  const auto server = make_server();
  const auto q = Message::query(7, Name::must_parse("www.example.com"),
                                RrType::kA);
  const auto wire = server.handle_wire(net::Ipv4(9, 9, 9, 9), q.encode());
  const auto r = Message::decode(wire);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->header.id, 7);
  EXPECT_EQ(r->answers.size(), 1u);
}

TEST(Server, MalformedWireYieldsFormErr) {
  const auto server = make_server();
  const std::vector<std::uint8_t> garbage = {1, 2, 3};
  const auto wire = server.handle_wire(net::Ipv4(9, 9, 9, 9), garbage);
  const auto r = Message::decode(wire);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->header.rcode, Rcode::kFormErr);
}

TEST(Server, ResponseToQueryMessageWithQrSetIsFormErr) {
  const auto server = make_server();
  auto q = Message::query(7, Name::must_parse("www.example.com"), RrType::kA);
  q.header.qr = true;
  const auto r = server.handle(net::Ipv4(9, 9, 9, 9), q);
  EXPECT_EQ(r.header.rcode, Rcode::kFormErr);
}

// Golden wire bytes for the answers handle_wire writes: each is pinned
// octet for octet, compression pointers included, so the answer writer
// cannot drift from the bytes the Message codec used to emit.

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const auto b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

std::string answer_hex(const AuthoritativeServer& server,
                       const std::vector<std::uint8_t>& query,
                       net::Ipv4 client = net::Ipv4(198, 51, 100, 1)) {
  return to_hex(server.handle_wire(client, query));
}

std::vector<std::uint8_t> query_wire(std::string_view name, RrType type) {
  return Message::query(0x4242, Name::must_parse(name), type).encode();
}

TEST(ServerGolden, NodataCarriesSoa) {
  EXPECT_EQ(answer_hex(make_server(),
                       query_wire("txt-only.example.com", RrType::kA)),
            "424284000001000000010000087478742d6f6e6c79076578616d706c6503636f"
            "6d0000010001c015000600010000012c0027036e7331c0150a686f73746d6173"
            "746572c0150000002a00001c2000000384001275000000012c");
}

TEST(ServerGolden, NxdomainCarriesSoa) {
  EXPECT_EQ(answer_hex(make_server(),
                       query_wire("missing.example.com", RrType::kA)),
            "424284030001000000010000076d697373696e67076578616d706c6503636f6d"
            "0000010001c014000600010000012c0027036e7331c0140a686f73746d617374"
            "6572c0140000002a00001c2000000384001275000000012c");
}

TEST(ServerGolden, RefusedForeignZone) {
  EXPECT_EQ(answer_hex(make_server(), query_wire("www.other.org", RrType::kA)),
            "42428005000100000000000003777777056f74686572036f72670000010001");
}

TEST(ServerGolden, FormErrForGarbageAndForAResponse) {
  EXPECT_EQ(answer_hex(make_server(), {1, 2, 3}), "000080010000000000000000");
  auto q = Message::query(0x4242, Name::must_parse("www.example.com"),
                          RrType::kA, true);
  q.header.qr = true;
  EXPECT_EQ(answer_hex(make_server(), q.encode()), "42428101000100000000000003777777076578616d706c6503636f6d00000100"
            "01");
}

TEST(ServerGolden, AxfrRefused) {
  EXPECT_EQ(answer_hex(make_server(), query_wire("example.com", RrType::kAxfr)),
            "424280050001000000000000076578616d706c6503636f6d0000fc0001");
}

TEST(ServerGolden, ReferralWithGlue) {
  EXPECT_EQ(answer_hex(make_server(),
                       query_wire("deep.api.example.com", RrType::kA)),
            "424280000001000000010001046465657003617069076578616d706c6503636f"
            "6d0000010001c0110002000100000e100005026e73c011c03200010001000001"
            "2c0004c0000235");
}

TEST(ServerGolden, TrafficManagerDynamicCname) {
  AuthoritativeServer server;
  auto& zone = server.add_zone(Name::must_parse("trafficmanager.net"),
                               soa_for("trafficmanager.net"));
  zone.add(ResourceRecord::cname(Name::must_parse("shop.trafficmanager.net"),
                                 Name::must_parse("static.example.com")));
  const std::vector<Name> members = {
      Name::must_parse("shop-east.cloudapp.net"),
      Name::must_parse("shop-west.cloudapp.net")};
  server.set_dynamic_answer(
      [members](net::Ipv4 client,
                const Name& qname) -> std::optional<ResourceRecord> {
        if (qname != Name::must_parse("shop.trafficmanager.net"))
          return std::nullopt;
        return ResourceRecord::cname(
            qname, members[(client.value() >> 8) % members.size()], 30);
      });
  const auto query = query_wire("shop.trafficmanager.net", RrType::kA);
  EXPECT_EQ(answer_hex(server, query, net::Ipv4(198, 51, 100, 1)),
            "4242840000010001000000000473686f700e747261666669636d616e61676572"
            "036e65740000010001c00c000500010000001e00150973686f702d6561737408"
            "636c6f7564617070c020");
  EXPECT_EQ(answer_hex(server, query, net::Ipv4(198, 51, 101, 1)),
            "4242840000010001000000000473686f700e747261666669636d616e61676572"
            "036e65740000010001c00c000500010000001e00150973686f702d7765737408"
            "636c6f7564617070c020");
}

TEST(ServerGolden, MixedCaseQuestionEchoedLowerCased) {
  const std::vector<std::uint8_t> query = {
      0x42, 0x42, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x03, 'W',  'w',  'W',  0x07, 'E',  'x',  'A',  'm',  'p',  'L',  'e',
      0x03, 'C',  'O',  'M',  0x00, 0x00, 0x01, 0x00, 0x01,
  };
  EXPECT_EQ(answer_hex(make_server(), query), "42428400000100010000000003777777076578616d706c6503636f6d00000100"
            "01c00c000100010000012c0004c000020a");
}

}  // namespace
}  // namespace cs::dns
