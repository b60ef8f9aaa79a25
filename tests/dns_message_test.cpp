#include "dns/message.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/rng.h"

namespace cs::dns {
namespace {

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const auto b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

Name n(std::string_view text) { return Name::must_parse(text); }

SoaRecord example_soa() {
  SoaRecord soa;
  soa.mname = n("ns1.example.com");
  soa.rname = n("hostmaster.example.com");
  soa.serial = 2013032701;
  return soa;
}

Message sample_response() {
  auto query = Message::query(0x1234, Name::must_parse("www.example.com"),
                              RrType::kA, true);
  Message resp = Message::response_to(query, Rcode::kNoError, true);
  resp.answers.push_back(ResourceRecord::cname(
      Name::must_parse("www.example.com"),
      Name::must_parse("lb-7.elb.amazonaws.com"), 60));
  resp.answers.push_back(ResourceRecord::a(
      Name::must_parse("lb-7.elb.amazonaws.com"), net::Ipv4(54, 1, 2, 3)));
  resp.authority.push_back(ResourceRecord::ns(
      Name::must_parse("example.com"), Name::must_parse("ns1.example.com")));
  resp.additional.push_back(ResourceRecord::a(
      Name::must_parse("ns1.example.com"), net::Ipv4(198, 51, 100, 1)));
  return resp;
}

TEST(Message, QueryEncodeDecodeRoundTrip) {
  const auto q =
      Message::query(7, Name::must_parse("example.com"), RrType::kNs, false);
  const auto decoded = Message::decode(q.encode());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, q);
}

TEST(Message, ResponseRoundTripAllSections) {
  const auto resp = sample_response();
  const auto decoded = Message::decode(resp.encode());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, resp);
}

TEST(Message, EncodeQueryRoundTrip) {
  for (const bool rd : {false, true}) {
    for (const auto type : {RrType::kA, RrType::kAxfr, RrType::kAny}) {
      for (const char* name : {"www.example.com", "a.b", "x", "."}) {
        const auto decoded =
            Message::decode(encode_query(0xBEEF, n(name), type, rd));
        ASSERT_TRUE(decoded);
        EXPECT_EQ(*decoded, Message::query(0xBEEF, n(name), type, rd));
      }
    }
  }
}

TEST(Message, HeaderFlagsSurvive) {
  auto m = Message::query(0xBEEF, Name::must_parse("a.b"), RrType::kA, true);
  m.header.qr = true;
  m.header.aa = true;
  m.header.ra = true;
  m.header.tc = true;
  m.header.rcode = Rcode::kNxDomain;
  const auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->header, m.header);
}

TEST(Message, CompressionShrinksRepeatedNames) {
  Message m = Message::query(1, Name::must_parse("www.example.com"),
                             RrType::kA, false);
  Message r = Message::response_to(m, Rcode::kNoError, true);
  for (int i = 0; i < 10; ++i)
    r.answers.push_back(ResourceRecord::a(
        Name::must_parse("www.example.com"), net::Ipv4(10, 0, 0, i)));
  const auto wire = r.encode();
  // With compression each repeated owner name is a 2-byte pointer; without
  // it each would be 17 bytes. 10 answers, so the total must be well under
  // the uncompressed size.
  const std::size_t uncompressed_estimate = 12 + 21 + 10 * (17 + 10 + 4);
  EXPECT_LT(wire.size(), uncompressed_estimate - 100);
  const auto decoded = Message::decode(wire);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, r);
}

TEST(Message, CompressionAcrossRdataNames) {
  Message m = Message::query(1, Name::must_parse("example.com"), RrType::kNs,
                             false);
  Message r = Message::response_to(m, Rcode::kNoError, true);
  r.answers.push_back(ResourceRecord::ns(Name::must_parse("example.com"),
                                         Name::must_parse("ns.example.com")));
  const auto decoded = Message::decode(r.encode());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, r);
}

TEST(Message, SoaAndTxtRoundTrip) {
  Message m = Message::query(2, Name::must_parse("example.com"), RrType::kAny,
                             false);
  Message r = Message::response_to(m, Rcode::kNoError, true);
  SoaRecord soa;
  soa.mname = Name::must_parse("ns1.example.com");
  soa.rname = Name::must_parse("hostmaster.example.com");
  soa.serial = 2013032701;
  r.answers.push_back(ResourceRecord::soa(Name::must_parse("example.com"),
                                          soa));
  r.answers.push_back(ResourceRecord::txt(Name::must_parse("example.com"),
                                          {"v=spf1 -all", "second"}));
  const auto decoded = Message::decode(r.encode());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, r);
}

TEST(Message, DecodeRejectsTruncation) {
  const auto wire = sample_response().encode();
  for (std::size_t cut : {0ul, 5ul, 11ul, wire.size() / 2, wire.size() - 1}) {
    const auto truncated =
        std::span<const std::uint8_t>{wire.data(), cut};
    EXPECT_FALSE(Message::decode(truncated)) << "cut=" << cut;
  }
}

TEST(Message, DecodeRejectsCompressionLoop) {
  // Hand-craft: header with 1 question whose name is a pointer to itself.
  std::vector<std::uint8_t> wire = {
      0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xC0, 0x0C,              // pointer to offset 12 = itself
      0x00, 0x01, 0x00, 0x01,  // type A, class IN
  };
  EXPECT_FALSE(Message::decode(wire));
}

TEST(Message, DecodeRejectsForwardPointer) {
  std::vector<std::uint8_t> wire = {
      0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xC0, 0x20,              // pointer past itself
      0x00, 0x01, 0x00, 0x01,
  };
  EXPECT_FALSE(Message::decode(wire));
}

TEST(Message, DecodeRejectsBadARdataLength) {
  auto r = sample_response();
  auto wire = r.encode();
  // Find the A rdlength (4) and corrupt it to 3. The A record for the ELB
  // name: search for the 2-byte big-endian 0x0004 preceding the address.
  bool corrupted = false;
  for (std::size_t i = 0; i + 6 < wire.size(); ++i) {
    if (wire[i] == 0x00 && wire[i + 1] == 0x04 && wire[i + 2] == 54 &&
        wire[i + 3] == 1 && wire[i + 4] == 2 && wire[i + 5] == 3) {
      wire[i + 1] = 0x03;
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_FALSE(Message::decode(wire));
}

TEST(Message, DecodeRejectsNonInClass) {
  auto q = Message::query(3, Name::must_parse("x.com"), RrType::kA, false);
  auto wire = q.encode();
  wire[wire.size() - 1] = 0x03;  // class CHAOS
  EXPECT_FALSE(Message::decode(wire));
}

TEST(Message, ResponseToEchoesIdAndQuestion) {
  const auto q =
      Message::query(0xAA55, Name::must_parse("foo.bar"), RrType::kCname,
                     true);
  const auto r = Message::response_to(q, Rcode::kRefused, false);
  EXPECT_EQ(r.header.id, q.header.id);
  EXPECT_TRUE(r.header.qr);
  EXPECT_TRUE(r.header.rd);
  EXPECT_EQ(r.header.rcode, Rcode::kRefused);
  ASSERT_EQ(r.questions.size(), 1u);
  EXPECT_EQ(r.questions[0], q.questions[0]);
}

TEST(Message, RcodeNames) {
  EXPECT_EQ(to_string(Rcode::kNoError), "NOERROR");
  EXPECT_EQ(to_string(Rcode::kNxDomain), "NXDOMAIN");
  EXPECT_EQ(to_string(Rcode::kRefused), "REFUSED");
}

// Golden wire bytes: each message's encoding is pinned octet for octet,
// including every compression pointer, so a codec rewrite cannot drift.

TEST(MessageGolden, NxdomainWithSoa) {
  const auto q = Message::query(0x0102, n("nope.example.com"), RrType::kA);
  Message r = Message::response_to(q, Rcode::kNxDomain, true);
  r.authority.push_back(ResourceRecord::soa(n("example.com"), example_soa(),
                                            300));
  const auto wire = r.encode();
  EXPECT_EQ(to_hex(wire),
            "010284030001000000010000046e6f7065076578616d706c6503636f6d000001"
            "0001c011000600010000012c0027036e7331c0110a686f73746d6173746572c0"
            "1177fc70fd00001c2000000384001275000000012c");
  EXPECT_EQ(Message::decode(wire), r);
}

TEST(MessageGolden, ReferralWithNsAndGlue) {
  const auto q = Message::query(0x0203, n("www.example.com"), RrType::kA);
  Message r = Message::response_to(q, Rcode::kNoError, false);
  for (const char* ns : {"ns1.example.com", "ns2.example.com"})
    r.authority.push_back(ResourceRecord::ns(n("example.com"), n(ns)));
  r.additional.push_back(
      ResourceRecord::a(n("ns1.example.com"), net::Ipv4(198, 51, 100, 1)));
  r.additional.push_back(
      ResourceRecord::a(n("ns2.example.com"), net::Ipv4(198, 51, 100, 2)));
  const auto wire = r.encode();
  EXPECT_EQ(to_hex(wire),
            "02038000000100000002000203777777076578616d706c6503636f6d00000100"
            "01c0100002000100000e100006036e7331c010c0100002000100000e10000603"
            "6e7332c010c02d000100010000012c0004c6336401c03f000100010000012c00"
            "04c6336402");
  EXPECT_EQ(Message::decode(wire), r);
}

TEST(MessageGolden, CrossZoneCnameChain) {
  const auto q = Message::query(0x0304, n("www.example.com"), RrType::kA);
  Message r = Message::response_to(q, Rcode::kNoError, true);
  r.answers.push_back(ResourceRecord::cname(n("www.example.com"),
                                            n("lb-7.elb.amazonaws.com"), 60));
  r.answers.push_back(ResourceRecord::cname(n("lb-7.elb.amazonaws.com"),
                                            n("d1-x.cloudfront.net"), 60));
  r.answers.push_back(
      ResourceRecord::a(n("d1-x.cloudfront.net"), net::Ipv4(54, 1, 2, 3)));
  const auto wire = r.encode();
  EXPECT_EQ(to_hex(wire),
            "03048400000100030000000003777777076578616d706c6503636f6d00000100"
            "01c00c000500010000003c0015046c622d3703656c6209616d617a6f6e617773"
            "c018c02d000500010000003c00150464312d780a636c6f756466726f6e74036e"
            "657400c04e000100010000012c000436010203");
  EXPECT_EQ(Message::decode(wire), r);
}

TEST(MessageGolden, SmallAxfr) {
  const auto q = Message::query(0x0405, n("example.com"), RrType::kAxfr);
  Message r = Message::response_to(q, Rcode::kNoError, true);
  const auto soa = ResourceRecord::soa(n("example.com"), example_soa());
  r.answers.push_back(soa);
  r.answers.push_back(ResourceRecord::ns(n("example.com"),
                                         n("ns1.example.com")));
  r.answers.push_back(
      ResourceRecord::a(n("ns1.example.com"), net::Ipv4(198, 51, 100, 1)));
  r.answers.push_back(ResourceRecord::cname(n("_dmarc.example.com"),
                                            n("mail-2.example.com")));
  r.answers.push_back(
      ResourceRecord::a(n("mail-2.example.com"), net::Ipv4(10, 0, 0, 2)));
  r.answers.push_back(
      ResourceRecord::txt(n("example.com"), {"v=spf1 -all", "x"}));
  r.answers.push_back(soa);
  const auto wire = r.encode();
  EXPECT_EQ(to_hex(wire),
            "040584000001000700000000076578616d706c6503636f6d0000fc0001c00c00"
            "06000100000e100027036e7331c00c0a686f73746d6173746572c00c77fc70fd"
            "00001c2000000384001275000000012cc00c0002000100000e100002c029c029"
            "000100010000012c0004c6336401065f646d617263c00c000500010000012c00"
            "09066d61696c2d32c00cc081000100010000012c00040a000002c00c00100001"
            "0000012c000e0b763d73706631202d616c6c0178c00c0006000100000e100018"
            "c029c02f77fc70fd00001c2000000384001275000000012c");
  EXPECT_EQ(Message::decode(wire), r);
}

TEST(MessageGolden, CompressionStopsPastPointerRange) {
  // Names first written beyond offset 0x3FFF cannot be pointer targets, so
  // their repeats are written in full; earlier names stay compressible.
  const auto q = Message::query(0x0506, n("big.example.com"), RrType::kA);
  Message r = Message::response_to(q, Rcode::kNoError, true);
  const auto host = [](int i) {
    return n("h" + std::to_string(i) + ".s" + std::to_string(i % 7) +
             ".example.com");
  };
  for (int i = 0; i < 900; ++i)
    r.answers.push_back(ResourceRecord::a(
        host(i), net::Ipv4(10, 0, static_cast<std::uint8_t>(i >> 8),
                           static_cast<std::uint8_t>(i))));
  for (int i = 0; i < 900; i += 3)
    r.additional.push_back(ResourceRecord::cname(host(899 - i), host(i)));
  const auto wire = r.encode();
  ASSERT_GT(wire.size(), 0x3FFFu);
  EXPECT_EQ(wire.size(), 23434u);
  EXPECT_EQ(util::stable_hash(to_hex(wire)), 4637719680434185923u);
  EXPECT_EQ(Message::decode(wire), r);
}

TEST(MessageGolden, DecodeLowerCasesWireLabels) {
  std::vector<std::uint8_t> wire = {
      0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x03, 'W',  'w',  'W',  0x07, 'E',  'x',  'A',  'm',  'p',  'L',  'e',
      0x03, 'C',  'O',  'M',  0x00, 0x00, 0x01, 0x00, 0x01,
  };
  const auto m = Message::decode(wire);
  ASSERT_TRUE(m);
  ASSERT_EQ(m->questions.size(), 1u);
  EXPECT_EQ(m->questions[0].name, n("www.example.com"));
  EXPECT_EQ(m->questions[0].name.to_string(), "www.example.com");
}

TEST(MessageGolden, DecodeRejectsInvalidLabelOctet) {
  for (const std::uint8_t bad : {std::uint8_t{'.'}, std::uint8_t{' '},
                                 std::uint8_t{'*'}, std::uint8_t{0x80}}) {
    std::vector<std::uint8_t> wire = {
        0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x03, 'a',  bad,  'c',  0x03, 'c',  'o',  'm',
        0x00, 0x00, 0x01, 0x00, 0x01,
    };
    EXPECT_FALSE(Message::decode(wire)) << "octet " << int{bad};
  }
}

TEST(MessageGolden, DecodeRejectsNameOver255ThroughPointers) {
  // Four 63-octet labels (256 wire octets with the root) spread over four
  // names that point at each other: each name alone is legal, the last
  // one's expansion is not.
  std::vector<std::uint8_t> wire = {0x00, 0x01, 0x00, 0x00, 0x00, 0x04,
                                    0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  std::size_t prev = 0;
  for (int i = 0; i < 4; ++i) {
    const std::size_t at = wire.size();
    wire.push_back(63);
    wire.insert(wire.end(), 63, static_cast<std::uint8_t>('a' + i));
    if (i == 0) {
      wire.push_back(0x00);
    } else {
      wire.push_back(static_cast<std::uint8_t>(0xC0 | (prev >> 8)));
      wire.push_back(static_cast<std::uint8_t>(prev));
    }
    wire.insert(wire.end(), {0x00, 0x01, 0x00, 0x01});
    prev = at;
  }
  EXPECT_FALSE(Message::decode(wire));
  // Three of them (193 octets) decode.
  wire[5] = 0x03;
  std::vector<std::uint8_t> three{wire.begin(),
                                  wire.begin() + static_cast<long>(prev)};
  const auto m = Message::decode(three);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->questions[2].name.wire_length(), 193u);
}

TEST(ResourceRecord, TypeFromVariant) {
  EXPECT_EQ(ResourceRecord::a(Name::must_parse("x.y"), net::Ipv4(1, 2, 3, 4))
                .type(),
            RrType::kA);
  EXPECT_EQ(ResourceRecord::cname(Name::must_parse("x.y"),
                                  Name::must_parse("z.y"))
                .type(),
            RrType::kCname);
}

TEST(ResourceRecord, PresentationFormat) {
  const auto rr = ResourceRecord::a(Name::must_parse("www.example.com"),
                                    net::Ipv4(93, 184, 216, 34), 300);
  EXPECT_EQ(rr.to_string(), "www.example.com 300 IN A 93.184.216.34");
}

}  // namespace
}  // namespace cs::dns
