// Fuzz-style robustness properties: corrupted and truncated inputs to the
// file/wire parsers must produce clean errors, never crashes, hangs or
// out-of-bounds reads (run these under ASan/UBSan for full value).
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "dns/message.h"
#include "dns/resolver.h"
#include "dns/zonefile.h"
#include "pcap/decode.h"
#include "pcap/file.h"
#include "proto/http.h"
#include "proto/logfile.h"
#include "proto/tls.h"
#include "synth/world.h"
#include "util/rng.h"

namespace cs {
namespace {

// ---------------------------------------------------------------------
class DnsWireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DnsWireFuzz, RandomBytesNeverCrashDecoder) {
  util::Rng rng{GetParam()};
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(300));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    (void)dns::Message::decode(junk);  // any result is fine; no crash
  }
}

TEST_P(DnsWireFuzz, BitFlippedMessagesNeverCrash) {
  util::Rng rng{GetParam() * 3};
  auto message = dns::Message::query(
      9, dns::Name::must_parse("www.example.com"), dns::RrType::kA);
  message.answers.push_back(dns::ResourceRecord::cname(
      dns::Name::must_parse("www.example.com"),
      dns::Name::must_parse("lb.elb.amazonaws.com")));
  auto wire = message.encode();
  for (int trial = 0; trial < 500; ++trial) {
    auto corrupted = wire;
    const auto flips = 1 + rng.next_below(4);
    for (std::uint64_t f = 0; f < flips; ++f)
      corrupted[rng.next_below(corrupted.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    (void)dns::Message::decode(corrupted);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnsWireFuzz,
                         ::testing::Range<std::uint64_t>(1, 6));

// ---------------------------------------------------------------------
// Differential codec check: MessageView::walk accepts exactly the
// datagrams a straightforward reference decoder accepts, and where it
// does, the view and the materialised Message agree with the reference
// on the header, the counts and every name. The reference is the codec as
// it read datagrams before the walker: one bounds-checked cursor, names
// decompressed label by label and validated through Name::from_labels.

class ReferenceReader {
 public:
  explicit ReferenceReader(std::span<const std::uint8_t> wire) : wire_(wire) {}
  bool ok() const { return ok_; }
  std::size_t pos() const { return pos_; }
  std::uint8_t u8() {
    if (pos_ + 1 > wire_.size()) return fail(), 0;
    return wire_[pos_++];
  }
  std::uint16_t u16() {
    const std::uint16_t hi = u8();
    return static_cast<std::uint16_t>((hi << 8) | u8());
  }
  std::uint32_t u32() {
    const std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }
  std::string bytes(std::size_t n) {
    if (pos_ + n > wire_.size()) return fail(), std::string{};
    std::string out(reinterpret_cast<const char*>(wire_.data()) + pos_, n);
    pos_ += n;
    return out;
  }
  dns::Name name() {
    std::vector<std::string> labels;
    std::size_t cursor = pos_;
    bool jumped = false;
    for (int hops = 0;;) {
      if (cursor >= wire_.size()) return fail(), dns::Name{};
      const std::uint8_t len = wire_[cursor];
      if ((len & 0xC0) == 0xC0) {
        if (cursor + 1 >= wire_.size() || ++hops > 64)
          return fail(), dns::Name{};
        const std::size_t target =
            (static_cast<std::size_t>(len & 0x3F) << 8) | wire_[cursor + 1];
        if (!jumped) pos_ = cursor + 2;
        jumped = true;
        if (target >= cursor) return fail(), dns::Name{};
        cursor = target;
        continue;
      }
      if (len > 63 || (len > 0 && cursor + 1 + len > wire_.size()))
        return fail(), dns::Name{};
      if (len == 0) break;
      labels.emplace_back(reinterpret_cast<const char*>(wire_.data()) +
                              cursor + 1,
                          len);
      cursor += 1 + len;
    }
    if (!jumped) pos_ = cursor + 1;
    auto name = dns::Name::from_labels(labels);
    if (!name) return fail(), dns::Name{};
    return *name;
  }
  void fail() { ok_ = false; }

 private:
  std::span<const std::uint8_t> wire_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

std::optional<dns::ResourceRecord> reference_record(ReferenceReader& r) {
  dns::ResourceRecord rr;
  rr.name = r.name();
  const auto type = static_cast<dns::RrType>(r.u16());
  const auto klass = r.u16();
  rr.ttl = r.u32();
  const std::uint16_t rdlength = r.u16();
  if (!r.ok() || klass != 1) return std::nullopt;
  const std::size_t end = r.pos() + rdlength;
  switch (type) {
    case dns::RrType::kA:
      if (rdlength != 4) return std::nullopt;
      rr.data = dns::ARecord{net::Ipv4{r.u32()}};
      break;
    case dns::RrType::kNs:
      rr.data = dns::NsRecord{r.name()};
      break;
    case dns::RrType::kCname:
      rr.data = dns::CnameRecord{r.name()};
      break;
    case dns::RrType::kSoa: {
      dns::SoaRecord soa;
      soa.mname = r.name();
      soa.rname = r.name();
      soa.serial = r.u32();
      soa.refresh = r.u32();
      soa.retry = r.u32();
      soa.expire = r.u32();
      soa.minimum = r.u32();
      rr.data = soa;
      break;
    }
    case dns::RrType::kTxt: {
      dns::TxtRecord txt;
      while (r.ok() && r.pos() < end) txt.strings.push_back(r.bytes(r.u8()));
      rr.data = txt;
      break;
    }
    default:
      return std::nullopt;
  }
  if (!r.ok() || r.pos() != end) return std::nullopt;
  return rr;
}

std::optional<dns::Message> reference_decode(
    std::span<const std::uint8_t> wire) {
  ReferenceReader r{wire};
  dns::Message m;
  m.header.id = r.u16();
  const std::uint16_t flags = r.u16();
  m.header.qr = flags & 0x8000;
  m.header.opcode = static_cast<dns::Opcode>((flags >> 11) & 0xF);
  m.header.aa = flags & 0x0400;
  m.header.tc = flags & 0x0200;
  m.header.rd = flags & 0x0100;
  m.header.ra = flags & 0x0080;
  m.header.rcode = static_cast<dns::Rcode>(flags & 0xF);
  const std::uint16_t counts[4] = {r.u16(), r.u16(), r.u16(), r.u16()};
  if (!r.ok()) return std::nullopt;
  for (int i = 0; i < counts[0]; ++i) {
    dns::Question q;
    q.name = r.name();
    q.type = static_cast<dns::RrType>(r.u16());
    if (r.u16() != 1 || !r.ok()) return std::nullopt;
    m.questions.push_back(q);
  }
  std::vector<dns::ResourceRecord>* sections[3] = {&m.answers, &m.authority,
                                                   &m.additional};
  for (int s = 0; s < 3; ++s)
    for (int i = 0; i < counts[s + 1]; ++i) {
      auto rr = reference_record(r);
      if (!rr) return std::nullopt;
      sections[s]->push_back(*rr);
    }
  return m;
}

/// Asserts the walker and the reference agree on `wire`; returns whether
/// both accepted it.
bool walker_matches_reference(std::span<const std::uint8_t> wire) {
  const auto reference = reference_decode(wire);
  const auto view = dns::MessageView::walk(wire);
  EXPECT_EQ(view.has_value(), reference.has_value());
  if (!view || !reference) return false;
  EXPECT_EQ(dns::Message::decode(wire), reference);
  EXPECT_EQ(view->header().id, reference->header.id);
  EXPECT_EQ(view->header().qr, reference->header.qr);
  EXPECT_EQ(view->header().rcode, reference->header.rcode);
  EXPECT_EQ(view->question_count(), reference->questions.size());
  dns::NameBuf name;
  for (std::size_t i = 0; i < reference->questions.size(); ++i) {
    const auto q = view->question(i);
    view->read_name(q.name_at, name);
    EXPECT_EQ(name.wire(), reference->questions[i].name.wire());
    EXPECT_EQ(q.type, reference->questions[i].type);
  }
  const std::pair<dns::Section, const std::vector<dns::ResourceRecord>*>
      sections[] = {{dns::Section::kAnswer, &reference->answers},
                    {dns::Section::kAuthority, &reference->authority},
                    {dns::Section::kAdditional, &reference->additional}};
  for (const auto& [section, records] : sections) {
    EXPECT_EQ(view->records(section).size(), records->size());
    std::size_t i = 0;
    for (const auto& rr : view->records(section)) {
      if (i >= records->size()) break;
      const auto& expected = (*records)[i++];
      view->read_name(rr.name_at, name);
      EXPECT_EQ(name.wire(), expected.name.wire());
      EXPECT_EQ(rr.type, expected.type());
      EXPECT_EQ(rr.ttl, expected.ttl);
      if (const auto* ns = std::get_if<dns::NsRecord>(&expected.data)) {
        view->read_name(rr.rdata_at, name);
        EXPECT_EQ(name.wire(), ns->nameserver.wire());
      } else if (const auto* c = std::get_if<dns::CnameRecord>(&expected.data)) {
        view->read_name(rr.rdata_at, name);
        EXPECT_EQ(name.wire(), c->target.wire());
      }
    }
  }
  return true;
}

/// Every strict prefix and every single-byte XOR of `wire`, each checked.
void check_damaged_copies(const std::vector<std::uint8_t>& wire) {
  for (std::size_t cut = 0; cut < wire.size(); ++cut)
    walker_matches_reference({wire.data(), cut});
  auto damaged = wire;
  for (std::size_t at = 0; at < wire.size(); ++at) {
    for (unsigned mask = 1; mask < 256; ++mask) {
      damaged[at] = static_cast<std::uint8_t>(wire[at] ^ mask);
      walker_matches_reference(damaged);
    }
    damaged[at] = wire[at];
  }
}

dns::Name name_of(std::string_view text) {
  return dns::Name::must_parse(text);
}

/// The messages MessageGolden pins, built the same way.
std::vector<std::vector<std::uint8_t>> golden_wires() {
  using dns::Message;
  using dns::ResourceRecord;
  dns::SoaRecord soa;
  soa.mname = name_of("ns1.example.com");
  soa.rname = name_of("hostmaster.example.com");
  soa.serial = 2013032701;
  std::vector<std::vector<std::uint8_t>> out;

  auto q = Message::query(0x0102, name_of("nope.example.com"), dns::RrType::kA);
  auto r = Message::response_to(q, dns::Rcode::kNxDomain, true);
  r.authority.push_back(ResourceRecord::soa(name_of("example.com"), soa, 300));
  out.push_back(r.encode());

  q = Message::query(0x0203, name_of("www.example.com"), dns::RrType::kA);
  r = Message::response_to(q, dns::Rcode::kNoError, false);
  for (const char* ns : {"ns1.example.com", "ns2.example.com"})
    r.authority.push_back(
        ResourceRecord::ns(name_of("example.com"), name_of(ns)));
  r.additional.push_back(ResourceRecord::a(name_of("ns1.example.com"),
                                           net::Ipv4(198, 51, 100, 1)));
  r.additional.push_back(ResourceRecord::a(name_of("ns2.example.com"),
                                           net::Ipv4(198, 51, 100, 2)));
  out.push_back(r.encode());

  q = Message::query(0x0304, name_of("www.example.com"), dns::RrType::kA);
  r = Message::response_to(q, dns::Rcode::kNoError, true);
  r.answers.push_back(ResourceRecord::cname(
      name_of("www.example.com"), name_of("lb-7.elb.amazonaws.com"), 60));
  r.answers.push_back(ResourceRecord::cname(name_of("lb-7.elb.amazonaws.com"),
                                            name_of("d1-x.cloudfront.net"), 60));
  r.answers.push_back(
      ResourceRecord::a(name_of("d1-x.cloudfront.net"), net::Ipv4(54, 1, 2, 3)));
  out.push_back(r.encode());

  q = Message::query(0x0405, name_of("example.com"), dns::RrType::kAxfr);
  r = Message::response_to(q, dns::Rcode::kNoError, true);
  r.answers.push_back(ResourceRecord::soa(name_of("example.com"), soa));
  r.answers.push_back(
      ResourceRecord::ns(name_of("example.com"), name_of("ns1.example.com")));
  r.answers.push_back(ResourceRecord::cname(name_of("_dmarc.example.com"),
                                            name_of("mail-2.example.com")));
  r.answers.push_back(
      ResourceRecord::txt(name_of("example.com"), {"v=spf1 -all", "x"}));
  r.answers.push_back(ResourceRecord::soa(name_of("example.com"), soa));
  out.push_back(r.encode());

  // Mixed-case labels, as DecodeLowerCasesWireLabels feeds them.
  out.push_back({0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
                 0x00, 0x00, 0x00, 0x03, 'W',  'w',  'W',  0x07, 'E',
                 'x',  'A',  'm',  'p',  'L',  'e',  0x03, 'C',  'O',
                 'M',  0x00, 0x00, 0x01, 0x00, 0x01});
  return out;
}

/// Records the reply of every exchange it forwards.
class ReplyRecorder final : public dns::DnsTransport {
 public:
  explicit ReplyRecorder(dns::DnsTransport& inner) : inner_(inner) {}
  std::optional<std::vector<std::uint8_t>> exchange(
      net::Ipv4 client, net::Ipv4 server,
      std::span<const std::uint8_t> query) override {
    auto reply = inner_.exchange(client, server, query);
    if (reply) replies.insert(*reply);
    return reply;
  }
  std::set<std::vector<std::uint8_t>> replies;

 private:
  dns::DnsTransport& inner_;
};

TEST(DnsWireDifferential, GoldenWiresAndTheirDamage) {
  for (const auto& wire : golden_wires()) {
    ASSERT_TRUE(walker_matches_reference(wire));
    check_damaged_copies(wire);
  }
}

TEST(DnsWireDifferential, WorldRepliesAndTheirDamage) {
  synth::WorldConfig config;
  config.domain_count = 24;
  synth::World world{config};
  ReplyRecorder recorder{world.network()};
  world.set_transport_override(&recorder);
  {
    auto resolver = world.make_resolver(net::Ipv4(199, 16, 0, 10));
    for (std::size_t d = 0; d < world.domains().size(); d += 3) {
      const auto& domain = world.domains()[d];
      resolver.try_axfr(domain.name);
      resolver.resolve(*domain.name.child("no-such-host"), dns::RrType::kA);
      for (const auto& sub : domain.subdomains)
        resolver.resolve(sub.name, dns::RrType::kA);
    }
  }
  world.set_transport_override(nullptr);
  // The sample: the first reply of each shape (the flags, and which
  // sections hold records), so referrals with and without glue, answers,
  // NXDOMAIN, NODATA and refusals all take part without hundreds of
  // near-copies.
  std::set<std::array<int, 5>> shapes;
  for (const auto& wire : recorder.replies) {
    ASSERT_TRUE(walker_matches_reference(wire));
    const std::array<int, 5> shape{wire[2], wire[3], wire[7] != 0,
                                   wire[9] != 0, wire[11] != 0};
    if (!shapes.insert(shape).second) continue;
    // The XOR sweep is 255 copies per octet; big AXFR replies get the
    // prefix sweep only.
    if (wire.size() <= 512) {
      check_damaged_copies(wire);
    } else {
      for (std::size_t cut = 0; cut < wire.size(); ++cut)
        walker_matches_reference({wire.data(), cut});
    }
  }
  EXPECT_GE(shapes.size(), 5u) << "the sample lacks reply shapes";
}

// ---------------------------------------------------------------------
class FrameFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrameFuzz, CorruptedFramesNeverCrashDecoder) {
  util::Rng rng{GetParam()};
  const std::vector<std::uint8_t> payload(200, 'x');
  const auto packet = pcap::make_tcp_packet(
      1.0, {net::Ipv4(10, 0, 0, 1), 4000}, {net::Ipv4(54, 0, 0, 1), 80},
      {.ack = true}, 1, payload);
  for (int trial = 0; trial < 500; ++trial) {
    auto corrupted = packet.data;
    // Random truncation plus random byte smashes.
    corrupted.resize(rng.next_below(corrupted.size() + 1));
    for (std::uint64_t s = 0; s < 5 && !corrupted.empty(); ++s)
      corrupted[rng.next_below(corrupted.size())] =
          static_cast<std::uint8_t>(rng());
    const auto decoded = pcap::decode_frame(corrupted);
    if (decoded) {
      // If it decodes, the payload view must stay inside the buffer.
      const auto* begin = corrupted.data();
      const auto* end = corrupted.data() + corrupted.size();
      if (!decoded->payload.empty()) {
        EXPECT_GE(decoded->payload.data(), begin);
        EXPECT_LE(decoded->payload.data() + decoded->payload.size(), end);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzz,
                         ::testing::Range<std::uint64_t>(1, 6));

// ---------------------------------------------------------------------
class TextParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TextParserFuzz, HttpParserSurvivesGarbage) {
  util::Rng rng{GetParam()};
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(400));
    for (auto& b : junk)
      b = static_cast<std::uint8_t>(32 + rng.next_below(95));
    // Sprinkle CRLFs so the head-end scanner engages.
    for (std::uint64_t i = 0; i + 4 < junk.size(); i += 37) {
      junk[i] = '\r';
      junk[i + 1] = '\n';
    }
    (void)proto::parse_requests(junk);
    (void)proto::parse_responses(junk);
  }
}

TEST_P(TextParserFuzz, TlsExtractorsSurviveGarbage) {
  util::Rng rng{GetParam() * 7};
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    if (!junk.empty()) junk[0] = 22;  // force the TLS content-type path
    (void)proto::extract_sni(junk);
    (void)proto::extract_certificate_cn(junk);
  }
}

TEST_P(TextParserFuzz, ZonefileParserSurvivesGarbage) {
  util::Rng rng{GetParam() * 13};
  static const char* kFragments[] = {
      "$ORIGIN x.net.", "@ 3600 IN SOA ns.x.net. r.x.net. 1 2 3 4 5",
      "www 60 IN A 1.2.3.4", "IN A", "}{", "60 IN", "@", ";;;",
      "a..b 60 IN A 1.1.1.1", "www 9999999999999 IN A 1.2.3.4"};
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const auto lines = 1 + rng.next_below(12);
    for (std::uint64_t i = 0; i < lines; ++i) {
      text += kFragments[rng.next_below(std::size(kFragments))];
      text += '\n';
    }
    (void)dns::parse_zonefile(text);  // must not crash
  }
}

TEST_P(TextParserFuzz, ConnLogParserSurvivesGarbage) {
  util::Rng rng{GetParam() * 17};
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const auto lines = rng.next_below(12);
    for (std::uint64_t i = 0; i < lines; ++i) {
      const auto fields = rng.next_below(14);
      for (std::uint64_t f = 0; f < fields; ++f) {
        text += std::to_string(rng.next_below(1000));
        text += '\t';
      }
      text += '\n';
    }
    (void)proto::parse_conn_log(text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextParserFuzz,
                         ::testing::Range<std::uint64_t>(1, 5));

// ---------------------------------------------------------------------
TEST(PcapFileFuzz, TruncatedFilesErrorCleanly) {
  const auto path = std::filesystem::temp_directory_path() /
                    "cs_fuzz_trunc.pcap";
  const auto rewrite = [&path]() {
    pcap::PcapWriter writer{path.string()};
    for (int i = 0; i < 4; ++i) {
      pcap::Packet packet;
      packet.timestamp = i;
      packet.data.assign(64, static_cast<std::uint8_t>(i));
      writer.write(packet);
    }
  };
  rewrite();
  const auto full_size = std::filesystem::file_size(path);
  for (std::uintmax_t cut = 0; cut < full_size; cut += 7) {
    rewrite();
    std::filesystem::resize_file(path, cut);
    if (cut < 4) {
      // Not even the magic survives.
      EXPECT_THROW(pcap::PcapReader{path.string()}, std::runtime_error);
      continue;
    }
    // Anything longer must open-or-throw, and reading must either yield
    // packets or throw — never hang or crash.
    try {
      pcap::PcapReader reader{path.string()};
      while (reader.next()) {
      }
    } catch (const std::runtime_error&) {
    }
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cs
