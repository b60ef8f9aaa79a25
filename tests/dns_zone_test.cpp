#include "dns/zone.h"

#include <gtest/gtest.h>

namespace cs::dns {
namespace {

SoaRecord test_soa() {
  SoaRecord soa;
  soa.mname = Name::must_parse("ns1.example.com");
  soa.rname = Name::must_parse("hostmaster.example.com");
  soa.serial = 1;
  return soa;
}

Zone make_zone() {
  Zone zone{Name::must_parse("example.com"), test_soa()};
  zone.add(ResourceRecord::a(Name::must_parse("www.example.com"),
                             net::Ipv4(192, 0, 2, 1)));
  zone.add(ResourceRecord::a(Name::must_parse("www.example.com"),
                             net::Ipv4(192, 0, 2, 2)));
  zone.add(ResourceRecord::cname(Name::must_parse("m.example.com"),
                                 Name::must_parse("www.example.com")));
  zone.add(ResourceRecord::ns(Name::must_parse("sub.example.com"),
                              Name::must_parse("ns.sub.example.com")));
  zone.add(ResourceRecord::a(Name::must_parse("ns.sub.example.com"),
                             net::Ipv4(192, 0, 2, 53)));
  return zone;
}

TEST(Zone, ApexSoaPresent) {
  const auto zone = make_zone();
  const auto soa = zone.find(zone.origin(), RrType::kSoa);
  ASSERT_EQ(soa.size(), 1u);
  EXPECT_EQ(std::get<SoaRecord>(soa[0].data).serial, 1u);
}

TEST(Zone, FindByType) {
  const auto zone = make_zone();
  const auto a = zone.find(Name::must_parse("www.example.com"), RrType::kA);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(zone.find(Name::must_parse("www.example.com"), RrType::kCname)
                  .empty());
}

TEST(Zone, FindAnyReturnsEverythingAtName) {
  const auto zone = make_zone();
  EXPECT_EQ(zone.find(Name::must_parse("www.example.com"), RrType::kAny)
                .size(),
            2u);
}

TEST(Zone, RejectsOutOfZoneRecords) {
  auto zone = make_zone();
  EXPECT_FALSE(zone.add(ResourceRecord::a(Name::must_parse("other.org"),
                                          net::Ipv4(1, 1, 1, 1))));
}

TEST(Zone, CnameExclusivity) {
  auto zone = make_zone();
  // Other data beside an existing CNAME is rejected.
  EXPECT_FALSE(zone.add(ResourceRecord::a(Name::must_parse("m.example.com"),
                                          net::Ipv4(2, 2, 2, 2))));
  // CNAME beside existing A data is rejected.
  EXPECT_FALSE(zone.add(ResourceRecord::cname(
      Name::must_parse("www.example.com"), Name::must_parse("x.example.com"))));
}

TEST(Zone, HasName) {
  const auto zone = make_zone();
  EXPECT_TRUE(zone.node(Name::must_parse("www.example.com").wire()));
  EXPECT_FALSE(zone.node(Name::must_parse("missing.example.com").wire()));
}

TEST(Zone, DelegationCutFindsNsOwner) {
  const auto zone = make_zone();
  const auto cut =
      zone.delegation_cut(
      Name::must_parse("deep.host.sub.example.com").wire());
  ASSERT_TRUE(cut);
  EXPECT_EQ(cut->to_string(), "sub.example.com");
  EXPECT_FALSE(
      zone.delegation_cut(Name::must_parse("www.example.com").wire()));
}

TEST(Zone, DelegationCutIgnoresApexNs) {
  Zone zone{Name::must_parse("example.com"), test_soa()};
  zone.add(ResourceRecord::ns(Name::must_parse("example.com"),
                              Name::must_parse("ns1.example.com")));
  // Apex NS records are not a delegation away from this zone.
  const auto cut =
      zone.delegation_cut(Name::must_parse("www.example.com").wire());
  // delegation_cut may return the apex; the server filters that case — but
  // the Zone contract here reports only non-apex cuts for names below apex.
  if (cut) {
    EXPECT_EQ(*cut, zone.origin());
  }
}

TEST(Zone, AxfrFramedBySoa) {
  const auto zone = make_zone();
  const auto records = zone.axfr();
  ASSERT_GE(records.size(), 3u);
  EXPECT_EQ(records.front().type(), RrType::kSoa);
  EXPECT_EQ(records.back().type(), RrType::kSoa);
  // All five added records appear between the SOA frames.
  EXPECT_EQ(records.size(), 2u + 5u);
}

TEST(Zone, RecordCountTracksAdds) {
  auto zone = make_zone();
  const auto before = zone.record_count();
  zone.add(ResourceRecord::a(Name::must_parse("new.example.com"),
                             net::Ipv4(3, 3, 3, 3)));
  EXPECT_EQ(zone.record_count(), before + 1);
}

TEST(Zone, NamesInCanonicalOrder) {
  const auto zone = make_zone();
  const auto names = zone.names();
  for (std::size_t i = 1; i < names.size(); ++i)
    EXPECT_TRUE(Name::canonical_less(names[i - 1], names[i]));
}

}  // namespace
}  // namespace cs::dns
