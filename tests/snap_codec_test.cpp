// cs::snap codec coverage: every stage artifact must round-trip through
// its binary codec byte-identically, in bytes pinned by a golden value,
// and every way a snapshot file or payload can be damaged — truncation,
// bit flips, foreign versions, a different study configuration — must be
// rejected with a SnapshotError, never a crash or a silent partial decode.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <ios>
#include <optional>
#include <span>
#include <vector>

#include "analysis/columns.h"
#include "analysis/dataset.h"
#include "core/study.h"
#include "exec/config.h"
#include "fault/fault.h"
#include "analysis/snapshot.h"
#include "snap/codec.h"
#include "snap/store.h"
#include "synth/world.h"

namespace cs::snap {
namespace {

core::StudyConfig small_config() {
  core::StudyConfig config;
  config.world.seed = 2013;
  config.world.domain_count = 100;
  config.traffic.total_web_bytes = 2ull * 1024 * 1024;
  config.dataset.lookup_vantages = 2;
  // Keep NS collection on: it populates the dataset's name-server and
  // AXFR fields, so the round-trip exercises every codec branch.
  config.dataset.collect_name_servers = true;
  config.campaign_vantages = 6;
  config.campaign_days = 0.25;
  config.isp_vantages = 10;
  return config;
}

/// One shared study for all round-trip tests; artifacts build lazily.
core::Study& shared_study() {
  static core::Study study{small_config()};
  return study;
}

template <typename T>
std::vector<std::uint8_t> encoded(const T& value) {
  Writer w;
  encode_artifact(w, value);
  return std::move(w).take();
}

/// The codec contract: encode(decode(encode(a))) == encode(a), and the
/// decoder consumes the payload exactly.
template <typename T>
void expect_roundtrip(const T& value) {
  const auto first = encoded(value);
  Reader r{first};
  T decoded{};
  decode_artifact(r, decoded);
  r.require_done();
  EXPECT_EQ(first, encoded(decoded));
}

TEST(ArtifactRoundTrip, Dataset) { expect_roundtrip(shared_study().dataset()); }
TEST(ArtifactRoundTrip, CloudUsage) {
  expect_roundtrip(shared_study().cloud_usage());
}
TEST(ArtifactRoundTrip, Patterns) {
  expect_roundtrip(shared_study().patterns());
}
TEST(ArtifactRoundTrip, Regions) { expect_roundtrip(shared_study().regions()); }
TEST(ArtifactRoundTrip, CaptureLogs) {
  expect_roundtrip(shared_study().capture_logs());
}
TEST(ArtifactRoundTrip, Capture) { expect_roundtrip(shared_study().capture()); }
TEST(ArtifactRoundTrip, ZoneStudy) {
  expect_roundtrip(shared_study().zone_study());
}
TEST(ArtifactRoundTrip, Campaign) {
  expect_roundtrip(shared_study().campaign());
}
TEST(ArtifactRoundTrip, IspStudy) {
  expect_roundtrip(shared_study().isp_study());
}

TEST(ArtifactRoundTrip, EmptyArtifactsRoundTripToo) {
  // Degraded stages substitute default-constructed artifacts; those must
  // be encodable as well.
  expect_roundtrip(analysis::AlexaDataset{});
  expect_roundtrip(analysis::CloudUsageReport{});
  expect_roundtrip(analysis::PatternReport{});
  expect_roundtrip(analysis::RegionReport{});
  expect_roundtrip(proto::TraceLogs{});
  expect_roundtrip(analysis::CaptureReport{});
  expect_roundtrip(analysis::ZoneStudy{});
  expect_roundtrip(analysis::Campaign{});
  expect_roundtrip(analysis::IspStudy{});
  expect_roundtrip(analysis::DatasetColumns{});
  expect_roundtrip(analysis::PartialDataset{});
}

// ---------------------------------------------------------------------
// Golden bytes. Round trips only prove that encode and decode agree with
// each other; these pin the format itself. Each artifact type gets one
// small hand-built value with every field away from its default and
// optionals both set and unset. The constants are the FNV-1a of the
// encoding: a change that moves a byte must bump kFormatVersion, not
// re-capture them.

dns::Name name(const char* text) { return dns::Name::must_parse(text); }

util::Cdf cdf(std::vector<double> samples) { return util::Cdf{samples}; }

analysis::AlexaDataset golden_dataset() {
  analysis::AlexaDataset d;
  analysis::SubdomainObservation& s = d.cloud_subdomains.emplace_back();
  s.name = name("www.example.com");
  s.domain = name("example.com");
  s.addresses = {net::Ipv4{54, 0, 0, 1}, net::Ipv4{23, 0, 0, 2}};
  s.cnames = {name("lb-1.us-east-1.elb.amazonaws.com")};
  s.direct_a_record = true;
  s.has_other_address = true;
  s.has_ec2_address = true;
  s.has_azure_address = true;
  s.has_cloudfront_address = true;
  s.name_servers = {{name("ns1.example.com"), {net::Ipv4{8, 8, 8, 8}}},
                    {name("ns2.example.com"), {}}};
  analysis::DomainObservation& dom = d.domains.emplace_back();
  dom.name = name("example.com");
  dom.rank = 7;
  dom.axfr_succeeded = true;
  dom.subdomains_probed = 3;
  dom.cloud_subdomains = {0};
  dom.other_only_subdomains = 1;
  dom.failed_lookups.set(dns::Rcode::kServFail, 2);
  dom.failed_lookups.set(dns::Rcode::kNxDomain, 5);
  dom.unresolved_subdomains = 1;
  d.dns_queries_spent = 42;
  return d;
}

/// Built column by column rather than through from_dataset, so the pin
/// holds even if the row-to-column conversion changes.
analysis::DatasetColumns golden_columns() {
  analysis::DatasetColumns c;
  const auto apex = c.names.intern("example.org");
  const auto www = c.names.intern("www.example.org");
  const auto ns = c.names.intern("ns.example.org");
  auto& sub = c.subdomains;
  sub.name = {www};
  sub.domain = {apex};
  sub.flags = {analysis::DatasetColumns::kDirectA |
               analysis::DatasetColumns::kAzureAddress};
  sub.address_off = {0, 1};
  sub.address_pool = {net::Ipv4{40, 0, 0, 9}};
  sub.cname_off = {0, 1};
  sub.cname_pool = {ns};
  sub.ns_off = {0, 1};
  sub.ns_name_pool = {ns};
  sub.ns_addr_off = {0, 2};
  sub.ns_addr_pool = {net::Ipv4{1, 2, 3, 4}, net::Ipv4{5, 6, 7, 8}};
  auto& dom = c.domains;
  dom.name = {apex};
  dom.rank = {3};
  dom.axfr = {1};
  dom.subdomains_probed = {4};
  dom.cloud_off = {0, 1};
  dom.cloud_pool = {0};
  dom.other_only = {2};
  dom.unresolved = {1};
  dom.failed_off = {0, 2};
  dom.failed_rcode_pool = {0, 5};
  dom.failed_count_pool = {9, 1};
  c.dns_queries_spent = 17;
  return c;
}

analysis::CloudUsageReport golden_cloud_usage() {
  analysis::CloudUsageReport v;
  v.domains = {1, 2, 3, 4, 5, 15};
  v.subdomains = {6, 7, 8, 9, 10, 40};
  v.top_ec2_domains = {{1, "a.com", 10, 4}, {3, "c.com", 2, 1}};
  v.top_azure_domains = {{2, "b.com", 5, 1}};
  v.top_quartile_fraction = 0.25;
  v.bottom_quartile_fraction = 0.125;
  v.top_prefixes = {{"www", 3}, {"api", 1}};
  return v;
}

analysis::FeatureUsage feature(std::size_t base) {
  return {.domains = base, .subdomains = base + 1, .instances = base + 2};
}

analysis::PatternReport golden_patterns() {
  analysis::PatternReport v;
  auto& d = v.detections.emplace_back();
  d.vm_front = d.elb = d.beanstalk = d.heroku = d.azure_cs = d.azure_tm =
      d.cloudfront = d.azure_cdn = d.unclassified = true;
  d.vm_instances = 2;
  d.physical_elbs = 3;
  d.logical_elbs = {name("lb-1.us-east-1.elb.amazonaws.com")};
  v.detections.emplace_back().elb = true;
  v.ec2_vm = feature(10);
  v.ec2_elb = feature(20);
  v.ec2_beanstalk = feature(30);
  v.ec2_heroku_elb = feature(40);
  v.ec2_heroku_no_elb = feature(50);
  v.azure_cs = feature(60);
  v.azure_tm = feature(70);
  v.cloudfront = feature(80);
  v.azure_cdn = feature(90);
  v.ec2_unclassified_subdomains = 1;
  v.azure_unclassified_subdomains = 2;
  v.ec2_subdomains = 3;
  v.azure_subdomains = 4;
  v.ec2_subdomains_with_cname = 5;
  v.azure_subdomains_with_cname = 6;
  v.azure_direct_ip_subdomains = 7;
  v.vm_instances_per_subdomain = cdf({1, 2, 2, 5});
  v.physical_elbs_per_subdomain = cdf({3});
  v.name_servers_per_subdomain = cdf({4, 1});
  v.subdomains_per_physical_elb = {{7, 2}, {9, 1}};
  v.ns_total = 8;
  v.ns_in_cloudfront = 9;
  v.ns_in_ec2 = 10;
  v.ns_in_azure = 11;
  v.ns_external = 12;
  return v;
}

analysis::RegionReport golden_regions() {
  analysis::RegionReport v;
  v.subdomain_regions = {{"us-east-1", "eu-west-1"}, {}};
  v.domains_per_region = {{"us-east-1", 2}, {"eu-west-1", 1}};
  v.subdomains_per_region = {{"us-east-1", 3}};
  v.regions_per_ec2_subdomain = cdf({1, 2});
  v.regions_per_azure_subdomain = cdf({1});
  v.regions_per_ec2_domain = cdf({1.5});
  v.regions_per_azure_domain = cdf({2, 2});
  v.ec2_single_region_fraction = 0.5;
  v.azure_single_region_fraction = 0.75;
  return v;
}

proto::TraceLogs golden_trace_logs() {
  proto::TraceLogs v;
  v.conns.push_back({.tuple = {.src = {net::Ipv4{10, 0, 0, 2}, 51000},
                               .dst = {net::Ipv4{54, 0, 0, 1}, 443},
                               .proto = net::IpProto::kTcp},
                     .service = proto::Service::kHttps,
                     .first_ts = 1.5,
                     .duration = 0.25,
                     .bytes = 4096,
                     .packets = 12,
                     .hostname = "www.example.com"});
  v.conns.push_back({.tuple = {.src = {net::Ipv4{10, 0, 0, 3}, 53},
                               .dst = {net::Ipv4{8, 8, 8, 8}, 53},
                               .proto = net::IpProto::kUdp},
                     .service = proto::Service::kDns,
                     .first_ts = 2,
                     .duration = 0.5,
                     .bytes = 80,
                     .packets = 2,
                     .hostname = std::nullopt});
  v.http.push_back({.host = "www.example.com",
                    .method = "GET",
                    .target = "/",
                    .status = 200,
                    .content_type = "text/html",
                    .content_length = std::nullopt});
  v.http.push_back({.host = "",
                    .method = "POST",
                    .target = "/api",
                    .status = -1,
                    .content_type = std::nullopt,
                    .content_length = 512});
  v.ssl.push_back({.sni = "www.example.com", .certificate_cn = std::nullopt});
  v.ssl.push_back({.sni = std::nullopt, .certificate_cn = "*.example.com"});
  return v;
}

analysis::CaptureReport golden_capture() {
  analysis::CaptureReport v;
  v.protocols.cloud_service = {
      {"ec2", {{"http", {100, 2}}, {"https", {50, 1}}}},
      {"azure", {{"dns", {10, 5}}}}};
  v.protocols.ec2_total = {150, 3};
  v.protocols.azure_total = {10, 5};
  v.protocols.total = {160, 8};
  v.top_ec2_domains = {{"a.com", 100, 62.5, 1}, {"x.net", 50, 31.25, 0}};
  v.top_azure_domains = {{"b.com", 10, 6.25, 2}};
  v.unique_domains_ec2 = 2;
  v.unique_domains_azure = 1;
  v.domains_in_alexa = 2;
  v.content_types = {{"text/html", 120, 75, 0.5, 0.001}};
  v.http_flows_per_domain_ec2 = cdf({1, 2});
  v.http_flows_per_domain_azure = cdf({3});
  v.https_flows_per_cn_ec2 = cdf({4});
  v.https_flows_per_cn_azure = cdf({5});
  v.http_flow_size_ec2 = cdf({6});
  v.http_flow_size_azure = cdf({7});
  v.https_flow_size_ec2 = cdf({8});
  v.https_flow_size_azure = cdf({9});
  v.top100_http_flow_share_ec2 = 0.9;
  v.top100_http_flow_share_azure = 0.8;
  return v;
}

analysis::ZoneStudy golden_zone_study() {
  analysis::ZoneStudy v;
  v.latency_rows.push_back({.region = "us-east-1",
                            .target_ips = 10,
                            .responded = 8,
                            .per_zone = {{-1, 1}, {2, 5}},
                            .unknown = 2});
  v.veracity_rows.push_back({.region = "us-east-1",
                             .total = 10,
                             .match = 6,
                             .unknown = 3,
                             .mismatch = 1});
  v.latency_accuracy_vs_truth = 0.875;
  v.proximity_accuracy_vs_truth = 0.625;
  v.subdomain_zones = {{0, 2}, {}};
  v.subdomain_primary_region = {"us-east-1", ""};
  v.usage_per_region = {
      {"us-east-1", {.domains = {{1, {"a.com", "b.com"}}, {-2, {}}},
                     .subdomains = {{1, 4}}}}};
  v.zones_per_subdomain = cdf({1, 2});
  v.zones_per_domain = cdf({1.5});
  v.fraction_one_zone = 0.5;
  v.fraction_two_zones = 0.25;
  v.fraction_three_plus = 0.125;
  v.combined_identified_fraction = 0.9375;
  return v;
}

analysis::Campaign golden_campaign() {
  analysis::Campaign v;
  v.vantages.push_back({.name = "planetlab1.seattle.us",
                        .location = {.point = {47.6, -122.3},
                                     .country = "US",
                                     .continent = "NA"},
                        .address = net::Ipv4{128, 95, 1, 1},
                        .asn = 73});
  v.region_names = {"us-east-1", "eu-west-1"};
  v.round_seconds = 600;
  v.rtt_ms = {{{1.5, std::nullopt}, {}}};
  v.tput_kbps = {{{std::nullopt, 300.0}, {12.5}}};
  v.dropped_rounds = {1, 0};
  return v;
}

analysis::IspStudy golden_isp_study() {
  analysis::IspStudy v;
  v.rows.push_back({.region = "us-east-1",
                    .per_zone = {{0, 3}, {1, 2}},
                    .max_single_isp_share = 0.5});
  v.rows.push_back({.region = "eu-west-1",
                    .per_zone = {},
                    .max_single_isp_share = 1});
  return v;
}

analysis::PartialDataset golden_partial() {
  analysis::PartialDataset v;
  v.columns = golden_columns();
  v.next_domain = v.columns.domain_count();
  return v;
}

template <typename T>
void expect_golden(const T& value, std::uint64_t expected) {
  const auto bytes = encoded(value);
  EXPECT_EQ(fnv1a(bytes), expected)
      << "fnv1a 0x" << std::hex << fnv1a(bytes) << std::dec << " over "
      << bytes.size() << " bytes";
  expect_roundtrip(value);
}

TEST(ArtifactGolden, Dataset) {
  expect_golden(golden_dataset(), 0xa96d74172634e794ULL);
}
TEST(ArtifactGolden, DatasetColumns) {
  expect_golden(golden_columns(), 0xdca2ad260b368859ULL);
}
TEST(ArtifactGolden, PartialDataset) {
  expect_golden(golden_partial(), 0xd8d11d79ef990358ULL);
}
TEST(ArtifactGolden, CloudUsage) {
  expect_golden(golden_cloud_usage(), 0x03d7c51c7fb01ebeULL);
}
TEST(ArtifactGolden, Patterns) {
  expect_golden(golden_patterns(), 0xde7c486bce1fa52aULL);
}
TEST(ArtifactGolden, Regions) {
  expect_golden(golden_regions(), 0x6927247ba9e974faULL);
}
TEST(ArtifactGolden, CaptureLogs) {
  expect_golden(golden_trace_logs(), 0x8165a5afa45298e5ULL);
}
TEST(ArtifactGolden, Capture) {
  expect_golden(golden_capture(), 0x9a470b62b0bf2035ULL);
}
TEST(ArtifactGolden, ZoneStudy) {
  expect_golden(golden_zone_study(), 0x9d6be4be386ad90eULL);
}
TEST(ArtifactGolden, Campaign) {
  expect_golden(golden_campaign(), 0xc11a7fab5b40c20fULL);
}
TEST(ArtifactGolden, IspStudy) {
  expect_golden(golden_isp_study(), 0xc77cdcf6a8bfa8c3ULL);
}

// ---------------------------------------------------------------------
// Decoders reject values their field cannot hold, so that every payload
// that decodes also re-encodes to the same bytes.

/// A TraceLogs payload written field by field: one conn record whose IP
/// protocol byte is `proto`.
std::vector<std::uint8_t> conn_payload(std::uint8_t proto) {
  Writer w;
  w.count(1);  // conns
  w.u32(0x0A000002);
  w.u16(51000);
  w.u32(0x36000001);
  w.u16(443);
  w.u8(proto);
  w.u8(static_cast<std::uint8_t>(proto::Service::kHttps));
  w.f64(1.5);
  w.f64(0.25);
  w.u64(4096);
  w.u64(12);
  w.boolean(false);  // hostname
  w.count(0);        // http
  w.count(0);        // ssl
  return std::move(w).take();
}

/// A TraceLogs payload with one HTTP record whose status is `status`.
std::vector<std::uint8_t> http_payload(std::uint64_t status) {
  Writer w;
  w.count(0);  // conns
  w.count(1);  // http
  w.str("www.example.com");
  w.str("GET");
  w.str("/");
  w.u64(status);
  w.boolean(false);  // content_type
  w.boolean(false);  // content_length
  w.count(0);        // ssl
  return std::move(w).take();
}

/// An IspStudy payload with one row whose per-zone map holds `zones`, in
/// the order given.
std::vector<std::uint8_t> isp_payload(std::vector<std::int64_t> zones) {
  Writer w;
  w.count(1);  // rows
  w.str("us-east-1");
  w.count(zones.size());
  for (const auto zone : zones) {
    w.u64(static_cast<std::uint64_t>(zone));
    w.u64(3);
  }
  w.f64(0.5);
  return std::move(w).take();
}

template <typename T>
T decoded(std::span<const std::uint8_t> payload) {
  Reader r{payload};
  T value;
  decode_artifact(r, value);
  r.require_done();
  return value;
}

TEST(ArtifactDecode, IpProtocolByteMustNameAKnownProtocol) {
  EXPECT_EQ(decoded<proto::TraceLogs>(conn_payload(6)).conns.at(0).tuple.proto,
            net::IpProto::kTcp);
  EXPECT_THROW(decoded<proto::TraceLogs>(conn_payload(42)), SnapshotError);
}

TEST(ArtifactDecode, HttpStatusMustFitInAnInt) {
  EXPECT_EQ(decoded<proto::TraceLogs>(http_payload(200)).http.at(0).status,
            200);
  // Signed fields travel sign-extended: -1 is all ones and valid.
  EXPECT_EQ(decoded<proto::TraceLogs>(http_payload(~0ull)).http.at(0).status,
            -1);
  EXPECT_THROW(decoded<proto::TraceLogs>(http_payload(1ull << 32)),
               SnapshotError);
}

TEST(ArtifactDecode, MapKeysMustStrictlyIncrease) {
  // A std::map re-encodes in key order, so a payload with a repeated or
  // out-of-order key could not have come from the encoder.
  EXPECT_EQ(decoded<analysis::IspStudy>(isp_payload({-1, 2})).rows.at(0)
                .per_zone.size(),
            2u);
  EXPECT_THROW(decoded<analysis::IspStudy>(isp_payload({2, 2})),
               SnapshotError);
  EXPECT_THROW(decoded<analysis::IspStudy>(isp_payload({2, -1})),
               SnapshotError);
}

// ---------------------------------------------------------------------
// Damage oracles over every stage artifact of the shared study: below the
// framing checksum, each decoder's own validation must contain truncation
// and arbitrary bit flips. A damaged payload either decodes to a value
// that re-encodes cleanly or throws SnapshotError; nothing else escapes.

/// Calls `fn(stage, artifact)` for each of the nine stage artifacts.
template <typename Fn>
void for_each_stage_artifact(Fn&& fn) {
  auto& study = shared_study();
  fn("dataset", study.dataset());
  fn("cloud_usage", study.cloud_usage());
  fn("patterns", study.patterns());
  fn("regions", study.regions());
  fn("capture_logs", study.capture_logs());
  fn("capture", study.capture());
  fn("zone_study", study.zone_study());
  fn("campaign", study.campaign());
  fn("isp_study", study.isp_study());
}

TEST(ArtifactDamage, PayloadTruncationsAreRejected) {
  // Each prefix decodes up to its end, so a full sweep is quadratic in
  // the payload size: ColumnarDataset sweeps every length of a tiny
  // dataset, and here each artifact gets about 2048 evenly spaced lengths.
  for_each_stage_artifact([]<typename T>(const char* stage, const T& value) {
    const auto payload = encoded(value);
    const std::size_t step = payload.size() / 2048 + 1;
    for (std::size_t len = 0; len < payload.size(); len += step) {
      Reader r{std::span{payload}.first(len)};
      T decoded{};
      EXPECT_THROW(decode_artifact(r, decoded), SnapshotError)
          << stage << " prefix length " << len;
    }
  });
}

TEST(ArtifactDamage, PayloadBitFlipsNeverEscapeAsCrashes) {
  fault::Spec spec;
  spec.corrupt = 1.0;
  spec.seed = 13;
  const fault::Plan plan{spec};
  for_each_stage_artifact([&]<typename T>(const char*, const T& value) {
    const auto payload = encoded(value);
    for (std::uint64_t trial = 0; trial < 128; ++trial) {
      auto rng = plan.stream(fault::Kind::kCorrupt, trial);
      auto copy = payload;
      const auto offset = rng.next_below(copy.size());
      copy[offset] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
      Reader r{copy};
      T decoded{};
      try {
        decode_artifact(r, decoded);
        r.require_done();
        encoded(decoded);
      } catch (const SnapshotError&) {
        // The acceptable failure mode.
      }
    }
  });
}

// ---------------------------------------------------------------------
// Framing: header, checksum, and the rejection paths.

std::vector<std::uint8_t> sample_payload() {
  Writer w;
  w.str("payload with some structure");
  w.u64(0xDEADBEEFCAFEF00DULL);
  w.f64(3.25);
  return std::move(w).take();
}

constexpr std::uint64_t kHash = 0x1122334455667788ULL;

TEST(Framing, RoundTripReturnsThePayload) {
  const auto payload = sample_payload();
  const auto file = frame_snapshot("dataset", kHash, payload);
  EXPECT_EQ(unframe_snapshot(file, "dataset", kHash), payload);
}

TEST(Framing, EmptyPayloadRoundTrips) {
  const auto file = frame_snapshot("dataset", kHash, {});
  EXPECT_TRUE(unframe_snapshot(file, "dataset", kHash).empty());
}

TEST(Framing, EveryTruncationLengthIsRejected) {
  const auto file = frame_snapshot("dataset", kHash, sample_payload());
  for (std::size_t len = 0; len < file.size(); ++len) {
    EXPECT_THROW(unframe_snapshot(std::span{file}.first(len), "dataset",
                                  kHash),
                 SnapshotError)
        << "prefix length " << len;
  }
}

TEST(Framing, BitFlipsAnywhereAreRejected) {
  const auto file = frame_snapshot("dataset", kHash, sample_payload());
  // Reuse the fault module's corruption streams to pick deterministic
  // flip sites; a single flipped bit must fail the checksum (or, when the
  // trailer itself is hit, the comparison against the recomputed hash).
  fault::Spec spec;
  spec.corrupt = 1.0;
  spec.seed = 7;
  const fault::Plan plan{spec};
  for (std::uint64_t trial = 0; trial < 64; ++trial) {
    auto rng = plan.stream(fault::Kind::kCorrupt, trial);
    auto copy = file;
    const auto offset = rng.next_below(copy.size());
    copy[offset] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    EXPECT_THROW(unframe_snapshot(copy, "dataset", kHash), SnapshotError)
        << "flip at offset " << offset;
  }
}

/// Rewrites the trailer so the checksum holds again after tampering —
/// isolating the *semantic* rejection paths from the checksum one.
std::vector<std::uint8_t> refresh_checksum(std::vector<std::uint8_t> file) {
  const auto body = std::span{file}.first(file.size() - 8);
  const auto checksum = fnv1a(body);
  for (int i = 0; i < 8; ++i)
    file[file.size() - 8 + i] =
        static_cast<std::uint8_t>(checksum >> (8 * i));
  return file;
}

std::string rejection_reason(std::span<const std::uint8_t> file,
                             std::string_view stage, std::uint64_t hash) {
  try {
    unframe_snapshot(file, stage, hash);
  } catch (const SnapshotError& e) {
    return e.what();
  }
  return {};
}

TEST(Framing, ForeignMagicIsRejected) {
  auto file = frame_snapshot("dataset", kHash, sample_payload());
  file[0] = 'X';
  file = refresh_checksum(std::move(file));
  EXPECT_NE(rejection_reason(file, "dataset", kHash).find("magic"),
            std::string::npos);
}

TEST(Framing, WrongFormatVersionIsRejected) {
  auto file = frame_snapshot("dataset", kHash, sample_payload());
  file[4] = static_cast<std::uint8_t>(kFormatVersion + 1);  // version lives
  file = refresh_checksum(std::move(file));                 // after "CSNP"
  EXPECT_NE(rejection_reason(file, "dataset", kHash).find("version"),
            std::string::npos);
}

TEST(Framing, MismatchedConfigHashIsRejected) {
  const auto file = frame_snapshot("dataset", kHash, sample_payload());
  EXPECT_NE(rejection_reason(file, "dataset", kHash ^ 1).find("config hash"),
            std::string::npos);
}

TEST(Framing, WrongStageNameIsRejected) {
  const auto file = frame_snapshot("dataset", kHash, sample_payload());
  EXPECT_NE(rejection_reason(file, "capture", kHash).find("stage"),
            std::string::npos);
}

TEST(Framing, TrailingGarbageIsRejected) {
  auto file = frame_snapshot("dataset", kHash, sample_payload());
  file.insert(file.end() - 8, {0x00, 0x01, 0x02});  // extra bytes in body
  file = refresh_checksum(std::move(file));
  EXPECT_THROW(unframe_snapshot(file, "dataset", kHash), SnapshotError);
}

TEST(Reader, CorruptedCountCannotRequestAbsurdAllocations) {
  // A corrupted length field must be caught by the OOM guard, not handed
  // to vector::reserve.
  Writer w;
  w.count(1ull << 40);
  Reader r{w.bytes()};
  EXPECT_THROW(r.count(sizeof(double)), SnapshotError);
}

TEST(Reader, BooleanRejectsNonCanonicalBytes) {
  Writer w;
  w.u8(2);
  Reader r{w.bytes()};
  EXPECT_THROW(r.boolean(), SnapshotError);
}

// ---------------------------------------------------------------------
// Store: atomic save/load plus the event ledger.

std::filesystem::path fresh_dir(const char* name) {
  const auto dir = std::filesystem::path{testing::TempDir()} / name;
  std::filesystem::remove_all(dir);
  return dir;
}

bool has_tmp_files(const std::filesystem::path& dir) {
  for (const auto& entry : std::filesystem::directory_iterator{dir})
    if (entry.path().extension() == ".tmp") return true;
  return false;
}

TEST(Store, SaveThenLoadRoundTrips) {
  const auto dir = fresh_dir("snap_store_roundtrip");
  Store store{dir, kHash};
  const auto& dataset = shared_study().dataset();
  ASSERT_TRUE(store.save("dataset", dataset));
  EXPECT_TRUE(std::filesystem::exists(store.path_for("dataset")));
  EXPECT_FALSE(has_tmp_files(dir));

  Store reopened{dir, kHash};
  const auto loaded = reopened.load<analysis::AlexaDataset>("dataset");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(encoded(*loaded), encoded(dataset));
  ASSERT_FALSE(reopened.events().empty());
  EXPECT_EQ(reopened.events().back().kind, Event::Kind::kLoaded);
}

TEST(Store, MissingFileIsAMissEvent) {
  const auto dir = fresh_dir("snap_store_missing");
  Store store{dir, kHash};
  EXPECT_FALSE(store.load<analysis::AlexaDataset>("dataset").has_value());
  ASSERT_FALSE(store.events().empty());
  EXPECT_EQ(store.events().back().kind, Event::Kind::kMissing);
}

TEST(Store, CorruptedFileIsRejectedNotCrashed) {
  const auto dir = fresh_dir("snap_store_corrupt");
  Store store{dir, kHash};
  ASSERT_TRUE(store.save("dataset", shared_study().dataset()));

  // Flip one byte in the middle of the file on disk.
  const auto path = store.path_for("dataset");
  std::fstream f{path, std::ios::in | std::ios::out | std::ios::binary};
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(f.tellg());
  f.seekp(static_cast<std::streamoff>(size / 2));
  char byte = 0;
  f.seekg(static_cast<std::streamoff>(size / 2));
  f.read(&byte, 1);
  byte ^= 0x10;
  f.seekp(static_cast<std::streamoff>(size / 2));
  f.write(&byte, 1);
  f.close();

  Store reopened{dir, kHash};
  EXPECT_FALSE(reopened.load<analysis::AlexaDataset>("dataset").has_value());
  ASSERT_FALSE(reopened.events().empty());
  EXPECT_EQ(reopened.events().back().kind, Event::Kind::kRejected);
  EXPECT_FALSE(reopened.events().back().detail.empty());
}

// ---------------------------------------------------------------------
// Columnar dataset artifacts: the paper-scale snapshot form. The row
// form must survive the columnar trip exactly, both codecs must emit the
// same bytes, and a damaged columnar payload must die as a SnapshotError.

/// A deliberately small dataset: the truncation sweep below decodes every
/// prefix of its payload, which is quadratic in payload size.
analysis::AlexaDataset tiny_dataset() {
  synth::WorldConfig config;
  config.seed = 2013;
  config.domain_count = 12;
  synth::World world{config};
  analysis::DatasetBuilder builder{world, {.lookup_vantages = 1}};
  return builder.build();
}

TEST(ColumnarDataset, RowFormSurvivesTheColumnarTripExactly) {
  const auto& dataset = shared_study().dataset();
  const auto columns = analysis::DatasetColumns::from_dataset(dataset);
  EXPECT_EQ(columns.domain_count(), dataset.domains.size());
  EXPECT_EQ(columns.subdomain_count(), dataset.cloud_subdomains.size());
  EXPECT_EQ(encoded(columns.to_dataset()), encoded(dataset));
}

TEST(ColumnarDataset, RowAndColumnarCodecsEmitIdenticalBytes) {
  // The dataset artifact *is* the columnar artifact on the wire — a
  // partial checkpoint and a stage snapshot interoperate byte-for-byte.
  const auto& dataset = shared_study().dataset();
  EXPECT_EQ(encoded(dataset),
            encoded(analysis::DatasetColumns::from_dataset(dataset)));
}

TEST(ColumnarDataset, ColumnsArtifactRoundTrips) {
  expect_roundtrip(
      analysis::DatasetColumns::from_dataset(shared_study().dataset()));
}

TEST(ColumnarDataset, EveryPayloadTruncationIsRejected) {
  const auto payload =
      encoded(analysis::DatasetColumns::from_dataset(tiny_dataset()));
  for (std::size_t len = 0; len < payload.size(); ++len) {
    Reader r{std::span{payload}.first(len)};
    analysis::DatasetColumns columns;
    EXPECT_THROW(decode_artifact(r, columns), SnapshotError)
        << "prefix length " << len;
  }
}

TEST(ColumnarDataset, PayloadBitFlipsNeverEscapeAsCrashes) {
  // Below the framing checksum the decoder's own validation (offset
  // monotonicity, arena intern order, flag masks, name re-parse) must
  // contain arbitrary corruption: every flip either still decodes to a
  // structurally valid dataset or throws SnapshotError — nothing else.
  const auto payload = encoded(tiny_dataset());
  fault::Spec spec;
  spec.corrupt = 1.0;
  spec.seed = 11;
  const fault::Plan plan{spec};
  for (std::uint64_t trial = 0; trial < 128; ++trial) {
    auto rng = plan.stream(fault::Kind::kCorrupt, trial);
    auto copy = payload;
    const auto offset = rng.next_below(copy.size());
    copy[offset] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    Reader r{copy};
    analysis::AlexaDataset dataset;
    try {
      decode_artifact(r, dataset);
      r.require_done();
    } catch (const SnapshotError&) {
      // The acceptable failure mode.
    }
  }
}

TEST(ColumnarDataset, UnparsableStoredNameIsASnapshotError) {
  // Hand-build columns whose arena holds a string no dns::Name accepts;
  // the row-form decode must reject it instead of materialising nonsense.
  analysis::DatasetColumns columns;
  columns.domains.name.push_back(columns.names.intern("bad..name"));
  columns.domains.rank.push_back(1);
  columns.domains.axfr.push_back(0);
  columns.domains.subdomains_probed.push_back(0);
  columns.domains.cloud_off = {0, 0};
  columns.domains.other_only.push_back(0);
  columns.domains.unresolved.push_back(0);
  columns.domains.failed_off = {0, 0};
  columns.subdomains.address_off = {0};
  columns.subdomains.cname_off = {0};
  columns.subdomains.ns_off = {0};
  columns.subdomains.ns_addr_off = {0};
  const auto payload = encoded(columns);
  Reader r{payload};
  analysis::AlexaDataset dataset;
  EXPECT_THROW(decode_artifact(r, dataset), SnapshotError);
}

// S4 determinism pin: the dataset builder fans out per-domain probes, so
// the interned-name ids inside the columnar artifact depend on reduction
// order — which must be the rank order at every thread count.
TEST(ColumnarDataset, ArtifactBytesIdenticalAcrossThreadCounts) {
  synth::WorldConfig config;
  config.seed = 2013;
  config.domain_count = 40;
  synth::World world{config};
  std::vector<std::uint8_t> single;
  {
    exec::ScopedThreads guard{1};
    analysis::DatasetBuilder builder{world, {.lookup_vantages = 2}};
    single = encoded(builder.build());
  }
  std::vector<std::uint8_t> pooled;
  {
    exec::ScopedThreads guard{8};
    analysis::DatasetBuilder builder{world, {.lookup_vantages = 2}};
    pooled = encoded(builder.build());
  }
  EXPECT_EQ(single, pooled);
}

// ---------------------------------------------------------------------
// Partial (mid-stage) dataset checkpoints.

TEST(PartialDataset, RoundTripsWithItsResumePoint) {
  analysis::PartialDataset partial;
  partial.columns = analysis::DatasetColumns::from_dataset(tiny_dataset());
  partial.next_domain = partial.columns.domain_count();
  expect_roundtrip(partial);
}

TEST(PartialDataset, ResumePointMustMatchTheColumns) {
  // A checkpoint always holds exactly the domains probed before
  // next_domain; any disagreement means the file does not describe a
  // resumable state and must be rejected.
  analysis::PartialDataset partial;
  partial.columns = analysis::DatasetColumns::from_dataset(tiny_dataset());
  partial.next_domain = partial.columns.domain_count() + 1;
  const auto payload = encoded(partial);
  Reader r{payload};
  analysis::PartialDataset decoded;
  EXPECT_THROW(decode_artifact(r, decoded), SnapshotError);
}

TEST(Store, RemoveRetiresASnapshot) {
  const auto dir = fresh_dir("snap_store_remove");
  Store store{dir, kHash};
  analysis::PartialDataset partial;
  partial.columns = analysis::DatasetColumns::from_dataset(tiny_dataset());
  partial.next_domain = partial.columns.domain_count();
  ASSERT_TRUE(store.save("dataset.partial", partial));
  EXPECT_TRUE(std::filesystem::exists(store.path_for("dataset.partial")));
  EXPECT_TRUE(store.remove("dataset.partial"));
  EXPECT_FALSE(std::filesystem::exists(store.path_for("dataset.partial")));
  // Removing an absent stage is a no-op, not an error path.
  EXPECT_FALSE(store.remove("dataset.partial"));
}

TEST(Store, DifferentConfigHashRejectsTheSnapshot) {
  const auto dir = fresh_dir("snap_store_confighash");
  {
    Store store{dir, kHash};
    ASSERT_TRUE(store.save("dataset", shared_study().dataset()));
  }
  Store other{dir, kHash ^ 0xFF};
  EXPECT_FALSE(other.load<analysis::AlexaDataset>("dataset").has_value());
  EXPECT_EQ(other.events().back().kind, Event::Kind::kRejected);
  EXPECT_NE(other.events().back().detail.find("config hash"),
            std::string::npos);
}

}  // namespace
}  // namespace cs::snap
