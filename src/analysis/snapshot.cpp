#include "analysis/snapshot.h"

#include <stdexcept>
#include <utility>

#include "util/format.h"

namespace cs::snap {

template <>
bool valid(net::IpProto proto) {
  return proto == net::IpProto::kIcmp || proto == net::IpProto::kTcp ||
         proto == net::IpProto::kUdp || proto == net::IpProto::kOther;
}

template <>
bool valid(proto::Service service) {
  return service <= proto::Service::kOtherUdp;
}

// Leaves and field lists live in cs::snap itself, not in an unnamed
// namespace, because the Writer and Reader find them by ADL.

// --- leaves ---------------------------------------------------------------
//
// The formats that are not a walk over the struct's own fields: a name is
// stored as its labels and re-parsed on decode, an address as its u32, a
// CDF as its sorted samples, and an arena as its strings in id order.

static void encode(Writer& w, net::Ipv4 v) { w.u32(v.value()); }
static void decode(Reader& r, net::Ipv4& v) { v = net::Ipv4{r.u32()}; }

static void encode(Writer& w, const dns::Name& v) {
  w.count(v.label_count());
  for (const auto label : v.labels()) w.str(label);
}
static void decode(Reader& r, dns::Name& v) {
  std::vector<std::string> labels;
  r(labels);
  auto name = dns::Name::from_labels(labels);
  if (!name) throw SnapshotError{"snapshot holds an invalid DNS name"};
  v = std::move(*name);
}

static void encode(Writer& w, const util::Cdf& v) {
  const auto samples = v.sorted_samples();
  w.count(samples.size());
  for (const auto sample : samples) w.f64(sample);
}
static void decode(Reader& r, util::Cdf& v) {
  std::vector<double> samples;
  r(samples);
  v = util::Cdf{samples};
}

static void encode(Writer& w, const util::StringArena& names) {
  w.count(names.size());
  for (std::size_t id = 0; id < names.size(); ++id)
    w.str(names.view(static_cast<std::uint32_t>(id)));
}
static void decode(Reader& r, util::StringArena& names) {
  const auto n = r.count(sizeof(std::uint64_t));  // each string's length
  if (n == 0) throw SnapshotError{"snapshot string arena is empty"};
  names = util::StringArena{};
  // Re-interning in id order reproduces the ids exactly; a duplicate
  // string (or a nonempty string at id 0) breaks the id == index
  // invariant and is rejected as corruption.
  for (std::size_t id = 0; id < n; ++id)
    if (names.intern(r.str()) != id)
      throw SnapshotError{"snapshot string arena is not in first-intern order"};
}

// --- dataset (columnar) ---------------------------------------------------
//
// The dataset snapshots in its columnar form (analysis::DatasetColumns):
// every distinct name interned once, fixed-width columns, variable-length
// attachments flattened into pools behind count+1 offset columns. At
// paper scale the old row form repeated each domain name per subdomain;
// the columnar bytes are a fraction of the size and decode validates the
// whole shape (column lengths, offset monotonicity, name ids, enum
// ranges) before any row is materialised.

namespace {

void require_columns(bool ok, const char* what) {
  if (!ok)
    throw SnapshotError{
        util::fmt("snapshot dataset columns are inconsistent: {}", what)};
}

/// Offset columns hold count+1 monotone offsets covering the whole pool.
void require_offsets(const std::vector<std::uint64_t>& off, std::size_t rows,
                     std::size_t pool, const char* what) {
  bool ok = off.size() == rows + 1 && off.front() == 0 && off.back() == pool;
  for (std::size_t i = 0; ok && i + 1 < off.size(); ++i)
    ok = off[i] <= off[i + 1];
  if (!ok)
    throw SnapshotError{util::fmt(
        "snapshot dataset columns have inconsistent {} offsets", what)};
}

void require_ids(const std::vector<std::uint32_t>& ids,
                 const util::StringArena& names) {
  for (const auto id : ids)
    if (id >= names.size())
      throw SnapshotError{
          "snapshot dataset column references an unknown interned name"};
}

constexpr std::uint8_t kAllSubdomainFlags =
    analysis::DatasetColumns::kDirectA |
    analysis::DatasetColumns::kOtherAddress |
    analysis::DatasetColumns::kEc2Address |
    analysis::DatasetColumns::kAzureAddress |
    analysis::DatasetColumns::kCloudFrontAddress;

void require_consistent(const analysis::DatasetColumns& v) {
  const auto& sub = v.subdomains;
  for (const auto* ids :
       {&sub.name, &sub.domain, &sub.cname_pool, &sub.ns_name_pool})
    require_ids(*ids, v.names);
  const std::size_t subs = sub.name.size();
  require_columns(sub.domain.size() == subs && sub.flags.size() == subs,
                  "subdomain column lengths differ");
  require_offsets(sub.address_off, subs, sub.address_pool.size(), "address");
  require_offsets(sub.cname_off, subs, sub.cname_pool.size(), "cname");
  require_offsets(sub.ns_off, subs, sub.ns_name_pool.size(), "name-server");
  require_offsets(sub.ns_addr_off, sub.ns_name_pool.size(),
                  sub.ns_addr_pool.size(), "name-server address");
  for (const auto flags : sub.flags)
    require_columns((flags & ~kAllSubdomainFlags) == 0,
                    "unknown subdomain flag bits");

  const auto& dom = v.domains;
  require_ids(dom.name, v.names);
  const std::size_t doms = dom.name.size();
  require_columns(dom.rank.size() == doms && dom.axfr.size() == doms &&
                      dom.subdomains_probed.size() == doms &&
                      dom.other_only.size() == doms &&
                      dom.unresolved.size() == doms,
                  "domain column lengths differ");
  require_offsets(dom.cloud_off, doms, dom.cloud_pool.size(),
                  "cloud-subdomain");
  require_offsets(dom.failed_off, doms, dom.failed_count_pool.size(),
                  "failed-lookup");
  require_columns(dom.failed_rcode_pool.size() == dom.failed_count_pool.size(),
                  "failed-lookup pools differ in length");
  for (const auto flag : dom.axfr)
    require_columns(flag <= 1, "axfr flag out of range");
  for (const auto index : dom.cloud_pool)
    require_columns(index < subs, "cloud subdomain index out of range");
  for (const auto rcode : dom.failed_rcode_pool)
    require_columns(rcode < analysis::FailedLookups::kRcodeCount,
                    "failed-lookup rcode out of range");
}

}  // namespace

void fields(auto& io, Field<analysis::DatasetColumns::Subdomains> auto& v) {
  io(v.name, v.domain, v.flags, v.address_off, v.address_pool, v.cname_off,
     v.cname_pool, v.ns_off, v.ns_name_pool, v.ns_addr_off, v.ns_addr_pool);
}
void fields(auto& io, Field<analysis::DatasetColumns::Domains> auto& v) {
  io(v.name, v.rank, v.axfr, v.subdomains_probed, v.cloud_off, v.cloud_pool,
     v.other_only, v.unresolved, v.failed_off, v.failed_rcode_pool,
     v.failed_count_pool);
}
void fields(auto& io, Field<analysis::DatasetColumns> auto& v) {
  io(v.names, v.subdomains, v.domains, v.dns_queries_spent);
  if constexpr (Decoding<decltype(io)>) require_consistent(v);
}
void fields(auto& io, Field<analysis::PartialDataset> auto& v) {
  io(v.columns, v.next_domain);
  // A partial checkpoint covers exactly the domains before next_domain.
  if (Decoding<decltype(io)> && v.next_domain != v.columns.domain_count())
    throw SnapshotError{util::fmt(
        "snapshot partial dataset resume point {} does not match its {} "
        "probed domains",
        v.next_domain, v.columns.domain_count())};
}

// --- stage reports --------------------------------------------------------

void fields(auto& io, Field<analysis::ProviderBreakdown> auto& v) {
  io(v.ec2_only, v.ec2_plus_other, v.azure_only, v.azure_plus_other,
     v.ec2_plus_azure, v.total);
}
void fields(auto& io, Field<analysis::CloudUsageReport::TopDomain> auto& v) {
  io(v.rank, v.domain, v.total_subdomains, v.cloud_subdomains);
}
void fields(auto& io, Field<analysis::CloudUsageReport> auto& v) {
  io(v.domains, v.subdomains, v.top_ec2_domains, v.top_azure_domains,
     v.top_quartile_fraction, v.bottom_quartile_fraction, v.top_prefixes);
}

void fields(auto& io, Field<analysis::PatternDetection> auto& v) {
  io(v.vm_front, v.elb, v.beanstalk, v.heroku, v.azure_cs, v.azure_tm,
     v.cloudfront, v.azure_cdn, v.unclassified, v.vm_instances,
     v.physical_elbs, v.logical_elbs);
}
void fields(auto& io, Field<analysis::FeatureUsage> auto& v) {
  io(v.domains, v.subdomains, v.instances);
}
void fields(auto& io, Field<analysis::PatternReport> auto& v) {
  io(v.detections, v.ec2_vm, v.ec2_elb, v.ec2_beanstalk, v.ec2_heroku_elb,
     v.ec2_heroku_no_elb, v.azure_cs, v.azure_tm, v.cloudfront, v.azure_cdn,
     v.ec2_unclassified_subdomains, v.azure_unclassified_subdomains,
     v.ec2_subdomains, v.azure_subdomains, v.ec2_subdomains_with_cname,
     v.azure_subdomains_with_cname, v.azure_direct_ip_subdomains,
     v.vm_instances_per_subdomain, v.physical_elbs_per_subdomain,
     v.name_servers_per_subdomain, v.subdomains_per_physical_elb, v.ns_total,
     v.ns_in_cloudfront, v.ns_in_ec2, v.ns_in_azure, v.ns_external);
}

void fields(auto& io, Field<analysis::RegionReport> auto& v) {
  io(v.subdomain_regions, v.domains_per_region, v.subdomains_per_region,
     v.regions_per_ec2_subdomain, v.regions_per_azure_subdomain,
     v.regions_per_ec2_domain, v.regions_per_azure_domain,
     v.ec2_single_region_fraction, v.azure_single_region_fraction);
}

void fields(auto& io, Field<net::Endpoint> auto& v) { io(v.addr, v.port); }
void fields(auto& io, Field<net::FiveTuple> auto& v) {
  io(v.src, v.dst, v.proto);
}
void fields(auto& io, Field<proto::ConnRecord> auto& v) {
  io(v.tuple, v.service, v.first_ts, v.duration, v.bytes, v.packets,
     v.hostname);
}
void fields(auto& io, Field<proto::HttpRecord> auto& v) {
  io(v.host, v.method, v.target, v.status, v.content_type, v.content_length);
}
void fields(auto& io, Field<proto::SslRecord> auto& v) {
  io(v.sni, v.certificate_cn);
}
void fields(auto& io, Field<proto::TraceLogs> auto& v) {
  io(v.conns, v.http, v.ssl);
}

void fields(auto& io, Field<analysis::ProtocolReport::Share> auto& v) {
  io(v.bytes, v.flows);
}
void fields(auto& io, Field<analysis::DomainVolumeRow> auto& v) {
  io(v.domain, v.bytes, v.percent_of_web, v.alexa_rank);
}
void fields(auto& io, Field<analysis::ContentTypeRow> auto& v) {
  io(v.content_type, v.bytes, v.percent, v.mean_kb, v.max_mb);
}
void fields(auto& io, Field<analysis::CaptureReport> auto& v) {
  io(v.protocols.cloud_service, v.protocols.ec2_total,
     v.protocols.azure_total, v.protocols.total, v.top_ec2_domains,
     v.top_azure_domains, v.unique_domains_ec2, v.unique_domains_azure,
     v.domains_in_alexa, v.content_types, v.http_flows_per_domain_ec2,
     v.http_flows_per_domain_azure, v.https_flows_per_cn_ec2,
     v.https_flows_per_cn_azure, v.http_flow_size_ec2, v.http_flow_size_azure,
     v.https_flow_size_ec2, v.https_flow_size_azure,
     v.top100_http_flow_share_ec2, v.top100_http_flow_share_azure);
}

void fields(auto& io, Field<analysis::LatencyZoneRow> auto& v) {
  io(v.region, v.target_ips, v.responded, v.per_zone, v.unknown);
}
void fields(auto& io, Field<analysis::VeracityRow> auto& v) {
  io(v.region, v.total, v.match, v.unknown, v.mismatch);
}
void fields(auto& io, Field<analysis::ZoneStudy::ZoneUsage> auto& v) {
  io(v.domains, v.subdomains);
}
void fields(auto& io, Field<analysis::ZoneStudy> auto& v) {
  io(v.latency_rows, v.veracity_rows, v.latency_accuracy_vs_truth,
     v.proximity_accuracy_vs_truth, v.subdomain_zones,
     v.subdomain_primary_region, v.usage_per_region, v.zones_per_subdomain,
     v.zones_per_domain, v.fraction_one_zone, v.fraction_two_zones,
     v.fraction_three_plus, v.combined_identified_fraction);
}

void fields(auto& io, Field<internet::VantagePoint> auto& v) {
  io(v.name, v.location.point.lat_deg, v.location.point.lon_deg,
     v.location.country, v.location.continent, v.address, v.asn);
}
void fields(auto& io, Field<analysis::Campaign> auto& v) {
  io(v.vantages, v.region_names, v.round_seconds, v.rtt_ms, v.tput_kbps,
     v.dropped_rounds);
}

void fields(auto& io, Field<analysis::IspDiversityRow> auto& v) {
  io(v.region, v.per_zone, v.max_single_isp_share);
}
void fields(auto& io, Field<analysis::IspStudy> auto& v) { io(v.rows); }

// --- artifacts ------------------------------------------------------------

void encode_artifact(Writer& w, const analysis::AlexaDataset& v) {
  w(analysis::DatasetColumns::from_dataset(v));
}
void decode_artifact(Reader& r, analysis::AlexaDataset& v) {
  analysis::DatasetColumns columns;
  r(columns);
  try {
    v = columns.to_dataset();
  } catch (const std::invalid_argument& e) {
    throw SnapshotError{
        util::fmt("snapshot dataset holds an invalid DNS name: {}", e.what())};
  }
}

void encode_artifact(Writer& w, const analysis::DatasetColumns& v) { w(v); }
void decode_artifact(Reader& r, analysis::DatasetColumns& v) { r(v); }
void encode_artifact(Writer& w, const analysis::PartialDataset& v) { w(v); }
void decode_artifact(Reader& r, analysis::PartialDataset& v) { r(v); }
void encode_artifact(Writer& w, const analysis::CloudUsageReport& v) { w(v); }
void decode_artifact(Reader& r, analysis::CloudUsageReport& v) { r(v); }
void encode_artifact(Writer& w, const analysis::PatternReport& v) { w(v); }
void decode_artifact(Reader& r, analysis::PatternReport& v) { r(v); }
void encode_artifact(Writer& w, const analysis::RegionReport& v) { w(v); }
void decode_artifact(Reader& r, analysis::RegionReport& v) { r(v); }
void encode_artifact(Writer& w, const proto::TraceLogs& v) { w(v); }
void decode_artifact(Reader& r, proto::TraceLogs& v) { r(v); }
void encode_artifact(Writer& w, const analysis::CaptureReport& v) { w(v); }
void decode_artifact(Reader& r, analysis::CaptureReport& v) { r(v); }
void encode_artifact(Writer& w, const analysis::ZoneStudy& v) { w(v); }
void decode_artifact(Reader& r, analysis::ZoneStudy& v) { r(v); }
void encode_artifact(Writer& w, const analysis::Campaign& v) { w(v); }
void decode_artifact(Reader& r, analysis::Campaign& v) { r(v); }
void encode_artifact(Writer& w, const analysis::IspStudy& v) { w(v); }
void decode_artifact(Reader& r, analysis::IspStudy& v) { r(v); }

}  // namespace cs::snap
