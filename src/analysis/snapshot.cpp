#include "analysis/snapshot.h"

#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>

#include "util/format.h"

namespace cs::snap {
namespace {

// --- generic helpers ------------------------------------------------------

template <typename T, typename Fn>
void encode_vec(Writer& w, const std::vector<T>& v, Fn&& element) {
  w.count(v.size());
  for (const auto& e : v) element(w, e);
}

template <typename T, typename Fn>
void decode_vec(Reader& r, std::vector<T>& v, Fn&& element) {
  const auto n = r.count();
  v.clear();
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) element(r, v.emplace_back());
}

// std::size_t is serialized as u64 (the count field) on every platform.
void encode_size(Writer& w, std::size_t v) { w.u64(v); }
void decode_size(Reader& r, std::size_t& v) {
  v = static_cast<std::size_t>(r.u64());
}

void encode(Writer& w, int v) {
  w.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
}
void decode(Reader& r, int& v) {
  v = static_cast<int>(static_cast<std::int64_t>(r.u64()));
}

template <typename K, typename V, typename EncK, typename EncV>
void encode_map(Writer& w, const std::map<K, V>& m, EncK&& key, EncV&& value) {
  w.count(m.size());
  for (const auto& [k, v] : m) {
    key(w, k);
    value(w, v);
  }
}

template <typename K, typename V, typename DecK, typename DecV>
void decode_map(Reader& r, std::map<K, V>& m, DecK&& key, DecV&& value) {
  const auto n = r.count();
  m.clear();
  for (std::size_t i = 0; i < n; ++i) {
    K k{};
    key(r, k);
    V v{};
    value(r, v);
    m.emplace(std::move(k), std::move(v));
  }
}

void encode_opt_f64(Writer& w, const std::optional<double>& v) {
  w.boolean(v.has_value());
  if (v) w.f64(*v);
}
void decode_opt_f64(Reader& r, std::optional<double>& v) {
  v.reset();
  if (r.boolean()) v = r.f64();
}

void encode_opt_str(Writer& w, const std::optional<std::string>& v) {
  w.boolean(v.has_value());
  if (v) w.str(*v);
}
void decode_opt_str(Reader& r, std::optional<std::string>& v) {
  v.reset();
  if (r.boolean()) v = r.str();
}

void encode_opt_u64(Writer& w, const std::optional<std::uint64_t>& v) {
  w.boolean(v.has_value());
  if (v) w.u64(*v);
}
void decode_opt_u64(Reader& r, std::optional<std::uint64_t>& v) {
  v.reset();
  if (r.boolean()) v = r.u64();
}

// --- leaf value types -----------------------------------------------------

void encode(Writer& w, net::Ipv4 v) { w.u32(v.value()); }
void decode(Reader& r, net::Ipv4& v) { v = net::Ipv4{r.u32()}; }

void encode(Writer& w, const dns::Name& v) {
  w.count(v.label_count());
  for (const auto label : v.labels()) w.str(label);
}
void decode(Reader& r, dns::Name& v) {
  const auto n = r.count();
  std::vector<std::string> labels;
  labels.reserve(n);
  for (std::size_t i = 0; i < n; ++i) labels.push_back(r.str());
  auto name = dns::Name::from_labels(labels);
  if (!name) throw SnapshotError{"snapshot holds an invalid DNS name"};
  v = std::move(*name);
}

void encode(Writer& w, const dns::ResourceRecord& v) {
  encode(w, v.name);
  w.u32(v.ttl);
  w.u8(static_cast<std::uint8_t>(v.data.index()));
  std::visit(
      [&](const auto& data) {
        using D = std::decay_t<decltype(data)>;
        if constexpr (std::is_same_v<D, dns::ARecord>) {
          encode(w, data.address);
        } else if constexpr (std::is_same_v<D, dns::NsRecord>) {
          encode(w, data.nameserver);
        } else if constexpr (std::is_same_v<D, dns::CnameRecord>) {
          encode(w, data.target);
        } else if constexpr (std::is_same_v<D, dns::SoaRecord>) {
          encode(w, data.mname);
          encode(w, data.rname);
          w.u32(data.serial);
          w.u32(data.refresh);
          w.u32(data.retry);
          w.u32(data.expire);
          w.u32(data.minimum);
        } else {
          static_assert(std::is_same_v<D, dns::TxtRecord>);
          encode_vec(w, data.strings,
                     [](Writer& wr, const std::string& s) { wr.str(s); });
        }
      },
      v.data);
}
void decode(Reader& r, dns::ResourceRecord& v) {
  decode(r, v.name);
  v.ttl = r.u32();
  const auto tag = r.u8();
  switch (tag) {
    case 0: {
      dns::ARecord data;
      decode(r, data.address);
      v.data = data;
      break;
    }
    case 1: {
      dns::NsRecord data;
      decode(r, data.nameserver);
      v.data = data;
      break;
    }
    case 2: {
      dns::CnameRecord data;
      decode(r, data.target);
      v.data = data;
      break;
    }
    case 3: {
      dns::SoaRecord data;
      decode(r, data.mname);
      decode(r, data.rname);
      data.serial = r.u32();
      data.refresh = r.u32();
      data.retry = r.u32();
      data.expire = r.u32();
      data.minimum = r.u32();
      v.data = data;
      break;
    }
    case 4: {
      dns::TxtRecord data;
      decode_vec(r, data.strings,
                 [](Reader& rd, std::string& s) { s = rd.str(); });
      v.data = data;
      break;
    }
    default:
      throw SnapshotError{
          util::fmt("snapshot resource record has unknown rdata tag {}", tag)};
  }
}

void encode(Writer& w, const util::Cdf& v) {
  const auto samples = v.sorted_samples();
  w.count(samples.size());
  for (const auto sample : samples) w.f64(sample);
}
void decode(Reader& r, util::Cdf& v) {
  const auto n = r.count(sizeof(double));
  std::vector<double> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) samples.push_back(r.f64());
  v = util::Cdf{samples};
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

void encode_ids(Writer& w, const std::vector<std::uint32_t>& v) {
  w.count(v.size());
  for (const auto id : v) w.u32(id);
}
void decode_ids(Reader& r, std::vector<std::uint32_t>& v,
                const util::StringArena& names) {
  const auto n = r.count(sizeof(std::uint32_t));
  v.clear();
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = r.u32();
    if (id >= names.size())
      throw SnapshotError{
          "snapshot dataset column references an unknown interned name"};
    v.push_back(id);
  }
}

void encode_u64s(Writer& w, const std::vector<std::uint64_t>& v) {
  w.count(v.size());
  for (const auto x : v) w.u64(x);
}
void decode_u64s(Reader& r, std::vector<std::uint64_t>& v) {
  const auto n = r.count(sizeof(std::uint64_t));
  v.clear();
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(r.u64());
}

void encode_u8s(Writer& w, const std::vector<std::uint8_t>& v) {
  w.count(v.size());
  for (const auto x : v) w.u8(x);
}
void decode_u8s(Reader& r, std::vector<std::uint8_t>& v) {
  const auto n = r.count(sizeof(std::uint8_t));
  v.clear();
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(r.u8());
}

void encode(Writer& w, const util::StringArena& names) {
  w.count(names.size());
  for (std::size_t id = 0; id < names.size(); ++id)
    w.str(names.view(static_cast<std::uint32_t>(id)));
}
void decode(Reader& r, util::StringArena& names) {
  const auto n = r.count();
  if (n == 0) throw SnapshotError{"snapshot string arena is empty"};
  names = util::StringArena{};
  // Re-interning in id order reproduces the ids exactly; a duplicate
  // string (or a nonempty string at id 0) breaks the id == index
  // invariant and is rejected as corruption.
  for (std::size_t id = 0; id < n; ++id)
    if (names.intern(r.str()) != id)
      throw SnapshotError{"snapshot string arena is not in first-intern order"};
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

void require_columns(bool ok, const char* what) {
  if (!ok)
    throw SnapshotError{
        util::fmt("snapshot dataset columns are inconsistent: {}", what)};
}

constexpr std::uint8_t kAllSubdomainFlags =
    analysis::DatasetColumns::kDirectA | analysis::DatasetColumns::kOtherAddress |
    analysis::DatasetColumns::kEc2Address |
    analysis::DatasetColumns::kAzureAddress |
    analysis::DatasetColumns::kCloudFrontAddress;

void encode(Writer& w, const analysis::DatasetColumns& v) {
  encode(w, v.names);
  const auto& sub = v.subdomains;
  encode_ids(w, sub.name);
  encode_ids(w, sub.domain);
  encode_u64s(w, sub.domain_rank);
  encode_u8s(w, sub.flags);
  encode_u64s(w, sub.record_off);
  encode_vec(w, sub.record_pool,
             [](Writer& wr, const dns::ResourceRecord& rr) { encode(wr, rr); });
  encode_u64s(w, sub.address_off);
  encode_vec(w, sub.address_pool,
             [](Writer& wr, net::Ipv4 a) { encode(wr, a); });
  encode_u64s(w, sub.cname_off);
  encode_ids(w, sub.cname_pool);
  encode_u64s(w, sub.ns_off);
  encode_ids(w, sub.ns_name_pool);
  encode_u64s(w, sub.ns_addr_off);
  encode_vec(w, sub.ns_addr_pool,
             [](Writer& wr, net::Ipv4 a) { encode(wr, a); });
  const auto& dom = v.domains;
  encode_ids(w, dom.name);
  encode_u64s(w, dom.rank);
  encode_u8s(w, dom.axfr);
  encode_u64s(w, dom.subdomains_probed);
  encode_u64s(w, dom.cloud_off);
  encode_u64s(w, dom.cloud_pool);
  encode_u64s(w, dom.other_only);
  encode_u64s(w, dom.unresolved);
  encode_u64s(w, dom.failed_off);
  encode_u8s(w, dom.failed_rcode_pool);
  encode_u64s(w, dom.failed_count_pool);
  w.u64(v.dns_queries_spent);
}
void decode(Reader& r, analysis::DatasetColumns& v) {
  v = analysis::DatasetColumns{};
  decode(r, v.names);
  auto& sub = v.subdomains;
  decode_ids(r, sub.name, v.names);
  decode_ids(r, sub.domain, v.names);
  decode_u64s(r, sub.domain_rank);
  decode_u8s(r, sub.flags);
  decode_u64s(r, sub.record_off);
  decode_vec(r, sub.record_pool,
             [](Reader& rd, dns::ResourceRecord& rr) { decode(rd, rr); });
  decode_u64s(r, sub.address_off);
  decode_vec(r, sub.address_pool,
             [](Reader& rd, net::Ipv4& a) { decode(rd, a); });
  decode_u64s(r, sub.cname_off);
  decode_ids(r, sub.cname_pool, v.names);
  decode_u64s(r, sub.ns_off);
  decode_ids(r, sub.ns_name_pool, v.names);
  decode_u64s(r, sub.ns_addr_off);
  decode_vec(r, sub.ns_addr_pool,
             [](Reader& rd, net::Ipv4& a) { decode(rd, a); });
  auto& dom = v.domains;
  decode_ids(r, dom.name, v.names);
  decode_u64s(r, dom.rank);
  decode_u8s(r, dom.axfr);
  decode_u64s(r, dom.subdomains_probed);
  decode_u64s(r, dom.cloud_off);
  decode_u64s(r, dom.cloud_pool);
  decode_u64s(r, dom.other_only);
  decode_u64s(r, dom.unresolved);
  decode_u64s(r, dom.failed_off);
  decode_u8s(r, dom.failed_rcode_pool);
  decode_u64s(r, dom.failed_count_pool);
  v.dns_queries_spent = r.u64();

  const std::size_t subs = sub.name.size();
  require_columns(sub.domain.size() == subs && sub.domain_rank.size() == subs &&
                      sub.flags.size() == subs,
                  "subdomain column lengths differ");
  require_offsets(sub.record_off, subs, sub.record_pool.size(), "record");
  require_offsets(sub.address_off, subs, sub.address_pool.size(), "address");
  require_offsets(sub.cname_off, subs, sub.cname_pool.size(), "cname");
  require_offsets(sub.ns_off, subs, sub.ns_name_pool.size(), "name-server");
  require_offsets(sub.ns_addr_off, sub.ns_name_pool.size(),
                  sub.ns_addr_pool.size(), "name-server address");
  for (const auto flags : sub.flags)
    require_columns((flags & ~kAllSubdomainFlags) == 0,
                    "unknown subdomain flag bits");

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

void encode_artifact(Writer& w, const analysis::AlexaDataset& v) {
  encode(w, analysis::DatasetColumns::from_dataset(v));
}
void decode_artifact(Reader& r, analysis::AlexaDataset& v) {
  analysis::DatasetColumns columns;
  decode(r, columns);
  try {
    v = columns.to_dataset();
  } catch (const std::invalid_argument& e) {
    throw SnapshotError{
        util::fmt("snapshot dataset holds an invalid DNS name: {}", e.what())};
  }
}

void encode_artifact(Writer& w, const analysis::DatasetColumns& v) {
  encode(w, v);
}
void decode_artifact(Reader& r, analysis::DatasetColumns& v) { decode(r, v); }

void encode_artifact(Writer& w, const analysis::PartialDataset& v) {
  encode(w, v.columns);
  w.u64(v.next_domain);
}
void decode_artifact(Reader& r, analysis::PartialDataset& v) {
  decode(r, v.columns);
  v.next_domain = r.u64();
  // A partial checkpoint covers exactly the domains before next_domain.
  if (v.next_domain != v.columns.domain_count())
    throw SnapshotError{util::fmt(
        "snapshot partial dataset resume point {} does not match its {} "
        "probed domains",
        v.next_domain, v.columns.domain_count())};
}

// --- cloud usage ----------------------------------------------------------

namespace {

void encode(Writer& w, const analysis::ProviderBreakdown& v) {
  encode_size(w, v.ec2_only);
  encode_size(w, v.ec2_plus_other);
  encode_size(w, v.azure_only);
  encode_size(w, v.azure_plus_other);
  encode_size(w, v.ec2_plus_azure);
  encode_size(w, v.total);
}
void decode(Reader& r, analysis::ProviderBreakdown& v) {
  decode_size(r, v.ec2_only);
  decode_size(r, v.ec2_plus_other);
  decode_size(r, v.azure_only);
  decode_size(r, v.azure_plus_other);
  decode_size(r, v.ec2_plus_azure);
  decode_size(r, v.total);
}

void encode(Writer& w, const analysis::CloudUsageReport::TopDomain& v) {
  encode_size(w, v.rank);
  w.str(v.domain);
  encode_size(w, v.total_subdomains);
  encode_size(w, v.cloud_subdomains);
}
void decode(Reader& r, analysis::CloudUsageReport::TopDomain& v) {
  decode_size(r, v.rank);
  v.domain = r.str();
  decode_size(r, v.total_subdomains);
  decode_size(r, v.cloud_subdomains);
}

}  // namespace

void encode_artifact(Writer& w, const analysis::CloudUsageReport& v) {
  encode(w, v.domains);
  encode(w, v.subdomains);
  encode_vec(w, v.top_ec2_domains,
             [](Writer& wr, const analysis::CloudUsageReport::TopDomain& d) {
               encode(wr, d);
             });
  encode_vec(w, v.top_azure_domains,
             [](Writer& wr, const analysis::CloudUsageReport::TopDomain& d) {
               encode(wr, d);
             });
  w.f64(v.top_quartile_fraction);
  w.f64(v.bottom_quartile_fraction);
  w.count(v.top_prefixes.size());
  for (const auto& [prefix, count] : v.top_prefixes) {
    w.str(prefix);
    encode_size(w, count);
  }
}
void decode_artifact(Reader& r, analysis::CloudUsageReport& v) {
  decode(r, v.domains);
  decode(r, v.subdomains);
  decode_vec(r, v.top_ec2_domains,
             [](Reader& rd, analysis::CloudUsageReport::TopDomain& d) {
               decode(rd, d);
             });
  decode_vec(r, v.top_azure_domains,
             [](Reader& rd, analysis::CloudUsageReport::TopDomain& d) {
               decode(rd, d);
             });
  v.top_quartile_fraction = r.f64();
  v.bottom_quartile_fraction = r.f64();
  const auto n = r.count();
  v.top_prefixes.clear();
  v.top_prefixes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& [prefix, count] = v.top_prefixes.emplace_back();
    prefix = r.str();
    decode_size(r, count);
  }
}

// --- patterns -------------------------------------------------------------

namespace {

void encode(Writer& w, const analysis::PatternDetection& v) {
  w.boolean(v.vm_front);
  w.boolean(v.elb);
  w.boolean(v.beanstalk);
  w.boolean(v.heroku);
  w.boolean(v.azure_cs);
  w.boolean(v.azure_tm);
  w.boolean(v.cloudfront);
  w.boolean(v.azure_cdn);
  w.boolean(v.unclassified);
  encode_size(w, v.vm_instances);
  encode_size(w, v.physical_elbs);
  encode_vec(w, v.logical_elbs,
             [](Writer& wr, const dns::Name& n) { encode(wr, n); });
}
void decode(Reader& r, analysis::PatternDetection& v) {
  v.vm_front = r.boolean();
  v.elb = r.boolean();
  v.beanstalk = r.boolean();
  v.heroku = r.boolean();
  v.azure_cs = r.boolean();
  v.azure_tm = r.boolean();
  v.cloudfront = r.boolean();
  v.azure_cdn = r.boolean();
  v.unclassified = r.boolean();
  decode_size(r, v.vm_instances);
  decode_size(r, v.physical_elbs);
  decode_vec(r, v.logical_elbs,
             [](Reader& rd, dns::Name& n) { decode(rd, n); });
}

void encode(Writer& w, const analysis::FeatureUsage& v) {
  encode_size(w, v.domains);
  encode_size(w, v.subdomains);
  encode_size(w, v.instances);
}
void decode(Reader& r, analysis::FeatureUsage& v) {
  decode_size(r, v.domains);
  decode_size(r, v.subdomains);
  decode_size(r, v.instances);
}

}  // namespace

void encode_artifact(Writer& w, const analysis::PatternReport& v) {
  encode_vec(w, v.detections,
             [](Writer& wr, const analysis::PatternDetection& d) {
               encode(wr, d);
             });
  encode(w, v.ec2_vm);
  encode(w, v.ec2_elb);
  encode(w, v.ec2_beanstalk);
  encode(w, v.ec2_heroku_elb);
  encode(w, v.ec2_heroku_no_elb);
  encode(w, v.azure_cs);
  encode(w, v.azure_tm);
  encode(w, v.cloudfront);
  encode(w, v.azure_cdn);
  encode_size(w, v.ec2_unclassified_subdomains);
  encode_size(w, v.azure_unclassified_subdomains);
  encode_size(w, v.ec2_subdomains);
  encode_size(w, v.azure_subdomains);
  encode_size(w, v.ec2_subdomains_with_cname);
  encode_size(w, v.azure_subdomains_with_cname);
  encode_size(w, v.azure_direct_ip_subdomains);
  encode(w, v.vm_instances_per_subdomain);
  encode(w, v.physical_elbs_per_subdomain);
  encode(w, v.name_servers_per_subdomain);
  encode_map(w, v.subdomains_per_physical_elb,
             [](Writer& wr, std::uint32_t k) { wr.u32(k); },
             [](Writer& wr, std::size_t c) { encode_size(wr, c); });
  encode_size(w, v.ns_total);
  encode_size(w, v.ns_in_cloudfront);
  encode_size(w, v.ns_in_ec2);
  encode_size(w, v.ns_in_azure);
  encode_size(w, v.ns_external);
}
void decode_artifact(Reader& r, analysis::PatternReport& v) {
  decode_vec(r, v.detections,
             [](Reader& rd, analysis::PatternDetection& d) { decode(rd, d); });
  decode(r, v.ec2_vm);
  decode(r, v.ec2_elb);
  decode(r, v.ec2_beanstalk);
  decode(r, v.ec2_heroku_elb);
  decode(r, v.ec2_heroku_no_elb);
  decode(r, v.azure_cs);
  decode(r, v.azure_tm);
  decode(r, v.cloudfront);
  decode(r, v.azure_cdn);
  decode_size(r, v.ec2_unclassified_subdomains);
  decode_size(r, v.azure_unclassified_subdomains);
  decode_size(r, v.ec2_subdomains);
  decode_size(r, v.azure_subdomains);
  decode_size(r, v.ec2_subdomains_with_cname);
  decode_size(r, v.azure_subdomains_with_cname);
  decode_size(r, v.azure_direct_ip_subdomains);
  decode(r, v.vm_instances_per_subdomain);
  decode(r, v.physical_elbs_per_subdomain);
  decode(r, v.name_servers_per_subdomain);
  decode_map(r, v.subdomains_per_physical_elb,
             [](Reader& rd, std::uint32_t& k) { k = rd.u32(); },
             [](Reader& rd, std::size_t& c) { decode_size(rd, c); });
  decode_size(r, v.ns_total);
  decode_size(r, v.ns_in_cloudfront);
  decode_size(r, v.ns_in_ec2);
  decode_size(r, v.ns_in_azure);
  decode_size(r, v.ns_external);
}

// --- regions --------------------------------------------------------------

void encode_artifact(Writer& w, const analysis::RegionReport& v) {
  encode_vec(w, v.subdomain_regions,
             [](Writer& wr, const std::vector<std::string>& regions) {
               encode_vec(wr, regions, [](Writer& w2, const std::string& s) {
                 w2.str(s);
               });
             });
  encode_map(w, v.domains_per_region,
             [](Writer& wr, const std::string& k) { wr.str(k); },
             [](Writer& wr, std::size_t c) { encode_size(wr, c); });
  encode_map(w, v.subdomains_per_region,
             [](Writer& wr, const std::string& k) { wr.str(k); },
             [](Writer& wr, std::size_t c) { encode_size(wr, c); });
  encode(w, v.regions_per_ec2_subdomain);
  encode(w, v.regions_per_azure_subdomain);
  encode(w, v.regions_per_ec2_domain);
  encode(w, v.regions_per_azure_domain);
  w.f64(v.ec2_single_region_fraction);
  w.f64(v.azure_single_region_fraction);
}
void decode_artifact(Reader& r, analysis::RegionReport& v) {
  decode_vec(r, v.subdomain_regions,
             [](Reader& rd, std::vector<std::string>& regions) {
               decode_vec(rd, regions, [](Reader& r2, std::string& s) {
                 s = r2.str();
               });
             });
  decode_map(r, v.domains_per_region,
             [](Reader& rd, std::string& k) { k = rd.str(); },
             [](Reader& rd, std::size_t& c) { decode_size(rd, c); });
  decode_map(r, v.subdomains_per_region,
             [](Reader& rd, std::string& k) { k = rd.str(); },
             [](Reader& rd, std::size_t& c) { decode_size(rd, c); });
  decode(r, v.regions_per_ec2_subdomain);
  decode(r, v.regions_per_azure_subdomain);
  decode(r, v.regions_per_ec2_domain);
  decode(r, v.regions_per_azure_domain);
  v.ec2_single_region_fraction = r.f64();
  v.azure_single_region_fraction = r.f64();
}

// --- trace logs -----------------------------------------------------------

namespace {

void encode(Writer& w, const net::FiveTuple& v) {
  encode(w, v.src.addr);
  w.u16(v.src.port);
  encode(w, v.dst.addr);
  w.u16(v.dst.port);
  w.u8(static_cast<std::uint8_t>(v.proto));
}
void decode(Reader& r, net::FiveTuple& v) {
  decode(r, v.src.addr);
  v.src.port = r.u16();
  decode(r, v.dst.addr);
  v.dst.port = r.u16();
  v.proto = static_cast<net::IpProto>(r.u8());
}

void encode(Writer& w, const proto::ConnRecord& v) {
  encode(w, v.tuple);
  w.u8(static_cast<std::uint8_t>(v.service));
  w.f64(v.first_ts);
  w.f64(v.duration);
  w.u64(v.bytes);
  w.u64(v.packets);
  encode_opt_str(w, v.hostname);
}
void decode(Reader& r, proto::ConnRecord& v) {
  decode(r, v.tuple);
  const auto service = r.u8();
  if (service > static_cast<std::uint8_t>(proto::Service::kOtherUdp))
    throw SnapshotError{
        util::fmt("snapshot conn record has unknown service {}", service)};
  v.service = static_cast<proto::Service>(service);
  v.first_ts = r.f64();
  v.duration = r.f64();
  v.bytes = r.u64();
  v.packets = r.u64();
  decode_opt_str(r, v.hostname);
}

void encode(Writer& w, const proto::HttpRecord& v) {
  w.str(v.host);
  w.str(v.method);
  w.str(v.target);
  encode(w, v.status);
  encode_opt_str(w, v.content_type);
  encode_opt_u64(w, v.content_length);
}
void decode(Reader& r, proto::HttpRecord& v) {
  v.host = r.str();
  v.method = r.str();
  v.target = r.str();
  decode(r, v.status);
  decode_opt_str(r, v.content_type);
  decode_opt_u64(r, v.content_length);
}

void encode(Writer& w, const proto::SslRecord& v) {
  encode_opt_str(w, v.sni);
  encode_opt_str(w, v.certificate_cn);
}
void decode(Reader& r, proto::SslRecord& v) {
  decode_opt_str(r, v.sni);
  decode_opt_str(r, v.certificate_cn);
}

}  // namespace

void encode_artifact(Writer& w, const proto::TraceLogs& v) {
  encode_vec(w, v.conns,
             [](Writer& wr, const proto::ConnRecord& c) { encode(wr, c); });
  encode_vec(w, v.http,
             [](Writer& wr, const proto::HttpRecord& h) { encode(wr, h); });
  encode_vec(w, v.ssl,
             [](Writer& wr, const proto::SslRecord& s) { encode(wr, s); });
}
void decode_artifact(Reader& r, proto::TraceLogs& v) {
  decode_vec(r, v.conns,
             [](Reader& rd, proto::ConnRecord& c) { decode(rd, c); });
  decode_vec(r, v.http,
             [](Reader& rd, proto::HttpRecord& h) { decode(rd, h); });
  decode_vec(r, v.ssl, [](Reader& rd, proto::SslRecord& s) { decode(rd, s); });
}

// --- capture report -------------------------------------------------------

namespace {

void encode(Writer& w, const analysis::ProtocolReport::Share& v) {
  w.u64(v.bytes);
  w.u64(v.flows);
}
void decode(Reader& r, analysis::ProtocolReport::Share& v) {
  v.bytes = r.u64();
  v.flows = r.u64();
}

void encode(Writer& w, const analysis::DomainVolumeRow& v) {
  w.str(v.domain);
  w.u64(v.bytes);
  w.f64(v.percent_of_web);
  encode_size(w, v.alexa_rank);
}
void decode(Reader& r, analysis::DomainVolumeRow& v) {
  v.domain = r.str();
  v.bytes = r.u64();
  v.percent_of_web = r.f64();
  decode_size(r, v.alexa_rank);
}

void encode(Writer& w, const analysis::ContentTypeRow& v) {
  w.str(v.content_type);
  w.u64(v.bytes);
  w.f64(v.percent);
  w.f64(v.mean_kb);
  w.f64(v.max_mb);
}
void decode(Reader& r, analysis::ContentTypeRow& v) {
  v.content_type = r.str();
  v.bytes = r.u64();
  v.percent = r.f64();
  v.mean_kb = r.f64();
  v.max_mb = r.f64();
}

}  // namespace

void encode_artifact(Writer& w, const analysis::CaptureReport& v) {
  encode_map(
      w, v.protocols.cloud_service,
      [](Writer& wr, const std::string& k) { wr.str(k); },
      [](Writer& wr,
         const std::map<std::string, analysis::ProtocolReport::Share>& m) {
        encode_map(wr, m,
                   [](Writer& w2, const std::string& k) { w2.str(k); },
                   [](Writer& w2, const analysis::ProtocolReport::Share& s) {
                     encode(w2, s);
                   });
      });
  encode(w, v.protocols.ec2_total);
  encode(w, v.protocols.azure_total);
  encode(w, v.protocols.total);
  encode_vec(w, v.top_ec2_domains,
             [](Writer& wr, const analysis::DomainVolumeRow& d) {
               encode(wr, d);
             });
  encode_vec(w, v.top_azure_domains,
             [](Writer& wr, const analysis::DomainVolumeRow& d) {
               encode(wr, d);
             });
  encode_size(w, v.unique_domains_ec2);
  encode_size(w, v.unique_domains_azure);
  encode_size(w, v.domains_in_alexa);
  encode_vec(w, v.content_types,
             [](Writer& wr, const analysis::ContentTypeRow& c) {
               encode(wr, c);
             });
  encode(w, v.http_flows_per_domain_ec2);
  encode(w, v.http_flows_per_domain_azure);
  encode(w, v.https_flows_per_cn_ec2);
  encode(w, v.https_flows_per_cn_azure);
  encode(w, v.http_flow_size_ec2);
  encode(w, v.http_flow_size_azure);
  encode(w, v.https_flow_size_ec2);
  encode(w, v.https_flow_size_azure);
  w.f64(v.top100_http_flow_share_ec2);
  w.f64(v.top100_http_flow_share_azure);
}
void decode_artifact(Reader& r, analysis::CaptureReport& v) {
  decode_map(
      r, v.protocols.cloud_service,
      [](Reader& rd, std::string& k) { k = rd.str(); },
      [](Reader& rd,
         std::map<std::string, analysis::ProtocolReport::Share>& m) {
        decode_map(rd, m, [](Reader& r2, std::string& k) { k = r2.str(); },
                   [](Reader& r2, analysis::ProtocolReport::Share& s) {
                     decode(r2, s);
                   });
      });
  decode(r, v.protocols.ec2_total);
  decode(r, v.protocols.azure_total);
  decode(r, v.protocols.total);
  decode_vec(r, v.top_ec2_domains,
             [](Reader& rd, analysis::DomainVolumeRow& d) { decode(rd, d); });
  decode_vec(r, v.top_azure_domains,
             [](Reader& rd, analysis::DomainVolumeRow& d) { decode(rd, d); });
  decode_size(r, v.unique_domains_ec2);
  decode_size(r, v.unique_domains_azure);
  decode_size(r, v.domains_in_alexa);
  decode_vec(r, v.content_types,
             [](Reader& rd, analysis::ContentTypeRow& c) { decode(rd, c); });
  decode(r, v.http_flows_per_domain_ec2);
  decode(r, v.http_flows_per_domain_azure);
  decode(r, v.https_flows_per_cn_ec2);
  decode(r, v.https_flows_per_cn_azure);
  decode(r, v.http_flow_size_ec2);
  decode(r, v.http_flow_size_azure);
  decode(r, v.https_flow_size_ec2);
  decode(r, v.https_flow_size_azure);
  v.top100_http_flow_share_ec2 = r.f64();
  v.top100_http_flow_share_azure = r.f64();
}

// --- zone study -----------------------------------------------------------

namespace {

void encode(Writer& w, const analysis::LatencyZoneRow& v) {
  w.str(v.region);
  encode_size(w, v.target_ips);
  encode_size(w, v.responded);
  encode_map(w, v.per_zone, [](Writer& wr, int k) { encode(wr, k); },
             [](Writer& wr, std::size_t c) { encode_size(wr, c); });
  encode_size(w, v.unknown);
}
void decode(Reader& r, analysis::LatencyZoneRow& v) {
  v.region = r.str();
  decode_size(r, v.target_ips);
  decode_size(r, v.responded);
  decode_map(r, v.per_zone, [](Reader& rd, int& k) { decode(rd, k); },
             [](Reader& rd, std::size_t& c) { decode_size(rd, c); });
  decode_size(r, v.unknown);
}

void encode(Writer& w, const analysis::VeracityRow& v) {
  w.str(v.region);
  encode_size(w, v.total);
  encode_size(w, v.match);
  encode_size(w, v.unknown);
  encode_size(w, v.mismatch);
}
void decode(Reader& r, analysis::VeracityRow& v) {
  v.region = r.str();
  decode_size(r, v.total);
  decode_size(r, v.match);
  decode_size(r, v.unknown);
  decode_size(r, v.mismatch);
}

void encode(Writer& w, const analysis::ZoneStudy::ZoneUsage& v) {
  encode_map(w, v.domains, [](Writer& wr, int k) { encode(wr, k); },
             [](Writer& wr, const std::set<std::string>& names) {
               wr.count(names.size());
               for (const auto& name : names) wr.str(name);
             });
  encode_map(w, v.subdomains, [](Writer& wr, int k) { encode(wr, k); },
             [](Writer& wr, std::size_t c) { encode_size(wr, c); });
}
void decode(Reader& r, analysis::ZoneStudy::ZoneUsage& v) {
  decode_map(r, v.domains, [](Reader& rd, int& k) { decode(rd, k); },
             [](Reader& rd, std::set<std::string>& names) {
               const auto n = rd.count();
               names.clear();
               for (std::size_t i = 0; i < n; ++i) names.insert(rd.str());
             });
  decode_map(r, v.subdomains, [](Reader& rd, int& k) { decode(rd, k); },
             [](Reader& rd, std::size_t& c) { decode_size(rd, c); });
}

}  // namespace

void encode_artifact(Writer& w, const analysis::ZoneStudy& v) {
  encode_vec(w, v.latency_rows,
             [](Writer& wr, const analysis::LatencyZoneRow& row) {
               encode(wr, row);
             });
  encode_vec(w, v.veracity_rows,
             [](Writer& wr, const analysis::VeracityRow& row) {
               encode(wr, row);
             });
  w.f64(v.latency_accuracy_vs_truth);
  w.f64(v.proximity_accuracy_vs_truth);
  encode_vec(w, v.subdomain_zones, [](Writer& wr, const std::set<int>& zones) {
    wr.count(zones.size());
    for (const auto zone : zones) encode(wr, zone);
  });
  encode_vec(w, v.subdomain_primary_region,
             [](Writer& wr, const std::string& s) { wr.str(s); });
  encode_map(w, v.usage_per_region,
             [](Writer& wr, const std::string& k) { wr.str(k); },
             [](Writer& wr, const analysis::ZoneStudy::ZoneUsage& u) {
               encode(wr, u);
             });
  encode(w, v.zones_per_subdomain);
  encode(w, v.zones_per_domain);
  w.f64(v.fraction_one_zone);
  w.f64(v.fraction_two_zones);
  w.f64(v.fraction_three_plus);
  w.f64(v.combined_identified_fraction);
}
void decode_artifact(Reader& r, analysis::ZoneStudy& v) {
  decode_vec(r, v.latency_rows,
             [](Reader& rd, analysis::LatencyZoneRow& row) {
               decode(rd, row);
             });
  decode_vec(r, v.veracity_rows,
             [](Reader& rd, analysis::VeracityRow& row) { decode(rd, row); });
  v.latency_accuracy_vs_truth = r.f64();
  v.proximity_accuracy_vs_truth = r.f64();
  decode_vec(r, v.subdomain_zones, [](Reader& rd, std::set<int>& zones) {
    const auto n = rd.count();
    zones.clear();
    for (std::size_t i = 0; i < n; ++i) {
      int zone = 0;
      decode(rd, zone);
      zones.insert(zone);
    }
  });
  decode_vec(r, v.subdomain_primary_region,
             [](Reader& rd, std::string& s) { s = rd.str(); });
  decode_map(r, v.usage_per_region,
             [](Reader& rd, std::string& k) { k = rd.str(); },
             [](Reader& rd, analysis::ZoneStudy::ZoneUsage& u) {
               decode(rd, u);
             });
  decode(r, v.zones_per_subdomain);
  decode(r, v.zones_per_domain);
  v.fraction_one_zone = r.f64();
  v.fraction_two_zones = r.f64();
  v.fraction_three_plus = r.f64();
  v.combined_identified_fraction = r.f64();
}

// --- campaign -------------------------------------------------------------

namespace {

void encode(Writer& w, const internet::VantagePoint& v) {
  w.str(v.name);
  w.f64(v.location.point.lat_deg);
  w.f64(v.location.point.lon_deg);
  w.str(v.location.country);
  w.str(v.location.continent);
  encode(w, v.address);
  w.u32(v.asn);
}
void decode(Reader& r, internet::VantagePoint& v) {
  v.name = r.str();
  v.location.point.lat_deg = r.f64();
  v.location.point.lon_deg = r.f64();
  v.location.country = r.str();
  v.location.continent = r.str();
  decode(r, v.address);
  v.asn = r.u32();
}

void encode_samples(
    Writer& w,
    const std::vector<std::vector<std::vector<std::optional<double>>>>& v) {
  encode_vec(w, v, [](Writer& w1, const auto& per_region) {
    encode_vec(w1, per_region, [](Writer& w2, const auto& rounds) {
      encode_vec(w2, rounds, [](Writer& w3, const std::optional<double>& s) {
        encode_opt_f64(w3, s);
      });
    });
  });
}
void decode_samples(
    Reader& r,
    std::vector<std::vector<std::vector<std::optional<double>>>>& v) {
  decode_vec(r, v, [](Reader& r1, auto& per_region) {
    decode_vec(r1, per_region, [](Reader& r2, auto& rounds) {
      decode_vec(r2, rounds, [](Reader& r3, std::optional<double>& s) {
        decode_opt_f64(r3, s);
      });
    });
  });
}

}  // namespace

void encode_artifact(Writer& w, const analysis::Campaign& v) {
  encode_vec(w, v.vantages,
             [](Writer& wr, const internet::VantagePoint& p) {
               encode(wr, p);
             });
  encode_vec(w, v.region_names,
             [](Writer& wr, const std::string& s) { wr.str(s); });
  w.f64(v.round_seconds);
  encode_samples(w, v.rtt_ms);
  encode_samples(w, v.tput_kbps);
  encode_vec(w, v.dropped_rounds,
             [](Writer& wr, std::uint64_t n) { wr.u64(n); });
}
void decode_artifact(Reader& r, analysis::Campaign& v) {
  decode_vec(r, v.vantages,
             [](Reader& rd, internet::VantagePoint& p) { decode(rd, p); });
  decode_vec(r, v.region_names,
             [](Reader& rd, std::string& s) { s = rd.str(); });
  v.round_seconds = r.f64();
  decode_samples(r, v.rtt_ms);
  decode_samples(r, v.tput_kbps);
  decode_vec(r, v.dropped_rounds,
             [](Reader& rd, std::uint64_t& n) { n = rd.u64(); });
}

// --- isp study ------------------------------------------------------------

void encode_artifact(Writer& w, const analysis::IspStudy& v) {
  encode_vec(w, v.rows, [](Writer& wr, const analysis::IspDiversityRow& row) {
    wr.str(row.region);
    encode_map(wr, row.per_zone, [](Writer& w2, int k) { encode(w2, k); },
               [](Writer& w2, std::size_t c) { encode_size(w2, c); });
    wr.f64(row.max_single_isp_share);
  });
}
void decode_artifact(Reader& r, analysis::IspStudy& v) {
  decode_vec(r, v.rows, [](Reader& rd, analysis::IspDiversityRow& row) {
    row.region = rd.str();
    decode_map(rd, row.per_zone, [](Reader& r2, int& k) { decode(r2, k); },
               [](Reader& r2, std::size_t& c) { decode_size(r2, c); });
    row.max_single_isp_share = rd.f64();
  });
}

}  // namespace cs::snap
