#include "analysis/columns.h"

namespace cs::analysis {
namespace {

std::uint8_t pack_flags(const SubdomainObservation& s) {
  std::uint8_t f = 0;
  if (s.direct_a_record) f |= DatasetColumns::kDirectA;
  if (s.has_other_address) f |= DatasetColumns::kOtherAddress;
  if (s.has_ec2_address) f |= DatasetColumns::kEc2Address;
  if (s.has_azure_address) f |= DatasetColumns::kAzureAddress;
  if (s.has_cloudfront_address) f |= DatasetColumns::kCloudFrontAddress;
  return f;
}

dns::Name name_of(const util::StringArena& names, std::uint32_t id) {
  return dns::Name::must_parse(names.view(id));
}

}  // namespace

DatasetColumns DatasetColumns::from_dataset(const AlexaDataset& dataset) {
  DatasetColumns c;
  c.dns_queries_spent = dataset.dns_queries_spent;

  auto& sub = c.subdomains;
  const std::size_t subs = dataset.cloud_subdomains.size();
  sub.name.reserve(subs);
  sub.domain.reserve(subs);
  sub.flags.reserve(subs);
  sub.address_off.reserve(subs + 1);
  sub.cname_off.reserve(subs + 1);
  sub.ns_off.reserve(subs + 1);
  for (const auto& s : dataset.cloud_subdomains) {
    sub.name.push_back(c.names.intern(s.name.to_string()));
    sub.domain.push_back(c.names.intern(s.domain.to_string()));
    sub.flags.push_back(pack_flags(s));
    sub.address_pool.insert(sub.address_pool.end(), s.addresses.begin(),
                            s.addresses.end());
    sub.address_off.push_back(sub.address_pool.size());
    for (const auto& cname : s.cnames)
      sub.cname_pool.push_back(c.names.intern(cname.to_string()));
    sub.cname_off.push_back(sub.cname_pool.size());
    for (const auto& [ns_name, addrs] : s.name_servers) {
      sub.ns_name_pool.push_back(c.names.intern(ns_name.to_string()));
      sub.ns_addr_pool.insert(sub.ns_addr_pool.end(), addrs.begin(),
                              addrs.end());
      sub.ns_addr_off.push_back(sub.ns_addr_pool.size());
    }
    sub.ns_off.push_back(sub.ns_name_pool.size());
  }

  auto& dom = c.domains;
  const std::size_t doms = dataset.domains.size();
  dom.name.reserve(doms);
  dom.rank.reserve(doms);
  dom.axfr.reserve(doms);
  dom.subdomains_probed.reserve(doms);
  dom.cloud_off.reserve(doms + 1);
  dom.other_only.reserve(doms);
  dom.unresolved.reserve(doms);
  dom.failed_off.reserve(doms + 1);
  for (const auto& d : dataset.domains) {
    dom.name.push_back(c.names.intern(d.name.to_string()));
    dom.rank.push_back(d.rank);
    dom.axfr.push_back(d.axfr_succeeded ? 1 : 0);
    dom.subdomains_probed.push_back(d.subdomains_probed);
    dom.cloud_pool.insert(dom.cloud_pool.end(), d.cloud_subdomains.begin(),
                          d.cloud_subdomains.end());
    dom.cloud_off.push_back(dom.cloud_pool.size());
    dom.other_only.push_back(d.other_only_subdomains);
    dom.unresolved.push_back(d.unresolved_subdomains);
    for (std::size_t i = 0; i < FailedLookups::kRcodeCount; ++i) {
      const auto rcode = static_cast<dns::Rcode>(i);
      if (const auto count = d.failed_lookups.count(rcode)) {
        dom.failed_rcode_pool.push_back(static_cast<std::uint8_t>(i));
        dom.failed_count_pool.push_back(count);
      }
    }
    dom.failed_off.push_back(dom.failed_rcode_pool.size());
  }
  return c;
}

AlexaDataset DatasetColumns::to_dataset() const {
  AlexaDataset dataset;
  dataset.dns_queries_spent = dns_queries_spent;

  const auto& sub = subdomains;
  dataset.cloud_subdomains.resize(subdomain_count());
  for (std::size_t i = 0; i < subdomain_count(); ++i) {
    auto& s = dataset.cloud_subdomains[i];
    s.name = name_of(names, sub.name[i]);
    s.domain = name_of(names, sub.domain[i]);
    const auto flags = sub.flags[i];
    s.direct_a_record = (flags & kDirectA) != 0;
    s.has_other_address = (flags & kOtherAddress) != 0;
    s.has_ec2_address = (flags & kEc2Address) != 0;
    s.has_azure_address = (flags & kAzureAddress) != 0;
    s.has_cloudfront_address = (flags & kCloudFrontAddress) != 0;
    s.addresses.assign(sub.address_pool.begin() + sub.address_off[i],
                       sub.address_pool.begin() + sub.address_off[i + 1]);
    s.cnames.reserve(sub.cname_off[i + 1] - sub.cname_off[i]);
    for (auto j = sub.cname_off[i]; j < sub.cname_off[i + 1]; ++j)
      s.cnames.push_back(name_of(names, sub.cname_pool[j]));
    s.name_servers.reserve(sub.ns_off[i + 1] - sub.ns_off[i]);
    for (auto j = sub.ns_off[i]; j < sub.ns_off[i + 1]; ++j)
      s.name_servers.emplace_back(
          name_of(names, sub.ns_name_pool[j]),
          std::vector<net::Ipv4>(
              sub.ns_addr_pool.begin() + sub.ns_addr_off[j],
              sub.ns_addr_pool.begin() + sub.ns_addr_off[j + 1]));
  }

  const auto& dom = domains;
  dataset.domains.resize(domain_count());
  for (std::size_t i = 0; i < domain_count(); ++i) {
    auto& d = dataset.domains[i];
    d.name = name_of(names, dom.name[i]);
    d.rank = static_cast<std::size_t>(dom.rank[i]);
    d.axfr_succeeded = dom.axfr[i] != 0;
    d.subdomains_probed = static_cast<std::size_t>(dom.subdomains_probed[i]);
    d.cloud_subdomains.assign(dom.cloud_pool.begin() + dom.cloud_off[i],
                              dom.cloud_pool.begin() + dom.cloud_off[i + 1]);
    d.other_only_subdomains = static_cast<std::size_t>(dom.other_only[i]);
    d.unresolved_subdomains = static_cast<std::size_t>(dom.unresolved[i]);
    for (auto j = dom.failed_off[i]; j < dom.failed_off[i + 1]; ++j)
      d.failed_lookups.set(static_cast<dns::Rcode>(dom.failed_rcode_pool[j]),
                           dom.failed_count_pool[j]);
  }
  return dataset;
}

}  // namespace cs::analysis
