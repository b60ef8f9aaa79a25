#include "analysis/patterns.h"

#include <algorithm>

#include "util/strings.h"

namespace cs::analysis {
namespace {

/// Table 8 lists the top 10 EC2-using domains.
constexpr std::size_t kTopDomains = 10;

bool cname_matches(const std::vector<dns::Name>& cnames,
                   std::string_view marker) {
  for (const auto& cname : cnames)
    if (util::icontains(cname.to_string(), marker)) return true;
  return false;
}

}  // namespace

PatternReport analyze_patterns(const AlexaDataset& dataset,
                               const CloudRanges& ranges) {
  PatternReport report;
  report.detections.reserve(dataset.cloud_subdomains.size());

  // Feature -> set of domains / instance addresses for Table 7 totals.
  std::set<std::string> vm_domains, elb_domains, beanstalk_domains,
      heroku_elb_domains, heroku_domains, cs_domains, tm_domains,
      cloudfront_domains, azure_cdn_domains;
  std::set<std::uint32_t> vm_instances, elb_instances, beanstalk_instances,
      heroku_elb_instances, heroku_instances, cs_instances,
      cloudfront_instances, azure_cdn_instances;
  std::set<std::string> tm_profiles, logical_elbs_global;
  std::set<std::uint32_t> all_ns_addrs_seen;

  for (const auto& obs : dataset.cloud_subdomains) {
    PatternDetection det;
    const std::string domain = obs.domain.to_string();

    const bool is_azure = obs.has_azure_address;
    const bool is_ec2 = obs.has_ec2_address;
    if (is_ec2) ++report.ec2_subdomains;
    if (is_azure) ++report.azure_subdomains;
    if (!obs.cnames.empty()) {
      if (is_ec2) ++report.ec2_subdomains_with_cname;
      if (is_azure) ++report.azure_subdomains_with_cname;
    }

    // CDN checks (orthogonal to front-end checks).
    if (obs.has_cloudfront_address) {
      det.cloudfront = true;
      cloudfront_domains.insert(domain);
      ++report.cloudfront.subdomains;
      for (const auto addr : obs.addresses)
        if (ranges.is_cloudfront(addr))
          cloudfront_instances.insert(addr.value());
    }
    if (cname_matches(obs.cnames, "msecnd.net")) {
      det.azure_cdn = true;
      azure_cdn_domains.insert(domain);
      ++report.azure_cdn.subdomains;
      for (const auto addr : obs.addresses)
        if (ranges.is_azure(addr)) azure_cdn_instances.insert(addr.value());
    }

    // EC2 heuristics.
    if (is_ec2) {
      const bool heroku_marker = cname_matches(obs.cnames, "heroku");
      const bool beanstalk_marker =
          cname_matches(obs.cnames, "elasticbeanstalk");
      bool elb_marker = false;
      for (const auto& cname : obs.cnames) {
        if (util::iends_with(cname.to_string(), ".elb.amazonaws.com")) {
          elb_marker = true;
          det.logical_elbs.push_back(cname);
          logical_elbs_global.insert(cname.to_string());
        }
      }

      if (obs.direct_a_record && !elb_marker && !heroku_marker &&
          !beanstalk_marker) {
        det.vm_front = true;
        vm_domains.insert(domain);
        ++report.ec2_vm.subdomains;
        for (const auto addr : obs.addresses) {
          if (ranges.is_ec2(addr)) {
            ++det.vm_instances;
            vm_instances.insert(addr.value());
          }
        }
        report.vm_instances_per_subdomain.add(
            static_cast<double>(det.vm_instances));
      }

      if (elb_marker) {
        det.elb = true;
        elb_domains.insert(domain);
        ++report.ec2_elb.subdomains;
        for (const auto addr : obs.addresses) {
          if (ranges.is_ec2(addr)) {
            ++det.physical_elbs;
            elb_instances.insert(addr.value());
            ++report.subdomains_per_physical_elb[addr.value()];
          }
        }
        report.physical_elbs_per_subdomain.add(
            static_cast<double>(det.physical_elbs));
      }

      if (beanstalk_marker) {
        det.beanstalk = true;
        beanstalk_domains.insert(domain);
        ++report.ec2_beanstalk.subdomains;
        for (const auto addr : obs.addresses)
          if (ranges.is_ec2(addr)) beanstalk_instances.insert(addr.value());
      }
      if (heroku_marker) {
        det.heroku = true;
        if (elb_marker) {
          heroku_elb_domains.insert(domain);
          ++report.ec2_heroku_elb.subdomains;
          for (const auto addr : obs.addresses)
            if (ranges.is_ec2(addr))
              heroku_elb_instances.insert(addr.value());
        } else {
          heroku_domains.insert(domain);
          ++report.ec2_heroku_no_elb.subdomains;
          for (const auto addr : obs.addresses)
            if (ranges.is_ec2(addr)) heroku_instances.insert(addr.value());
        }
      }

      if (!det.vm_front && !elb_marker && !beanstalk_marker &&
          !heroku_marker) {
        det.unclassified = true;
        ++report.ec2_unclassified_subdomains;
      }
    }

    // Azure heuristics.
    if (is_azure) {
      if (obs.direct_a_record && obs.cnames.empty())
        ++report.azure_direct_ip_subdomains;
      const bool cloudapp = cname_matches(obs.cnames, "cloudapp.net");
      const bool tm = cname_matches(obs.cnames, "trafficmanager.net");
      if (tm) {
        det.azure_tm = true;
        tm_domains.insert(domain);
        ++report.azure_tm.subdomains;
        for (const auto& cname : obs.cnames)
          if (util::iends_with(cname.to_string(), ".trafficmanager.net"))
            tm_profiles.insert(cname.to_string());
      }
      if (cloudapp || (obs.direct_a_record && obs.cnames.empty())) {
        det.azure_cs = true;
        cs_domains.insert(domain);
        ++report.azure_cs.subdomains;
        for (const auto addr : obs.addresses)
          if (ranges.is_azure(addr)) cs_instances.insert(addr.value());
      }
      if (!det.azure_cs && !det.azure_tm && !det.azure_cdn) {
        det.unclassified = true;
        ++report.azure_unclassified_subdomains;
      }
    }

    // Figure 5: distinct name servers per subdomain.
    if (!obs.name_servers.empty())
      report.name_servers_per_subdomain.add(
          static_cast<double>(obs.name_servers.size()));
    for (const auto& [ns_name, ns_addrs] : obs.name_servers) {
      for (const auto addr : ns_addrs) {
        if (!all_ns_addrs_seen.insert(addr.value()).second) continue;
        ++report.ns_total;
        const auto c = ranges.classify(addr);
        switch (c.kind) {
          case IpClassification::Kind::kCloudFront:
            ++report.ns_in_cloudfront;
            break;
          case IpClassification::Kind::kEc2:
            ++report.ns_in_ec2;
            break;
          case IpClassification::Kind::kAzure:
            ++report.ns_in_azure;
            break;
          case IpClassification::Kind::kOther:
            ++report.ns_external;
            break;
        }
      }
    }

    report.detections.push_back(std::move(det));
  }

  report.ec2_vm.domains = vm_domains.size();
  report.ec2_vm.instances = vm_instances.size();
  report.ec2_elb.domains = elb_domains.size();
  report.ec2_elb.instances = elb_instances.size();
  report.ec2_beanstalk.domains = beanstalk_domains.size();
  report.ec2_beanstalk.instances = beanstalk_instances.size();
  report.ec2_heroku_elb.domains = heroku_elb_domains.size();
  report.ec2_heroku_elb.instances = heroku_elb_instances.size();
  report.ec2_heroku_no_elb.domains = heroku_domains.size();
  report.ec2_heroku_no_elb.instances = heroku_instances.size();
  report.azure_cs.domains = cs_domains.size();
  report.azure_cs.instances = cs_instances.size();
  report.azure_tm.domains = tm_domains.size();
  report.azure_tm.instances = tm_profiles.size();
  report.cloudfront.domains = cloudfront_domains.size();
  report.cloudfront.instances = cloudfront_instances.size();
  report.azure_cdn.domains = azure_cdn_domains.size();
  report.azure_cdn.instances = azure_cdn_instances.size();
  return report;
}

std::vector<DomainFeatureRow> analyze_top_domain_features(
    const AlexaDataset& dataset, const PatternReport& report) {
  std::vector<std::pair<std::size_t, const DomainObservation*>> ranked;
  for (const auto& domain : dataset.domains)
    if (!domain.cloud_subdomains.empty())
      ranked.emplace_back(domain.rank, &domain);
  std::sort(ranked.begin(), ranked.end());

  std::vector<DomainFeatureRow> rows;
  for (const auto& [rank, domain] : ranked) {
    if (rows.size() >= kTopDomains) break;
    // Match the paper's Table 8: EC2-using domains only.
    bool any_ec2 = false;
    for (const auto idx : domain->cloud_subdomains)
      any_ec2 |= dataset.cloud_subdomains[idx].has_ec2_address ||
                 dataset.cloud_subdomains[idx].has_cloudfront_address;
    if (!any_ec2) continue;

    DomainFeatureRow row;
    row.rank = rank;
    row.domain = domain->name.to_string();
    row.cloud_subdomains = domain->cloud_subdomains.size();
    std::set<std::uint32_t> elb_ips;
    for (const auto idx : domain->cloud_subdomains) {
      const auto& det = report.detections[idx];
      const auto& obs = dataset.cloud_subdomains[idx];
      if (det.vm_front) ++row.vm;
      if (det.beanstalk || det.heroku) ++row.paas;
      if (det.elb) {
        ++row.elb;
        for (const auto addr : obs.addresses)
          if (!obs.has_azure_address) elb_ips.insert(addr.value());
      }
      if (det.cloudfront || det.azure_cdn) ++row.cdn;
    }
    row.elb_ips = elb_ips.size();
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace cs::analysis
