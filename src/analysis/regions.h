#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/patterns.h"
#include "util/cdf.h"

/// §4.2: region usage (Table 9/10, Figure 6) and the customer-location
/// mismatch analysis.
namespace cs::analysis {

struct RegionReport {
  /// Regions per subdomain, parallel to dataset.cloud_subdomains. Only
  /// VM/PaaS/ELB/TM addresses are attributed (CDN addresses excluded),
  /// per the paper's §4.2 method.
  std::vector<std::vector<std::string>> subdomain_regions;

  /// Table 9: (sub)domain counts per region.
  std::map<std::string, std::size_t> domains_per_region;
  std::map<std::string, std::size_t> subdomains_per_region;

  /// Figure 6 inputs.
  util::Cdf regions_per_ec2_subdomain;
  util::Cdf regions_per_azure_subdomain;
  util::Cdf regions_per_ec2_domain;    ///< average over its subdomains
  util::Cdf regions_per_azure_domain;

  /// Headline fractions: subdomains using exactly one region.
  double ec2_single_region_fraction = 0.0;
  double azure_single_region_fraction = 0.0;
};

RegionReport analyze_regions(const AlexaDataset& dataset,
                             const CloudRanges& ranges);

/// Table 10 rows: region usage for the top cloud-using domains.
struct DomainRegionRow {
  std::size_t rank = 0;
  std::string domain;
  std::size_t cloud_subdomains = 0;
  std::size_t total_regions = 0;
  std::size_t k1 = 0;  ///< subdomains using one region
  std::size_t k2 = 0;  ///< subdomains using two regions
};
std::vector<DomainRegionRow> analyze_top_domain_regions(
    const AlexaDataset& dataset, const RegionReport& report);

/// Customer-location analysis: fraction of subdomains hosted outside the
/// customer country / continent. Country truth comes from the world (the
/// AWIS stand-in); region geography from the providers.
struct CustomerGeoReport {
  std::size_t classified_subdomains = 0;
  std::size_t country_mismatch = 0;
  std::size_t continent_mismatch = 0;
};
CustomerGeoReport analyze_customer_geo(const AlexaDataset& dataset,
                                       const RegionReport& report,
                                       const synth::World& world);

}  // namespace cs::analysis
