#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/dataset.h"

/// §3.2: who uses the cloud — Table 3's provider breakdown, Table 4's
/// top EC2-using domains, rank skew, and subdomain-prefix statistics.
namespace cs::analysis {

/// Table 3 rows. "Other" means an address outside both clouds.
struct ProviderBreakdown {
  std::size_t ec2_only = 0;
  std::size_t ec2_plus_other = 0;
  std::size_t azure_only = 0;
  std::size_t azure_plus_other = 0;
  std::size_t ec2_plus_azure = 0;
  std::size_t total = 0;

  std::size_t ec2_total() const {
    return ec2_only + ec2_plus_other + ec2_plus_azure;
  }
  std::size_t azure_total() const {
    return azure_only + azure_plus_other + ec2_plus_azure;
  }
};

struct CloudUsageReport {
  ProviderBreakdown domains;     ///< Table 3, domain granularity
  ProviderBreakdown subdomains;  ///< Table 3, subdomain granularity
  /// Table 4: top cloud-using domains by rank with subdomain counts.
  struct TopDomain {
    std::size_t rank;
    std::string domain;
    std::size_t total_subdomains;  ///< all discovered (cloud + other)
    std::size_t cloud_subdomains;
  };
  std::vector<TopDomain> top_ec2_domains;
  std::vector<TopDomain> top_azure_domains;
  /// Fraction of cloud-using domains in the top / bottom rank quartile.
  double top_quartile_fraction = 0.0;
  double bottom_quartile_fraction = 0.0;
  /// Most frequent subdomain prefixes among cloud-using subdomains.
  std::vector<std::pair<std::string, std::size_t>> top_prefixes;
};

/// Computes the §3.2 report from the dataset.
CloudUsageReport analyze_cloud_usage(const AlexaDataset& dataset);

}  // namespace cs::analysis
