#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "util/cdf.h"

/// §4.1: front-end deployment-pattern detection via the paper's CNAME/IP
/// heuristics (Table 7/8, Figures 4-5) plus name-server location.
namespace cs::analysis {

/// What the heuristics concluded for one subdomain.
struct PatternDetection {
  bool vm_front = false;         ///< direct A record(s) in EC2
  bool elb = false;              ///< CNAME *.elb.amazonaws.com
  bool beanstalk = false;        ///< CNAME contains 'elasticbeanstalk'
  bool heroku = false;           ///< CNAME contains a heroku marker
  bool azure_cs = false;         ///< direct Azure IP or *.cloudapp.net
  bool azure_tm = false;         ///< CNAME *.trafficmanager.net
  bool cloudfront = false;       ///< any address in the CloudFront range
  bool azure_cdn = false;        ///< CNAME contains 'msecnd.net'
  bool unclassified = false;     ///< cloud-using but no filter matched
  std::size_t vm_instances = 0;       ///< A-record front-end addresses
  std::size_t physical_elbs = 0;      ///< distinct ELB proxy addresses
  std::vector<dns::Name> logical_elbs;
};

/// Aggregated Table 7 counts for one feature.
struct FeatureUsage {
  std::size_t domains = 0;
  std::size_t subdomains = 0;
  std::size_t instances = 0;  ///< distinct addresses (or logical units)
};

struct PatternReport {
  /// Per-subdomain detections, parallel to dataset.cloud_subdomains.
  std::vector<PatternDetection> detections;

  // Table 7 rows.
  FeatureUsage ec2_vm;
  FeatureUsage ec2_elb;
  FeatureUsage ec2_beanstalk;      ///< always with ELB
  FeatureUsage ec2_heroku_elb;
  FeatureUsage ec2_heroku_no_elb;
  FeatureUsage azure_cs;
  FeatureUsage azure_tm;
  FeatureUsage cloudfront;
  FeatureUsage azure_cdn;
  std::size_t ec2_unclassified_subdomains = 0;
  std::size_t azure_unclassified_subdomains = 0;
  std::size_t ec2_subdomains = 0;
  std::size_t azure_subdomains = 0;
  std::size_t ec2_subdomains_with_cname = 0;
  std::size_t azure_subdomains_with_cname = 0;
  std::size_t azure_direct_ip_subdomains = 0;

  /// Figure 4a/4b inputs.
  util::Cdf vm_instances_per_subdomain;
  util::Cdf physical_elbs_per_subdomain;
  /// Figure 5 input.
  util::Cdf name_servers_per_subdomain;
  /// Sharing: subdomain count per physical ELB address.
  std::map<std::uint32_t, std::size_t> subdomains_per_physical_elb;

  /// Name-server location classification (§4.1 "Domain name servers").
  std::size_t ns_total = 0;
  std::size_t ns_in_cloudfront = 0;  ///< route53-style
  std::size_t ns_in_ec2 = 0;
  std::size_t ns_in_azure = 0;
  std::size_t ns_external = 0;
};

/// Runs all detections over a dataset.
PatternReport analyze_patterns(const AlexaDataset& dataset,
                               const CloudRanges& ranges);

/// Table 8: per-domain feature usage for the given (top) domains.
struct DomainFeatureRow {
  std::size_t rank = 0;
  std::string domain;
  std::size_t cloud_subdomains = 0;
  std::size_t vm = 0, paas = 0, elb = 0;
  std::size_t elb_ips = 0;
  std::size_t cdn = 0;
};
std::vector<DomainFeatureRow> analyze_top_domain_features(
    const AlexaDataset& dataset, const PatternReport& report);

}  // namespace cs::analysis
