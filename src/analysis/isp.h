#pragma once

#include <map>
#include <string>
#include <vector>

#include "internet/traceroute.h"

/// §5.2: downstream-ISP diversity (Table 16) and the availability impact
/// of single-ISP failures.
namespace cs::analysis {

/// Table 16 row: distinct downstream ISPs seen per zone of a region.
struct IspDiversityRow {
  std::string region;
  /// zone label -> distinct downstream AS count (absent zones omitted).
  std::map<int, std::size_t> per_zone;
  /// Fraction of routes using the busiest single downstream ISP
  /// (the "uneven spread" observation).
  double max_single_isp_share = 0.0;
};

struct IspStudy {
  std::vector<IspDiversityRow> rows;
};

/// Runs the §5.2 methodology: three "isp-probe" instances launched per
/// zone of every region traceroute to every vantage; the first non-cloud
/// hop is whois'ed to an AS. The fleet launches into `ec2`, so pass a
/// copy of a shared provider (e.g. `cloud::Provider ec2 = world.ec2();`).
IspStudy run_isp_study(cloud::Provider& ec2,
                       const internet::AsTopology& topology,
                       const std::vector<internet::VantagePoint>& vantages,
                       int traceroutes_per_pair = 5);

/// Availability experiment: fail each region's busiest downstream ISP and
/// measure the fraction of vantage paths blackholed for a single-region
/// deployment vs. a k-region deployment with failover. Launches its
/// probes into `ec2`, like run_isp_study.
struct FailureImpact {
  std::string region;
  std::uint32_t failed_asn = 0;
  double single_region_unreachable = 0.0;
  double multi_region_unreachable = 0.0;  ///< with a failover region
  std::string failover_region;
};
std::vector<FailureImpact> single_isp_failure_impact(
    cloud::Provider& ec2, internet::AsTopology& topology,
    const std::vector<internet::VantagePoint>& vantages);

}  // namespace cs::analysis
