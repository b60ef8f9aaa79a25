#include "analysis/isp.h"

#include <algorithm>
#include <set>

namespace cs::analysis {
namespace {

/// Three "isp-probe" instances per zone of every region, in region/zone
/// order, as in the paper.
std::vector<const cloud::Instance*> launch_probe_fleet(cloud::Provider& ec2) {
  std::vector<const cloud::Instance*> fleet;
  for (const auto& region : ec2.regions())
    for (int zone = 0; zone < region.zone_count; ++zone)
      for (int i = 0; i < 3; ++i)
        fleet.push_back(&ec2.launch({.account = "isp-probe",
                                     .region = region.name,
                                     .zone_label = zone,
                                     .type = "m1.medium"}));
  return fleet;
}

}  // namespace

IspStudy run_isp_study(cloud::Provider& ec2,
                       const internet::AsTopology& topology,
                       const std::vector<internet::VantagePoint>& vantages,
                       int traceroutes_per_pair) {
  IspStudy study;
  const auto fleet = launch_probe_fleet(ec2);
  std::size_t next_probe = 0;
  for (const auto& region : ec2.regions()) {
    IspDiversityRow row;
    row.region = region.name;
    std::map<std::uint32_t, std::size_t> route_counts;
    std::size_t total_routes = 0;

    for (int zone = 0; zone < region.zone_count; ++zone) {
      std::vector<const cloud::Instance*> probes{
          fleet.begin() + static_cast<std::ptrdiff_t>(next_probe),
          fleet.begin() + static_cast<std::ptrdiff_t>(next_probe + 3)};
      next_probe += 3;
      std::set<std::uint32_t> distinct;
      for (const auto* probe : probes) {
        for (const auto& vantage : vantages) {
          for (int rep = 0; rep < traceroutes_per_pair; ++rep) {
            const auto hops = topology.traceroute(*probe, vantage);
            // First non-cloud hop = first hop with a whois answer.
            for (const auto& hop : hops) {
              if (const auto asn = topology.asn_of(hop.address)) {
                if (*asn == vantage.asn) break;  // reached the client AS
                distinct.insert(*asn);
                ++route_counts[*asn];
                ++total_routes;
                break;
              }
            }
          }
        }
      }
      row.per_zone[probes[0]->zone] = distinct.size();
    }

    for (const auto& [asn, count] : route_counts)
      row.max_single_isp_share =
          std::max(row.max_single_isp_share,
                   total_routes ? static_cast<double>(count) / total_routes
                                : 0.0);
    study.rows.push_back(std::move(row));
  }
  return study;
}

std::vector<FailureImpact> single_isp_failure_impact(
    cloud::Provider& ec2, internet::AsTopology& topology,
    const std::vector<internet::VantagePoint>& vantages) {
  std::vector<FailureImpact> impacts;
  for (const auto& region : ec2.regions()) {
    const auto& probe = ec2.launch({.account = "fail-probe",
                                    .region = region.name,
                                    .type = "m1.medium"});
    // The failover deployment adds a second region (the geographically
    // complementary heavy hitter).
    const std::string failover = region.name == "ec2.us-east-1"
                                     ? "ec2.eu-west-1"
                                     : "ec2.us-east-1";
    const auto& failover_probe = ec2.launch(
        {.account = "fail-probe", .region = failover, .type = "m1.medium"});

    // Find the busiest downstream AS for this region.
    std::map<std::uint32_t, std::size_t> counts;
    for (const auto& vantage : vantages) {
      if (const auto as = topology.downstream_for_path(region.name,
                                                       probe.zone, vantage))
        ++counts[as->asn];
    }
    std::uint32_t busiest = 0;
    std::size_t top = 0;
    for (const auto& [asn, count] : counts)
      if (count > top) {
        top = count;
        busiest = asn;
      }
    if (!busiest) continue;

    topology.set_as_down(busiest, true);
    std::size_t single_dead = 0, multi_dead = 0;
    for (const auto& vantage : vantages) {
      const bool primary_dead = topology.traceroute(probe, vantage).empty();
      if (primary_dead) ++single_dead;
      const bool failover_dead =
          topology.traceroute(failover_probe, vantage).empty();
      if (primary_dead && failover_dead) ++multi_dead;
    }
    topology.set_as_down(busiest, false);

    FailureImpact impact;
    impact.region = region.name;
    impact.failed_asn = busiest;
    impact.failover_region = failover;
    impact.single_region_unreachable =
        static_cast<double>(single_dead) / vantages.size();
    impact.multi_region_unreachable =
        static_cast<double>(multi_dead) / vantages.size();
    impacts.push_back(std::move(impact));
  }
  return impacts;
}

}  // namespace cs::analysis
