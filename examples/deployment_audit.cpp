// Deployment audit: interrogate one domain exactly the way the paper's
// methodology does — zone-transfer attempt, wordlist enumeration,
// distributed lookups, CNAME heuristics, region attribution, and zone
// cartography — and print an availability-posture report.
//
//   ./examples/deployment_audit [domain]     (default: pinterest.com)
#include <iostream>
#include <set>

#include "analysis/dataset.h"
#include "analysis/patterns.h"
#include "analysis/regions.h"
#include "carto/combined.h"
#include "internet/model.h"
#include "util/format.h"

int main(int argc, char** argv) {
  using namespace cs;
  const std::string target = argc > 1 ? argv[1] : "pinterest.com";

  synth::WorldConfig world_config;
  world_config.domain_count = 400;
  synth::World world{world_config};
  if (!world.domain(target)) {
    std::cerr << target << " is not in this universe; try pinterest.com, "
                           "fc2.com, msn.com, amazon.com, ...\n";
    return 1;
  }

  std::cout << "Auditing " << target << " ...\n\n";
  // Run the dataset pipeline (restricted reporting to the one domain).
  analysis::DatasetBuilder builder{world, {.lookup_vantages = 4}};
  const auto dataset = builder.build();
  analysis::CloudRanges ranges{world.ec2(), world.azure()};
  const auto patterns = analysis::analyze_patterns(dataset, ranges);
  const auto regions = analysis::analyze_regions(dataset, ranges);

  cloud::Provider ec2 = world.ec2();
  carto::ProximityEstimator proximity{ec2, {.seed = 7}};
  internet::WideAreaModel model{{.seed = 7}};
  carto::LatencyZoneEstimator latency{ec2, model, {.seed = 7}};
  carto::CombinedZoneEstimator zones{proximity, latency};

  std::size_t audited = 0;
  std::set<std::string> domain_regions;
  std::set<int> domain_zones;
  for (std::size_t i = 0; i < dataset.cloud_subdomains.size(); ++i) {
    const auto& obs = dataset.cloud_subdomains[i];
    if (obs.domain.to_string() != target) continue;
    ++audited;
    const auto& det = patterns.detections[i];
    std::string front = det.vm_front      ? "VM front end"
                        : det.elb         ? "ELB front end"
                        : det.beanstalk   ? "Beanstalk"
                        : det.heroku      ? "Heroku"
                        : det.azure_tm    ? "Traffic Manager"
                        : det.azure_cs    ? "Cloud Service"
                        : det.cloudfront  ? "CloudFront"
                        : det.azure_cdn   ? "Azure CDN"
                                          : "unclassified";
    std::string region_list;
    for (const auto& region : regions.subdomain_regions[i]) {
      if (!region_list.empty()) region_list += ", ";
      region_list += region;
      domain_regions.insert(region);
    }
    std::set<int> sub_zones;
    for (const auto addr : obs.addresses) {
      const auto c = ranges.classify(addr);
      if (c.kind != analysis::IpClassification::Kind::kEc2) continue;
      if (const auto estimate = zones.estimate(addr, c.region);
          estimate.zone_label) {
        sub_zones.insert(*estimate.zone_label);
        domain_zones.insert(*estimate.zone_label);
      }
    }
    std::cout << util::fmt("  {}: {}; {} address(es); regions [{}]; {} "
                           "zone(s) identified\n",
                           obs.name.to_string(), front, obs.addresses.size(),
                           region_list, sub_zones.size());
  }

  std::cout << util::fmt(
      "\nVerdict: {} cloud subdomains across {} region(s) and {} zone(s).\n",
      audited, domain_regions.size(), domain_zones.size());
  if (domain_regions.size() <= 1)
    std::cout << "A single-region outage would take this service down — "
                 "the paper found 97% of EC2-using subdomains in this "
                 "position.\n";
  else
    std::cout << "Multi-region: tolerant to a single regional outage.\n";
  return 0;
}
