#include "analysis/zones.h"

#include <algorithm>

namespace cs::analysis {

ZoneStudy run_zone_study(const AlexaDataset& dataset,
                         const CloudRanges& ranges, const synth::World& world,
                         carto::ProximityEstimator& proximity,
                         carto::LatencyZoneEstimator& latency) {
  ZoneStudy study;

  // Collect the distinct EC2 instance addresses per region.
  std::map<std::string, std::vector<net::Ipv4>> targets;
  {
    std::set<std::uint32_t> seen;
    for (const auto& obs : dataset.cloud_subdomains) {
      for (const auto addr : obs.addresses) {
        const auto c = ranges.classify(addr);
        if (c.kind != IpClassification::Kind::kEc2) continue;
        if (seen.insert(addr.value()).second)
          targets[c.region].push_back(addr);
      }
    }
  }

  // Probe every target with both methods; remember per-address results.
  std::map<std::uint32_t, std::optional<int>> latency_label;
  std::map<std::uint32_t, std::optional<int>> proximity_label;
  std::size_t truth_latency_match = 0, truth_latency_total = 0;
  std::size_t truth_prox_match = 0, truth_prox_total = 0;

  for (const auto& [region, addrs] : targets) {
    LatencyZoneRow lat_row;
    lat_row.region = region;
    lat_row.target_ips = addrs.size();
    VeracityRow ver_row;
    ver_row.region = region;

    for (const auto addr : addrs) {
      const auto lat = latency.estimate(addr, region);
      const auto prox = proximity.zone_of(addr);
      proximity_label[addr.value()] = prox;
      if (!lat.responded) {
        latency_label[addr.value()] = std::nullopt;
        continue;
      }
      ++lat_row.responded;
      latency_label[addr.value()] = lat.zone_label;
      if (lat.zone_label)
        ++lat_row.per_zone[*lat.zone_label];
      else
        ++lat_row.unknown;

      // Table 13: latency vs proximity (proximity treated as truth).
      ++ver_row.total;
      if (!lat.zone_label || !prox)
        ++ver_row.unknown;
      else if (*lat.zone_label == *prox)
        ++ver_row.match;
      else
        ++ver_row.mismatch;

      // Score both against simulator ground truth (our extra column).
      const auto true_zone = world.ec2().zone_of_public_ip(addr);
      if (true_zone) {
        if (lat.zone_label) {
          ++truth_latency_total;
          if (latency.label_to_physical(region, *lat.zone_label) ==
              *true_zone)
            ++truth_latency_match;
        }
        if (prox) {
          ++truth_prox_total;
          if (proximity.label_to_physical(region, *prox) == *true_zone)
            ++truth_prox_match;
        }
      }
    }
    study.latency_rows.push_back(std::move(lat_row));
    study.veracity_rows.push_back(std::move(ver_row));
  }

  study.latency_accuracy_vs_truth =
      truth_latency_total
          ? static_cast<double>(truth_latency_match) / truth_latency_total
          : 0.0;
  study.proximity_accuracy_vs_truth =
      truth_prox_total
          ? static_cast<double>(truth_prox_match) / truth_prox_total
          : 0.0;

  // Combined per-subdomain zone attribution (proximity first, latency as
  // fallback), expressed in physical zones via the shared account space.
  std::size_t ec2_instances_seen = 0, ec2_instances_identified = 0;
  std::size_t one = 0, two = 0, three_plus = 0, with_zones = 0;
  std::map<std::string, std::vector<double>> domain_zone_counts;

  study.subdomain_zones.resize(dataset.cloud_subdomains.size());
  study.subdomain_primary_region.resize(dataset.cloud_subdomains.size());

  for (std::size_t i = 0; i < dataset.cloud_subdomains.size(); ++i) {
    const auto& obs = dataset.cloud_subdomains[i];
    std::set<int> zones;
    std::string primary_region;
    for (const auto addr : obs.addresses) {
      const auto c = ranges.classify(addr);
      if (c.kind != IpClassification::Kind::kEc2) continue;
      if (primary_region.empty()) primary_region = c.region;
      ++ec2_instances_seen;
      std::optional<int> label;
      if (const auto prox = proximity_label.find(addr.value());
          prox != proximity_label.end())
        label = prox->second;
      if (!label)
        if (const auto lat = latency_label.find(addr.value());
            lat != latency_label.end())
          label = lat->second;
      if (!label) continue;
      ++ec2_instances_identified;
      zones.insert(proximity.label_to_physical(c.region, *label));
    }
    study.subdomain_primary_region[i] = primary_region;
    if (!zones.empty()) {
      ++with_zones;
      if (zones.size() == 1)
        ++one;
      else if (zones.size() == 2)
        ++two;
      else
        ++three_plus;
      study.zones_per_subdomain.add(static_cast<double>(zones.size()));
      domain_zone_counts[obs.domain.to_string()].push_back(
          static_cast<double>(zones.size()));
      auto& usage = study.usage_per_region[primary_region];
      for (const auto zone : zones) {
        ++usage.subdomains[zone];
        usage.domains[zone].insert(obs.domain.to_string());
      }
    }
    study.subdomain_zones[i] = std::move(zones);
  }

  for (const auto& [domain, counts] : domain_zone_counts) {
    double sum = 0.0;
    for (const auto c : counts) sum += c;
    study.zones_per_domain.add(sum / static_cast<double>(counts.size()));
  }

  if (with_zones) {
    study.fraction_one_zone = static_cast<double>(one) / with_zones;
    study.fraction_two_zones = static_cast<double>(two) / with_zones;
    study.fraction_three_plus = static_cast<double>(three_plus) / with_zones;
  }
  study.combined_identified_fraction =
      ec2_instances_seen ? static_cast<double>(ec2_instances_identified) /
                               ec2_instances_seen
                         : 0.0;
  return study;
}

}  // namespace cs::analysis
