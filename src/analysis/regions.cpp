#include "analysis/regions.h"

#include <algorithm>
#include <set>

namespace cs::analysis {
namespace {

/// Table 10 lists the top 14 cloud-using domains.
constexpr std::size_t kTopDomains = 14;

/// Country -> continent for the customer-geo analysis.
std::string continent_of(const std::string& country) {
  static const std::map<std::string, std::string> kMap = {
      {"US", "NA"}, {"CA", "NA"}, {"MX", "NA"}, {"BR", "SA"}, {"CL", "SA"},
      {"AR", "SA"}, {"GB", "EU"}, {"DE", "EU"}, {"FR", "EU"}, {"ES", "EU"},
      {"IT", "EU"}, {"NL", "EU"}, {"IE", "EU"}, {"RU", "EU"}, {"PL", "EU"},
      {"SE", "EU"}, {"CN", "AS"}, {"JP", "AS"}, {"KR", "AS"}, {"IN", "AS"},
      {"SG", "AS"}, {"HK", "AS"}, {"ID", "AS"}, {"AU", "OC"}, {"NZ", "OC"},
  };
  const auto it = kMap.find(country);
  return it == kMap.end() ? "??" : it->second;
}

}  // namespace

RegionReport analyze_regions(const AlexaDataset& dataset,
                             const CloudRanges& ranges) {
  RegionReport report;
  report.subdomain_regions.reserve(dataset.cloud_subdomains.size());

  // Per-domain region sets and per-subdomain counts for domain averages.
  std::map<std::string, std::set<std::string>> domain_regions;
  std::map<std::string, std::vector<std::size_t>> domain_sub_region_counts;
  std::map<std::string, bool> domain_is_azure;

  std::size_t ec2_subs = 0, ec2_single = 0;
  std::size_t azure_subs = 0, azure_single = 0;

  for (const auto& obs : dataset.cloud_subdomains) {
    std::set<std::string> regions;
    for (const auto addr : obs.addresses) {
      // CDN addresses are excluded: CloudFront has no region attribution
      // and the classifier returns no region for it.
      if (const auto region = ranges.region_of(addr)) regions.insert(*region);
    }
    report.subdomain_regions.emplace_back(regions.begin(), regions.end());

    if (!regions.empty()) {
      for (const auto& region : regions)
        ++report.subdomains_per_region[region];
      const auto domain = obs.domain.to_string();
      auto& dr = domain_regions[domain];
      dr.insert(regions.begin(), regions.end());
      domain_sub_region_counts[domain].push_back(regions.size());
      domain_is_azure[domain] =
          domain_is_azure[domain] || obs.has_azure_address;

      if (obs.has_ec2_address) {
        ++ec2_subs;
        if (regions.size() == 1) ++ec2_single;
        report.regions_per_ec2_subdomain.add(
            static_cast<double>(regions.size()));
      }
      if (obs.has_azure_address) {
        ++azure_subs;
        if (regions.size() == 1) ++azure_single;
        report.regions_per_azure_subdomain.add(
            static_cast<double>(regions.size()));
      }
    }
  }

  for (const auto& [domain, regions] : domain_regions)
    for (const auto& region : regions) ++report.domains_per_region[region];

  for (const auto& [domain, counts] : domain_sub_region_counts) {
    double sum = 0.0;
    for (const auto c : counts) sum += static_cast<double>(c);
    const double avg = sum / static_cast<double>(counts.size());
    if (domain_is_azure[domain])
      report.regions_per_azure_domain.add(avg);
    else
      report.regions_per_ec2_domain.add(avg);
  }

  report.ec2_single_region_fraction =
      ec2_subs ? static_cast<double>(ec2_single) / ec2_subs : 0.0;
  report.azure_single_region_fraction =
      azure_subs ? static_cast<double>(azure_single) / azure_subs : 0.0;
  return report;
}

std::vector<DomainRegionRow> analyze_top_domain_regions(
    const AlexaDataset& dataset, const RegionReport& report) {
  std::vector<std::pair<std::size_t, const DomainObservation*>> ranked;
  for (const auto& domain : dataset.domains)
    if (!domain.cloud_subdomains.empty())
      ranked.emplace_back(domain.rank, &domain);
  std::sort(ranked.begin(), ranked.end());

  std::vector<DomainRegionRow> rows;
  for (const auto& [rank, domain] : ranked) {
    if (rows.size() >= kTopDomains) break;
    DomainRegionRow row;
    row.rank = rank;
    row.domain = domain->name.to_string();
    row.cloud_subdomains = domain->cloud_subdomains.size();
    std::set<std::string> all_regions;
    for (const auto idx : domain->cloud_subdomains) {
      const auto& regions = report.subdomain_regions[idx];
      all_regions.insert(regions.begin(), regions.end());
      if (regions.size() == 1) ++row.k1;
      if (regions.size() == 2) ++row.k2;
    }
    row.total_regions = all_regions.size();
    rows.push_back(std::move(row));
  }
  return rows;
}

CustomerGeoReport analyze_customer_geo(const AlexaDataset& dataset,
                                       const RegionReport& report,
                                       const synth::World& world) {
  CustomerGeoReport geo;
  auto region_location = [&world](const std::string& region)
      -> const util::Location* {
    if (const auto* r = world.ec2().region(region)) return &r->location;
    if (const auto* r = world.azure().region(region)) return &r->location;
    return nullptr;
  };

  for (std::size_t i = 0; i < dataset.cloud_subdomains.size(); ++i) {
    const auto& obs = dataset.cloud_subdomains[i];
    const auto& regions = report.subdomain_regions[i];
    if (regions.empty()) continue;
    const auto* domain_truth = world.domain(obs.domain.to_string());
    if (!domain_truth || domain_truth->customer_country.empty()) continue;
    ++geo.classified_subdomains;

    bool country_match = false, continent_match = false;
    const auto customer_continent =
        continent_of(domain_truth->customer_country);
    for (const auto& region : regions) {
      const auto* loc = region_location(region);
      if (!loc) continue;
      country_match |= loc->country == domain_truth->customer_country;
      continent_match |= loc->continent == customer_continent;
    }
    if (!country_match) ++geo.country_mismatch;
    if (!continent_match) ++geo.continent_mismatch;
  }
  return geo;
}

}  // namespace cs::analysis
