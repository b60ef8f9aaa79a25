#include "analysis/cloud_usage.h"

#include <algorithm>

namespace cs::analysis {
namespace {

/// Table 4 lists the top 10 EC2-using domains by rank; the Azure list and
/// the subdomain-prefix list keep as many rows.
constexpr std::size_t kTopRows = 10;

/// Classifies one subdomain observation into a Table 3 bucket and
/// updates the counters.
void count_subdomain(const SubdomainObservation& obs, ProviderBreakdown& b) {
  ++b.total;
  // CloudFront addresses count toward EC2 for the provider breakdown
  // (they are Amazon ranges in the published list).
  const bool ec2 = obs.has_ec2_address || obs.has_cloudfront_address;
  const bool azure = obs.has_azure_address;
  const bool other = obs.has_other_address;
  if (ec2 && azure)
    ++b.ec2_plus_azure;
  else if (ec2 && other)
    ++b.ec2_plus_other;
  else if (ec2)
    ++b.ec2_only;
  else if (azure && other)
    ++b.azure_plus_other;
  else if (azure)
    ++b.azure_only;
}

}  // namespace

CloudUsageReport analyze_cloud_usage(const AlexaDataset& dataset) {
  CloudUsageReport report;

  for (const auto& obs : dataset.cloud_subdomains)
    count_subdomain(obs, report.subdomains);

  // Domain granularity: a domain is EC2-only iff every *subdomain* of it
  // uses only EC2 — any non-cloud subdomain makes it EC2+Other, etc.
  std::size_t cloud_domains = 0;
  std::vector<std::pair<std::size_t, const DomainObservation*>> ranked;
  for (const auto& domain : dataset.domains) {
    if (domain.cloud_subdomains.empty()) continue;
    ++cloud_domains;
    ranked.emplace_back(domain.rank, &domain);
    bool ec2 = false, azure = false, other = domain.other_only_subdomains > 0;
    for (const auto idx : domain.cloud_subdomains) {
      const auto& obs = dataset.cloud_subdomains[idx];
      ec2 |= obs.has_ec2_address || obs.has_cloudfront_address;
      azure |= obs.has_azure_address;
      other |= obs.has_other_address;
    }
    ++report.domains.total;
    if (ec2 && azure)
      ++report.domains.ec2_plus_azure;
    else if (ec2 && other)
      ++report.domains.ec2_plus_other;
    else if (ec2)
      ++report.domains.ec2_only;
    else if (azure && other)
      ++report.domains.azure_plus_other;
    else if (azure)
      ++report.domains.azure_only;
  }

  // Top-N tables per provider, by Alexa rank.
  std::sort(ranked.begin(), ranked.end());
  auto emit_top = [&](bool want_azure,
                      std::vector<CloudUsageReport::TopDomain>& out) {
    for (const auto& [rank, domain] : ranked) {
      if (out.size() >= kTopRows) break;
      bool azure = false, ec2 = false;
      for (const auto idx : domain->cloud_subdomains) {
        azure |= dataset.cloud_subdomains[idx].has_azure_address;
        ec2 |= dataset.cloud_subdomains[idx].has_ec2_address ||
               dataset.cloud_subdomains[idx].has_cloudfront_address;
      }
      if (want_azure != azure) continue;
      if (!want_azure && !ec2) continue;
      out.push_back({domain->rank, domain->name.to_string(),
                     domain->subdomains_probed,
                     domain->cloud_subdomains.size()});
    }
  };
  emit_top(false, report.top_ec2_domains);
  emit_top(true, report.top_azure_domains);

  // Rank skew: fraction of cloud-using domains in the first vs last
  // quartile of the universe.
  if (!dataset.domains.empty() && cloud_domains > 0) {
    const std::size_t universe = dataset.domains.size();
    std::size_t top_q = 0, bottom_q = 0;
    for (const auto& [rank, domain] : ranked) {
      if (rank * 4 <= universe) ++top_q;
      if (rank * 4 > universe * 3) ++bottom_q;
    }
    report.top_quartile_fraction =
        static_cast<double>(top_q) / static_cast<double>(cloud_domains);
    report.bottom_quartile_fraction =
        static_cast<double>(bottom_q) / static_cast<double>(cloud_domains);
  }

  // Prefix frequencies.
  std::map<std::string, std::size_t> prefixes;
  for (const auto& obs : dataset.cloud_subdomains)
    ++prefixes[std::string{obs.name.leftmost()}];
  std::vector<std::pair<std::string, std::size_t>> sorted_prefixes(
      prefixes.begin(), prefixes.end());
  std::sort(sorted_prefixes.begin(), sorted_prefixes.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (sorted_prefixes.size() > kTopRows) sorted_prefixes.resize(kTopRows);
  report.top_prefixes = std::move(sorted_prefixes);

  return report;
}

}  // namespace cs::analysis
