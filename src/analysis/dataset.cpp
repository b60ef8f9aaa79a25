#include "analysis/dataset.h"

#include <algorithm>

#include "dns/wordlist.h"
#include "exec/parallel.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/env.h"

namespace cs::analysis {
namespace {

/// The measurement host's resolver address (arbitrary non-cloud space).
constexpr net::Ipv4 kProbeClient{199, 16, 0, 10};

/// Default domains per chunk when neither the option nor CS_CHUNK_DOMAINS
/// says otherwise: small enough to bound in-flight probe state at paper
/// scale, large enough that chunk turnaround doesn't starve the pool.
constexpr std::size_t kDefaultChunkDomains = 4096;

}  // namespace

VantageLookups lookup_from_vantages(
    dns::Resolver& resolver, const dns::Name& name,
    const std::vector<internet::VantagePoint>& vantages) {
  obs::Span span{"analysis.dataset.vantage_lookups"};
  VantageLookups seen;
  const std::uint64_t queries_before = resolver.upstream_queries();
  for (std::size_t v = 0; v < vantages.size(); ++v) {
    resolver.flush_answers();
    resolver.set_client_address(vantages[v].address);
    const auto result = resolver.resolve(name, dns::RrType::kA);
    if (!result.ok()) {
      seen.failed.record(result.rcode);
      continue;
    }
    ++seen.ok;
    const auto addresses = result.addresses();
    const auto chain = result.cname_chain();
    seen.addresses.insert(addresses.begin(), addresses.end());
    seen.cnames.insert(chain.begin(), chain.end());
    if (v == 0 && chain.empty() && !addresses.empty())
      seen.direct_a_record = true;
  }
  resolver.flush_answers();
  seen.exchanges = resolver.upstream_queries() - queries_before;
  return seen;
}

DatasetBuilder::DatasetBuilder(const synth::World& world, Options options)
    : world_(world),
      ranges_(world.ec2(), world.azure()),
      options_(std::move(options)) {
  if (options_.wordlist.empty()) options_.wordlist = dns::default_wordlist();
}

std::size_t DatasetBuilder::chunk_domains() const {
  if (options_.chunk_domains != 0) return options_.chunk_domains;
  if (const auto text = util::env_text(util::Knob::kChunkDomains)) {
    const auto parsed = util::parse_env_unsigned(*text);
    if (parsed && *parsed > 0) return *parsed;
    obs::log_warn("analysis", "{}",
                  util::env_malformed(util::Knob::kChunkDomains, *text,
                                      "a positive integer"));
  }
  return kDefaultChunkDomains;
}

AlexaDataset DatasetBuilder::build() { return build(Resume{}); }

AlexaDataset DatasetBuilder::build(Resume resume) {
  obs::Span span{"analysis.dataset.build"};
  const auto& domains = world_.domains();
  const std::size_t chunk = std::max<std::size_t>(1, chunk_domains());

  dns::Enumerator::Options enum_options{.wordlist = options_.wordlist,
                                        .attempt_axfr = options_.attempt_axfr,
                                        .resolver_factory = [this] {
                                          return world_.make_resolver(
                                              kProbeClient);
                                        }};

  AlexaDataset dataset = std::move(resume.dataset);
  std::size_t next = std::min(resume.next_domain, domains.size());
  dataset.domains.reserve(domains.size());

  // Each partial checkpoint re-encodes everything built so far, so cap
  // the count (≤ ~8 per build) instead of snapshotting every chunk.
  const std::size_t checkpoint_every =
      std::max(chunk, (domains.size() + 7) / 8);
  std::size_t last_checkpoint = next;

  // One task per domain, each with its own resolver + enumerator (resolver
  // caches are stateful, so tasks cannot share one). The enumerator's
  // brute force additionally fans out inside the task via the factory; on
  // a pool worker that nested region runs inline, which is exactly right —
  // domains are the coarser, better-balanced unit. Chunking bounds the
  // probes held in flight; because every domain's probe is independent and
  // the reduction below merges in rank order, the dataset is identical for
  // any chunk size, thread count, or resume point.
  while (next < domains.size()) {
    const std::size_t end = std::min(domains.size(), next + chunk);
    auto probes = exec::parallel_map(end - next, [&](std::size_t i) {
      auto resolver = world_.make_resolver(kProbeClient);
      dns::Enumerator enumerator{resolver, enum_options};
      return probe_domain(domains[next + i], resolver, enumerator);
    });

    // Ordered reduction: domains stay in rank order and subdomain indices
    // are rebased onto the merged vector, so the result matches what a
    // sequential pass over `domains` would build.
    for (auto& probe : probes) {
      const std::size_t base = dataset.cloud_subdomains.size();
      for (std::size_t s = 0; s < probe.cloud_subdomains.size(); ++s)
        probe.domain.cloud_subdomains.push_back(base + s);
      std::move(probe.cloud_subdomains.begin(), probe.cloud_subdomains.end(),
                std::back_inserter(dataset.cloud_subdomains));
      dataset.domains.push_back(std::move(probe.domain));
      dataset.dns_queries_spent += probe.queries_spent;
    }
    next = end;

    if (options_.on_chunk && next < domains.size() &&
        next - last_checkpoint >= checkpoint_every) {
      options_.on_chunk(dataset, next);
      last_checkpoint = next;
    }
  }
  return dataset;
}

DatasetBuilder::DomainProbe DatasetBuilder::probe_domain(
    const synth::DomainTruth& domain_truth, dns::Resolver& resolver,
    dns::Enumerator& enumerator) const {
  DomainProbe probe;
  DomainObservation& domain_obs = probe.domain;
  domain_obs.name = domain_truth.name;
  domain_obs.rank = domain_truth.rank;

  const auto enumerated = enumerator.enumerate(domain_truth.name);
  domain_obs.axfr_succeeded = enumerated.axfr_succeeded;
  domain_obs.subdomains_probed = enumerated.subdomains.size();
  probe.queries_spent += enumerated.queries_spent;
  const std::uint64_t queries_before = resolver.upstream_queries();

  const auto vantages = internet::planetlab_vantages(
      std::max<std::size_t>(1, options_.lookup_vantages));

  // Exact work tally for the vantage loop, pushed to obs once per domain
  // rather than once per lookup.
  std::uint64_t vantage_exchanges = 0;

  for (const auto& subdomain : enumerated.subdomains) {
    SubdomainObservation obs;
    obs.name = subdomain;
    obs.domain = domain_truth.name;

    const auto seen = lookup_from_vantages(resolver, subdomain, vantages);
    vantage_exchanges += seen.exchanges;
    domain_obs.failed_lookups.merge(seen.failed);

    // A name every vantage failed to resolve is missing data — recording
    // it as "other hosting" would corrupt the §3 aggregates, so it goes
    // to the unresolved ledger instead.
    if (seen.ok == 0) {
      ++domain_obs.unresolved_subdomains;
      continue;
    }
    obs.direct_a_record = seen.direct_a_record;

    bool any_cloud = false;
    for (const auto addr : seen.addresses) {
      const auto c = ranges_.classify(addr);
      switch (c.kind) {
        case IpClassification::Kind::kEc2:
          obs.has_ec2_address = true;
          any_cloud = true;
          break;
        case IpClassification::Kind::kAzure:
          obs.has_azure_address = true;
          any_cloud = true;
          break;
        case IpClassification::Kind::kCloudFront:
          obs.has_cloudfront_address = true;
          any_cloud = true;
          break;
        case IpClassification::Kind::kOther:
          obs.has_other_address = true;
          break;
      }
    }
    if (!any_cloud) {
      ++domain_obs.other_only_subdomains;
      continue;
    }

    obs.addresses.assign(seen.addresses.begin(), seen.addresses.end());
    obs.cnames.assign(seen.cnames.begin(), seen.cnames.end());

    if (options_.collect_name_servers) {
      obs::Span ns_span{"analysis.dataset.name_servers"};
      const auto ns_result =
          resolver.resolve(domain_truth.name, dns::RrType::kNs);
      for (const auto& rr : ns_result.records) {
        const auto* ns = std::get_if<dns::NsRecord>(&rr.data);
        if (!ns) continue;
        resolver.flush_answers();
        const auto addr_result =
            resolver.resolve(ns->nameserver, dns::RrType::kA);
        obs.name_servers.emplace_back(ns->nameserver,
                                      addr_result.addresses());
      }
    }

    probe.cloud_subdomains.push_back(std::move(obs));
  }
  probe.queries_spent += resolver.upstream_queries() - queries_before;
  static auto& lookups_metric =
      obs::counter("analysis.dataset.vantage_lookups");
  static auto& exchanges_metric =
      obs::counter("analysis.dataset.vantage_exchanges");
  lookups_metric.inc(enumerated.subdomains.size() * vantages.size());
  exchanges_metric.inc(vantage_exchanges);
  return probe;
}

}  // namespace cs::analysis
