#include "dns/enumerate.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cs::dns {
namespace {

/// Wordlist words probed per brute-force chunk. Fixed (never derived from
/// the pool size) so the chunk boundaries — and with them each chunk
/// resolver's cache behaviour and query count — are the same at every
/// CS_THREADS.
constexpr std::size_t kBruteChunkWords = 48;

/// The dnsmap existence test: a candidate exists if its A lookup returns
/// records (NXDOMAIN and NODATA count as absent). Each candidate is asked
/// about once, so the probe leaves no cache entry for it.
bool candidate_exists(Resolver& resolver, const Name& candidate) {
  const auto res = resolver.probe(candidate, RrType::kA);
  return res.rcode == Rcode::kNoError && !res.records.empty();
}

}  // namespace

Enumerator::Enumerator(Resolver& resolver, Options options)
    : resolver_(resolver), options_(std::move(options)) {
  if (!options_.resolver_factory)
    throw std::invalid_argument{"dns::Enumerator needs a resolver_factory"};
}

EnumerationResult Enumerator::enumerate(const Name& domain) {
  static auto& axfr_hits = obs::counter("dns.enumerate.axfr_success");
  static auto& axfr_misses = obs::counter("dns.enumerate.axfr_failure");
  static auto& brute_hits = obs::counter("dns.enumerate.brute_hits");
  static auto& brute_misses = obs::counter("dns.enumerate.brute_misses");
  obs::Span span{"dns.enumerate"};

  EnumerationResult result;
  result.domain = domain;
  const std::uint64_t queries_before = resolver_.upstream_queries();

  std::set<Name> found;

  if (options_.attempt_axfr) {
    if (const auto records = resolver_.try_axfr(domain)) {
      result.axfr_succeeded = true;
      axfr_hits.inc();
      for (const auto& rr : *records) {
        if (rr.name == domain || !rr.name.is_subdomain_of(domain)) continue;
        if (rr.type() == RrType::kSoa) continue;
        found.insert(rr.name);
      }
    } else {
      axfr_misses.inc();
    }
  }

  std::uint64_t chunk_queries = 0;
  if (!result.axfr_succeeded) {
    // Fixed-size wordlist chunks, one fresh resolver per chunk, merged in
    // chunk order. Each chunk resolver starts at the cuts this task's
    // resolver holds (the AXFR attempt has walked to the zone), so no
    // chunk walks root -> TLD again; the domain task only waits
    // meanwhile, and its resolver's state is the same at every
    // CS_THREADS. Hits/misses are aggregated per chunk and added once,
    // not one shared atomic bump per wordlist probe.
    struct ChunkResult {
      std::vector<Name> found;
      std::uint64_t queries = 0;
      std::uint64_t hits = 0;
      std::uint64_t misses = 0;
    };
    const auto& words = options_.wordlist;
    const std::size_t chunk_count =
        (words.size() + kBruteChunkWords - 1) / kBruteChunkWords;
    const auto chunks = exec::parallel_map(
        chunk_count,
        [&](std::size_t chunk) {
          ChunkResult out;
          Resolver resolver = options_.resolver_factory();
          resolver.seed_cuts(resolver_);
          const std::size_t begin = chunk * kBruteChunkWords;
          const std::size_t end =
              std::min(words.size(), begin + kBruteChunkWords);
          for (std::size_t w = begin; w < end; ++w) {
            const auto candidate = domain.child(words[w]);
            if (!candidate) continue;
            if (candidate_exists(resolver, *candidate)) {
              out.found.push_back(*candidate);
              ++out.hits;
            } else {
              ++out.misses;
            }
          }
          out.queries = resolver.upstream_queries();
          return out;
        },
        /*grain=*/1);
    for (const auto& chunk : chunks) {
      found.insert(chunk.found.begin(), chunk.found.end());
      chunk_queries += chunk.queries;
      brute_hits.inc(chunk.hits);
      brute_misses.inc(chunk.misses);
    }
  }

  result.subdomains.assign(found.begin(), found.end());
  result.queries_spent =
      resolver_.upstream_queries() - queries_before + chunk_queries;
  return result;
}

}  // namespace cs::dns
