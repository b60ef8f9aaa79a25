#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dns/resolver.h"

/// Subdomain enumeration: the paper's §2.1 dataset-construction method.
///
/// For each domain, first attempt a zone transfer (AXFR); if it is refused
/// (the common case — ~8% of the paper's domains allowed it), fall back to
/// dnsmap-style brute force with a wordlist, confirming candidate names
/// with real queries through the resolver.
namespace cs::dns {

struct EnumerationResult {
  Name domain;
  bool axfr_succeeded = false;
  /// Discovered existing subdomains, never the apex itself.
  std::vector<Name> subdomains;
  std::uint64_t queries_spent = 0;
};

class Enumerator {
 public:
  struct Options {
    std::vector<std::string> wordlist;
    bool attempt_axfr = true;
    /// Required. The brute-force wordlist fans out over the exec pool in
    /// fixed-size chunks, each chunk confirming candidates through its own
    /// resolver built by this factory (resolvers are stateful, so threads
    /// cannot share one). The chunking is independent of CS_THREADS, so
    /// discovered names *and query counts* are byte-identical at any
    /// thread count.
    std::function<Resolver()> resolver_factory;
  };

  /// `resolver` makes the AXFR attempt; throws std::invalid_argument if
  /// `options` has no resolver_factory.
  Enumerator(Resolver& resolver, Options options);

  /// Enumerates subdomains of one registered domain.
  EnumerationResult enumerate(const Name& domain);

 private:
  Resolver& resolver_;
  Options options_;
};

}  // namespace cs::dns
