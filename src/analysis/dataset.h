#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "analysis/ranges.h"
#include "dns/enumerate.h"
#include "internet/vantage.h"
#include "synth/world.h"

/// The Alexa subdomains dataset (§2.1): the product of AXFR attempts,
/// dnsmap-style brute forcing from distributed vantages, and per-subdomain
/// DNS lookups filtered against the published cloud ranges. This is the
/// input to every deployment-posture analysis in §4.
namespace cs::analysis {

/// One cloud-using subdomain with the DNS evidence §4's heuristics read.
/// The record chains the lookups returned are summarised here, not kept.
struct SubdomainObservation {
  dns::Name name;
  dns::Name domain;
  /// Deduplicated resolved addresses.
  std::vector<net::Ipv4> addresses;
  /// Deduplicated CNAME targets in chase order.
  std::vector<dns::Name> cnames;
  /// Whether the query returned an address with no CNAME indirection.
  bool direct_a_record = false;
  /// Any resolved address outside the cloud ranges (hybrid hosting).
  bool has_other_address = false;
  bool has_ec2_address = false;
  bool has_azure_address = false;
  bool has_cloudfront_address = false;
  /// Name servers serving this subdomain's zone, with resolved addresses.
  std::vector<std::pair<dns::Name, std::vector<net::Ipv4>>> name_servers;
};

/// Per-domain ledger of failed per-vantage lookups, indexed by rcode.
///
/// This replaces a std::map<std::string, std::size_t> keyed by rcode
/// *name*, which allocated a fresh string (plus a map node) per failure
/// on the enumeration hot path — at 34M subdomains x 8 vantages that
/// allocation dominated faulty runs. The ledger is a fixed array with no
/// allocation at all; iteration order for the report and the snapshot
/// codec is rcode-name alphabetical, exactly the order the old std::map
/// produced, so the data-quality report bytes and snapshot bytes are
/// unchanged (pinned by analysis_dataset_test and snap_codec_test).
class FailedLookups {
 public:
  /// The six RFC 1035 rcodes dns::Rcode models.
  static constexpr std::size_t kRcodeCount = 6;

  void record(dns::Rcode rcode) noexcept {
    const auto i = static_cast<std::size_t>(rcode);
    if (i < kRcodeCount) ++counts_[i];
  }
  void set(dns::Rcode rcode, std::uint64_t count) noexcept {
    const auto i = static_cast<std::size_t>(rcode);
    if (i < kRcodeCount) counts_[i] = count;
  }
  std::uint64_t count(dns::Rcode rcode) const noexcept {
    const auto i = static_cast<std::size_t>(rcode);
    return i < kRcodeCount ? counts_[i] : 0;
  }
  std::uint64_t total() const noexcept {
    std::uint64_t n = 0;
    for (const auto c : counts_) n += c;
    return n;
  }
  bool empty() const noexcept { return total() == 0; }
  void merge(const FailedLookups& other) noexcept {
    for (std::size_t i = 0; i < kRcodeCount; ++i) counts_[i] += other.counts_[i];
  }
  /// Nonzero entries (the old map's size()).
  std::size_t distinct() const noexcept {
    std::size_t n = 0;
    for (const auto c : counts_) n += c != 0 ? 1 : 0;
    return n;
  }

  /// Visits nonzero (rcode, name, count) entries in rcode-name
  /// alphabetical order — the std::map<string,...> iteration order the
  /// report and codec byte-compatibility contracts depend on.
  template <typename Fn>
  void for_each_named(Fn&& fn) const {
    for (const auto& [rcode, name] : kAlphabetical) {
      const auto c = counts_[static_cast<std::size_t>(rcode)];
      if (c != 0) fn(rcode, name, c);
    }
  }

  bool operator==(const FailedLookups&) const = default;

 private:
  /// (rcode, dns::to_string(rcode)) sorted by the name strings.
  static constexpr std::array<std::pair<dns::Rcode, const char*>, kRcodeCount>
      kAlphabetical{{{dns::Rcode::kFormErr, "FORMERR"},
                     {dns::Rcode::kNoError, "NOERROR"},
                     {dns::Rcode::kNotImp, "NOTIMP"},
                     {dns::Rcode::kNxDomain, "NXDOMAIN"},
                     {dns::Rcode::kRefused, "REFUSED"},
                     {dns::Rcode::kServFail, "SERVFAIL"}}};

  std::array<std::uint64_t, kRcodeCount> counts_{};
};

struct DomainObservation {
  dns::Name name;
  std::size_t rank = 0;
  bool axfr_succeeded = false;
  std::size_t subdomains_probed = 0;  ///< names found to exist
  /// Indices into AlexaDataset::cloud_subdomains.
  std::vector<std::size_t> cloud_subdomains;
  /// Count of discovered subdomains with only non-cloud addresses.
  std::size_t other_only_subdomains = 0;
  /// Failed per-vantage subdomain lookups by rcode — the data-quality
  /// ledger for this domain under flaky servers / injected faults.
  FailedLookups failed_lookups;
  /// Discovered subdomains where every vantage lookup failed. These are
  /// deliberately *not* folded into other_only_subdomains: an unresolved
  /// name is missing data, not evidence of non-cloud hosting.
  std::size_t unresolved_subdomains = 0;
};

struct AlexaDataset {
  std::vector<SubdomainObservation> cloud_subdomains;
  std::vector<DomainObservation> domains;
  std::uint64_t dns_queries_spent = 0;

  std::size_t cloud_using_domain_count() const {
    std::size_t n = 0;
    for (const auto& d : domains)
      if (!d.cloud_subdomains.empty()) ++n;
    return n;
  }
  std::uint64_t failed_lookup_count() const {
    std::uint64_t n = 0;
    for (const auto& d : domains) n += d.failed_lookups.total();
    return n;
  }
  std::size_t unresolved_subdomain_count() const {
    std::size_t n = 0;
    for (const auto& d : domains) n += d.unresolved_subdomains;
    return n;
  }
};

/// What one name's distributed lookups saw.
struct VantageLookups {
  std::set<net::Ipv4> addresses;
  std::set<dns::Name> cnames;
  std::size_t ok = 0;  ///< vantages whose lookup succeeded
  /// The first vantage got an address with no CNAME indirection.
  bool direct_a_record = false;
  FailedLookups failed;
  std::uint64_t exchanges = 0;  ///< upstream queries the lookups spent
};

/// §2.1's distributed lookups of `name`: one A resolution from each
/// vantage, with the answer cache flushed before each and once more at
/// the end, as the paper flushed between PlanetLab nodes. The zone cuts
/// stay: each node ran its own resolver, which kept its own cuts, and a
/// referral never depends on the client. So a vantage after the first
/// asks each zone on the chain once, while a client-dependent answer (a
/// Traffic Manager member pick) is still asked afresh from every vantage.
VantageLookups lookup_from_vantages(
    dns::Resolver& resolver, const dns::Name& name,
    const std::vector<internet::VantagePoint>& vantages);

class DatasetBuilder {
 public:
  struct Options {
    std::vector<std::string> wordlist{};  ///< empty = default wordlist
    bool attempt_axfr = true;
    /// Number of vantage points used for the distributed lookups (the
    /// paper used 200) and for NS location probing (50).
    std::size_t lookup_vantages = 8;
    bool collect_name_servers = true;
    /// Domains probed per parallel chunk of the streaming build. 0 defers
    /// to CS_CHUNK_DOMAINS (default 4096). Chunking never changes the
    /// artifact — per-domain probes are independent and merge in rank
    /// order — so this is deliberately absent from the config hash.
    std::size_t chunk_domains = 0;
    /// Invoked after chunk boundaries with the dataset built so far and
    /// the index of the next unprobed domain; core::Study wires this to a
    /// "dataset.partial" snapshot so a killed paper-scale build resumes
    /// mid-stage instead of restarting. Null = no partial checkpoints.
    std::function<void(const AlexaDataset& partial, std::size_t next_domain)>
        on_chunk{};
  };

  /// A mid-stage resume point: everything built for domains before
  /// `next_domain`.
  struct Resume {
    AlexaDataset dataset;
    std::size_t next_domain = 0;
  };

  DatasetBuilder(const synth::World& world, Options options);

  /// Runs the full §2.1 pipeline over every domain in the world, in
  /// bounded chunks. Domains fan out across the exec pool (each probe
  /// task owns its resolver); results merge in rank order, so the dataset
  /// is byte-identical for every CS_THREADS value, for every chunk size,
  /// and across a mid-stage crash-resume.
  AlexaDataset build();

  /// Continues a build from a partial checkpoint.
  AlexaDataset build(Resume resume);

  /// The chunk size build() will use (option, else CS_CHUNK_DOMAINS,
  /// else the default).
  std::size_t chunk_domains() const;

 private:
  /// Everything one domain's probe produces, merged by build() in order.
  struct DomainProbe {
    DomainObservation domain;
    std::vector<SubdomainObservation> cloud_subdomains;
    std::uint64_t queries_spent = 0;
  };

  DomainProbe probe_domain(const synth::DomainTruth& domain_truth,
                           dns::Resolver& resolver,
                           dns::Enumerator& enumerator) const;

  const synth::World& world_;
  CloudRanges ranges_;
  Options options_;
};

}  // namespace cs::analysis
