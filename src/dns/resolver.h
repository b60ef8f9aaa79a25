#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/message.h"
#include "dns/transport.h"

/// Iterative caching resolver (the role `dig` + the local resolver played
/// in the paper's measurement pipeline).
///
/// Resolution starts from the deepest cached zone cut above the name (or
/// from root hints) and follows referrals down the delegation tree,
/// resolving out-of-bailiwick name servers as needed, chasing CNAME chains
/// across zones, and caching answers and zone cuts by TTL against a
/// simulated clock. Every query goes out with recursion-desired cleared
/// and the cache can be flushed, mirroring the paper's `norecurse` +
/// cache-reset methodology for locating authoritative name servers.
namespace cs::dns {

/// Outcome of one resolution.
struct ResolveResult {
  Rcode rcode = Rcode::kServFail;
  /// Full record chain as a client would see it: CNAMEs first (in chase
  /// order), then the terminal records.
  std::vector<ResourceRecord> records;

  /// Convenience: all A-record addresses in `records`.
  std::vector<net::Ipv4> addresses() const;
  /// Convenience: all CNAME targets in chase order.
  std::vector<Name> cname_chain() const;
  bool ok() const noexcept { return rcode == Rcode::kNoError; }
};

class Resolver {
 public:
  struct Options {
    std::vector<net::Ipv4> root_servers;
    net::Ipv4 client_address{net::Ipv4{192, 0, 2, 1}};
  };

  /// TTL for negatively cached timeout-driven SERVFAIL: long enough that
  /// repeated lookups of a dead delegation don't re-probe the whole
  /// server list every time, short enough that recovery is noticed.
  static constexpr std::uint32_t kServFailCacheTtl = 30;

  Resolver(DnsTransport& transport, Options options);

  /// Resolves (name, type) iteratively from the roots.
  ResolveResult resolve(const Name& name, RrType type);

  /// Resolves like resolve() but caches no answer for (name, type)
  /// itself, whatever the outcome: a brute-force candidate is asked about
  /// once, so an entry for it would never be read. What the walk learns
  /// on the way (zone cuts, CNAME targets, name-server addresses) is
  /// cached as usual.
  ResolveResult probe(const Name& name, RrType type);

  /// Replaces this resolver's zone cuts with `other`'s unexpired ones,
  /// each with the lifetime it has left: later walks start where
  /// `other`'s would. No answers and no tallies come with them. Only
  /// reads `other`.
  void seed_cuts(const Resolver& other);

  /// Attempts a zone transfer directly against each authoritative server
  /// of `zone_origin`; returns records on the first success.
  std::optional<std::vector<ResourceRecord>> try_axfr(const Name& zone_origin);

  /// Changes the source address used for upstream queries — the dataset
  /// builder re-homes the resolver onto each vantage point so
  /// client-dependent answers (Traffic Manager) are observed from every
  /// location, as the paper's 200-node lookups did.
  void set_client_address(net::Ipv4 address) {
    options_.client_address = address;
  }

  /// Drops all cached answers and zone cuts: the next walk starts at the
  /// roots, as a freshly started resolver's would.
  void flush_cache();

  /// Drops cached answers but keeps the zone cuts: the next lookup asks
  /// afresh for answers that may depend on the client (a Traffic Manager
  /// member pick) yet still starts at the deepest known cut, since a
  /// referral never depends on the client.
  void flush_answers();

  /// Advances the simulated clock, expiring cache entries whose TTL passed.
  void advance_time(std::uint32_t seconds);

  // This resolver's tallies. Each one also adds to its `dns.resolver.*`
  // counter as it happens, so a counter read while the resolver lives
  // already holds its work.

  /// Answer-cache hits: lookups served without any upstream query.
  std::uint64_t cache_hits() const noexcept { return cache_hits_; }
  /// Walks that started at a cached zone cut instead of the roots.
  std::uint64_t delegation_hits() const noexcept { return delegation_hits_; }
  std::uint64_t upstream_queries() const noexcept {
    return upstream_queries_;
  }
  /// Exchanges that produced no usable response (timeout / lost / bad
  /// decode) and attempts beyond the first within one delegation step.
  std::uint64_t timeouts() const noexcept { return timeouts_; }
  std::uint64_t retries() const noexcept { return retries_; }

 private:
  struct CacheKey {
    Name name;
    RrType type;
  };
  /// A key as a lookup spells it: a name's wire form and a type.
  struct CacheKeyView {
    std::string_view wire;
    RrType type;
  };
  /// Transparent, so cache_get() finds an entry without building a Name.
  struct CacheKeyHash {
    using is_transparent = void;
    std::size_t operator()(const CacheKeyView& key) const noexcept {
      return NameHash{}(key.wire) ^ static_cast<std::size_t>(key.type);
    }
    std::size_t operator()(const CacheKey& key) const noexcept {
      return (*this)(CacheKeyView{key.name.wire(), key.type});
    }
  };
  struct CacheKeyEq {
    using is_transparent = void;
    static CacheKeyView view(const CacheKey& k) noexcept {
      return {k.name.wire(), k.type};
    }
    static CacheKeyView view(const CacheKeyView& k) noexcept { return k; }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const noexcept {
      return view(a).wire == view(b).wire && view(a).type == view(b).type;
    }
  };
  struct CacheEntry {
    std::vector<ResourceRecord> records;
    Rcode rcode = Rcode::kNoError;
    std::uint64_t expires_at = 0;
  };
  /// A zone cut learned from an in-bailiwick referral: names at or below
  /// `owner` are asked of `servers` directly.
  struct CutEntry {
    Name owner;
    std::vector<net::Ipv4> servers;
    std::uint64_t expires_at = 0;
  };

  /// One full iterative walk for (name, type); appends to `chain`. The
  /// outcome for (name, type) is cached only if `cache_answer`.
  Rcode resolve_step(const Name& name, RrType type,
                     std::vector<ResourceRecord>& chain, int depth,
                     bool cache_answer = true);

  /// Queries one server over the transport; nullopt on timeout, an
  /// undecodable reply or a reply to another query. The view reads
  /// `reply`, which holds the reply's bytes.
  std::optional<MessageView> ask(net::Ipv4 server, const Name& name,
                                 RrType type, std::vector<std::uint8_t>& reply);

  /// Finds usable name-server addresses from a referral, resolving NS
  /// targets without glue as needed.
  std::vector<net::Ipv4> referral_addresses(const MessageView& response,
                                            int depth);

  /// `ttl_override` pins the entry's lifetime (negative caching); when
  /// absent the TTL is the minimum record TTL, capped at 300 s.
  void cache_put(const Name& name, RrType type, Rcode rcode,
                 const std::vector<ResourceRecord>& records,
                 std::optional<std::uint32_t> ttl_override = std::nullopt);
  const CacheEntry* cache_get(std::string_view name_wire, RrType type);

  /// Remembers a zone cut for min(ttl, 300) s, like cache_put.
  void cut_put(const NameBuf& owner, const std::vector<net::Ipv4>& servers,
               std::uint32_t ttl);
  /// Deepest unexpired cached cut at or above `name`; nullptr = the roots.
  const CutEntry* closest_cut(const Name& name) const;

  DnsTransport& transport_;
  Options options_;
  std::unordered_map<CacheKey, CacheEntry, CacheKeyHash, CacheKeyEq> cache_;
  /// A handful of cuts per resolver (a chunk resolver holds 2-3), so a
  /// flat scan beats any index.
  std::vector<CutEntry> cuts_;
  std::uint64_t now_ = 0;
  std::uint16_t next_id_ = 1;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t delegation_hits_ = 0;
  std::uint64_t upstream_queries_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_ = 0;
};

}  // namespace cs::dns
