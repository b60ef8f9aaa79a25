#include "dns/resolver.h"

#include <algorithm>

#include "obs/metrics.h"

namespace cs::dns {
namespace {

constexpr bool kRecursionDesired = false;  ///< the paper queried with norecurse
constexpr int kMaxReferrals = 32;          ///< delegation-depth guard
constexpr int kMaxCnameHops = 12;
/// Servers tried per delegation step before giving up: the first attempt
/// plus up to two retries against alternate servers.
constexpr int kMaxServerAttempts = 3;

/// The shared counters each resolver tally also feeds.
struct ResolverMetrics {
  obs::Counter& upstream_queries =
      obs::counter("dns.resolver.upstream_queries");
  obs::Counter& cache_hits = obs::counter("dns.resolver.cache_hits");
  obs::Counter& delegation_hits =
      obs::counter("dns.resolver.delegation_hits");
  obs::Counter& retries = obs::counter("dns.resolver.retries");
  obs::Counter& timeouts = obs::counter("dns.resolver.timeouts");

  static ResolverMetrics& get() {
    static ResolverMetrics metrics;
    return metrics;
  }
};

}  // namespace

std::vector<net::Ipv4> ResolveResult::addresses() const {
  std::vector<net::Ipv4> out;
  for (const auto& rr : records)
    if (const auto* a = std::get_if<ARecord>(&rr.data))
      out.push_back(a->address);
  return out;
}

std::vector<Name> ResolveResult::cname_chain() const {
  std::vector<Name> out;
  for (const auto& rr : records)
    if (const auto* c = std::get_if<CnameRecord>(&rr.data))
      out.push_back(c->target);
  return out;
}

Resolver::Resolver(DnsTransport& transport, Options options)
    : transport_(transport), options_(std::move(options)) {}

ResolveResult Resolver::resolve(const Name& name, RrType type) {
  ResolveResult result;
  result.rcode = resolve_step(name, type, result.records, 0);
  return result;
}

ResolveResult Resolver::probe(const Name& name, RrType type) {
  ResolveResult result;
  result.rcode = resolve_step(name, type, result.records, 0,
                              /*cache_answer=*/false);
  return result;
}

void Resolver::seed_cuts(const Resolver& other) {
  cuts_.clear();
  for (const auto& cut : other.cuts_)
    if (cut.expires_at > other.now_)
      cuts_.push_back(CutEntry{cut.owner, cut.servers,
                               now_ + (cut.expires_at - other.now_)});
}

std::optional<MessageView> Resolver::ask(net::Ipv4 server, const Name& name,
                                         RrType type,
                                         std::vector<std::uint8_t>& reply) {
  const std::uint16_t id = next_id_++;
  ++upstream_queries_;
  ResolverMetrics::get().upstream_queries.inc();
  auto wire = transport_.exchange(
      options_.client_address, server,
      encode_query(id, name, type, kRecursionDesired));
  if (!wire) return std::nullopt;
  reply = std::move(*wire);
  const auto response = MessageView::walk(reply);
  if (!response || response->header().id != id || !response->header().qr)
    return std::nullopt;
  return response;
}

void Resolver::cache_put(const Name& name, RrType type, Rcode rcode,
                         const std::vector<ResourceRecord>& records,
                         std::optional<std::uint32_t> ttl_override) {
  std::uint32_t ttl = 300;
  for (const auto& rr : records) ttl = std::min(ttl, rr.ttl);
  if (ttl_override) ttl = *ttl_override;
  CacheEntry entry;
  entry.records = records;
  entry.rcode = rcode;
  entry.expires_at = now_ + ttl;
  cache_[CacheKey{name, type}] = std::move(entry);
}

const Resolver::CacheEntry* Resolver::cache_get(std::string_view name_wire,
                                                RrType type) {
  const auto it = cache_.find(CacheKeyView{name_wire, type});
  if (it == cache_.end()) return nullptr;
  if (it->second.expires_at <= now_) {
    cache_.erase(it);
    return nullptr;
  }
  ++cache_hits_;
  ResolverMetrics::get().cache_hits.inc();
  return &it->second;
}

void Resolver::cut_put(const NameBuf& owner,
                       const std::vector<net::Ipv4>& servers,
                       std::uint32_t ttl) {
  if (servers.empty()) return;
  const std::uint64_t expires_at = now_ + std::min<std::uint32_t>(ttl, 300);
  for (auto& cut : cuts_) {
    if (cut.owner.wire() == owner.wire()) {
      cut.servers = servers;
      cut.expires_at = expires_at;
      return;
    }
  }
  cuts_.push_back(CutEntry{owner.name(), servers, expires_at});
}

const Resolver::CutEntry* Resolver::closest_cut(const Name& name) const {
  const CutEntry* best = nullptr;
  for (const auto& cut : cuts_) {
    if (cut.expires_at <= now_ || !name.is_subdomain_of(cut.owner)) continue;
    if (!best || cut.owner.label_count() > best->owner.label_count())
      best = &cut;
  }
  return best;
}

std::vector<net::Ipv4> Resolver::referral_addresses(
    const MessageView& response, int depth) {
  const auto authority = response.records(Section::kAuthority);
  std::vector<net::Ipv4> out;
  // Prefer glue: additional A records owned by a name the NS records name.
  NameBuf owner;
  NameBuf target;
  for (const auto& rr : response.records(Section::kAdditional)) {
    if (rr.type != RrType::kA) continue;
    response.read_name(rr.name_at, owner);
    for (const auto& ns : authority) {
      if (ns.type != RrType::kNs) continue;
      response.read_name(ns.rdata_at, target);
      if (target.wire() == owner.wire()) {
        out.push_back(response.address(rr));
        break;
      }
    }
  }
  if (!out.empty()) return out;

  // Glueless delegation: resolve the NS names themselves.
  for (const auto& ns : authority) {
    if (ns.type != RrType::kNs) continue;
    std::vector<ResourceRecord> chain;
    if (resolve_step(response.name(ns.rdata_at), RrType::kA, chain,
                     depth + 1) == Rcode::kNoError) {
      for (const auto& rr : chain)
        if (const auto* a = std::get_if<ARecord>(&rr.data))
          out.push_back(a->address);
    }
    if (!out.empty()) break;
  }
  return out;
}

Rcode Resolver::resolve_step(const Name& name, RrType type,
                             std::vector<ResourceRecord>& chain, int depth,
                             bool cache_answer) {
  if (depth > kMaxCnameHops) return Rcode::kServFail;

  if (const auto* cached = cache_get(name.wire(), type)) {
    chain.insert(chain.end(), cached->records.begin(), cached->records.end());
    // A cached CNAME terminal still needs chasing if it doesn't carry the
    // requested type (we cache full chains, so this is rare but possible
    // after partial expiry).
    return cached->rcode;
  }

  // The servers the next query goes to: the roots' or a cached cut's list
  // read in place, then the last referral's.
  std::span<const net::Ipv4> servers = options_.root_servers;
  std::vector<net::Ipv4> referred;
  // The cut those servers serve, as its length in `name`'s wire form:
  // every cut this walk may cache is a suffix of `name`. Once an off-path
  // referral has been followed nothing this walk learns is cached.
  std::size_t zone = 0;
  bool on_path = true;
  if (const auto* cut = closest_cut(name)) {
    zone = cut->owner.wire().size();
    servers = cut->servers;
    ++delegation_hits_;
    ResolverMetrics::get().delegation_hits.inc();
  }

  // The walk's outcome for (name, type), cached unless this is a probe.
  const auto answer = [&](Rcode rcode,
                          const std::vector<ResourceRecord>& records,
                          std::optional<std::uint32_t> ttl = std::nullopt) {
    if (cache_answer) cache_put(name, type, rcode, records, ttl);
    return rcode;
  };
  // Failure at any delegation step is a dead delegation: negatively cache
  // the SERVFAIL with a short pinned TTL so repeated lookups don't
  // re-probe the whole server list until kServFailCacheTtl passes.
  const auto servfail = [&] {
    return answer(Rcode::kServFail, {}, kServFailCacheTtl);
  };

  std::vector<std::uint8_t> reply;
  for (int hop = 0; hop < kMaxReferrals; ++hop) {
    if (servers.empty()) return servfail();

    std::optional<MessageView> response;
    // Try servers in order (up to kMaxServerAttempts of them) until one
    // responds — the paper's dig runs tolerated flaky authoritatives the
    // same way.
    auto& metrics = ResolverMetrics::get();
    int attempts = 0;
    for (const auto server : servers) {
      if (attempts >= kMaxServerAttempts) break;
      if (attempts > 0) {
        ++retries_;
        metrics.retries.inc();
      }
      ++attempts;
      response = ask(server, name, type, reply);
      if (response) break;
      ++timeouts_;
      metrics.timeouts.inc();
    }
    if (!response) return servfail();

    // An error (NXDOMAIN, REFUSED, ...) is read from the header alone.
    if (const Rcode rcode = response->header().rcode;
        rcode != Rcode::kNoError)
      return answer(rcode, {});

    if (!response->records(Section::kAnswer).empty()) {
      auto collected = response->section(Section::kAnswer);
      // Separate terminal answers from a CNAME that needs cross-zone
      // chasing: if the final answer record is a CNAME and we asked for
      // something else, restart at its target.
      Rcode rc = Rcode::kNoError;
      if (type != RrType::kCname && type != RrType::kAny &&
          collected.back().type() == RrType::kCname) {
        const Name target = std::get<CnameRecord>(collected.back().data).target;
        std::vector<ResourceRecord> tail;
        rc = resolve_step(target, type, tail, depth + 1);
        collected.insert(collected.end(), tail.begin(), tail.end());
      }
      answer(rc, collected);
      chain.insert(chain.end(), std::make_move_iterator(collected.begin()),
                   std::make_move_iterator(collected.end()));
      return rc;
    }

    // NODATA (authoritative empty answer with SOA) terminates.
    std::optional<RecordView> first_ns;
    std::uint32_t ns_ttl = 0;
    for (const auto& rr : response->records(Section::kAuthority)) {
      if (rr.type != RrType::kNs) continue;
      ns_ttl = first_ns ? std::min(ns_ttl, rr.ttl) : rr.ttl;
      if (!first_ns) first_ns = rr;
    }
    if (!first_ns) return answer(Rcode::kNoError, {});

    // Referral: descend. The cut is cached only if it is in bailiwick —
    // the name at or below the NS owner, the owner strictly below the
    // zone that referred us — so an off-path referral cannot redirect
    // unrelated names.
    NameBuf owner;
    response->read_name(first_ns->name_at, owner);
    const std::string_view wire = name.wire();
    const std::string_view cut = wire.substr(wire.size() - zone);
    on_path = on_path && owner.wire() != cut &&
              in_subtree(owner.wire(), cut) && in_subtree(wire, owner.wire());
    referred = referral_addresses(*response, depth);
    servers = referred;
    if (on_path) {
      cut_put(owner, referred, ns_ttl);
      zone = owner.wire().size();
    }
  }
  return Rcode::kServFail;
}

std::optional<std::vector<ResourceRecord>> Resolver::try_axfr(
    const Name& zone_origin) {
  // Find the zone's name servers first, then ask each directly.
  ResolveResult ns = resolve(zone_origin, RrType::kNs);
  if (!ns.ok()) return std::nullopt;
  std::vector<Name> ns_names;
  for (const auto& rr : ns.records)
    if (const auto* rec = std::get_if<NsRecord>(&rr.data))
      ns_names.push_back(rec->nameserver);
  std::vector<std::uint8_t> reply;
  for (const auto& ns_name : ns_names) {
    ResolveResult addr = resolve(ns_name, RrType::kA);
    for (const auto server : addr.addresses()) {
      const auto response = ask(server, zone_origin, RrType::kAxfr, reply);
      if (response && response->header().rcode == Rcode::kNoError &&
          !response->records(Section::kAnswer).empty())
        return response->section(Section::kAnswer);
    }
  }
  return std::nullopt;
}

void Resolver::flush_cache() {
  flush_answers();
  cuts_.clear();
}

void Resolver::flush_answers() { cache_.clear(); }

void Resolver::advance_time(std::uint32_t seconds) {
  now_ += seconds;
  std::erase_if(cache_, [this](const auto& kv) {
    return kv.second.expires_at <= now_;
  });
  std::erase_if(cuts_,
                [this](const CutEntry& cut) { return cut.expires_at <= now_; });
}

}  // namespace cs::dns
