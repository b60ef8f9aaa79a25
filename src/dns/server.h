#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dns/message.h"
#include "dns/zone.h"
#include "net/ipv4.h"

/// An authoritative DNS server hosting one or more zones.
///
/// Implements the RFC 1034 §4.3.2 answer algorithm for the supported types:
/// authoritative answers, in-zone CNAME chasing, delegation referrals with
/// glue, NODATA vs NXDOMAIN distinction, and AXFR with a per-server policy
/// (the paper's methodology first attempts zone transfers, which succeed
/// for only ~8% of domains — the policy knob reproduces that).
namespace cs::dns {

class AuthoritativeServer {
 public:
  /// Policy deciding whether a client may AXFR a zone.
  using AxfrPolicy = std::function<bool(net::Ipv4 client, const Name& zone)>;

  AuthoritativeServer() = default;

  /// Adds a zone; the server answers authoritatively for it. Returns a
  /// reference for further population.
  Zone& add_zone(Name origin, SoaRecord soa);

  /// Looks up a hosted zone by exact origin.
  Zone* zone(const Name& origin);
  const Zone* zone(const Name& origin) const;

  /// Sets the AXFR policy; default denies everything.
  void set_axfr_policy(AxfrPolicy policy) { axfr_policy_ = std::move(policy); }

  /// Client-dependent answers (DNS-level load balancing, the mechanism
  /// behind Azure Traffic Manager and ELB's rotating replies). When the
  /// hook returns a record for (client, qname) it is used instead of the
  /// zone's static data at that name; a returned CNAME is then chased
  /// normally. Return nullopt to fall through to static data.
  using DynamicAnswer = std::function<std::optional<ResourceRecord>(
      net::Ipv4 client, const Name& qname)>;
  void set_dynamic_answer(DynamicAnswer hook) {
    dynamic_answer_ = std::move(hook);
  }

  /// Answers one query datagram as this server would on the wire: reads
  /// the question in place and writes the answer straight into the
  /// response bytes. Malformed input produces a FORMERR with an empty
  /// question section. `client` is the querying address (the AXFR policy
  /// and dynamic answers see it).
  std::vector<std::uint8_t> handle_wire(
      net::Ipv4 client, std::span<const std::uint8_t> wire) const;

  /// handle_wire() for a query held as a Message: encodes it, answers,
  /// and decodes the answer.
  Message handle(net::Ipv4 client, const Message& query) const;

  std::size_t zone_count() const noexcept { return zones_.size(); }

 private:
  /// Deepest zone whose origin is an ancestor of (or equals) the name
  /// spelled by `wire`: one hash probe per suffix, deepest first.
  const Zone* best_zone(std::string_view wire) const;

  /// The RFC 1034 §4.3.2 algorithm for the first question (`question`,
  /// `qtype`): sets the header's aa and rcode and writes the records.
  void answer(net::Ipv4 client, const NameBuf& question, RrType qtype,
              WireWriter& out) const;

  std::unordered_map<Name, std::unique_ptr<Zone>, NameHash, NameEq> zones_;
  AxfrPolicy axfr_policy_;
  DynamicAnswer dynamic_answer_;
};

}  // namespace cs::dns
