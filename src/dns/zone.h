#pragma once

#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "dns/rr.h"

/// An authoritative DNS zone: an apex SOA, the records at and below the
/// apex, and delegation (zone-cut) tracking via NS records owned by names
/// other than the apex.
namespace cs::dns {

class Zone {
 public:
  /// The records at one name, by type.
  struct NodeData {
    std::map<RrType, std::vector<ResourceRecord>> by_type;

    /// Records of one type (not kAny), in place; empty if none.
    std::span<const ResourceRecord> of(RrType type) const {
      const auto it = by_type.find(type);
      if (it == by_type.end()) return {};
      return it->second;
    }
  };

  /// Creates a zone rooted at `origin` with the given SOA.
  Zone(Name origin, SoaRecord soa);

  const Name& origin() const noexcept { return origin_; }
  const SoaRecord& soa() const noexcept { return soa_; }

  /// Adds a record. The record's name must be at or below the origin;
  /// returns false (and ignores the record) otherwise, or when adding a
  /// CNAME beside other data / other data beside a CNAME (RFC 1034 §3.6.2).
  bool add(ResourceRecord rr);

  /// The records at exactly the name spelled by `wire`; nullptr if none.
  const NodeData* node(std::string_view wire) const;

  /// Records of one type at exactly this name (no CNAME chasing here).
  std::vector<ResourceRecord> find(const Name& name, RrType type) const;

  /// All records at a name, any type.
  std::vector<ResourceRecord> find_all(const Name& name) const;

  /// If the name spelled by `wire` sits at or below a delegation cut (a non-apex owner of NS
  /// records), returns the shallowest such cut owner; nullptr otherwise.
  /// The pointer is valid until the zone is next modified.
  const Name* delegation_cut(std::string_view wire) const;

  /// Full zone contents in canonical order for AXFR: SOA first, then all
  /// other records, then the SOA again (RFC 5936 framing). Sorted on
  /// every call.
  std::vector<ResourceRecord> axfr() const;

  /// All names owned by the zone in canonical order (SOA apex included).
  /// Sorted on every call.
  std::vector<Name> names() const;

  std::size_t record_count() const noexcept { return record_count_; }

 private:
  /// Nodes in canonical order, for AXFR and names().
  std::vector<const std::pair<const Name, NodeData>*> sorted_nodes() const;

  Name origin_;
  SoaRecord soa_;
  std::unordered_map<Name, NodeData, NameHash, NameEq> nodes_;
  /// Non-apex names owning NS records; delegation_cut() is free at 0.
  std::size_t cut_count_ = 0;
  std::size_t record_count_ = 0;
};

}  // namespace cs::dns
