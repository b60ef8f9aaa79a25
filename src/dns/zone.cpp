#include "dns/zone.h"

#include <algorithm>
#include <array>

namespace cs::dns {

Zone::Zone(Name origin, SoaRecord soa)
    : origin_(std::move(origin)), soa_(std::move(soa)) {
  ResourceRecord apex;
  apex.name = origin_;
  apex.ttl = 3600;
  apex.data = soa_;
  nodes_[origin_].by_type[RrType::kSoa].push_back(std::move(apex));
  ++record_count_;
}

bool Zone::add(ResourceRecord rr) {
  if (!rr.name.is_subdomain_of(origin_)) return false;
  auto& node = nodes_[rr.name];
  const bool adding_cname = rr.type() == RrType::kCname;
  const bool has_cname = node.by_type.contains(RrType::kCname);
  const bool has_other = !node.by_type.empty() && !has_cname;
  if ((adding_cname && has_other) || (!adding_cname && has_cname))
    return false;
  if (rr.type() == RrType::kNs && rr.name != origin_ &&
      !node.by_type.contains(RrType::kNs))
    ++cut_count_;
  node.by_type[rr.type()].push_back(std::move(rr));
  ++record_count_;
  return true;
}

const Zone::NodeData* Zone::node(std::string_view wire) const {
  const auto it = nodes_.find(wire);
  return it == nodes_.end() ? nullptr : &it->second;
}

std::vector<ResourceRecord> Zone::find(const Name& name, RrType type) const {
  if (type == RrType::kAny) return find_all(name);
  const NodeData* at = node(name.wire());
  if (!at) return {};
  const auto recs = at->of(type);
  return {recs.begin(), recs.end()};
}

std::vector<ResourceRecord> Zone::find_all(const Name& name) const {
  const auto node = nodes_.find(name);
  if (node == nodes_.end()) return {};
  std::vector<ResourceRecord> out;
  for (const auto& [type, recs] : node->second.by_type)
    out.insert(out.end(), recs.begin(), recs.end());
  return out;
}

const Name* Zone::delegation_cut(std::string_view wire) const {
  // RFC 1034 resolution stops at the *shallowest* cut between the apex
  // and the name, so probe the name's suffixes from just below the apex
  // downwards. Each suffix is a view into the name's wire form.
  if (cut_count_ == 0 || !in_subtree(wire, origin_.wire())) return nullptr;
  std::array<std::uint8_t, 128> starts;  // a name has at most 127 labels
  std::size_t count = 0;
  for (std::size_t at = 0; at < wire.size();
       at += 1 + static_cast<unsigned char>(wire[at]))
    starts[count++] = static_cast<std::uint8_t>(at);
  const std::size_t below_apex = count - origin_.label_count();
  for (std::size_t i = below_apex; i-- > 0;) {
    const auto node = nodes_.find(wire.substr(starts[i]));
    if (node != nodes_.end() && node->second.by_type.contains(RrType::kNs))
      return &node->first;
  }
  return nullptr;
}

std::vector<const std::pair<const Name, Zone::NodeData>*> Zone::sorted_nodes()
    const {
  std::vector<const std::pair<const Name, NodeData>*> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) out.push_back(&node);
  std::sort(out.begin(), out.end(), [](const auto* a, const auto* b) {
    return Name::canonical_less(a->first, b->first);
  });
  return out;
}

std::vector<ResourceRecord> Zone::axfr() const {
  std::vector<ResourceRecord> out;
  ResourceRecord apex;
  apex.name = origin_;
  apex.ttl = 3600;
  apex.data = soa_;
  out.push_back(apex);
  for (const auto* node : sorted_nodes()) {
    for (const auto& [type, recs] : node->second.by_type) {
      if (type == RrType::kSoa) continue;
      out.insert(out.end(), recs.begin(), recs.end());
    }
  }
  out.push_back(std::move(apex));
  return out;
}

std::vector<Name> Zone::names() const {
  std::vector<Name> out;
  out.reserve(nodes_.size());
  for (const auto* node : sorted_nodes()) out.push_back(node->first);
  return out;
}

}  // namespace cs::dns
