#include "dns/name.h"

#include <array>
#include <stdexcept>

#include "util/rng.h"

namespace cs::dns {
namespace {

constexpr std::size_t kMaxLabel = 63;
/// Longest wire form without the terminal root octet (RFC 1035: 255 total).
constexpr std::size_t kMaxWire = 254;
/// Longest label sequence kMaxWire allows (1-octet labels).
constexpr std::size_t kMaxLabels = kMaxWire / 2;
constexpr std::size_t kMaxPointerHops = 64;

/// Each octet lower-cased, or 0 when it may not appear in a label
/// ([-_a-z0-9] after lower-casing).
constexpr std::array<char, 256> kLabelOctet = [] {
  std::array<char, 256> table{};
  for (int c = 'a'; c <= 'z'; ++c) table[c] = static_cast<char>(c);
  for (int c = 'A'; c <= 'Z'; ++c)
    table[c] = static_cast<char>(c - 'A' + 'a');
  for (int c = '0'; c <= '9'; ++c) table[c] = static_cast<char>(c);
  table['-'] = '-';
  table['_'] = '_';
  return table;
}();

/// Appends one length-prefixed, lower-cased label to `wire`. Returns false
/// (leaving `wire` in an unspecified state) for an empty, over-long or
/// ill-charactered label, or when the name would exceed kMaxWire.
bool append_label(std::string& wire, const char* label, std::size_t len) {
  if (len == 0 || len > kMaxLabel || wire.size() + 1 + len > kMaxWire)
    return false;
  const std::size_t at = wire.size();
  wire.resize(at + 1 + len);
  char* out = wire.data() + at;
  *out++ = static_cast<char>(len);
  for (std::size_t i = 0; i < len; ++i) {
    const char c = kLabelOctet[static_cast<unsigned char>(label[i])];
    if (c == 0) return false;
    *out++ = c;
  }
  return true;
}

/// Offsets of each label's length octet, leftmost first; returns the count.
std::size_t label_offsets(std::string_view wire,
                          std::array<std::uint8_t, kMaxLabels>& out) {
  std::size_t n = 0;
  for (std::size_t at = 0; at < wire.size();
       at += 1 + static_cast<unsigned char>(wire[at]))
    out[n++] = static_cast<std::uint8_t>(at);
  return n;
}

std::string_view label_at(std::string_view wire, std::size_t at) {
  return wire.substr(at + 1, static_cast<unsigned char>(wire[at]));
}

}  // namespace

std::optional<Name> Name::parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text == ".") return Name{};
  if (text.back() == '.') text.remove_suffix(1);
  Name n;
  n.wire_.reserve(text.size() + 1);
  for (;;) {
    const std::size_t dot = text.find('.');
    const std::string_view label = text.substr(0, dot);
    if (!append_label(n.wire_, label.data(), label.size()))
      return std::nullopt;
    if (dot == std::string_view::npos) break;
    text.remove_prefix(dot + 1);
  }
  return n;
}

Name Name::must_parse(std::string_view text) {
  auto n = parse(text);
  if (!n)
    throw std::invalid_argument{"Name::must_parse: invalid name: " +
                                std::string{text}};
  return *std::move(n);
}

std::optional<Name> Name::from_labels(
    const std::vector<std::string>& labels) {
  Name n;
  for (const auto& l : labels)
    if (!append_label(n.wire_, l.data(), l.size())) return std::nullopt;
  return n;
}

std::optional<Name> Name::decode_wire(std::span<const std::uint8_t> message,
                                      std::size_t& pos) {
  Name n;
  std::size_t cursor = pos;
  std::size_t hops = 0;
  bool jumped = false;
  for (;;) {
    if (cursor >= message.size()) return std::nullopt;
    const std::uint8_t len = message[cursor];
    if ((len & 0xC0) == 0xC0) {
      if (cursor + 1 >= message.size() || ++hops > kMaxPointerHops)
        return std::nullopt;
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | message[cursor + 1];
      if (!jumped) {
        pos = cursor + 2;
        jumped = true;
      }
      if (target >= cursor) return std::nullopt;  // forward pointers banned
      cursor = target;
      continue;
    }
    if (len > kMaxLabel) return std::nullopt;
    if (len == 0) {
      if (!jumped) pos = cursor + 1;
      return n;
    }
    const auto* label = reinterpret_cast<const char*>(message.data()) + cursor;
    if (cursor + 1 + len > message.size() ||
        !append_label(n.wire_, label + 1, len))
      return std::nullopt;
    cursor += 1 + len;
  }
}

std::size_t Name::label_count() const noexcept {
  return static_cast<std::size_t>(std::ranges::distance(labels()));
}

std::string_view Name::leftmost() const noexcept {
  return is_root() ? std::string_view{} : label_at(wire_, 0);
}

Name Name::parent() const {
  Name p;
  if (!is_root()) p.wire_ = wire_.substr(1 + leftmost().size());
  return p;
}

std::optional<Name> Name::child(std::string_view label) const {
  if (1 + label.size() + wire_.size() > kMaxWire) return std::nullopt;
  Name c;
  c.wire_.reserve(1 + label.size() + wire_.size());
  if (!append_label(c.wire_, label.data(), label.size())) return std::nullopt;
  c.wire_ += wire_;
  return c;
}

bool Name::is_subdomain_of(const Name& ancestor) const noexcept {
  // A byte suffix is a name suffix only if it starts on a label boundary
  // ("notexample.com" ends with the bytes of "example.com" mid-label).
  if (!wire_.ends_with(ancestor.wire_)) return false;
  const std::size_t boundary = wire_.size() - ancestor.wire_.size();
  std::size_t at = 0;
  while (at < boundary) at += 1 + static_cast<unsigned char>(wire_[at]);
  return at == boundary;
}

std::string Name::to_string() const {
  if (is_root()) return ".";
  std::string out;
  out.reserve(wire_.size());
  for (const auto label : labels()) {
    if (!out.empty()) out += '.';
    out += label;
  }
  return out;
}

std::strong_ordering Name::operator<=>(const Name& other) const noexcept {
  const std::string_view a = wire_;
  const std::string_view b = other.wire_;
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.size() && ib < b.size()) {
    const auto la = label_at(a, ia);
    const auto lb = label_at(b, ib);
    if (const auto c = la <=> lb; c != 0) return c;
    ia += 1 + la.size();
    ib += 1 + lb.size();
  }
  return (ia < a.size()) <=> (ib < b.size());
}

bool Name::canonical_less(const Name& a, const Name& b) noexcept {
  std::array<std::uint8_t, kMaxLabels> oa;
  std::array<std::uint8_t, kMaxLabels> ob;
  std::size_t na = label_offsets(a.wire_, oa);
  std::size_t nb = label_offsets(b.wire_, ob);
  for (; na > 0 && nb > 0; --na, --nb) {
    const auto la = label_at(a.wire_, oa[na - 1]);
    const auto lb = label_at(b.wire_, ob[nb - 1]);
    if (la != lb) return la < lb;
  }
  return na < nb;
}

std::size_t NameHash::operator()(std::string_view wire) const noexcept {
  return static_cast<std::size_t>(util::stable_hash(wire));
}

}  // namespace cs::dns
