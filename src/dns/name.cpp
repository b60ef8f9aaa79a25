#include "dns/name.h"

#include <array>
#include <cstring>
#include <stdexcept>

namespace cs::dns {
namespace {

constexpr std::size_t kMaxLabel = 63;
/// Longest label sequence kMaxNameWire allows (1-octet labels).
constexpr std::size_t kMaxLabels = kMaxNameWire / 2;
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

/// Writes one length-prefixed, lower-cased label at `out`. Returns false
/// for an empty, over-long or ill-charactered label.
bool put_label(char* out, const char* label, std::size_t len) {
  if (len == 0 || len > kMaxLabel) return false;
  *out++ = static_cast<char>(len);
  for (std::size_t i = 0; i < len; ++i) {
    const char c = kLabelOctet[static_cast<unsigned char>(label[i])];
    if (c == 0) return false;
    *out++ = c;
  }
  return true;
}

/// put_label at the end of `wire`. Returns false (leaving `wire` in an
/// unspecified state) for a bad label or when the name would exceed
/// kMaxNameWire.
bool append_label(std::string& wire, const char* label, std::size_t len) {
  const std::size_t at = wire.size();
  if (at + 1 + len > kMaxNameWire) return false;
  wire.resize(at + 1 + len);
  return put_label(wire.data() + at, label, len);
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

bool NameBuf::read(std::span<const std::uint8_t> message, std::size_t& pos) {
  size_ = 0;
  std::size_t cursor = pos;
  std::size_t hops = 0;
  bool jumped = false;
  for (;;) {
    if (cursor >= message.size()) return false;
    const std::uint8_t len = message[cursor];
    if ((len & 0xC0) == 0xC0) {
      if (cursor + 1 >= message.size() || ++hops > kMaxPointerHops)
        return false;
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | message[cursor + 1];
      if (!jumped) {
        pos = cursor + 2;
        jumped = true;
      }
      if (target >= cursor) return false;  // forward pointers banned
      cursor = target;
      continue;
    }
    if (len == 0) {
      if (!jumped) pos = cursor + 1;
      return true;
    }
    const auto* label = reinterpret_cast<const char*>(message.data()) + cursor;
    if (cursor + 1 + len > message.size() ||
        size_ + 1 + len > kMaxNameWire ||
        !put_label(bytes_.data() + size_, label + 1, len))
      return false;
    size_ += 1 + len;
    cursor += 1 + len;
  }
}

Name NameBuf::name() const {
  Name n;
  n.wire_.assign(wire());
  return n;
}

std::optional<Name> Name::decode_wire(std::span<const std::uint8_t> message,
                                      std::size_t& pos) {
  NameBuf buf;
  if (!buf.read(message, pos)) return std::nullopt;
  return buf.name();
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
  if (1 + label.size() + wire_.size() > kMaxNameWire) return std::nullopt;
  Name c;
  c.wire_.reserve(1 + label.size() + wire_.size());
  if (!append_label(c.wire_, label.data(), label.size())) return std::nullopt;
  c.wire_ += wire_;
  return c;
}

bool in_subtree(std::string_view name, std::string_view ancestor) noexcept {
  // A byte suffix is a name suffix only if it starts on a label boundary
  // ("notexample.com" ends with the bytes of "example.com" mid-label).
  if (!name.ends_with(ancestor)) return false;
  const std::size_t boundary = name.size() - ancestor.size();
  std::size_t at = 0;
  while (at < boundary) at += 1 + static_cast<unsigned char>(name[at]);
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
  // Eight bytes per multiply: a bucket walk in libstdc++ rehashes its
  // neighbours' keys (the codes of fast hashes are not cached), so this
  // runs several times per lookup. The codes need only be consistent
  // within one process: nothing depends on a Name-keyed table's order.
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = wire.size() * kMul;
  const auto mix = [&h](std::uint64_t word) {
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  };
  std::size_t at = 0;
  for (; at + 8 <= wire.size(); at += 8) {
    std::uint64_t word;
    std::memcpy(&word, wire.data() + at, 8);
    mix(word);
  }
  if (at < wire.size()) {
    std::uint64_t word = 0;
    std::memcpy(&word, wire.data() + at, wire.size() - at);
    mix(word);
  }
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

}  // namespace cs::dns
