#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

/// DNS domain names (RFC 1035 §3.1).
///
/// A Name is stored as its uncompressed wire form without the terminal
/// root octet ("\3www\7example\3com"), lower-cased because DNS comparison
/// is case-insensitive. The empty byte string is the root ".". Every way
/// in (parse, from_labels, child, decode_wire, NameBuf) validates, so the
/// bytes of a Name are always well formed and equality is a byte compare.
/// The bytes are the whole state: labels are found by walking length octets.
namespace cs::dns {

class Name;

/// Longest wire form without the terminal root octet (RFC 1035: 255 total).
inline constexpr std::size_t kMaxNameWire = 254;

/// True if the wire form `name` equals `ancestor` or lies in its subtree.
bool in_subtree(std::string_view name, std::string_view ancestor) noexcept;

/// One name read out of a DNS message into a fixed buffer: the lower-cased
/// wire form a Name would hold. Reading allocates nothing, so a datagram's
/// names can be checked, compared and looked up (NameHash is transparent)
/// without building a Name; name() builds one when a caller keeps it.
class NameBuf {
 public:
  /// Reads the possibly compressed name at `pos` of a DNS message (RFC
  /// 1035 §4.1.4), lower-casing and validating as it copies. Pointers must
  /// point backwards and are followed at most 64 times. On success `pos`
  /// moves past the name's in-place bytes; on failure (false) the buffer
  /// and `pos` are unspecified.
  bool read(std::span<const std::uint8_t> message, std::size_t& pos);

  std::string_view wire() const noexcept { return {bytes_.data(), size_}; }
  Name name() const;

 private:
  std::array<char, kMaxNameWire> bytes_{};
  std::size_t size_ = 0;
};

class Name {
 public:
  /// Forward range over the labels, leftmost first, as views into the name.
  class LabelRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = std::string_view;
      using difference_type = std::ptrdiff_t;

      iterator() = default;
      explicit iterator(const char* at) : at_(at) {}
      std::string_view operator*() const noexcept {
        return {at_ + 1, static_cast<unsigned char>(*at_)};
      }
      iterator& operator++() noexcept {
        at_ += 1 + static_cast<unsigned char>(*at_);
        return *this;
      }
      iterator operator++(int) noexcept {
        iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const iterator&) const = default;

     private:
      const char* at_ = nullptr;
    };

    explicit LabelRange(std::string_view wire) : wire_(wire) {}
    iterator begin() const noexcept { return iterator{wire_.data()}; }
    iterator end() const noexcept {
      return iterator{wire_.data() + wire_.size()};
    }

   private:
    std::string_view wire_;
  };

  /// The root name ".".
  Name() = default;

  /// Parses presentation format ("www.example.com", trailing dot optional).
  /// Returns nullopt for invalid names: empty labels, labels over 63 octets,
  /// total wire length over 255, or characters outside [-_a-z0-9].
  static std::optional<Name> parse(std::string_view text);

  /// Like parse() but throws std::invalid_argument; for literals in tests
  /// and generators where a typo should be loud.
  static Name must_parse(std::string_view text);

  /// Builds from labels (most-significant last, i.e.
  /// {"www","example","com"}), lower-casing and validating each.
  static std::optional<Name> from_labels(
      const std::vector<std::string>& labels);

  /// NameBuf::read into a new Name: nullopt where the read fails.
  static std::optional<Name> decode_wire(
      std::span<const std::uint8_t> message, std::size_t& pos);

  bool is_root() const noexcept { return wire_.empty(); }
  std::size_t label_count() const noexcept;
  LabelRange labels() const noexcept { return LabelRange{wire_}; }

  /// The wire form without the terminal root octet.
  std::string_view wire() const noexcept { return wire_; }

  /// Leftmost (host-most) label; empty string for root.
  std::string_view leftmost() const noexcept;

  /// Name with the leftmost label removed ("www.example.com" -> "example.com").
  /// The parent of root is root.
  Name parent() const;

  /// New name with an extra leftmost label. Returns nullopt if the label or
  /// resulting name is invalid.
  std::optional<Name> child(std::string_view label) const;

  /// True if this name equals `ancestor` or is inside its subtree.
  bool is_subdomain_of(const Name& ancestor) const noexcept {
    return in_subtree(wire_, ancestor.wire_);
  }

  /// Number of octets this name occupies uncompressed on the wire.
  std::size_t wire_length() const noexcept { return wire_.size() + 1; }

  /// Presentation format without trailing dot; "." for root.
  std::string to_string() const;

  bool operator==(const Name& other) const noexcept {
    return wire_ == other.wire_;
  }

  /// Label by label from the left, each label compared as a string; a name
  /// that runs out of labels first is less ("com" < "com.example").
  std::strong_ordering operator<=>(const Name& other) const noexcept;

  /// Canonical DNS ordering (RFC 4034 §6.1): compare label sequences from
  /// the rightmost label; used for deterministic zone iteration.
  static bool canonical_less(const Name& a, const Name& b) noexcept;

 private:
  friend class NameBuf;

  std::string wire_;
};

/// Functor for unordered_map keys. Transparent: a wire-form view (such as
/// a suffix of Name::wire() at a label boundary) hashes like the Name it
/// spells, so lookups need not build a Name.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view wire) const noexcept;
  std::size_t operator()(const Name& n) const noexcept {
    return (*this)(n.wire());
  }
};

/// Equality companion of NameHash for heterogeneous lookup.
struct NameEq {
  using is_transparent = void;
  static std::string_view wire(const Name& n) noexcept { return n.wire(); }
  static std::string_view wire(std::string_view w) noexcept { return w; }
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const noexcept {
    return wire(a) == wire(b);
  }
};

}  // namespace cs::dns
