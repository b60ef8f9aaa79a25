#pragma once

#include <concepts>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

/// Versioned, checksummed binary snapshots for pipeline-stage artifacts.
///
/// The paper's campaigns (34M-subdomain DNS probing, a week of capture)
/// are exactly the workloads that die partway; cs::snap lets a killed run
/// resume from its last completed stage instead of redoing — or worse,
/// silently corrupting — earlier work. The format is deliberately dumb:
///
///   "CSNP" | u32 format version | u64 config hash | stage name |
///   u64 payload length | payload bytes | u64 FNV-1a(everything above)
///
/// All integers are little-endian and length-prefixed where variable.
/// Anything that does not validate — short file, foreign magic, version
/// or config-hash mismatch, checksum failure, trailing bytes — raises a
/// SnapshotError with the reason; the store turns that into "rebuild the
/// stage", never into a crash or a silent reuse of stale data.
///
/// Payloads are field walks. Writer and Reader each take any number of
/// fields, `io(v.a, v.b)`, and map each field's type to one wire form:
///
///   bool, enums          u8; a decoded enum must pass `valid`
///   unsigned integers    their own width (std::size_t is u64)
///   signed integers      sign-extended u64, range-checked on decode
///   double               f64
///   std::string          str
///   vector, set, map     count, then each element (a map entry is a pair);
///                        decoded set and map keys must strictly increase
///   std::pair            first, then second
///   std::optional        bool, then the value when it is set
///
/// Any other type is a struct or a leaf, found by ADL in namespace
/// cs::snap: `fields(io, v)` is a struct's field list, the one function
/// both sides walk, and `encode(Writer&, const T&)` with
/// `decode(Reader&, T&)` is a hand-written leaf format.
namespace cs::snap {

/// Bump whenever any artifact codec changes shape; a mismatch rejects the
/// snapshot and forces a rebuild. v2: the dataset artifact moved to its
/// columnar (interned-name) form. v3: the dataset columns dropped each
/// subdomain's record chains and its copy of the domain rank.
inline constexpr std::uint32_t kFormatVersion = 3;

/// Raised by the reader/unframer on any malformed snapshot.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// FNV-1a over a byte span: util::fnv1a from util::kFnv1aShortBasis, as
/// the fault keys use.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) noexcept;

static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
              "snapshots carry std::size_t fields as u64");

class Reader;

/// A field list's value parameter, `Field<T> auto& v`: T for the Reader,
/// const T for the Writer, so one `fields` function serves both.
template <typename V, typename T>
concept Field = std::same_as<std::remove_const_t<V>, T>;

/// True for the Reader: a field list adds its cross-field checks under
/// `if constexpr (Decoding<decltype(io)>)`.
template <typename Io>
concept Decoding = std::same_as<std::remove_cvref_t<Io>, Reader>;

/// Range check for a decoded enum field: one explicit specialization per
/// enum that a field list holds.
template <typename E>
bool valid(E) = delete;

namespace detail {

template <typename T, template <typename...> class Tmpl>
inline constexpr bool kIsA = false;
template <template <typename...> class Tmpl, typename... Args>
inline constexpr bool kIsA<Tmpl<Args...>, Tmpl> = true;

template <typename T>
inline constexpr bool kIsRange =
    kIsA<T, std::vector> || kIsA<T, std::set> || kIsA<T, std::map>;

/// The fewest payload bytes one encoded T occupies: the per-element
/// minimum a count of Ts passes to the Reader's OOM guard.
template <typename T>
constexpr std::size_t min_wire_bytes() {
  using U = std::remove_cv_t<T>;
  if constexpr (std::is_same_v<U, bool> || std::is_enum_v<U>)
    return 1;
  else if constexpr (std::is_integral_v<U> && std::is_signed_v<U>)
    return sizeof(std::uint64_t);
  else if constexpr (std::is_arithmetic_v<U>)
    return sizeof(U);
  else if constexpr (kIsA<U, std::pair>)
    return min_wire_bytes<typename U::first_type>() +
           min_wire_bytes<typename U::second_type>();
  else if constexpr (std::is_same_v<U, std::string> || kIsRange<U>)
    return sizeof(std::uint64_t);  // the length or count prefix
  else
    return 1;  // an optional's flag; structs and leaves hold at least a byte
}

[[noreturn]] void reject_field(const char* kind, std::int64_t value);

}  // namespace detail

/// Append-only little-endian encoder.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed byte string.
  void str(std::string_view v);
  /// Element count prefix for any repeated field.
  void count(std::size_t n) { u64(n); }
  /// Encodes each field in order, in the wire forms above.
  template <typename... Ts>
  void operator()(const Ts&... v) { (put(v), ...); }

  std::span<const std::uint8_t> bytes() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() && { return std::move(buf_); }

 private:
  template <typename T>
  void put(const T& v);

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked mirror of Writer; throws SnapshotError on overrun.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  bool boolean();
  std::string str();
  /// Reads an element count and rejects counts that could not possibly
  /// fit in the remaining bytes (`min_element_bytes` each) — an OOM guard
  /// against corrupted length fields.
  std::size_t count(std::size_t min_element_bytes = 1);
  /// Decodes each field in order, overwriting it; throws SnapshotError on
  /// a value its field cannot hold.
  template <typename... Ts>
  void operator()(Ts&... v) { (get(v), ...); }

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  bool done() const noexcept { return pos_ == bytes_.size(); }
  /// Throws if any undecoded bytes remain (payload/codec mismatch).
  void require_done() const;

 private:
  template <typename T>
  void get(T& v);
  std::span<const std::uint8_t> take(std::size_t n);

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Wraps a payload in the full snapshot file image (header + checksum).
std::vector<std::uint8_t> frame_snapshot(std::string_view stage,
                                         std::uint64_t config_hash,
                                         std::span<const std::uint8_t> payload);

/// Validates the framing of a whole snapshot file and returns its payload.
/// Throws SnapshotError naming the defect: truncation, bad magic, format
/// version mismatch, config-hash mismatch, stage-name mismatch, checksum
/// failure, or trailing garbage.
std::vector<std::uint8_t> unframe_snapshot(std::span<const std::uint8_t> file,
                                           std::string_view stage,
                                           std::uint64_t config_hash);

template <typename T>
void Writer::put(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    boolean(v);
  } else if constexpr (std::is_enum_v<T>) {
    u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_same_v<T, double>) {
    f64(v);
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  } else if constexpr (std::is_unsigned_v<T>) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      u8(static_cast<std::uint8_t>(v >> (8 * i)));
  } else if constexpr (std::is_same_v<T, std::string>) {
    str(v);
  } else if constexpr (detail::kIsRange<T>) {
    count(v.size());
    for (const auto& element : v) put(element);
  } else if constexpr (detail::kIsA<T, std::pair>) {
    put(v.first);
    put(v.second);
  } else if constexpr (detail::kIsA<T, std::optional>) {
    boolean(v.has_value());
    if (v) put(*v);
  } else if constexpr (requires { encode(*this, v); }) {
    encode(*this, v);
  } else {
    fields(*this, v);
  }
}

template <typename T>
void Reader::get(T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = boolean();
  } else if constexpr (std::is_enum_v<T>) {
    const auto raw = u8();
    v = static_cast<T>(raw);
    if (!valid(v)) detail::reject_field("enum", raw);
  } else if constexpr (std::is_same_v<T, double>) {
    v = f64();
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    const auto wide = static_cast<std::int64_t>(u64());
    if (wide < std::numeric_limits<T>::min() ||
        wide > std::numeric_limits<T>::max())
      detail::reject_field("signed integer", wide);
    v = static_cast<T>(wide);
  } else if constexpr (std::is_unsigned_v<T>) {
    const auto bytes = take(sizeof(T));
    v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<T>(T{bytes[i]} << (8 * i));
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = str();
  } else if constexpr (detail::kIsA<T, std::vector>) {
    v.resize(count(detail::min_wire_bytes<typename T::value_type>()));
    for (auto& element : v) get(element);
  } else if constexpr (detail::kIsRange<T>) {  // set or map
    const auto n = count(detail::min_wire_bytes<typename T::value_type>());
    v.clear();
    for (std::size_t i = 0; i < n; ++i) {
      typename T::key_type key{};
      get(key);
      auto at = v.end();
      if constexpr (detail::kIsA<T, std::map>) {
        typename T::mapped_type value{};
        get(value);
        at = v.emplace_hint(v.end(), std::move(key), std::move(value));
      } else {
        at = v.emplace_hint(v.end(), std::move(key));
      }
      // A duplicate leaves the size alone; an out-of-order key lands
      // before the end. Either way the bytes would not re-encode.
      if (v.size() != i + 1 || std::next(at) != v.end())
        throw SnapshotError{"snapshot set or map keys are not increasing"};
    }
  } else if constexpr (detail::kIsA<T, std::pair>) {
    get(v.first);
    get(v.second);
  } else if constexpr (detail::kIsA<T, std::optional>) {
    v.reset();
    if (boolean()) get(v.emplace());
  } else if constexpr (requires { decode(*this, v); }) {
    decode(*this, v);
  } else {
    fields(*this, v);
  }
}

}  // namespace cs::snap
