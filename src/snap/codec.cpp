#include "snap/codec.h"

#include <bit>

#include "util/format.h"
#include "util/rng.h"

namespace cs::snap {
namespace {

constexpr std::uint8_t kMagic[4] = {'C', 'S', 'N', 'P'};

[[noreturn]] void reject(std::string message) {
  throw SnapshotError{std::move(message)};
}

}  // namespace

namespace detail {

void reject_field(const char* kind, std::int64_t value) {
  reject(util::fmt("snapshot {} field holds {}", kind, value));
}

}  // namespace detail

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) noexcept {
  return util::fnv1a(bytes, util::kFnv1aShortBasis);
}

void Writer::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void Writer::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(std::string_view v) {
  count(v.size());
  buf_.insert(buf_.end(), v.begin(), v.end());
}

std::span<const std::uint8_t> Reader::take(std::size_t n) {
  if (n > remaining())
    reject(util::fmt("snapshot truncated: need {} more bytes, have {}", n,
                     remaining()));
  const auto view = bytes_.subspan(pos_, n);
  pos_ += n;
  return view;
}

std::uint8_t Reader::u8() { return take(1)[0]; }

std::uint16_t Reader::u16() {
  const auto b = take(2);
  return static_cast<std::uint16_t>(b[0] | (std::uint16_t{b[1]} << 8));
}

std::uint32_t Reader::u32() {
  const auto b = take(4);
  return b[0] | (std::uint32_t{b[1]} << 8) | (std::uint32_t{b[2]} << 16) |
         (std::uint32_t{b[3]} << 24);
}

std::uint64_t Reader::u64() {
  const std::uint64_t lo = u32();
  return lo | (std::uint64_t{u32()} << 32);
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

bool Reader::boolean() {
  const auto v = u8();
  if (v > 1) reject(util::fmt("snapshot bool field holds {}", v));
  return v == 1;
}

std::string Reader::str() {
  const auto n = count();
  const auto b = take(n);
  return std::string{reinterpret_cast<const char*>(b.data()), b.size()};
}

std::size_t Reader::count(std::size_t min_element_bytes) {
  const auto n = u64();
  const auto limit = min_element_bytes ? remaining() / min_element_bytes
                                       : remaining();
  if (n > limit)
    reject(util::fmt("snapshot count {} exceeds remaining payload ({} bytes)",
                     n, remaining()));
  return static_cast<std::size_t>(n);
}

void Reader::require_done() const {
  if (!done())
    reject(util::fmt("snapshot payload has {} trailing bytes", remaining()));
}

std::vector<std::uint8_t> frame_snapshot(
    std::string_view stage, std::uint64_t config_hash,
    std::span<const std::uint8_t> payload) {
  Writer w;
  for (const auto byte : kMagic) w.u8(byte);
  w.u32(kFormatVersion);
  w.u64(config_hash);
  w.str(stage);
  w.count(payload.size());
  auto buf = std::move(w).take();
  buf.insert(buf.end(), payload.begin(), payload.end());
  const auto checksum = fnv1a(buf);
  Writer trailer;
  trailer.u64(checksum);
  const auto t = trailer.bytes();
  buf.insert(buf.end(), t.begin(), t.end());
  return buf;
}

std::vector<std::uint8_t> unframe_snapshot(std::span<const std::uint8_t> file,
                                           std::string_view stage,
                                           std::uint64_t config_hash) {
  if (file.size() < sizeof(kMagic) + 4 + 8 + 8 + 8 + 8)
    reject(util::fmt("snapshot file too short ({} bytes)", file.size()));

  // Checksum first: everything else is untrustworthy until it holds.
  const auto body = file.first(file.size() - 8);
  Reader trailer{file.subspan(file.size() - 8)};
  const auto stored = trailer.u64();
  const auto computed = fnv1a(body);
  if (stored != computed)
    reject(util::fmt("snapshot checksum mismatch (stored 0x{:x}, computed "
                     "0x{:x}) — file corrupted",
                     stored, computed));

  Reader r{body};
  for (const auto expected : kMagic)
    if (r.u8() != expected) reject("snapshot magic mismatch: not a CSNP file");
  const auto version = r.u32();
  if (version != kFormatVersion)
    reject(util::fmt("snapshot format version {} != supported {}", version,
                     kFormatVersion));
  const auto hash = r.u64();
  if (hash != config_hash)
    reject(util::fmt("snapshot config hash 0x{:x} != current study 0x{:x} — "
                     "built from a different configuration",
                     hash, config_hash));
  const auto name = r.str();
  if (name != stage)
    reject(util::fmt("snapshot holds stage '{}', expected '{}'", name, stage));
  const auto payload_len = r.count();
  if (payload_len != r.remaining())
    reject(util::fmt("snapshot payload length {} != remaining {} bytes",
                     payload_len, r.remaining()));
  const auto payload = body.subspan(body.size() - payload_len);
  return {payload.begin(), payload.end()};
}

}  // namespace cs::snap
