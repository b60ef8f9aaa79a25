#include "proto/tls.h"

#include <algorithm>

namespace cs::proto {
namespace {

constexpr std::uint8_t kContentTypeHandshake = 22;
constexpr std::uint8_t kHandshakeClientHello = 1;
constexpr std::uint8_t kHandshakeCertificate = 11;
constexpr std::uint16_t kVersionTls12 = 0x0303;
constexpr std::uint16_t kExtensionServerName = 0;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}
void put_u24(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Wraps a handshake message body in handshake + record framing.
std::vector<std::uint8_t> wrap(std::uint8_t handshake_type,
                               const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> handshake;
  handshake.push_back(handshake_type);
  put_u24(handshake, static_cast<std::uint32_t>(body.size()));
  handshake.insert(handshake.end(), body.begin(), body.end());

  std::vector<std::uint8_t> record;
  record.push_back(kContentTypeHandshake);
  put_u16(record, kVersionTls12);
  put_u16(record, static_cast<std::uint16_t>(handshake.size()));
  record.insert(record.end(), handshake.begin(), handshake.end());
  return record;
}

/// Bounds-checked big-endian reads.
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> data) : data_(data) {}
  bool ok() const noexcept { return ok_; }
  std::size_t pos() const noexcept { return pos_; }
  std::size_t remaining() const noexcept {
    return ok_ ? data_.size() - pos_ : 0;
  }

  std::uint8_t u8() { return take(1) ? data_[pos_ - 1] : 0; }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    return static_cast<std::uint16_t>((data_[pos_ - 2] << 8) |
                                      data_[pos_ - 1]);
  }
  std::uint32_t u24() {
    if (!take(3)) return 0;
    return (std::uint32_t{data_[pos_ - 3]} << 16) |
           (std::uint32_t{data_[pos_ - 2]} << 8) | data_[pos_ - 1];
  }
  std::span<const std::uint8_t> bytes(std::size_t n) {
    if (!take(n)) return {};
    return data_.subspan(pos_ - n, n);
  }
  void skip(std::size_t n) { take(n); }

 private:
  bool take(std::size_t n) {
    if (!ok_ || pos_ + n > data_.size()) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

std::vector<std::uint8_t> build_client_hello(const std::string& server_name) {
  std::vector<std::uint8_t> body;
  put_u16(body, kVersionTls12);
  body.insert(body.end(), 32, 0xAB);  // client random (fixed; no crypto here)
  body.push_back(0);                  // session id length
  put_u16(body, 2);                   // cipher suites length
  put_u16(body, 0x002F);              // TLS_RSA_WITH_AES_128_CBC_SHA
  body.push_back(1);                  // compression methods length
  body.push_back(0);                  // null compression

  // server_name extension (RFC 6066).
  std::vector<std::uint8_t> ext;
  put_u16(ext, kExtensionServerName);
  std::vector<std::uint8_t> sni_list;
  sni_list.push_back(0);  // name_type host_name
  put_u16(sni_list, static_cast<std::uint16_t>(server_name.size()));
  sni_list.insert(sni_list.end(), server_name.begin(), server_name.end());
  std::vector<std::uint8_t> sni_ext;
  put_u16(sni_ext, static_cast<std::uint16_t>(sni_list.size()));
  sni_ext.insert(sni_ext.end(), sni_list.begin(), sni_list.end());
  put_u16(ext, static_cast<std::uint16_t>(sni_ext.size()));
  ext.insert(ext.end(), sni_ext.begin(), sni_ext.end());

  put_u16(body, static_cast<std::uint16_t>(ext.size()));
  body.insert(body.end(), ext.begin(), ext.end());

  return wrap(kHandshakeClientHello, body);
}

std::vector<std::uint8_t> build_certificate(const std::string& common_name) {
  // Simplified certificate body: [u16 cn_len][cn bytes], wrapped in the
  // real certificate_list framing (u24 list length, u24 cert length).
  std::vector<std::uint8_t> cert;
  put_u16(cert, static_cast<std::uint16_t>(common_name.size()));
  cert.insert(cert.end(), common_name.begin(), common_name.end());

  std::vector<std::uint8_t> body;
  put_u24(body, static_cast<std::uint32_t>(cert.size() + 3));
  put_u24(body, static_cast<std::uint32_t>(cert.size()));
  body.insert(body.end(), cert.begin(), cert.end());
  return wrap(kHandshakeCertificate, body);
}

bool looks_like_tls(std::span<const std::uint8_t> data) noexcept {
  if (data.size() < 6) return false;
  if (data[0] != kContentTypeHandshake) return false;
  const std::uint16_t version =
      static_cast<std::uint16_t>((data[1] << 8) | data[2]);
  return version >= 0x0301 && version <= 0x0304;
}

namespace {

/// A scan of a stream prefix: the answer, and whether the prefix ran out
/// before it settled one (a read or a length check needed more bytes).
/// A scan that did not starve gives the answer for any longer stream.
struct Scan {
  std::optional<std::string> value;
  bool starved = false;
};

Scan starved() { return {std::nullopt, true}; }

Scan scan_sni(std::span<const std::uint8_t> data) {
  if (data.size() < 6) return starved();
  if (!looks_like_tls(data)) return {};
  Cursor c{data};
  c.skip(1);  // content type
  c.skip(2);  // version
  c.skip(2);  // record length
  const std::uint8_t handshake_type = c.u8();
  if (!c.ok()) return starved();
  if (handshake_type != kHandshakeClientHello) return {};
  c.skip(3);   // handshake length
  c.skip(2);   // client version
  c.skip(32);  // random
  const std::uint8_t session_len = c.u8();
  c.skip(session_len);
  const std::uint16_t cipher_len = c.u16();
  c.skip(cipher_len);
  const std::uint8_t compression_len = c.u8();
  c.skip(compression_len);
  if (c.remaining() < 2) return starved();  // no extensions block yet
  std::uint16_t ext_total = c.u16();
  while (c.ok() && ext_total >= 4) {
    const std::uint16_t ext_type = c.u16();
    const std::uint16_t ext_len = c.u16();
    ext_total = static_cast<std::uint16_t>(
        ext_total >= ext_len + 4 ? ext_total - ext_len - 4 : 0);
    if (ext_type == kExtensionServerName) {
      c.skip(2);  // server_name_list length
      const std::uint8_t name_type = c.u8();
      if (name_type != 0) return {};
      const std::uint16_t name_len = c.u16();
      const auto bytes = c.bytes(name_len);
      if (!c.ok()) return starved();
      return {std::string{reinterpret_cast<const char*>(bytes.data()),
                          bytes.size()}};
    }
    c.skip(ext_len);
  }
  return {std::nullopt, !c.ok()};
}

/// Scans consecutive TLS records for a Certificate handshake message.
/// `resume` receives the offset the scan would go on from: the start of
/// the record it was reading, or past a skipped record's end.
Scan scan_certificate_cn(std::span<const std::uint8_t> data,
                         std::size_t& resume) {
  Cursor c{data};
  for (;;) {
    resume = c.pos();
    if (c.remaining() < 5) return starved();
    const std::uint8_t content_type = c.u8();
    c.skip(2);  // version
    const std::uint16_t record_len = c.u16();
    if (content_type != kContentTypeHandshake) return {};
    const std::size_t record_end = c.pos() + record_len;
    const std::uint8_t handshake_type = c.u8();
    const std::uint32_t handshake_len = c.u24();
    if (!c.ok()) return starved();
    if (handshake_type == kHandshakeCertificate) {
      c.skip(3);  // certificate_list length
      c.skip(3);  // certificate length
      const std::uint16_t cn_len = c.u16();
      const auto bytes = c.bytes(cn_len);
      if (!c.ok()) return starved();
      return {std::string{reinterpret_cast<const char*>(bytes.data()),
                          bytes.size()}};
    }
    // Skip the rest of this record's handshake message and any padding.
    const std::size_t next = std::max(record_end, c.pos() + handshake_len);
    if (next > data.size()) {
      resume = next;
      return starved();
    }
    c.skip(next - c.pos());
  }
}

}  // namespace

std::optional<std::string> extract_sni(std::span<const std::uint8_t> data) {
  return scan_sni(data).value;
}

std::optional<std::string> extract_certificate_cn(
    std::span<const std::uint8_t> data) {
  std::size_t resume = 0;
  return scan_certificate_cn(data, resume).value;
}

void SniReader::feed(std::span<const std::uint8_t> bytes) {
  if (settled_) return;
  hello_.insert(hello_.end(), bytes.begin(), bytes.end());
  auto scan = scan_sni(hello_);
  if (scan.starved) return;
  sni_ = std::move(scan.value);
  settled_ = true;
  hello_ = {};
}

void CertificateReader::feed(std::span<const std::uint8_t> bytes) {
  if (settled_) return;
  const auto passed = std::min(skip_, bytes.size());
  skip_ -= passed;
  bytes = bytes.subspan(passed);
  if (bytes.empty()) return;
  record_.insert(record_.end(), bytes.begin(), bytes.end());
  std::size_t resume = 0;
  auto scan = scan_certificate_cn(record_, resume);
  if (!scan.starved) {
    cn_ = std::move(scan.value);
    settled_ = true;
    record_ = {};
  } else if (resume >= record_.size()) {
    skip_ = resume - record_.size();
    record_.clear();
  } else {
    record_.erase(record_.begin(),
                  record_.begin() + static_cast<std::ptrdiff_t>(resume));
  }
}

}  // namespace cs::proto
