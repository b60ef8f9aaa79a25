#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

/// Minimal TLS handshake codec.
///
/// The paper could not see inside HTTPS payloads; Bro instead surfaced the
/// SNI from ClientHello and the common name (CN) from the server
/// Certificate message, and the study keyed HTTPS traffic on those. We
/// implement real TLS record and handshake framing (record header,
/// HandshakeType, 24-bit lengths, ClientHello structure with the
/// server_name extension per RFC 6066). The certificate *body* is a
/// simplified stand-in for DER X.509: a length-prefixed CN string behind
/// the standard 3-byte certificate_list framing — enough to exercise the
/// same extraction path without a full ASN.1 stack (documented
/// substitution; see DESIGN.md).
namespace cs::proto {

/// Builds a TLS record containing a ClientHello with the given SNI.
std::vector<std::uint8_t> build_client_hello(const std::string& server_name);

/// Builds a TLS record containing a Certificate handshake message whose
/// (simplified) certificate carries the given common name.
std::vector<std::uint8_t> build_certificate(const std::string& common_name);

/// Extracts the SNI host from a byte stream that starts with a TLS
/// ClientHello record; nullopt if the stream is not such a record or
/// carries no server_name extension.
std::optional<std::string> extract_sni(std::span<const std::uint8_t> data);

/// Extracts the certificate common name from a server-to-client TLS byte
/// stream (scans records for a Certificate handshake message).
std::optional<std::string> extract_certificate_cn(
    std::span<const std::uint8_t> data);

/// extract_sni over a client-to-server stream that arrives in pieces: it
/// holds the stream's first bytes only until they settle the answer (the
/// ClientHello up to its server_name, or the first byte that rules one
/// out). value() is extract_sni of the bytes fed so far.
class SniReader {
 public:
  void feed(std::span<const std::uint8_t> bytes);
  const std::optional<std::string>& value() const noexcept { return sni_; }

 private:
  std::vector<std::uint8_t> hello_;
  std::optional<std::string> sni_;
  bool settled_ = false;
};

/// extract_certificate_cn over a server-to-client stream that arrives in
/// pieces: it holds the bytes of the one record it is reading, lets the
/// records before the Certificate pass without keeping them, and keeps
/// nothing once the answer is settled. value() is extract_certificate_cn
/// of the bytes fed so far.
class CertificateReader {
 public:
  void feed(std::span<const std::uint8_t> bytes);
  const std::optional<std::string>& value() const noexcept { return cn_; }

 private:
  std::vector<std::uint8_t> record_;  ///< from the current record's start
  std::size_t skip_ = 0;  ///< bytes of a passed record still to come
  std::optional<std::string> cn_;
  bool settled_ = false;
};

/// True if the stream plausibly begins with a TLS handshake record
/// (content type 22, recognized version) — the classifier's HTTPS check.
bool looks_like_tls(std::span<const std::uint8_t> data) noexcept;

}  // namespace cs::proto
