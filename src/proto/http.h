#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

/// HTTP/1.1 message parsing and synthesis — the fields Bro extracted for
/// the study: request hostnames (Table 5), response Content-Type and
/// Content-Length (Table 6).
namespace cs::proto {

struct HttpHeader {
  std::string name;   ///< original case preserved
  std::string value;  ///< trimmed

  bool operator==(const HttpHeader&) const = default;
};

struct HttpRequest {
  std::string method;
  std::string target;
  std::string version;  ///< "HTTP/1.1"
  std::vector<HttpHeader> headers;

  /// Case-insensitive header lookup; first match.
  std::optional<std::string> header(std::string_view name) const;
  /// The Host header (lower-cased), if present.
  std::optional<std::string> host() const;

  bool operator==(const HttpRequest&) const = default;
};

struct HttpResponse {
  std::string version;
  int status = 0;
  std::string reason;
  std::vector<HttpHeader> headers;

  std::optional<std::string> header(std::string_view name) const;
  /// Content-Type with any ";charset=..." parameters stripped, lower-cased.
  std::optional<std::string> content_type() const;
  /// Parsed Content-Length, if present and valid.
  std::optional<std::uint64_t> content_length() const;

  bool operator==(const HttpResponse&) const = default;
};

/// Parses one request head starting at `offset` in `data`. On success
/// returns the request and advances `offset` past the blank line (request
/// bodies are not consumed; the study's requests are GETs).
std::optional<HttpRequest> parse_request(std::span<const std::uint8_t> data,
                                         std::size_t& offset);

/// Parses one response head at `offset` and advances past the head AND
/// `Content-Length` body bytes (so consecutive responses in a reassembled
/// stream can be iterated). A body longer than the buffer consumes to end.
std::optional<HttpResponse> parse_response(std::span<const std::uint8_t> data,
                                           std::size_t& offset);

/// Parses all pipelined requests / responses in a payload buffer.
std::vector<HttpRequest> parse_requests(std::span<const std::uint8_t> data);
std::vector<HttpResponse> parse_responses(std::span<const std::uint8_t> data);

/// parse_requests (HttpRequest) or parse_responses (HttpResponse) over a
/// stream that arrives in pieces, as one direction of a flow does. It
/// keeps only the bytes of the one head not yet complete, lets a
/// response body pass by its Content-Length without keeping it, and
/// stops where those functions stop, at the first head that does not
/// parse. After any split of a stream into feed() calls, messages() is
/// what the whole-buffer function returns for the bytes fed so far.
template <typename Message>
class HeadReader {
 public:
  void feed(std::span<const std::uint8_t> bytes);
  std::vector<Message>& messages() noexcept { return messages_; }

 private:
  std::vector<std::uint8_t> head_;  ///< the unfinished head's bytes
  std::size_t scanned_ = 0;  ///< no head end starts in head_ before this
  std::uint64_t body_left_ = 0;  ///< body bytes still to let pass
  bool stopped_ = false;
  std::vector<Message> messages_;
};

using RequestReader = HeadReader<HttpRequest>;
using ResponseReader = HeadReader<HttpResponse>;

/// Serializers used by the traffic generator.
std::vector<std::uint8_t> build_request(const std::string& method,
                                        const std::string& host,
                                        const std::string& target);
/// The head build_response starts with.
std::string build_response_head(int status, const std::string& content_type,
                                std::uint64_t body_bytes);
/// Builds a response head plus `body_bytes` of filler body (capped by
/// `emit_body_cap` to keep trace sizes manageable while Content-Length
/// still reports the logical size).
std::vector<std::uint8_t> build_response(int status,
                                         const std::string& content_type,
                                         std::uint64_t body_bytes,
                                         std::size_t emit_body_cap = 1024);

}  // namespace cs::proto
