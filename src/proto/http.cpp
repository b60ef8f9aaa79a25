#include "proto/http.h"

#include <algorithm>
#include <charconv>
#include <type_traits>

#include "util/format.h"
#include "util/strings.h"

namespace cs::proto {
namespace {

/// Finds the end of a header block (the "\r\n\r\n"); npos when incomplete.
std::size_t find_head_end(std::span<const std::uint8_t> data,
                          std::size_t offset) {
  for (std::size_t i = offset; i + 3 < data.size(); ++i) {
    if (data[i] == '\r' && data[i + 1] == '\n' && data[i + 2] == '\r' &&
        data[i + 3] == '\n')
      return i;
  }
  return std::string::npos;
}

std::vector<std::string_view> head_lines(std::span<const std::uint8_t> data,
                                         std::size_t begin, std::size_t end) {
  const std::string_view text{
      reinterpret_cast<const char*>(data.data()) + begin, end - begin};
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    auto eol = text.find("\r\n", start);
    if (eol == std::string_view::npos) eol = text.size();
    lines.push_back(text.substr(start, eol - start));
    start = eol + 2;
  }
  return lines;
}

std::vector<HttpHeader> parse_headers(
    const std::vector<std::string_view>& lines) {
  std::vector<HttpHeader> headers;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto colon = lines[i].find(':');
    if (colon == std::string_view::npos) continue;  // tolerate junk lines
    headers.push_back(HttpHeader{
        std::string{util::trim(lines[i].substr(0, colon))},
        std::string{util::trim(lines[i].substr(colon + 1))}});
  }
  return headers;
}

std::optional<std::string> find_header(const std::vector<HttpHeader>& headers,
                                       std::string_view name) {
  for (const auto& h : headers)
    if (util::iequals(h.name, name)) return h.value;
  return std::nullopt;
}

}  // namespace

std::optional<std::string> HttpRequest::header(std::string_view name) const {
  return find_header(headers, name);
}

std::optional<std::string> HttpRequest::host() const {
  const auto h = header("host");
  if (!h) return std::nullopt;
  // Strip an optional port.
  const auto colon = h->find(':');
  return util::to_lower(colon == std::string::npos ? *h
                                                   : h->substr(0, colon));
}

std::optional<std::string> HttpResponse::header(std::string_view name) const {
  return find_header(headers, name);
}

std::optional<std::string> HttpResponse::content_type() const {
  const auto h = header("content-type");
  if (!h) return std::nullopt;
  const auto semi = h->find(';');
  return util::to_lower(std::string{util::trim(
      semi == std::string::npos ? *h : h->substr(0, semi))});
}

std::optional<std::uint64_t> HttpResponse::content_length() const {
  const auto h = header("content-length");
  if (!h) return std::nullopt;
  std::uint64_t value = 0;
  const auto [p, ec] =
      std::from_chars(h->data(), h->data() + h->size(), value);
  if (ec != std::errc{} || p != h->data() + h->size()) return std::nullopt;
  return value;
}

std::optional<HttpRequest> parse_request(std::span<const std::uint8_t> data,
                                         std::size_t& offset) {
  const auto head_end = find_head_end(data, offset);
  if (head_end == std::string::npos) return std::nullopt;
  const auto lines = head_lines(data, offset, head_end);
  if (lines.empty()) return std::nullopt;
  const auto parts = util::split_nonempty(lines[0], ' ');
  if (parts.size() != 3) return std::nullopt;
  if (!util::istarts_with(parts[2], "HTTP/")) return std::nullopt;
  HttpRequest req;
  req.method = std::string{parts[0]};
  req.target = std::string{parts[1]};
  req.version = std::string{parts[2]};
  req.headers = parse_headers(lines);
  offset = head_end + 4;
  return req;
}

std::optional<HttpResponse> parse_response(std::span<const std::uint8_t> data,
                                           std::size_t& offset) {
  const auto head_end = find_head_end(data, offset);
  if (head_end == std::string::npos) return std::nullopt;
  const auto lines = head_lines(data, offset, head_end);
  if (lines.empty()) return std::nullopt;
  const auto parts = util::split_nonempty(lines[0], ' ');
  if (parts.size() < 2 || !util::istarts_with(parts[0], "HTTP/"))
    return std::nullopt;
  HttpResponse resp;
  resp.version = std::string{parts[0]};
  const auto [p, ec] = std::from_chars(
      parts[1].data(), parts[1].data() + parts[1].size(), resp.status);
  if (ec != std::errc{} || resp.status < 100 || resp.status > 599)
    return std::nullopt;
  for (std::size_t i = 2; i < parts.size(); ++i) {
    if (!resp.reason.empty()) resp.reason += ' ';
    resp.reason += parts[i];
  }
  resp.headers = parse_headers(lines);
  offset = head_end + 4;
  // Skip the body so pipelined responses can be parsed; a truncated body
  // (payload cap) simply consumes to the end of the buffer.
  if (const auto len = resp.content_length())
    offset += static_cast<std::size_t>(
        std::min<std::uint64_t>(*len, data.size() - offset));
  return resp;
}

std::vector<HttpRequest> parse_requests(std::span<const std::uint8_t> data) {
  std::vector<HttpRequest> out;
  std::size_t offset = 0;
  while (offset < data.size()) {
    auto req = parse_request(data, offset);
    if (!req) break;
    out.push_back(*std::move(req));
  }
  return out;
}

std::vector<HttpResponse> parse_responses(
    std::span<const std::uint8_t> data) {
  std::vector<HttpResponse> out;
  std::size_t offset = 0;
  while (offset < data.size()) {
    auto resp = parse_response(data, offset);
    if (!resp) break;
    out.push_back(*std::move(resp));
  }
  return out;
}

template <typename Message>
void HeadReader<Message>::feed(std::span<const std::uint8_t> bytes) {
  while (!bytes.empty() && !stopped_) {
    if (body_left_ > 0) {
      const auto passed = static_cast<std::size_t>(
          std::min<std::uint64_t>(body_left_, bytes.size()));
      body_left_ -= passed;
      bytes = bytes.subspan(passed);
      continue;
    }
    // A head that starts in `bytes` is read in place; only one that a
    // piece leaves unfinished is held.
    const std::size_t held = head_.size();
    std::span<const std::uint8_t> head = bytes;
    if (held > 0) {
      head_.insert(head_.end(), bytes.begin(), bytes.end());
      head = head_;
    }
    const auto end = find_head_end(head, scanned_);
    if (end == std::string::npos) {
      if (held == 0) head_.assign(bytes.begin(), bytes.end());
      scanned_ = head_.size() < 3 ? 0 : head_.size() - 3;
      return;
    }
    // What follows the head is body or the next head, read from `bytes`
    // on the next turn.
    head = head.first(end + 4);
    bytes = bytes.subspan(end + 4 - held);
    constexpr bool kResponse = std::is_same_v<Message, HttpResponse>;
    std::size_t offset = 0;
    std::optional<Message> message;
    if constexpr (kResponse)
      message = parse_response(head, offset);
    else
      message = parse_request(head, offset);
    head_ = {};
    scanned_ = 0;
    if (!message) {
      stopped_ = true;
      return;
    }
    if constexpr (kResponse)
      body_left_ = message->content_length().value_or(0);
    messages_.push_back(*std::move(message));
  }
}

template class HeadReader<HttpRequest>;
template class HeadReader<HttpResponse>;

std::vector<std::uint8_t> build_request(const std::string& method,
                                        const std::string& host,
                                        const std::string& target) {
  const std::string text = util::fmt(
      "{} {} HTTP/1.1\r\nHost: {}\r\nUser-Agent: cloudscope/1.0\r\n"
      "Accept: */*\r\n\r\n",
      method, target, host);
  return {text.begin(), text.end()};
}

std::string build_response_head(int status, const std::string& content_type,
                                std::uint64_t body_bytes) {
  return util::fmt(
      "HTTP/1.1 {} {}\r\nServer: cloudscope\r\nContent-Type: {}\r\n"
      "Content-Length: {}\r\n\r\n",
      status, status == 200 ? "OK" : "Status", content_type, body_bytes);
}

std::vector<std::uint8_t> build_response(int status,
                                         const std::string& content_type,
                                         std::uint64_t body_bytes,
                                         std::size_t emit_body_cap) {
  const std::string head = build_response_head(status, content_type, body_bytes);
  std::vector<std::uint8_t> out{head.begin(), head.end()};
  const std::size_t emit =
      static_cast<std::size_t>(std::min<std::uint64_t>(body_bytes,
                                                       emit_body_cap));
  out.insert(out.end(), emit, static_cast<std::uint8_t>('x'));
  return out;
}

}  // namespace cs::proto
