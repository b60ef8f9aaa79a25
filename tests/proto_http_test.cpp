#include "proto/http.h"

#include <gtest/gtest.h>

#include <string>

namespace cs::proto {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view text) {
  return {text.begin(), text.end()};
}

TEST(Http, ParseSimpleRequest) {
  const auto data = bytes_of(
      "GET /index.html HTTP/1.1\r\nHost: www.dropbox.com\r\n"
      "User-Agent: test\r\n\r\n");
  std::size_t offset = 0;
  const auto req = parse_request(data, offset);
  ASSERT_TRUE(req);
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->target, "/index.html");
  EXPECT_EQ(req->version, "HTTP/1.1");
  EXPECT_EQ(req->host().value_or(""), "www.dropbox.com");
  EXPECT_EQ(offset, data.size());
}

TEST(Http, HostCaseAndPortNormalized) {
  const auto data =
      bytes_of("GET / HTTP/1.1\r\nHoSt: WWW.Example.COM:8080\r\n\r\n");
  std::size_t offset = 0;
  const auto req = parse_request(data, offset);
  ASSERT_TRUE(req);
  EXPECT_EQ(req->host().value_or(""), "www.example.com");
}

TEST(Http, MissingHostIsNullopt) {
  const auto data = bytes_of("GET / HTTP/1.1\r\nAccept: */*\r\n\r\n");
  std::size_t offset = 0;
  const auto req = parse_request(data, offset);
  ASSERT_TRUE(req);
  EXPECT_FALSE(req->host());
}

TEST(Http, IncompleteHeadRejected) {
  const auto data = bytes_of("GET / HTTP/1.1\r\nHost: x\r\n");  // no blank
  std::size_t offset = 0;
  EXPECT_FALSE(parse_request(data, offset));
  EXPECT_EQ(offset, 0u);
}

TEST(Http, NonHttpRejected) {
  const auto data = bytes_of("\x16\x03\x01random tls bytes\r\n\r\n");
  std::size_t offset = 0;
  EXPECT_FALSE(parse_request(data, offset));
}

TEST(Http, ParseResponseWithBody) {
  const auto data = bytes_of(
      "HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n"
      "Content-Length: 5\r\n\r\nhello");
  std::size_t offset = 0;
  const auto resp = parse_response(data, offset);
  ASSERT_TRUE(resp);
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->reason, "OK");
  EXPECT_EQ(resp->content_type().value_or(""), "text/html");
  EXPECT_EQ(resp->content_length().value_or(0), 5u);
  EXPECT_EQ(offset, data.size());
}

TEST(Http, PipelinedResponses) {
  std::string text;
  text += "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
          "Content-Length: 3\r\n\r\nabc";
  text += "HTTP/1.1 404 Not Found\r\nContent-Type: image/png\r\n"
          "Content-Length: 0\r\n\r\n";
  const auto responses = parse_responses(bytes_of(text));
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[1].status, 404);
  EXPECT_EQ(responses[1].content_type().value_or(""), "image/png");
}

TEST(Http, TruncatedBodyConsumesToEnd) {
  const auto data = bytes_of(
      "HTTP/1.1 200 OK\r\nContent-Length: 1000000\r\n\r\npartial");
  std::size_t offset = 0;
  const auto resp = parse_response(data, offset);
  ASSERT_TRUE(resp);
  EXPECT_EQ(resp->content_length().value_or(0), 1000000u);
  EXPECT_EQ(offset, data.size());
}

// A Content-Length near 2^64 also consumes to the end. Added to the
// offset unchecked, this one wraps it back to the head, which the
// pipelined parse then read again without end.
TEST(Http, ContentLengthThatWrapsTheOffsetConsumesToEnd) {
  const std::string prefix = "HTTP/1.1 200 OK\r\nContent-Length: ";
  const std::uint64_t head_bytes = prefix.size() + 20 + 4;
  const std::string length = std::to_string(std::uint64_t{0} - head_bytes);
  ASSERT_EQ(length.size(), 20u);
  const auto data = bytes_of(prefix + length + "\r\n\r\nbody");
  std::size_t offset = 0;
  ASSERT_TRUE(parse_response(data, offset));
  EXPECT_EQ(offset, data.size());
  EXPECT_EQ(parse_responses(data).size(), 1u);
}

TEST(Http, BadStatusRejected) {
  for (const auto* line :
       {"HTTP/1.1 XX OK\r\n\r\n", "HTTP/1.1 99 Low\r\n\r\n",
        "HTTP/1.1 600 High\r\n\r\n", "NOTHTTP 200 OK\r\n\r\n"}) {
    std::size_t offset = 0;
    EXPECT_FALSE(parse_response(bytes_of(line), offset)) << line;
  }
}

TEST(Http, InvalidContentLengthIsNullopt) {
  const auto data =
      bytes_of("HTTP/1.1 200 OK\r\nContent-Length: 12x\r\n\r\n");
  std::size_t offset = 0;
  const auto resp = parse_response(data, offset);
  ASSERT_TRUE(resp);
  EXPECT_FALSE(resp->content_length());
}

TEST(Http, PipelinedRequests) {
  std::string text;
  text += "GET /a HTTP/1.1\r\nHost: a.com\r\n\r\n";
  text += "GET /b HTTP/1.1\r\nHost: b.com\r\n\r\n";
  const auto requests = parse_requests(bytes_of(text));
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].host().value_or(""), "a.com");
  EXPECT_EQ(requests[1].host().value_or(""), "b.com");
}

TEST(Http, BuildRequestParsesBack) {
  const auto data = build_request("GET", "cdn.pinterest.com", "/img/1.jpg");
  std::size_t offset = 0;
  const auto req = parse_request(data, offset);
  ASSERT_TRUE(req);
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->target, "/img/1.jpg");
  EXPECT_EQ(req->host().value_or(""), "cdn.pinterest.com");
}

TEST(Http, BuildResponseParsesBackWithLogicalLength) {
  // 1 MB logical body, 64-byte emitted body.
  const auto data = build_response(200, "application/pdf", 1 << 20, 64);
  std::size_t offset = 0;
  const auto resp = parse_response(data, offset);
  ASSERT_TRUE(resp);
  EXPECT_EQ(resp->content_type().value_or(""), "application/pdf");
  EXPECT_EQ(resp->content_length().value_or(0), 1u << 20);
  EXPECT_LT(data.size(), 1024u);
}

TEST(Http, HeaderLookupFirstMatchWins) {
  const auto data = bytes_of(
      "HTTP/1.1 200 OK\r\nX-Dup: first\r\nX-Dup: second\r\n\r\n");
  std::size_t offset = 0;
  const auto resp = parse_response(data, offset);
  ASSERT_TRUE(resp);
  EXPECT_EQ(resp->header("x-dup").value_or(""), "first");
}

}  // namespace
}  // namespace cs::proto
