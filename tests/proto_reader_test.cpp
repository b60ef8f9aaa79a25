// Differential tests of the stream readers: fed any split of a stream,
// each reader answers exactly as its whole-buffer function does for the
// bytes fed so far.
#include <gtest/gtest.h>

#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "proto/http.h"
#include "proto/tls.h"
#include "util/rng.h"

namespace cs::proto {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes bytes_of(std::string_view text) { return {text.begin(), text.end()}; }

Bytes cat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

/// Feeds `data` to a fresh Reader in two pieces, split at every point,
/// then one byte at a time. After every piece, `read(reader)` must equal
/// `whole` of the bytes fed so far.
template <typename Reader, typename Whole, typename Read>
void expect_every_split(const Bytes& data, Whole whole, Read read) {
  const std::span<const std::uint8_t> all{data};
  for (std::size_t k = 0; k <= data.size(); ++k) {
    Reader reader;
    reader.feed(all.first(k));
    ASSERT_EQ(read(reader), whole(all.first(k))) << "first piece " << k;
    reader.feed(all.subspan(k));
    ASSERT_EQ(read(reader), whole(all)) << "split at " << k;
  }
  Reader reader;
  for (std::size_t k = 0; k < data.size(); ++k) {
    reader.feed(all.subspan(k, 1));
    ASSERT_EQ(read(reader), whole(all.first(k + 1))) << "byte " << k;
  }
}

void expect_requests_match(const Bytes& data) {
  expect_every_split<RequestReader>(
      data, [](auto bytes) { return parse_requests(bytes); },
      [](RequestReader& r) { return r.messages(); });
}

void expect_responses_match(const Bytes& data) {
  expect_every_split<ResponseReader>(
      data, [](auto bytes) { return parse_responses(bytes); },
      [](ResponseReader& r) { return r.messages(); });
}

void expect_sni_matches(const Bytes& data) {
  expect_every_split<SniReader>(
      data, [](auto bytes) { return extract_sni(bytes); },
      [](const SniReader& r) { return r.value(); });
}

void expect_cn_matches(const Bytes& data) {
  expect_every_split<CertificateReader>(
      data, [](auto bytes) { return extract_certificate_cn(bytes); },
      [](const CertificateReader& r) { return r.value(); });
}

TEST(StreamReaders, PipelinedRequests) {
  const auto data = cat({build_request("GET", "a.example.com", "/1"),
                         build_request("HEAD", "b.example.com:8080", "/2"),
                         build_request("GET", "c.example.com", "/3")});
  ASSERT_EQ(parse_requests(data).size(), 3u);
  expect_requests_match(data);
}

TEST(StreamReaders, PipelinedResponsesWithBodiesAtTheirLength) {
  const auto data = cat({build_response(200, "text/html", 10, 10),
                         build_response(404, "text/plain", 0, 0),
                         build_response(200, "image/png", 20, 20)});
  ASSERT_EQ(parse_responses(data).size(), 3u);
  expect_responses_match(data);
}

TEST(StreamReaders, BodyShorterThanContentLengthSwallowsTheNextHead) {
  const auto data = cat({build_response(200, "text/html", 100, 10),
                         build_response(200, "image/png", 20, 20)});
  ASSERT_EQ(parse_responses(data).size(), 1u);
  expect_responses_match(data);
  // Cut by the capture: the last body ends early.
  expect_responses_match(cat({build_response(200, "text/html", 10, 10),
                              build_response(200, "video/mp4", 5000, 30)}));
}

TEST(StreamReaders, BodyLongerThanContentLengthStopsTheParse) {
  const auto data = cat({build_response(200, "text/html", 5, 5),
                         bytes_of("xxxxx"),
                         build_response(200, "image/png", 20, 20)});
  ASSERT_EQ(parse_responses(data).size(), 1u);
  expect_responses_match(data);
}

TEST(StreamReaders, ContentLengthNearTwoToThe64) {
  const auto data = cat({bytes_of("HTTP/1.1 200 OK\r\nContent-Length: "
                                  "18446744073709551560\r\n\r\n"),
                         build_response(200, "image/png", 20, 20)});
  ASSERT_EQ(parse_responses(data).size(), 1u);
  expect_responses_match(data);
}

TEST(StreamReaders, ResponseWithoutContentLength) {
  const auto data =
      cat({bytes_of("HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\n"
                    "a body\r\n\r\nwith a blank line"),
           build_response(200, "image/png", 20, 20)});
  ASSERT_EQ(parse_responses(data).size(), 1u);
  expect_responses_match(data);
}

TEST(StreamReaders, UnterminatedHead) {
  expect_requests_match(
      cat({build_request("GET", "a.example.com", "/"),
           bytes_of("GET /next HTTP/1.1\r\nHost: b.example.com\r\n")}));
  expect_responses_match(
      cat({build_response(200, "text/html", 4, 4),
           bytes_of("HTTP/1.1 200 OK\r\nContent-Length: 3\r")}));
}

TEST(StreamReaders, MalformedHeadStopsEveryLaterMessage) {
  expect_requests_match(
      cat({build_request("GET", "a.example.com", "/"),
           bytes_of("NOT A REQUEST LINE\r\n\r\n"),
           build_request("GET", "c.example.com", "/")}));
  expect_responses_match(cat({build_response(200, "text/html", 4, 4),
                              bytes_of("HTTP/1.1 999 Nope\r\n\r\n"),
                              build_response(200, "text/html", 4, 4)}));
}

/// A handshake record of `type` with a `body_bytes` body. With
/// `handshake_extra`, the handshake header claims that many bytes more
/// than the record holds, so a scan skips past the record's end.
Bytes handshake_record(std::uint8_t type, std::size_t body_bytes,
                       std::size_t handshake_extra = 0) {
  const std::size_t handshake = body_bytes + handshake_extra;
  Bytes out{22, 0x03, 0x03, 0, 0, type,
            static_cast<std::uint8_t>(handshake >> 16),
            static_cast<std::uint8_t>(handshake >> 8),
            static_cast<std::uint8_t>(handshake)};
  out.insert(out.end(), body_bytes, 0xEE);
  const std::size_t record = 4 + body_bytes;
  out[3] = static_cast<std::uint8_t>(record >> 8);
  out[4] = static_cast<std::uint8_t>(record);
  return out;
}

TEST(StreamReaders, CertificateAfterOtherHandshakeRecords) {
  const auto cert = build_certificate("*.example.com");
  // ServerHello, then the Certificate.
  expect_cn_matches(cat({handshake_record(2, 70), cert}));
  // A record whose handshake runs past its end: the scan skips by the
  // handshake length, into the next record's bytes.
  expect_cn_matches(cat({handshake_record(2, 10, 5), bytes_of("12345"),
                         cert, Bytes(40, 0x17)}));
  // Application data after the certificate changes nothing.
  expect_cn_matches(cat({cert, Bytes(300, 0x5A)}));
}

TEST(StreamReaders, ClientHelloCutMidExtension) {
  const auto hello = build_client_hello("client1.dropbox.com");
  // The server_name extension is the hello's last bytes; stop inside it.
  const Bytes cut{hello.begin(), hello.end() - 7};
  ASSERT_FALSE(extract_sni(cut));
  expect_sni_matches(cut);
  expect_sni_matches(hello);
  expect_sni_matches(cat({hello, Bytes(200, 0x17)}));
}

TEST(StreamReaders, NonHandshakeContentType) {
  auto data = build_client_hello("a.example.com");
  data[0] = 23;  // application data
  expect_sni_matches(data);
  auto cert = build_certificate("*.example.com");
  cert[0] = 21;  // alert
  expect_cn_matches(cat({cert, build_certificate("*.example.com")}));
}

TEST(StreamReaders, GarbageBytes) {
  util::Rng rng{99};
  for (int round = 0; round < 4; ++round) {
    Bytes data(97);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
    if (round % 2) data[0] = 22;  // past the content-type check
    if (round == 3) data[1] = 3;
    expect_requests_match(data);
    expect_responses_match(data);
    expect_sni_matches(data);
    expect_cn_matches(data);
  }
}

TEST(StreamReaders, EveryReaderOnEveryOtherStream) {
  const auto http = cat({build_request("GET", "a.example.com", "/"),
                         build_response(200, "text/html", 4, 4)});
  const auto tls = cat({build_client_hello("a.example.com"),
                        build_certificate("*.example.com")});
  for (const auto* data : {&http, &tls}) {
    expect_requests_match(*data);
    expect_responses_match(*data);
    expect_sni_matches(*data);
    expect_cn_matches(*data);
  }
}

}  // namespace
}  // namespace cs::proto
