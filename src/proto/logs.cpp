#include "proto/logs.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <utility>

#include "exec/parallel.h"

namespace cs::proto {
namespace {

/// Flows per analysis chunk. Fixed, so the chunking never depends on the
/// pool size (records are concatenated in flow order either way).
constexpr std::size_t kFlowGrain = 64;

/// Appends one flow's records to `logs`: its conn record, and the http
/// records pairing `requests` with `responses` or the ssl record `ssl`,
/// as `service` asks. Both ways of reading a flow end here.
void append_records(const pcap::FlowStats& flow, Service service,
                    std::span<const HttpRequest> requests,
                    std::span<const HttpResponse> responses, SslRecord ssl,
                    TraceLogs& logs) {
  ConnRecord conn;
  conn.tuple = flow.tuple;
  conn.service = service;
  conn.first_ts = flow.first_ts;
  conn.duration = flow.duration();
  conn.bytes = flow.bytes;
  conn.packets = flow.packets;

  if (service == Service::kHttp) {
    for (std::size_t i = 0; i < responses.size(); ++i) {
      HttpRecord rec;
      if (i < requests.size()) {
        rec.host = requests[i].host().value_or("");
        rec.method = requests[i].method;
        rec.target = requests[i].target;
      } else if (!requests.empty()) {
        rec.host = requests.front().host().value_or("");
      }
      rec.status = responses[i].status;
      rec.content_type = responses[i].content_type();
      rec.content_length = responses[i].content_length();
      logs.http.push_back(std::move(rec));
    }
    // Requests without responses (capture truncation) still record hosts.
    if (responses.empty()) {
      for (const auto& req : requests) {
        HttpRecord rec;
        rec.host = req.host().value_or("");
        rec.method = req.method;
        rec.target = req.target;
        logs.http.push_back(std::move(rec));
      }
    }
    if (!requests.empty()) conn.hostname = requests.front().host();
  } else if (service == Service::kHttps) {
    // The paper used the certificate CN as the hostname proxy for HTTPS;
    // fall back to SNI when the certificate is unreadable.
    conn.hostname = ssl.certificate_cn ? ssl.certificate_cn : ssl.sni;
    logs.ssl.push_back(std::move(ssl));
  }

  logs.conns.push_back(std::move(conn));
}

/// analyze_flows' reading of one flow: the whole-buffer parsers over its
/// payloads.
void analyze_flow(const pcap::Flow& flow, TraceLogs& logs) {
  const auto service = classify(flow.tuple, flow.payload_to_responder);
  std::vector<HttpRequest> requests;
  std::vector<HttpResponse> responses;
  SslRecord ssl;
  if (service == Service::kHttp) {
    requests = parse_requests(flow.payload_to_responder);
    responses = parse_responses(flow.payload_to_initiator);
  } else if (service == Service::kHttps) {
    ssl.sni = extract_sni(flow.payload_to_responder);
    ssl.certificate_cn = extract_certificate_cn(flow.payload_to_initiator);
  }
  append_records(flow, service, requests, responses, std::move(ssl), logs);
}

/// One chunk's records, with each conn's record ends within the chunk.
struct Chunk {
  TraceLogs logs;
  std::vector<std::size_t> http_end;
  std::vector<std::size_t> ssl_end;
};

template <typename F, typename Analyze>
std::vector<Chunk> analyze_chunks(std::span<F> flows, Analyze analyze) {
  const std::size_t chunks = (flows.size() + kFlowGrain - 1) / kFlowGrain;
  return exec::parallel_map(
      chunks,
      [&](std::size_t c) {
        Chunk chunk;
        const auto end = std::min(flows.size(), (c + 1) * kFlowGrain);
        for (std::size_t i = c * kFlowGrain; i < end; ++i) {
          analyze(flows[i], chunk.logs);
          chunk.http_end.push_back(chunk.logs.http.size());
          chunk.ssl_end.push_back(chunk.logs.ssl.size());
        }
        return chunk;
      },
      /*grain=*/1);
}

template <typename T>
void move_append(std::vector<T>& to, std::vector<T>& from) {
  to.insert(to.end(), std::make_move_iterator(from.begin()),
            std::make_move_iterator(from.end()));
}

void move_append(TraceLogs& to, TraceLogs& from) {
  move_append(to.conns, from.conns);
  move_append(to.http, from.http);
  move_append(to.ssl, from.ssl);
}

}  // namespace

TraceLogs analyze_flows(const std::vector<pcap::Flow>& flows) {
  TraceLogs logs;
  logs.conns.reserve(flows.size());
  for (auto& chunk : analyze_chunks(std::span{flows}, analyze_flow))
    move_append(logs, chunk.logs);
  return logs;
}

void StreamFlow::take(bool to_responder, std::span<const std::uint8_t> segment,
                      std::size_t cap) {
  // classify() reads no payload off TCP, and only web flows get records
  // from theirs.
  if (tuple.proto != net::IpProto::kTcp) return;
  auto& taken = to_responder ? taken_to_responder_ : taken_to_initiator_;
  segment = segment.first(std::min(taken < cap ? cap - taken : 0,
                                   segment.size()));
  if (segment.empty()) return;
  taken += segment.size();
  if (!readers_) readers_ = std::make_unique<Readers>();
  auto& r = *readers_;
  if (to_responder && !r.service) {
    const auto n = std::min(segment.size(), r.head.size() - r.head_size);
    std::copy_n(segment.begin(), n, r.head.begin() + r.head_size);
    r.head_size += n;
    if (r.head_size == r.head.size()) {
      // The service is settled: drop the readers it does not read.
      r.service = classify(tuple, r.head);
      if (*r.service != Service::kHttp) {
        r.requests = {};
        r.responses = {};
      }
      if (*r.service != Service::kHttps) {
        r.sni = {};
        r.certificate = {};
      }
    }
  }
  const bool http = !r.service || *r.service == Service::kHttp;
  const bool https = !r.service || *r.service == Service::kHttps;
  if (to_responder) {
    if (http) r.requests.feed(segment);
    if (https) r.sni.feed(segment);
  } else {
    if (http) r.responses.feed(segment);
    if (https) r.certificate.feed(segment);
  }
}

Service StreamFlow::service() const {
  if (!readers_) return classify(tuple, {});
  if (readers_->service) return *readers_->service;
  return classify(tuple, std::span{readers_->head}.first(readers_->head_size));
}

void StreamFlow::record(TraceLogs& logs) {
  if (!readers_) {
    append_records(*this, service(), {}, {}, {}, logs);
    return;
  }
  auto& r = *readers_;
  append_records(*this, service(), r.requests.messages(),
                 r.responses.messages(),
                 SslRecord{r.sni.value(), r.certificate.value()}, logs);
}

StreamAnalyzer::StreamAnalyzer(pcap::FlowOptions options)
    : flows_(options) {}

void StreamAnalyzer::feed(std::span<const pcap::Packet> batch) {
  flows_.feed(batch);
}

void StreamAnalyzer::end_unit() {
  auto flows = flows_.take_flows();
  const auto record = [](StreamFlow& flow, TraceLogs& logs) {
    flow.record(logs);
  };
  for (auto& chunk : analyze_chunks(std::span{flows}, record)) {
    for (const auto end : chunk.http_end)
      http_end_.push_back(logs_.http.size() + end);
    for (const auto end : chunk.ssl_end)
      ssl_end_.push_back(logs_.ssl.size() + end);
    move_append(logs_, chunk.logs);
  }
}

TraceLogs StreamAnalyzer::finish() {
  end_unit();
  auto logs = std::exchange(logs_, {});
  const auto http_end = std::exchange(http_end_, {});
  const auto ssl_end = std::exchange(ssl_end_, {});
  std::vector<std::size_t> order(logs.conns.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return pcap::FlowOrder{}(logs.conns[a], logs.conns[b]);
                   });
  TraceLogs out;
  out.conns.reserve(logs.conns.size());
  out.http.reserve(logs.http.size());
  out.ssl.reserve(logs.ssl.size());
  for (const auto i : order) {
    out.conns.push_back(std::move(logs.conns[i]));
    for (auto j = i ? http_end[i - 1] : 0; j < http_end[i]; ++j)
      out.http.push_back(std::move(logs.http[j]));
    for (auto j = i ? ssl_end[i - 1] : 0; j < ssl_end[i]; ++j)
      out.ssl.push_back(std::move(logs.ssl[j]));
  }
  return out;
}

}  // namespace cs::proto
