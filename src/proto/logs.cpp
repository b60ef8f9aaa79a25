#include "proto/logs.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "exec/parallel.h"
#include "proto/tls.h"

namespace cs::proto {
namespace {

/// Flows per analysis chunk. Fixed, so the chunking never depends on the
/// pool size (records are concatenated in flow order either way).
constexpr std::size_t kFlowGrain = 64;

/// Appends one flow's records to `logs`. `scratch` gathers a payload held
/// as several views: each direction is read out of it before the other
/// direction's bytes() may overwrite it.
void analyze_flow(const pcap::Flow& flow, std::vector<std::uint8_t>& scratch,
                  TraceLogs& logs) {
  ConnRecord conn;
  conn.tuple = flow.tuple;
  const auto to_responder = flow.payload_to_responder.bytes(scratch);
  conn.service = classify(flow.tuple, to_responder);
  conn.first_ts = flow.first_ts;
  conn.duration = flow.duration();
  conn.bytes = flow.bytes;
  conn.packets = flow.packets;

  if (conn.service == Service::kHttp) {
    const auto requests = parse_requests(to_responder);
    const auto responses =
        parse_responses(flow.payload_to_initiator.bytes(scratch));
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
  } else if (conn.service == Service::kHttps) {
    SslRecord rec;
    rec.sni = extract_sni(to_responder);
    rec.certificate_cn =
        extract_certificate_cn(flow.payload_to_initiator.bytes(scratch));
    // The paper used the certificate CN as the hostname proxy for HTTPS;
    // fall back to SNI when the certificate is unreadable.
    conn.hostname = rec.certificate_cn ? rec.certificate_cn : rec.sni;
    logs.ssl.push_back(std::move(rec));
  }

  logs.conns.push_back(std::move(conn));
}

/// One chunk's records, with each conn's record ends within the chunk.
struct Chunk {
  TraceLogs logs;
  std::vector<std::size_t> http_end;
  std::vector<std::size_t> ssl_end;
};

std::vector<Chunk> analyze_chunks(std::span<const pcap::Flow> flows) {
  const std::size_t chunks = (flows.size() + kFlowGrain - 1) / kFlowGrain;
  return exec::parallel_map(
      chunks,
      [&](std::size_t c) {
        Chunk chunk;
        std::vector<std::uint8_t> scratch;
        const auto end = std::min(flows.size(), (c + 1) * kFlowGrain);
        for (std::size_t i = c * kFlowGrain; i < end; ++i) {
          analyze_flow(flows[i], scratch, chunk.logs);
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
  for (auto& chunk : analyze_chunks(flows)) move_append(logs, chunk.logs);
  return logs;
}

void LogCollector::add(std::span<const pcap::Flow> flows) {
  for (auto& chunk : analyze_chunks(flows)) {
    for (const auto end : chunk.http_end)
      http_end_.push_back(logs_.http.size() + end);
    for (const auto end : chunk.ssl_end)
      ssl_end_.push_back(logs_.ssl.size() + end);
    move_append(logs_, chunk.logs);
  }
}

TraceLogs LogCollector::finish() {
  std::vector<std::size_t> order(logs_.conns.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return pcap::FlowOrder{}(logs_.conns[a], logs_.conns[b]);
                   });
  TraceLogs out;
  out.conns.reserve(logs_.conns.size());
  out.http.reserve(logs_.http.size());
  out.ssl.reserve(logs_.ssl.size());
  for (const auto i : order) {
    out.conns.push_back(std::move(logs_.conns[i]));
    for (auto j = i ? http_end_[i - 1] : 0; j < http_end_[i]; ++j)
      out.http.push_back(std::move(logs_.http[j]));
    for (auto j = i ? ssl_end_[i - 1] : 0; j < ssl_end_[i]; ++j)
      out.ssl.push_back(std::move(logs_.ssl[j]));
  }
  *this = LogCollector{};
  return out;
}

}  // namespace cs::proto
