#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pcap/flow.h"
#include "proto/classify.h"
#include "proto/http.h"

/// Bro-style log records distilled from assembled flows: one conn record
/// per flow plus HTTP/SSL application records. These are the inputs to
/// every packet-capture analysis in §3.
namespace cs::proto {

/// Per-flow connection record (Bro's conn.log analogue).
struct ConnRecord {
  net::FiveTuple tuple;
  Service service = Service::kOtherTcp;
  double first_ts = 0.0;
  double duration = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
  /// Hostname evidence: HTTP Host header, or TLS SNI, or the certificate
  /// common name — whichever the flow yields first (Table 5's keying).
  std::optional<std::string> hostname;
};

/// One HTTP response observed inside a flow (http.log analogue).
struct HttpRecord {
  std::string host;             ///< from the paired request (may be empty)
  std::string method;
  std::string target;
  int status = 0;
  std::optional<std::string> content_type;
  std::optional<std::uint64_t> content_length;
};

/// One TLS handshake observed (ssl.log analogue).
struct SslRecord {
  std::optional<std::string> sni;
  std::optional<std::string> certificate_cn;
};

struct TraceLogs {
  std::vector<ConnRecord> conns;
  std::vector<HttpRecord> http;
  std::vector<SslRecord> ssl;
};

/// Runs classification plus HTTP/TLS extraction over all flows; records
/// come out in flow order. Flows are analysed in fixed chunks over the
/// exec pool, so the result is the same at every CS_THREADS.
TraceLogs analyze_flows(const std::vector<pcap::Flow>& flows);

/// Builds a capture's logs one closed unit at a time: add() analyses a
/// unit's flows while the frames they borrow are alive and keeps only
/// their records; finish() hands back every flow's records ordered by
/// pcap::FlowOrder and leaves the collector empty. For tuple-disjoint
/// units that is byte-identical to analyze_flows over the
/// FlowAssembler-assembled whole capture.
class LogCollector {
 public:
  void add(std::span<const pcap::Flow> flows);
  TraceLogs finish();

 private:
  TraceLogs logs_;  ///< in the order flows were added
  /// Per conn, one past its last record in logs_.http / logs_.ssl.
  std::vector<std::size_t> http_end_;
  std::vector<std::size_t> ssl_end_;
};

}  // namespace cs::proto
