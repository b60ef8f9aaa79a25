#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pcap/flow.h"
#include "proto/classify.h"
#include "proto/http.h"
#include "proto/tls.h"

/// Bro-style log records distilled from flows: one conn record per flow
/// plus HTTP/SSL application records. These are the inputs to every
/// packet-capture analysis in §3. analyze_flows reads assembled flows'
/// payloads; StreamAnalyzer reads frames as they stream past and keeps
/// only reader state per flow.
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

/// A flow as the stream analyzer keeps it: its counts and, for a TCP flow
/// that carried payload, the readers that stand in for the payload
/// analyze_flows reads — never the payload itself. Each direction takes
/// at most payload_cap bytes, as pcap::Flow does, and its records are
/// the ones analyze_flows gives the pcap::Flow of the same packets.
class StreamFlow : public pcap::FlowStats {
 public:
  void take(bool to_responder, std::span<const std::uint8_t> segment,
            std::size_t cap);
  /// Appends the flow's conn record and its http or ssl records.
  void record(TraceLogs& logs);

 private:
  struct Readers {
    /// The first bytes toward the responder, until the service is known.
    std::array<std::uint8_t, kClassifyBytes> head{};
    std::size_t head_size = 0;
    /// Set once kClassifyBytes have arrived; until then every reader runs.
    std::optional<Service> service;
    RequestReader requests;
    ResponseReader responses;
    SniReader sni;
    CertificateReader certificate;
  };

  Service service() const;

  std::size_t taken_to_responder_ = 0;
  std::size_t taken_to_initiator_ = 0;
  std::unique_ptr<Readers> readers_;
};

/// Builds a capture's logs from batches of frames, as Bro reads a trace:
/// each flow keeps parser state, not payload. feed() decodes a batch in
/// parallel and hands its packets to pcap::BasicFlowTable shards (the one
/// split rule), whose flows keep StreamFlow readers; the frames may die
/// when it returns. end_unit() closes every flow into records; call it
/// where no tuple fed so far occurs again, as at the end of each
/// synth::TrafficGenerator unit. finish() hands back every record
/// ordered by pcap::FlowOrder and leaves the analyzer empty. Any batch
/// split and unit split of a capture whose units are tuple-disjoint
/// gives the bytes of analyze_flows over the FlowAssembler-assembled
/// whole capture, at every CS_THREADS.
class StreamAnalyzer {
 public:
  explicit StreamAnalyzer(pcap::FlowOptions options = {});

  void feed(std::span<const pcap::Packet> batch);
  void end_unit();
  TraceLogs finish();

 private:
  pcap::BasicFlowAssembler<StreamFlow> flows_;
  TraceLogs logs_;  ///< in the order flows were closed
  /// Per conn, one past its last record in logs_.http / logs_.ssl.
  std::vector<std::size_t> http_end_;
  std::vector<std::size_t> ssl_end_;
};

}  // namespace cs::proto
