#include "pcap/flow.h"

#include "obs/metrics.h"

namespace cs::pcap {

bool FlowStats::ends_before(const Decoded& decoded, double timestamp,
                            const FlowOptions& options) const noexcept {
  const bool idle = timestamp - last_ts > options.idle_timeout_sec;
  const bool reopened = tuple.proto == net::IpProto::kTcp &&
                        (saw_fin || saw_rst) && decoded.tcp_flags.syn &&
                        !decoded.tcp_flags.ack;
  return idle || reopened;
}

bool FlowStats::count(const Decoded& decoded, double timestamp) noexcept {
  if (packets == 0) {
    tuple = decoded.tuple;  // first packet's direction = initiator
    first_ts = timestamp;
    last_ts = timestamp;
  }
  last_ts = std::max(last_ts, timestamp);
  ++packets;
  bytes += decoded.ip_total_length;

  const bool from_initiator = decoded.tuple == tuple;
  (from_initiator ? bytes_to_responder : bytes_to_initiator) +=
      decoded.ip_total_length;

  if (decoded.tuple.proto == net::IpProto::kTcp) {
    saw_syn |= decoded.tcp_flags.syn;
    saw_fin |= decoded.tcp_flags.fin;
    saw_rst |= decoded.tcp_flags.rst;
  } else if (decoded.tuple.proto == net::IpProto::kIcmp && packets == 1) {
    icmp_type = decoded.icmp_type;
  }
  return from_initiator;
}

void Flow::take(bool to_responder, std::span<const std::uint8_t> segment,
                std::size_t cap) {
  auto& payload = to_responder ? payload_to_responder : payload_to_initiator;
  const std::size_t room = payload.size() < cap ? cap - payload.size() : 0;
  const auto kept = segment.first(std::min(room, segment.size()));
  payload.insert(payload.end(), kept.begin(), kept.end());
}

std::optional<Decoded> decode_counted(const Packet& packet) {
  auto decoded = decode_frame(packet.bytes());
  // Per-packet counters hide behind the detailed-metrics gate; the flag
  // check is noise next to the flow-table hash lookup that follows.
  if (obs::detailed_metrics()) {
    static auto& packets_metric = obs::counter("pcap.decode.packets");
    static auto& bytes_metric = obs::counter("pcap.decode.bytes");
    packets_metric.inc();
    bytes_metric.inc(packet.data.size());
    if (!decoded) {
      static auto& truncated_metric = obs::counter("pcap.decode.truncated");
      truncated_metric.inc();
    }
  }
  return decoded;
}

void count_flows(std::size_t flows) {
  static auto& flows_metric = obs::counter("pcap.flow.flows");
  flows_metric.inc(flows);
}

ShardedBatch shard_batch(std::span<const Packet> packets) {
  ShardedBatch batch;
  // Decode every frame in parallel. Decoded payload views point into the
  // caller's frames, which outlive the batch.
  batch.decoded = exec::parallel_map(packets.size(), [&](std::size_t i) {
    return decode_frame(packets[i].bytes());
  });
  for (std::size_t i = 0; i < packets.size(); ++i) {
    batch.wire_bytes += packets[i].data.size();
    if (!batch.decoded[i]) ++batch.undecodable;
  }
  if (obs::detailed_metrics()) {
    obs::counter("pcap.decode.packets").inc(packets.size());
    obs::counter("pcap.decode.bytes").inc(batch.wire_bytes);
    obs::counter("pcap.decode.truncated").inc(batch.undecodable);
  }

  // Partition packet indices by canonical-tuple hash. All of a flow's
  // packets share a canonical tuple, so across every batch they land in
  // the same shard and feed that shard's table in capture order —
  // idle-timeout splits and initiator orientation come out exactly as
  // with a single table over the whole capture.
  batch.shards.resize(kFlowShards);
  const net::FiveTupleHash hasher;
  for (std::size_t i = 0; i < batch.decoded.size(); ++i) {
    if (!batch.decoded[i]) continue;
    batch.shards[hasher(batch.decoded[i]->tuple.canonical()) % kFlowShards]
        .push_back(static_cast<std::uint32_t>(i));
  }
  return batch;
}

std::vector<Flow> assemble_flows(std::span<const Packet> packets,
                                 FlowOptions options,
                                 std::uint64_t* undecodable) {
  obs::Span span{"pcap.flow.assemble"};
  FlowAssembler assembler{options};
  assembler.feed(packets);
  if (undecodable) *undecodable = assembler.undecodable_packets();
  return assembler.finish();
}

}  // namespace cs::pcap
