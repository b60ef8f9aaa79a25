#include "pcap/flow.h"

#include <algorithm>
#include <optional>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cs::pcap {

void Payload::append(std::span<const std::uint8_t> segment, std::size_t cap,
                     bool borrow) {
  const std::size_t room = size_ < cap ? cap - size_ : 0;
  const auto take = segment.first(std::min(room, segment.size()));
  if (take.empty()) return;
  if (borrow)
    views_.push_back(take);
  else
    owned_.insert(owned_.end(), take.begin(), take.end());
  size_ += take.size();
}

std::span<const std::uint8_t> Payload::bytes(
    std::vector<std::uint8_t>& scratch) const {
  if (views_.empty()) return owned_;
  if (views_.size() == 1) return views_.front();
  scratch.clear();
  for (const auto view : views_)
    scratch.insert(scratch.end(), view.begin(), view.end());
  return scratch;
}

bool Payload::operator==(const Payload& other) const {
  std::vector<std::uint8_t> mine, theirs;
  return std::ranges::equal(bytes(mine), other.bytes(theirs));
}

FlowTable::FlowTable() : FlowTable(Options{}) {}

FlowTable::FlowTable(Options options) : FlowTable(options, false) {}

FlowTable::FlowTable(Options options, bool borrow)
    : options_(options), borrow_(borrow) {}

void FlowTable::add(const Packet& packet) {
  const auto decoded = decode_frame(packet.bytes());
  // Per-packet counters hide behind the detailed-metrics gate; the flag
  // check is noise next to the flow-table hash lookup below.
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
  if (!decoded) {
    ++undecodable_;
    return;
  }
  add_decoded(*decoded, packet.timestamp);
}

void FlowTable::add_decoded(const Decoded& decoded, double timestamp) {
  const auto key = decoded.tuple.canonical();
  auto it = open_.find(key);

  if (it != open_.end()) {
    Flow& flow = it->second;
    const bool idle =
        timestamp - flow.last_ts > options_.idle_timeout_sec;
    const bool reopened = flow.tuple.proto == net::IpProto::kTcp &&
                          (flow.saw_fin || flow.saw_rst) &&
                          decoded.tcp_flags.syn && !decoded.tcp_flags.ack;
    if (idle || reopened) {
      finalize(std::move(flow));
      open_.erase(it);
      it = open_.end();
    }
  }

  if (it == open_.end()) {
    Flow flow;
    flow.tuple = decoded.tuple;  // first packet's direction = initiator
    flow.first_ts = timestamp;
    flow.last_ts = timestamp;
    it = open_.emplace(key, std::move(flow)).first;
  }

  Flow& flow = it->second;
  flow.last_ts = std::max(flow.last_ts, timestamp);
  ++flow.packets;
  flow.bytes += decoded.ip_total_length;

  const bool from_initiator = decoded.tuple == flow.tuple;
  auto& dir_bytes =
      from_initiator ? flow.bytes_to_responder : flow.bytes_to_initiator;
  dir_bytes += decoded.ip_total_length;

  if (decoded.tuple.proto == net::IpProto::kTcp) {
    flow.saw_syn |= decoded.tcp_flags.syn;
    flow.saw_fin |= decoded.tcp_flags.fin;
    flow.saw_rst |= decoded.tcp_flags.rst;
  } else if (decoded.tuple.proto == net::IpProto::kIcmp && flow.packets == 1) {
    flow.icmp_type = decoded.icmp_type;
  }

  auto& payload =
      from_initiator ? flow.payload_to_responder : flow.payload_to_initiator;
  payload.append(decoded.payload, options_.payload_cap, borrow_);
}

void FlowTable::finalize(Flow&& flow) { done_.push_back(std::move(flow)); }

std::vector<Flow> FlowTable::finish() {
  obs::Span span{"pcap.flow.finish"};
  auto flows = take_flows();
  std::sort(flows.begin(), flows.end(), [](const Flow& a, const Flow& b) {
    return a.first_ts < b.first_ts;
  });
  return flows;
}

std::vector<Flow> FlowTable::take_flows() {
  for (auto& [key, flow] : open_) done_.push_back(std::move(flow));
  open_.clear();
  static auto& flows_metric = obs::counter("pcap.flow.flows");
  flows_metric.inc(done_.size());
  return std::move(done_);
}

namespace {

/// Flow-table shard count for assemble_flows. Fixed (never the pool
/// size): shard membership only depends on the tuple hash, so the
/// decomposition — and with it the output — is the same at every
/// CS_THREADS value.
constexpr std::size_t kFlowShards = 16;

}  // namespace

FlowAssembler::FlowAssembler(FlowTable::Options options)
    : FlowAssembler(options, false) {}

FlowAssembler::FlowAssembler(FlowTable::Options options, bool borrow) {
  tables_.reserve(kFlowShards);
  for (std::size_t s = 0; s < kFlowShards; ++s)
    tables_.push_back(FlowTable{options, borrow});
}

void FlowAssembler::feed(std::span<const Packet> packets) {
  obs::Span span{"pcap.flow.feed"};
  add(packets);
}

void FlowAssembler::add(std::span<const Packet> packets) {
  // Stage 1: decode every frame of the batch in parallel. Decoded payload
  // views point into the caller's packet buffers, which outlive the call.
  auto decoded = exec::parallel_map(packets.size(), [&](std::size_t i) {
    return decode_frame(packets[i].bytes());
  });

  std::uint64_t dropped = 0;
  std::uint64_t wire_bytes = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    wire_bytes += packets[i].data.size();
    if (!decoded[i]) ++dropped;
  }
  if (obs::detailed_metrics()) {
    obs::counter("pcap.decode.packets").inc(packets.size());
    obs::counter("pcap.decode.bytes").inc(wire_bytes);
    obs::counter("pcap.decode.truncated").inc(dropped);
  }
  undecodable_ += dropped;
  packets_fed_ += packets.size();
  bytes_fed_ += wire_bytes;

  // Stage 2: partition packet indices by canonical-tuple hash. All of a
  // flow's packets share a canonical tuple, so across every batch they
  // land in the same shard and feed that shard's table in capture order —
  // idle-timeout splits and initiator orientation come out exactly as
  // with a single table over the whole capture.
  std::vector<std::vector<std::size_t>> shards(kFlowShards);
  const net::FiveTupleHash hasher;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    if (!decoded[i]) continue;
    shards[hasher(decoded[i]->tuple.canonical()) % kFlowShards].push_back(i);
  }

  // Stage 3: extend the persistent per-shard tables, in parallel.
  exec::parallel_for(
      kFlowShards,
      [&](std::size_t s) {
        for (const std::size_t i : shards[s])
          tables_[s].add_decoded(*decoded[i], packets[i].timestamp);
      },
      /*grain=*/1);
}

std::vector<Flow> FlowAssembler::finish() {
  obs::Span span{"pcap.flow.merge"};
  return take_flows();
}

std::vector<Flow> FlowAssembler::take_flows() {
  auto shard_flows = exec::parallel_map(
      tables_.size(), [&](std::size_t s) { return tables_[s].take_flows(); },
      /*grain=*/1);

  // Merge and impose the total order, which makes the result independent
  // of the sharding entirely.
  std::vector<Flow> flows;
  std::size_t total = 0;
  for (const auto& sf : shard_flows) total += sf.size();
  flows.reserve(total);
  for (auto& sf : shard_flows)
    flows.insert(flows.end(), std::make_move_iterator(sf.begin()),
                 std::make_move_iterator(sf.end()));
  std::sort(flows.begin(), flows.end(), FlowOrder{});
  return flows;
}

std::vector<Flow> assemble_unit(std::span<const Packet> unit,
                                FlowTable::Options options) {
  FlowAssembler assembler{options, /*borrow=*/true};
  assembler.add(unit);
  return assembler.take_flows();
}

std::vector<Flow> assemble_flows(std::span<const Packet> packets,
                                 FlowTable::Options options,
                                 std::uint64_t* undecodable) {
  obs::Span span{"pcap.flow.assemble"};
  FlowAssembler assembler{options};
  assembler.feed(packets);
  if (undecodable) *undecodable = assembler.undecodable_packets();
  return assembler.finish();
}

}  // namespace cs::pcap
