#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/parallel.h"
#include "obs/trace.h"
#include "pcap/decode.h"
#include "pcap/packet.h"

/// Flow assembly: groups decoded packets into logical bidirectional flows,
/// the unit Bro reports on and the unit of every flow statistic in §3 of
/// the paper (counts, sizes, durations).
///
/// One split rule (FlowStats::ends_before) decides where a tuple's packets
/// start a new logical flow, and BasicFlowTable applies it to any flow
/// type that extends FlowStats with a take() for its payload segments.
/// pcap::Flow copies the bytes; proto::StreamFlow feeds them to HTTP and
/// TLS readers and keeps no payload at all.
namespace cs::pcap {

struct FlowOptions {
  /// Gap after which a tuple reuse starts a new logical flow.
  double idle_timeout_sec = 300.0;
  /// Per-direction payload a flow takes; bytes past it are counted only.
  std::size_t payload_cap = 256 * 1024;
};

/// What every flow counts, whatever it keeps of its payload.
struct FlowStats {
  /// 5-tuple oriented from the initiator's perspective (the sender of the
  /// first packet / SYN).
  net::FiveTuple tuple;
  double first_ts = 0.0;
  double last_ts = 0.0;
  std::uint64_t packets = 0;
  /// Sum of IP total lengths in both directions (the byte-volume measure
  /// used for Tables 1-2).
  std::uint64_t bytes = 0;
  std::uint64_t bytes_to_responder = 0;    ///< initiator -> responder
  std::uint64_t bytes_to_initiator = 0;    ///< responder -> initiator
  bool saw_syn = false;
  bool saw_fin = false;
  bool saw_rst = false;
  std::uint8_t icmp_type = 0;

  double duration() const noexcept { return last_ts - first_ts; }

  /// The split rule: whether a packet on this flow's tuple starts a new
  /// logical flow instead — the tuple idled past the timeout, or a closed
  /// TCP connection (FIN or RST seen) is reopened by a bare SYN.
  bool ends_before(const Decoded& decoded, double timestamp,
                   const FlowOptions& options) const noexcept;

  /// Counts a packet into the flow (the first one makes its sender the
  /// initiator); returns whether it travels initiator -> responder.
  bool count(const Decoded& decoded, double timestamp) noexcept;
};

/// One assembled flow with its application payload per direction, each
/// capped by the table's payload_cap (enough for header-level HTTP/TLS
/// analysis).
struct Flow : FlowStats {
  std::vector<std::uint8_t> payload_to_responder;
  std::vector<std::uint8_t> payload_to_initiator;

  /// Appends as much of `segment` as fits under `cap` to its direction.
  void take(bool to_responder, std::span<const std::uint8_t> segment,
            std::size_t cap);
};

/// The total order every assembled capture is sorted by: (first_ts,
/// tuple, packets, bytes). first_ts alone leaves equal-timestamp flows in
/// hash order; the other keys make the order independent of batching,
/// sharding and CS_THREADS. It orders anything that carries those four
/// fields, so a flow's records (proto::ConnRecord) sort as the flow did.
struct FlowOrder {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return std::tie(a.first_ts, a.tuple, a.packets, a.bytes) <
           std::tie(b.first_ts, b.tuple, b.packets, b.bytes);
  }
};

/// Decodes one captured frame, counting it under the detailed-metrics
/// gate; nullopt for an undecodable frame.
std::optional<Decoded> decode_counted(const Packet& packet);

/// Adds `flows` to the pcap.flow.flows counter.
void count_flows(std::size_t flows);

/// Groups packets into flows of type F: FlowStats plus
/// `void take(bool to_responder, span segment, size_t cap)`.
template <typename F>
class BasicFlowTable {
 public:
  using Options = FlowOptions;

  BasicFlowTable() = default;
  explicit BasicFlowTable(Options options) : options_(options) {}

  /// Feeds one captured packet; undecodable frames are counted and dropped.
  void add(const Packet& packet) {
    if (const auto decoded = decode_counted(packet))
      add_decoded(*decoded, packet.timestamp);
    else
      ++undecodable_;
  }

  /// Feeds a decoded packet directly (used when the caller already parsed).
  void add_decoded(const Decoded& decoded, double timestamp) {
    const auto key = decoded.tuple.canonical();
    auto it = open_.find(key);
    if (it != open_.end() &&
        it->second.ends_before(decoded, timestamp, options_)) {
      done_.push_back(std::move(it->second));
      open_.erase(it);
      it = open_.end();
    }
    if (it == open_.end()) it = open_.try_emplace(key).first;
    F& flow = it->second;
    flow.take(flow.count(decoded, timestamp), decoded.payload,
              options_.payload_cap);
  }

  /// Flushes every open flow and returns all completed flows, ordered by
  /// first timestamp.
  std::vector<F> finish() {
    obs::Span span{"pcap.flow.finish"};
    auto flows = take_flows();
    std::sort(flows.begin(), flows.end(), [](const F& a, const F& b) {
      return a.first_ts < b.first_ts;
    });
    return flows;
  }

  /// Every flow, closed ones first and open ones after, unsorted; leaves
  /// the table empty.
  std::vector<F> take_flows() {
    for (auto& [key, flow] : open_) done_.push_back(std::move(flow));
    open_.clear();
    count_flows(done_.size());
    return std::exchange(done_, {});
  }

  std::uint64_t undecodable_packets() const noexcept { return undecodable_; }
  std::size_t open_flows() const noexcept { return open_.size(); }

 private:
  Options options_;
  std::unordered_map<net::FiveTuple, F, net::FiveTupleHash> open_;
  std::vector<F> done_;
  std::uint64_t undecodable_ = 0;
};

using FlowTable = BasicFlowTable<Flow>;

/// Flow-table shard count of a BasicFlowAssembler. Fixed (never the pool
/// size): shard membership depends only on the tuple hash, so the
/// decomposition — and with it the output — is the same at every
/// CS_THREADS value.
inline constexpr std::size_t kFlowShards = 16;

/// One batch of frames decoded in parallel, with its packet indices
/// partitioned by canonical-tuple hash into kFlowShards lists. Decoded
/// payloads view the batch's frames.
struct ShardedBatch {
  std::vector<std::optional<Decoded>> decoded;
  std::vector<std::vector<std::uint32_t>> shards;
  std::uint64_t undecodable = 0;
  std::uint64_t wire_bytes = 0;
};
ShardedBatch shard_batch(std::span<const Packet> packets);

/// Incremental flow assembly for streaming captures: feed() batches of
/// packets as the generator produces them. Each batch decodes in parallel
/// over the exec pool and lands in fixed hash-sharded tables that persist
/// across batches (a canonical 5-tuple always owns one shard, so every
/// flow still sees its packets in capture order). Feeding any batch split
/// of a capture yields the flows one table over the whole capture would.
template <typename F>
class BasicFlowAssembler {
 public:
  explicit BasicFlowAssembler(FlowOptions options = {}) {
    tables_.reserve(kFlowShards);
    for (std::size_t s = 0; s < kFlowShards; ++s) tables_.emplace_back(options);
  }

  /// Decodes and shards one batch. The frames only need to stay alive
  /// through the call: flows take what they keep of the payload.
  void feed(std::span<const Packet> packets) {
    obs::Span span{"pcap.flow.feed"};
    const auto batch = shard_batch(packets);
    undecodable_ += batch.undecodable;
    packets_fed_ += packets.size();
    bytes_fed_ += batch.wire_bytes;
    exec::parallel_for(
        kFlowShards,
        [&](std::size_t s) {
          for (const auto i : batch.shards[s])
            tables_[s].add_decoded(*batch.decoded[i], packets[i].timestamp);
        },
        /*grain=*/1);
  }

  /// Every flow of every shard, shard by shard, unsorted; leaves the
  /// assembler's tables empty.
  std::vector<F> take_flows() {
    auto shard_flows = exec::parallel_map(
        tables_.size(), [&](std::size_t s) { return tables_[s].take_flows(); },
        /*grain=*/1);
    std::vector<F> flows;
    std::size_t total = 0;
    for (const auto& sf : shard_flows) total += sf.size();
    flows.reserve(total);
    for (auto& sf : shard_flows)
      flows.insert(flows.end(), std::make_move_iterator(sf.begin()),
                   std::make_move_iterator(sf.end()));
    return flows;
  }

  /// Flushes every shard and returns all flows under FlowOrder, so the
  /// result is independent of batching, sharding, and CS_THREADS.
  std::vector<F> finish() {
    obs::Span span{"pcap.flow.merge"};
    auto flows = take_flows();
    std::sort(flows.begin(), flows.end(), FlowOrder{});
    return flows;
  }

  std::uint64_t packets_fed() const noexcept { return packets_fed_; }
  /// Wire bytes across every batch fed so far (u64: a paper-scale
  /// capture passes 2^32 bytes within the first endpoint).
  std::uint64_t bytes_fed() const noexcept { return bytes_fed_; }
  std::uint64_t undecodable_packets() const noexcept { return undecodable_; }

 private:
  std::vector<BasicFlowTable<F>> tables_;  ///< one per fixed hash shard
  std::uint64_t packets_fed_ = 0;
  std::uint64_t bytes_fed_ = 0;
  std::uint64_t undecodable_ = 0;
};

using FlowAssembler = BasicFlowAssembler<Flow>;

/// Assembles a whole capture into flows in one call: one FlowAssembler
/// feed and finish, so the streaming and batch paths cannot diverge.
/// `undecodable`, when non-null, receives the dropped-frame count a
/// single FlowTable would have reported.
std::vector<Flow> assemble_flows(std::span<const Packet> packets,
                                 FlowOptions options = {},
                                 std::uint64_t* undecodable = nullptr);

}  // namespace cs::pcap
