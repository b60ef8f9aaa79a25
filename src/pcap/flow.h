#pragma once

#include <cstdint>
#include <span>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "pcap/decode.h"
#include "pcap/packet.h"

/// Flow assembly: groups decoded packets into logical bidirectional flows,
/// the unit Bro reports on and the unit of every flow statistic in §3 of
/// the paper (counts, sizes, durations).
namespace cs::pcap {

/// One direction of a flow's application bytes, capped by the table's
/// payload limit (enough for header-level HTTP/TLS analysis). A payload
/// owns a copy of its bytes when the frames they came from die after the
/// call that fed them (FlowTable::add, FlowAssembler::feed), and holds
/// views into those frames when they outlive the flow (assemble_unit).
/// The parsers take spans, so readers ask for bytes() with a scratch
/// buffer they reuse: only a payload of several views is gathered.
class Payload {
 public:
  Payload() = default;
  /// An owning payload of `bytes` (implicit: a byte vector is a payload).
  Payload(std::vector<std::uint8_t> bytes)
      : owned_(std::move(bytes)), size_(owned_.size()) {}

  /// Appends as much of `segment` as fits under `cap`: a copy, or with
  /// `borrow` a view the segment's frame must outlive. One payload is
  /// fed in one mode only.
  void append(std::span<const std::uint8_t> segment, std::size_t cap,
              bool borrow);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// The bytes as one span: the owned bytes or a lone view as they are,
  /// several views gathered into `scratch` (valid until it next changes).
  std::span<const std::uint8_t> bytes(
      std::vector<std::uint8_t>& scratch) const;

  /// Byte equality, whether either side owns or borrows.
  bool operator==(const Payload& other) const;

 private:
  std::vector<std::uint8_t> owned_;
  std::vector<std::span<const std::uint8_t>> views_;
  std::size_t size_ = 0;
};

/// One assembled flow.
struct Flow {
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

  /// Reassembled application payloads per direction.
  Payload payload_to_responder;
  Payload payload_to_initiator;

  double duration() const noexcept { return last_ts - first_ts; }
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

class FlowTable {
 public:
  struct Options {
    /// Gap after which a tuple reuse starts a new logical flow.
    double idle_timeout_sec = 300.0;
    /// Per-direction payload retention cap.
    std::size_t payload_cap = 256 * 1024;
  };

  FlowTable();
  explicit FlowTable(Options options);

  /// Feeds one captured packet; undecodable frames are counted and dropped.
  void add(const Packet& packet);

  /// Feeds a decoded packet directly (used when the caller already parsed).
  void add_decoded(const Decoded& decoded, double timestamp);

  /// Flushes every open flow and returns all completed flows, ordered by
  /// first timestamp.
  std::vector<Flow> finish();

  std::uint64_t undecodable_packets() const noexcept { return undecodable_; }
  std::size_t open_flows() const noexcept { return open_.size(); }

 private:
  friend class FlowAssembler;
  /// A table whose payloads borrow views into the fed frames.
  FlowTable(Options options, bool borrow);
  /// Every flow, unsorted and without finish()'s span: a shard's part of
  /// an assembler's merge, which sorts once.
  std::vector<Flow> take_flows();
  void finalize(Flow&& flow);

  Options options_;
  bool borrow_ = false;
  std::unordered_map<net::FiveTuple, Flow, net::FiveTupleHash> open_;
  std::vector<Flow> done_;
  std::uint64_t undecodable_ = 0;
};

/// Assembles one closed unit of a capture — no five-tuple of it occurs
/// outside it, as synth::TrafficGenerator::generate_units delivers — into
/// its flows, under FlowOrder. The decode and shard work is
/// FlowAssembler's, but payloads borrow views into `unit`'s frames
/// instead of copying them: the flows are valid only while `unit` is, so
/// analyse them before the frames die.
std::vector<Flow> assemble_unit(std::span<const Packet> unit,
                                FlowTable::Options options = {});

/// Incremental flow assembly for streaming captures: feed() batches of
/// packets as the generator produces them, finish() once at the end.
/// Each batch decodes in parallel over the exec pool and lands in fixed
/// hash-sharded FlowTables that persist across batches (a canonical
/// 5-tuple always owns one shard, so every flow still sees its packets
/// in capture order). Feeding any batch split of a capture produces
/// byte-identical flows to one assemble_flows() call over the whole
/// thing — assemble_flows is in fact a single feed. Every flow keeps its
/// copied payload until finish(); a capture of closed units is cheaper
/// through assemble_unit.
class FlowAssembler {
 public:
  explicit FlowAssembler(FlowTable::Options options = {});

  /// Decodes and shards one batch. The packet buffers only need to stay
  /// alive through the call (payload bytes are copied into open flows).
  void feed(std::span<const Packet> packets);

  /// Flushes every shard and returns all flows under FlowOrder, so the
  /// result is independent of batching, sharding, and CS_THREADS.
  std::vector<Flow> finish();

  std::uint64_t packets_fed() const noexcept { return packets_fed_; }
  /// Wire bytes across every batch fed so far (u64: a paper-scale
  /// capture passes 2^32 bytes within the first endpoint).
  std::uint64_t bytes_fed() const noexcept { return bytes_fed_; }
  std::uint64_t undecodable_packets() const noexcept { return undecodable_; }

 private:
  friend std::vector<Flow> assemble_unit(std::span<const Packet> unit,
                                         FlowTable::Options options);
  FlowAssembler(FlowTable::Options options, bool borrow);
  /// feed() and finish() without their spans.
  void add(std::span<const Packet> packets);
  std::vector<Flow> take_flows();

  std::vector<FlowTable> tables_;  ///< one per fixed hash shard
  std::uint64_t packets_fed_ = 0;
  std::uint64_t bytes_fed_ = 0;
  std::uint64_t undecodable_ = 0;
};

/// Assembles a whole capture into flows in one call, fanning out over the
/// exec pool: packets decode in parallel, then flows build in hash-sharded
/// FlowTables (a canonical 5-tuple always lands in one shard, so every
/// flow is assembled from its packets in timestamp order exactly as a
/// single table would). The shard count is fixed — never derived from
/// CS_THREADS — and the merged result is sorted by FlowOrder, so output
/// is byte-identical at any thread count. `undecodable`, when non-null,
/// receives the dropped-frame count a single FlowTable would have
/// reported. Implemented as one
/// FlowAssembler feed, so the streaming and batch paths cannot diverge.
std::vector<Flow> assemble_flows(std::span<const Packet> packets,
                                 FlowTable::Options options = {},
                                 std::uint64_t* undecodable = nullptr);

}  // namespace cs::pcap
