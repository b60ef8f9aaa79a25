#include "dns/transport.h"

#include "dns/message.h"
#include "fault/fault.h"
#include "obs/metrics.h"

namespace cs::dns {

/// RAII guard counting in-flight serve() calls (debug builds only), so
/// attach() can assert the build-phase / query-phase separation.
class SimulatedDnsNetwork::ExchangeScope {
 public:
  explicit ExchangeScope(const SimulatedDnsNetwork& net) : net_(net) {
#ifndef NDEBUG
    net_.active_exchanges_.fetch_add(1, std::memory_order_acq_rel);
#endif
  }
  ~ExchangeScope() {
#ifndef NDEBUG
    net_.active_exchanges_.fetch_sub(1, std::memory_order_acq_rel);
#endif
  }
  ExchangeScope(const ExchangeScope&) = delete;
  ExchangeScope& operator=(const ExchangeScope&) = delete;

 private:
  [[maybe_unused]] const SimulatedDnsNetwork& net_;
};

void SimulatedDnsNetwork::assert_quiescent() const {
#ifndef NDEBUG
  assert(active_exchanges_.load(std::memory_order_acquire) == 0 &&
         "SimulatedDnsNetwork mutated while exchanges are in flight; "
         "attach is build-phase only");
#endif
}

void SimulatedDnsNetwork::attach(net::Ipv4 address,
                                 std::shared_ptr<AuthoritativeServer> server) {
  assert_quiescent();
  servers_.insert_or_assign(address.value(), std::move(server));
}

WireReply SimulatedDnsNetwork::serve(net::Ipv4 client, net::Ipv4 server,
                                     std::span<const std::uint8_t> query)
    const {
  ExchangeScope scope{*this};
  const auto it = servers_.find(server.value());
  if (it == servers_.end()) return WireReply{WireVerdict::kUnreachable, {}};

  // Fault injection sits on the wire, not in the server: the resolver
  // sees exactly what a lossy network would show it. Decisions key off
  // the exchange itself (client, server, query bytes), so the same study
  // seed injects the same faults at any CS_THREADS — and a socket-mode
  // retransmit of the same query replays the same decision.
  const auto* plan = fault::active_plan();
  std::uint64_t key = 0;
  if (plan) [[unlikely]] {
    key = fault::query_key(client.value(), server.value(), query);
    if (plan->decide(fault::Kind::kLoss, key)) {
      static auto& losses = obs::counter("fault.dns.loss");
      losses.inc();
      return WireReply{WireVerdict::kDrop, {}};  // query never arrived
    }
    if (plan->decide(fault::Kind::kTimeout, key)) {
      static auto& timeouts = obs::counter("fault.dns.timeout");
      timeouts.inc();
      // Server reached, answer never came back.
      return WireReply{WireVerdict::kDrop, {}};
    }
    if (plan->decide(fault::Kind::kServFail, key)) {
      static auto& servfails = obs::counter("fault.dns.servfail");
      servfails.inc();
      if (const auto parsed = Message::decode(query))
        return WireReply{
            WireVerdict::kAnswer,
            Message::response_to(*parsed, Rcode::kServFail, false).encode()};
      return WireReply{WireVerdict::kDrop, {}};
    }
  }

  auto response = it->second->handle_wire(client, query);
  if (plan && plan->decide(fault::Kind::kTruncate, key)) [[unlikely]] {
    static auto& truncations = obs::counter("fault.dns.truncate");
    truncations.inc();
    // A strict prefix of the response; the resolver's decode rejects it
    // and treats the exchange as lost.
    auto rng = plan->stream(fault::Kind::kTruncate, key);
    response.resize(rng.next_below(response.size()));
  }
  return WireReply{WireVerdict::kAnswer, std::move(response)};
}

std::optional<std::vector<std::uint8_t>> SimulatedDnsNetwork::exchange(
    net::Ipv4 client, net::Ipv4 server, std::span<const std::uint8_t> query) {
  const auto* plan = fault::active_plan();
  if (!plan || plan->spec().drop <= 0.0) [[likely]] {
    auto reply = serve(client, server, query);
    if (reply.verdict != WireVerdict::kAnswer) return std::nullopt;
    return std::move(reply.bytes);
  }
  // Wire drops in simulated time: a dropped datagram is retransmitted at
  // once, with no RTO to wait out, and the server answers every copy that
  // reaches it, as it does over sockets. The timing-only wire kinds
  // (dup, reorder, delay, jitter) cannot change a synchronous exchange,
  // and corrupt acts on socket datagrams only (DESIGN §8).
  static auto& drops = obs::counter("fault.wire.drop");
  const auto key = fault::query_key(client.value(), server.value(), query);
  for (std::uint32_t attempt = 0; attempt < kSimulatedAttempts; ++attempt) {
    if (plan->drops(fault::Direction::kQuery, key, attempt)) {
      drops.inc();
      continue;
    }
    auto reply = serve(client, server, query);
    if (reply.verdict != WireVerdict::kAnswer) return std::nullopt;
    if (plan->drops(fault::Direction::kResponse, key, attempt)) {
      drops.inc();
      continue;
    }
    return std::move(reply.bytes);
  }
  return std::nullopt;
}

std::shared_ptr<AuthoritativeServer> SimulatedDnsNetwork::server_at(
    net::Ipv4 address) const {
  const auto it = servers_.find(address.value());
  return it == servers_.end() ? nullptr : it->second;
}

}  // namespace cs::dns
