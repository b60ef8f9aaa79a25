#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "dns/server.h"
#include "net/ipv4.h"

/// Transport between resolvers and authoritative servers.
///
/// The resolver only sees wire bytes, so the same resolver code would run
/// over a real UDP socket; in this repository the bytes either stay
/// in-process (SimulatedDnsNetwork) or travel real localhost UDP
/// (netio::SocketDnsTransport / netio::DnsSocketServer, selected with
/// CS_TRANSPORT=socket). The seeded impairment plan (cs::fault, CS_FAULT)
/// acts here on the wire: serve() loses, times out, truncates and
/// SERVFAILs whole exchanges for both backends, and exchange() executes
/// the survivable per-datagram `drop` in simulated time. The socket
/// backend executes every per-datagram kind on real datagrams instead.
namespace cs::dns {

class DnsTransport {
 public:
  virtual ~DnsTransport() = default;

  /// Sends one query datagram from `client` to `server`; returns the raw
  /// response or nullopt for a timeout/unreachable server.
  virtual std::optional<std::vector<std::uint8_t>> exchange(
      net::Ipv4 client, net::Ipv4 server,
      std::span<const std::uint8_t> query) = 0;
};

/// What the authoritative side of the wire did with one query datagram.
enum class WireVerdict : std::uint8_t {
  kAnswer,       ///< `bytes` holds the response datagram
  kDrop,         ///< injected loss/timeout: the wire stays silent
  kUnreachable,  ///< no server attached at that address
};

struct WireReply {
  WireVerdict verdict = WireVerdict::kDrop;
  std::vector<std::uint8_t> bytes;
};

/// In-process transport mapping server IPs to AuthoritativeServer objects.
/// An address with no server attached is unreachable.
///
/// ## Concurrency contract
///
/// The routing table is built single-threaded and then read from many
/// threads at once: resolver threads during parallel dataset phases, and
/// netio server worker threads when the socket backend fronts this table.
/// `serve()`/`exchange()`/`server_count()`/`server_at()` are safe to call
/// concurrently with each other. `attach` is NOT safe concurrently with
/// reads: it must run before (or between) query phases, which is how
/// World uses it (servers attach during world construction). Debug builds
/// enforce this phasing with an active-exchange assertion; release builds
/// rely on the contract.
class SimulatedDnsNetwork final : public DnsTransport {
 public:
  /// Registers a server reachable at `address`. One server object may be
  /// registered at several addresses (anycast/fleet behaviour).
  /// Build-phase only — see the concurrency contract above.
  void attach(net::Ipv4 address, std::shared_ptr<AuthoritativeServer> server);

  /// Serves one query datagram exactly as the authoritative side of the
  /// wire would: routing, seeded fault injection, and zone answering in
  /// one pure-given-the-seed step. Both backends answer through here —
  /// exchange() below for the in-process wire, netio::DnsSocketServer for
  /// the UDP one — which is what keeps a socket run byte-identical to a
  /// sim run at the same seed (a retransmitted query re-enters with the
  /// same bytes, so every fault decision replays identically).
  /// Thread-safe after the build phase.
  WireReply serve(net::Ipv4 client, net::Ipv4 server,
                  std::span<const std::uint8_t> query) const;

  /// serve() in simulated time: with a plan whose `drop` > 0, a dropped
  /// query or response is retransmitted at once, up to
  /// kSimulatedAttempts sends. No wall-clock wait, no state.
  std::optional<std::vector<std::uint8_t>> exchange(
      net::Ipv4 client, net::Ipv4 server,
      std::span<const std::uint8_t> query) override;

  /// Sends per exchange on the simulated wire: the socket client's
  /// default schedule (CS_NETIO_MAX_ATTEMPTS). Only a first attempt may
  /// drop, so the second always gets through.
  static constexpr std::uint32_t kSimulatedAttempts = 3;

  /// Size of the routing table. Safe concurrently with serve()/exchange()
  /// (the table is read-only then); not with attach().
  std::size_t server_count() const noexcept { return servers_.size(); }

  /// Finds the server object registered at an address, if any. Same
  /// concurrency contract as server_count().
  std::shared_ptr<AuthoritativeServer> server_at(net::Ipv4 address) const;

 private:
  /// Debug-mode phasing check: attach() asserts no serve() is in flight.
  class ExchangeScope;
  void assert_quiescent() const;

  std::unordered_map<std::uint32_t, std::shared_ptr<AuthoritativeServer>>
      servers_;
#ifndef NDEBUG
  mutable std::atomic<int> active_exchanges_{0};
#endif
};

}  // namespace cs::dns
