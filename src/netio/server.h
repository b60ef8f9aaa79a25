#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dns/transport.h"
#include "netio/reactor.h"
#include "netio/socket.h"
#include "netio/wire.h"

/// Authoritative DNS over real localhost UDP.
///
/// DnsSocketServer fronts a fully built SimulatedDnsNetwork routing table
/// with live sockets: one UDP port, N SO_REUSEPORT listeners, each owned
/// by its own epoll reactor thread. Every datagram is a netio frame
/// (wire.h) whose header names the simulated client and server addresses;
/// the worker answers from the shared read-only zone data via
/// SimulatedDnsNetwork::serve(), so the answer bytes — and every seeded
/// fault decision — are identical to what the in-process backend would
/// have produced. Injected loss/timeout is served as genuine silence
/// (the client really retransmits); a down or unknown server address is
/// answered with a kUnreachable control frame so the client can fail the
/// exchange fast instead of waiting out its retransmit schedule.
///
/// Every outgoing response/unreachable frame takes the fault plan's wire
/// decision for the response direction, keyed by the exchange and the
/// attempt index the query frame carried (wire_copies in wire.h);
/// held-back copies go out through the owning worker's reactor timers.
namespace cs::netio {

class DnsSocketServer {
 public:
  /// Serves on `threads` reactor workers (at least one). `network` must
  /// outlive the server and stay quiescent (no attach / set_observer)
  /// while the server runs; see the concurrency contract in
  /// dns/transport.h.
  DnsSocketServer(const dns::SimulatedDnsNetwork& network, unsigned threads);
  ~DnsSocketServer();

  DnsSocketServer(const DnsSocketServer&) = delete;
  DnsSocketServer& operator=(const DnsSocketServer&) = delete;

  /// Binds the listeners and starts the reactor threads; false (with the
  /// reason logged) when the sockets cannot be set up.
  bool start();

  /// Stops and joins every worker. Safe to call repeatedly.
  void stop();

  /// The bound localhost UDP port (0 until start() succeeds).
  std::uint16_t port() const noexcept { return port_; }

  unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

 private:
  struct Worker {
    UdpSocket socket;
    std::unique_ptr<Reactor> reactor;
  };

  void drain(Worker& worker);
  /// Sends one outgoing frame through the plan's wire decision.
  void send_frame(Worker& worker, const Endpoint& peer, const Frame& query,
                  FrameKind kind, std::span<const std::uint8_t> payload);

  const dns::SimulatedDnsNetwork& network_;
  unsigned threads_;
  std::vector<Worker> workers_;
  std::uint16_t port_ = 0;
  bool started_ = false;
};

}  // namespace cs::netio
