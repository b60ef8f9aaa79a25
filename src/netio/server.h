#pragma once

#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "dns/transport.h"
#include "netio/socket.h"
#include "netio/wire.h"

/// Authoritative DNS over real localhost UDP.
///
/// DnsSocketServer fronts a fully built SimulatedDnsNetwork routing table
/// with live sockets: one UDP port, N SO_REUSEPORT listeners, each served
/// by a worker thread of its own. A worker is the server-side twin of
/// SocketDnsTransport::exchange(): it ppolls its listener plus the
/// server's stop eventfd, with a timeout set by its earliest held copy,
/// drains the listener, and sends the held copies that are due. Every
/// datagram is a netio frame (wire.h) whose header names the simulated
/// client and server addresses; the worker answers from the shared
/// read-only zone data via SimulatedDnsNetwork::serve(), so the answer
/// bytes — and every seeded fault decision — are identical to what the
/// in-process backend would have produced. Injected loss/timeout is
/// served as genuine silence (the client really retransmits); an address
/// with no server attached is answered with a kUnreachable control frame
/// so the client can fail the exchange fast instead of waiting out its
/// retransmit schedule.
///
/// Every outgoing response/unreachable frame takes the fault plan's wire
/// decision for the response direction, keyed by the exchange and the
/// attempt index the query frame carried (wire_copies in wire.h);
/// held-back copies wait in the worker's own HeldCopies queue. stop()
/// does not wait for them: a copy still held then is never sent.
namespace cs::netio {

class DnsSocketServer {
 public:
  /// Serves on `threads` workers (at least one). `network` must outlive
  /// the server and stay quiescent (no attach) while the server runs; see
  /// the concurrency contract in dns/transport.h.
  DnsSocketServer(const dns::SimulatedDnsNetwork& network, unsigned threads);
  ~DnsSocketServer();

  DnsSocketServer(const DnsSocketServer&) = delete;
  DnsSocketServer& operator=(const DnsSocketServer&) = delete;

  /// Binds the listeners and starts the worker threads; false (with the
  /// reason logged) when the sockets cannot be set up.
  bool start();

  /// Wakes, stops and joins every worker. Safe to call repeatedly.
  void stop();

  /// The bound localhost UDP port (0 until start() succeeds).
  std::uint16_t port() const noexcept { return port_; }

  unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

 private:
  /// One listener and the thread that serves it. Only that thread touches
  /// the socket and the held copies once start() returns.
  struct Worker {
    UdpSocket socket;
    HeldCopies held;
    std::thread thread;
  };

  /// A worker thread's loop, until stop().
  void work(Worker& worker, unsigned index);
  /// Answers every query datagram waiting on the worker's listener.
  void drain(Worker& worker);
  /// Sends one outgoing frame through the plan's wire decision.
  void send_frame(Worker& worker, const Endpoint& peer, const Frame& query,
                  FrameKind kind, std::span<const std::uint8_t> payload);
  /// Closes the listeners and the stop eventfd.
  void close_all();

  const dns::SimulatedDnsNetwork& network_;
  unsigned threads_;
  std::vector<Worker> workers_;
  /// Readable once stop() ran; every worker polls it.
  int stop_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;
};

}  // namespace cs::netio
