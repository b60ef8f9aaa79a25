#pragma once

#include <cstdint>
#include <memory>

#include "dns/transport.h"
#include "netio/server.h"
#include "netio/transport.h"

/// One-call harness pairing a DnsSocketServer with its client transport,
/// plus the CS_* knobs that select and size the live-socket backend:
///
///   CS_TRANSPORT                sim (default) | socket
///   CS_NETIO_THREADS            server worker threads (default 2)
///   CS_NETIO_RTO_US             first attempt's wait in us (default 100000)
///   CS_NETIO_MAX_ATTEMPTS       sends before an exchange expires (default 3)
///
/// core::Study consults transport_mode_from_env() and, in socket mode,
/// stands up a LoopbackDns over the world's SimulatedDnsNetwork and
/// points every resolver at it — the enumerator, resolver, and dataset
/// builder run unchanged over real localhost UDP. Wire impairment is not
/// an option here: both ends execute the process-wide fault plan's
/// per-datagram decisions (CS_FAULT or fault::ScopedPlan, DESIGN §8).
namespace cs::netio {

enum class TransportMode { kSim, kSocket };

/// CS_TRANSPORT, strictly parsed: unset/empty or "sim" -> kSim, "socket"
/// -> kSocket, anything else warns (the uniform util::env message) and
/// falls back to kSim.
TransportMode transport_mode_from_env();

class LoopbackDns {
 public:
  using Options = netio::Options;

  /// Options with the CS_NETIO_* knobs applied (strict parses; malformed
  /// values warn and keep the defaults).
  static Options options_from_env();

  /// `network` must outlive this harness; its routing table must be fully
  /// built before start().
  explicit LoopbackDns(const dns::SimulatedDnsNetwork& network,
                       Options options);
  ~LoopbackDns();

  /// Brings up server then client; false (logged) leaves both stopped so
  /// the caller can fall back to the in-process transport.
  bool start();
  void stop();

  bool running() const noexcept { return transport_ && transport_->running(); }

  /// The DnsTransport resolvers should use; valid while running().
  SocketDnsTransport& transport() noexcept { return *transport_; }
  DnsSocketServer& server() noexcept { return server_; }
  const Options& options() const noexcept { return options_; }

 private:
  Options options_;
  DnsSocketServer server_;
  /// Built in start(), once the server's bound port is known.
  std::unique_ptr<SocketDnsTransport> transport_;
};

}  // namespace cs::netio
