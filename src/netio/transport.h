#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dns/transport.h"
#include "netio/reactor.h"
#include "netio/resilience.h"
#include "netio/socket.h"
#include "util/sync.h"

/// The client half of the live-socket DNS backend.
///
/// SocketDnsTransport is a dns::DnsTransport whose exchange() really puts
/// the query on a localhost UDP socket and blocks the calling resolver
/// thread until the response datagram comes back (or the retransmit
/// schedule expires). Many resolver threads share one transport, so the
/// wire is pipelined: each exchange claims a 16-bit mux ID from a FIFO
/// free-list, rewrites the DNS header ID to it on the way out, and a
/// single client reactor demultiplexes responses back to the blocked
/// callers by that ID, restoring the resolver's original ID before
/// returning the bytes. The FIFO free-list keeps a just-released ID cold
/// for as long as possible, so a straggler response for a completed
/// exchange almost always finds its slot empty (and is counted, not
/// misdelivered — the slot also pins the expected server address).
///
/// Loss recovery is adaptive (resilience.h): each server gets an RFC 6298
/// RTO estimator fed only by clean samples (Karn's rule), retransmits
/// back off exponentially with deterministic decorrelated jitter keyed by
/// the exchange, a global token-bucket retry budget refuses retransmits
/// under correlated loss, and a per-server circuit breaker fails new
/// exchanges fast once a server has expired enough exchanges in a row.
/// Every fast-fail path is a named counter surfaced in the data-quality
/// report — degradation is accounted, never silent. A kUnreachable
/// control frame from the server settles the exchange immediately and
/// counts as breaker *success*: the path answered, the server said no.
///
/// Backpressure: at most max_in_flight exchanges may hold the wire; the
/// next caller blocks until a slot frees, bounding socket-buffer pressure
/// no matter how many resolver threads pile on.
///
/// Every outgoing query datagram takes the fault plan's wire decision
/// for its (exchange key, attempt) first (send_impaired in wire.h); with
/// no plan, or one without wire kinds, the cost is one relaxed load and
/// a predicted branch. The frame carries the attempt index, so the
/// server decides the response direction without per-exchange state.
namespace cs::netio {

class SocketDnsTransport final : public dns::DnsTransport {
 public:
  struct Options {
    std::uint16_t server_port = 0;    ///< DnsSocketServer::port()
    unsigned max_in_flight = 256;     ///< CS_NETIO_INFLIGHT
    unsigned client_sockets = 2;      ///< spread over SO_REUSEPORT workers
    std::uint64_t rto_us = 100'000;   ///< initial RTO (CS_NETIO_RTO_US)
    unsigned max_attempts = 3;        ///< CS_NETIO_MAX_ATTEMPTS
    std::uint64_t min_rto_us = 5'000;     ///< adaptive-RTO floor
    std::uint64_t max_rto_us = 2'000'000;  ///< adaptive-RTO + backoff cap
    double retry_budget_credit = 0.2;  ///< earned per first send
    double retry_budget_cap = 1000.0;  ///< CS_NETIO_RETRY_BUDGET
    unsigned breaker_threshold = 16;   ///< CS_NETIO_BREAKER_FAILS
    std::uint64_t breaker_cooldown_us = 250'000;  ///< open -> half-open
  };

  explicit SocketDnsTransport(Options options);
  ~SocketDnsTransport() override;

  SocketDnsTransport(const SocketDnsTransport&) = delete;
  SocketDnsTransport& operator=(const SocketDnsTransport&) = delete;

  /// Opens the client sockets and starts the reactor; false (logged) when
  /// socket setup fails.
  bool start();

  /// Fails every still-blocked exchange and joins the reactor.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Blocking send-and-wait; thread-safe, pipelined across callers.
  std::optional<std::vector<std::uint8_t>> exchange(
      net::Ipv4 client, net::Ipv4 server,
      std::span<const std::uint8_t> query) override;

 private:
  struct Pending {
    util::Mutex m;
    util::CondVar cv;
    bool done CS_GUARDED_BY(m) = false;
    std::optional<std::vector<std::uint8_t>> result CS_GUARDED_BY(m);

    net::Ipv4 server;                  ///< expected responder
    std::uint16_t original_id = 0;     ///< resolver's DNS header ID
    std::vector<std::uint8_t> datagram;  ///< framed query, mux ID applied
    std::size_t socket_index = 0;
    unsigned attempts = 0;
    TimerWheel::Token timer = 0;
    std::uint64_t sent_us = 0;  ///< first send, for the latency histogram
    /// fault::query_key of the exchange: the wire-decision and
    /// backoff-jitter key, invariant across mux rewrites/retransmits.
    std::uint64_t exchange_key = 0;
    /// Karn's rule: once true, this exchange's RTT never feeds SRTT.
    bool retransmitted = false;
  };

  /// Per-server adaptive state, keyed by the simulated server address.
  struct ServerState {
    RtoEstimator rto;
    CircuitBreaker breaker;
    explicit ServerState(const Options& options)
        : rto(RtoEstimator::Options{options.rto_us, options.min_rto_us,
                                    options.max_rto_us}),
          breaker(CircuitBreaker::Options{options.breaker_threshold,
                                          options.breaker_cooldown_us}) {}
  };

  void drain(std::size_t socket_index);
  void on_frame(std::span<const std::uint8_t> datagram) CS_EXCLUDES(mutex_);
  void on_retransmit_deadline(std::uint16_t mux_id) CS_EXCLUDES(mutex_);
  /// Completes and unblocks one exchange.
  void settle_locked(std::uint16_t mux_id,
                     std::optional<std::vector<std::uint8_t>> result)
      CS_REQUIRES(mutex_);
  /// Sends one copy of the pending query's datagram through the plan's
  /// wire decision for its current attempt.
  void send_query_locked(Pending& p) CS_REQUIRES(mutex_);
  ServerState& server_state_locked(std::uint32_t server) CS_REQUIRES(mutex_);
  /// Breaker failure with trip/open accounting.
  void breaker_failure_locked(ServerState& state) CS_REQUIRES(mutex_);
  void breaker_success_locked(ServerState& state) CS_REQUIRES(mutex_);

  Options options_;
  Reactor reactor_{"netio-client"};
  std::vector<UdpSocket> sockets_;
  /// Lifecycle flag. Reads are lock-free (the running() accessor and the
  /// held-back send path); every transition happens under mutex_, so
  /// exchange()'s locked re-check still rules out a send-after-stop.
  std::atomic<bool> running_{false};

  util::Mutex mutex_;
  util::CondVar slot_free_;
  std::deque<std::uint16_t> free_ids_ CS_GUARDED_BY(mutex_);
  std::unordered_map<std::uint16_t, std::shared_ptr<Pending>> pending_
      CS_GUARDED_BY(mutex_);
  std::unordered_map<std::uint32_t, ServerState> servers_
      CS_GUARDED_BY(mutex_);
  RetryBudget budget_ CS_GUARDED_BY(mutex_);
  unsigned in_flight_ CS_GUARDED_BY(mutex_) = 0;
  unsigned breakers_open_ CS_GUARDED_BY(mutex_) = 0;
};

}  // namespace cs::netio
