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
/// Loss recovery is a pure function of the exchange (retransmit_delay_us):
/// attempt k waits rto_us * 2^(k-1), capped at 2 s, plus jitter keyed by
/// (exchange key, attempt), and the exchange expires after max_attempts
/// sends. The client keeps no per-server state, so one exchange's fate
/// never depends on how its neighbours fared. A kUnreachable control
/// frame from the server settles the exchange immediately.
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

/// The socket backend's sizing and retransmit schedule, shared by the
/// server/client harness (LoopbackDns) and the client itself.
struct Options {
  /// Server reactor threads (CS_NETIO_THREADS); the client opens as many
  /// sockets, so its source ports spread over every SO_REUSEPORT worker.
  unsigned server_threads = 2;
  unsigned max_in_flight = 256;    ///< CS_NETIO_INFLIGHT
  std::uint64_t rto_us = 100'000;  ///< first attempt's wait (CS_NETIO_RTO_US)
  unsigned max_attempts = 3;       ///< CS_NETIO_MAX_ATTEMPTS
};

/// Longest wait any one attempt can be given before jitter.
inline constexpr std::uint64_t kMaxRetransmitDelayUs = 2'000'000;

/// How long attempt `attempt` (1-based) of the exchange keyed
/// `exchange_key` waits for its answer: d = min(rto_us * 2^(attempt-1),
/// kMaxRetransmitDelayUs), plus jitter drawn from [d, 1.5*d) by a stream
/// keyed only by (exchange key, attempt) — a property of the exchange,
/// never of scheduler timing or of other exchanges.
std::uint64_t retransmit_delay_us(std::uint64_t rto_us,
                                  std::uint64_t exchange_key,
                                  unsigned attempt) noexcept;

class SocketDnsTransport final : public dns::DnsTransport {
 public:
  /// `server_port` is the DnsSocketServer::port() to connect to.
  SocketDnsTransport(std::uint16_t server_port, Options options);
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
  };

  void drain(std::size_t socket_index);
  void on_frame(std::span<const std::uint8_t> datagram) CS_EXCLUDES(mutex_);
  void on_retransmit_deadline(std::uint16_t mux_id) CS_EXCLUDES(mutex_);
  /// Completes and unblocks one exchange.
  void settle_locked(std::uint16_t mux_id,
                     std::optional<std::vector<std::uint8_t>> result)
      CS_REQUIRES(mutex_);
  /// Sends the pending query's datagram for its current attempt, through
  /// the plan's wire decision, and arms that attempt's deadline.
  void send_attempt_locked(std::uint16_t mux_id, Pending& p)
      CS_REQUIRES(mutex_);

  std::uint16_t server_port_;
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
  unsigned in_flight_ CS_GUARDED_BY(mutex_) = 0;
};

}  // namespace cs::netio
