#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "dns/transport.h"
#include "netio/socket.h"
#include "util/sync.h"

/// The client half of the live-socket DNS backend.
///
/// SocketDnsTransport is a dns::DnsTransport whose exchange() really puts
/// the query on a localhost UDP socket and waits for the answer on the
/// calling resolver thread, like an ordinary stub resolver. The caller
/// takes an idle connected socket from a small pool, or opens one when
/// every socket is busy, so there is at most one socket per concurrent
/// caller. It rewrites the query's DNS ID to the next value of a
/// transport-wide 16-bit wire-ID counter, sends, and ppolls its own socket
/// plus the stop eventfd. Only a response or unreachable frame carrying
/// that wire ID from the asked server settles the exchange; the resolver's
/// own ID is restored before the bytes are returned. Anything else on the
/// socket — a late or duplicated copy from an earlier exchange — is
/// counted in netio.client.strays and ignored.
///
/// Loss recovery is a pure function of the exchange (retransmit_delay_us):
/// attempt k waits rto_us * 2^(k-1), capped at 2 s, plus jitter keyed by
/// (exchange key, attempt), and the exchange expires after max_attempts
/// sends. The client keeps no per-server state, so one exchange's fate
/// never depends on how its neighbours fared. A kUnreachable control
/// frame from the server settles the exchange immediately.
///
/// Every outgoing query datagram takes the fault plan's wire decision
/// for its (exchange key, attempt) first (wire_copies in wire.h); with
/// no plan, or one without wire kinds, the cost is one relaxed load and
/// a predicted branch. Held-back copies wait in the exchange's own
/// HeldCopies queue (wire.h) and go out from the caller's wait loop; any
/// still held when the exchange settles go out then. The
/// frame carries the attempt index, so the server decides the response
/// direction without per-exchange state.
namespace cs::netio {

/// The socket backend's sizing and retransmit schedule, shared by the
/// server/client harness (LoopbackDns) and the client itself.
struct Options {
  unsigned server_threads = 2;     ///< server workers (CS_NETIO_THREADS)
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

  /// Opens the stop eventfd; false (logged) when there is no server port
  /// or the eventfd cannot be made.
  bool start();

  /// Wakes every caller still waiting (each returns nullopt), waits for
  /// them to leave, and closes the sockets.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Blocking send-and-wait on the calling thread; thread-safe.
  std::optional<std::vector<std::uint8_t>> exchange(
      net::Ipv4 client, net::Ipv4 server,
      std::span<const std::uint8_t> query) override;

 private:
  /// An idle pooled socket, or a newly connected one; nullopt when the
  /// transport is stopped or the socket cannot be opened.
  std::optional<UdpSocket> acquire_socket() CS_EXCLUDES(mutex_);
  void release_socket(UdpSocket socket) CS_EXCLUDES(mutex_);

  std::uint16_t server_port_;
  Options options_;
  /// Readable once stop() ran; every waiting caller polls it.
  int stop_fd_ = -1;
  std::atomic<std::uint16_t> next_wire_id_{0};
  /// Lifecycle flag. Reads are lock-free (the running() accessor); every
  /// transition happens under mutex_, so acquire_socket()'s locked check
  /// rules out a caller entering after stop().
  std::atomic<bool> running_{false};

  util::Mutex mutex_;
  util::CondVar callers_left_;
  std::vector<UdpSocket> idle_ CS_GUARDED_BY(mutex_);
  unsigned callers_ CS_GUARDED_BY(mutex_) = 0;  ///< inside exchange()
};

}  // namespace cs::netio
