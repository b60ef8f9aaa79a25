#include "netio/transport.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <ctime>
#include <string>

#include "fault/fault.h"
#include "netio/wire.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/sync.h"

namespace cs::netio {
namespace {

constexpr std::size_t kRecvBufferSize = 65536 + kFrameHeaderSize;

/// Salt for the deterministic decorrelated backoff jitter stream.
constexpr std::uint64_t kBackoffSalt = 0xBAC0FFBAC0FFBAC0ULL;

obs::Histogram& exchange_histogram() {
  static auto& h = obs::histogram(
      "netio.client.exchange_us",
      {50, 100, 200, 500, 1000, 2000, 5000, 10000, 25000, 50000, 100000,
       250000, 500000});
  return h;
}

/// Puts attempt `attempt` (0-based) of an exchange on the wire through
/// the plan's decision: copies due now go out at once, the rest join
/// `held`. A failed send (full socket buffer) is just a lost datagram:
/// the retransmit schedule recovers it.
void send_attempt(UdpSocket& socket, std::vector<std::uint8_t>& datagram,
                  std::uint64_t key, unsigned attempt, HeldCopies& held) {
  set_frame_attempt(datagram,
                    static_cast<std::uint8_t>(std::min(attempt, 255u)));
  const auto* plan = wire_plan();
  if (!plan) [[likely]] {
    socket.send(datagram);
    return;
  }
  const auto now = obs::steady_now_us();
  for (auto& copy : wire_copies(*plan, fault::Direction::kQuery, key,
                                attempt, datagram)) {
    if (copy.delay_us == 0)
      socket.send(copy.bytes);
    else
      held.hold(now + copy.delay_us, HeldCopy{std::move(copy.bytes), {}});
  }
}

/// Reads every datagram waiting on `socket`. True once one settles the
/// exchange — a response or unreachable frame carrying `wire_id` from
/// `server` — with `answer` holding a response's payload. Anything else
/// is a late or duplicated copy from an earlier exchange on this socket,
/// or a datagram the wire mangled, and is counted a stray.
bool receive(UdpSocket& socket, std::uint16_t wire_id, net::Ipv4 server,
             std::optional<std::vector<std::uint8_t>>& answer) {
  static auto& responses = obs::counter("netio.client.responses");
  static auto& unreachable = obs::counter("netio.client.unreachable");
  static auto& strays = obs::counter("netio.client.strays");
  std::uint8_t buffer[kRecvBufferSize];
  while (const auto n = socket.recv_from(buffer, nullptr)) {
    const auto frame = decode_frame({buffer, *n});
    if (!frame ||
        (frame->kind != FrameKind::kResponse &&
         frame->kind != FrameKind::kUnreachable) ||
        dns_id(frame->payload) != wire_id || frame->server != server) {
      strays.inc();
      continue;
    }
    if (frame->kind == FrameKind::kUnreachable) {
      // The path answered — the *server* is down: fail now, as the sim
      // does.
      unreachable.inc();
      return true;
    }
    responses.inc();
    answer.emplace(frame->payload.begin(), frame->payload.end());
    return true;
  }
  return false;
}

}  // namespace

std::uint64_t retransmit_delay_us(std::uint64_t rto_us,
                                  std::uint64_t exchange_key,
                                  unsigned attempt) noexcept {
  // Doubling stops at the cap, so no attempt index can overflow it.
  std::uint64_t d = std::min(std::max<std::uint64_t>(rto_us, 1),
                             kMaxRetransmitDelayUs);
  for (unsigned k = 1; k < attempt && d < kMaxRetransmitDelayUs; ++k)
    d = std::min(d * 2, kMaxRetransmitDelayUs);
  util::Rng rng{exchange_key ^ kBackoffSalt ^
                (static_cast<std::uint64_t>(attempt) *
                 0x9E3779B97F4A7C15ULL)};
  return d + static_cast<std::uint64_t>(0.5 * static_cast<double>(d) *
                                        rng.uniform01());
}

SocketDnsTransport::SocketDnsTransport(std::uint16_t server_port,
                                       Options options)
    : server_port_(server_port), options_(options) {
  if (options_.max_attempts == 0) options_.max_attempts = 1;
}

SocketDnsTransport::~SocketDnsTransport() { stop(); }

bool SocketDnsTransport::start() {
  util::LockGuard lock{mutex_};
  if (running()) return true;
  if (server_port_ == 0) {
    obs::log_error("netio.client", "no server port configured");
    return false;
  }
  stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (stop_fd_ < 0) {
    obs::log_error("netio.client", "stop eventfd failed");
    return false;
  }
  running_.store(true, std::memory_order_release);
  obs::log_info("netio.client", "querying 127.0.0.1:{} (rto {} us x{})",
                server_port_, options_.rto_us, options_.max_attempts);
  return true;
}

void SocketDnsTransport::stop() {
  util::LockGuard lock{mutex_};
  if (!running_.load(std::memory_order_relaxed)) return;
  running_.store(false, std::memory_order_release);
  // The eventfd stays readable, so every caller's ppoll wakes, fails its
  // exchange and hands its socket back.
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(stop_fd_, &one, sizeof(one));
  while (callers_ > 0) callers_left_.wait(mutex_);
  idle_.clear();
  ::close(stop_fd_);
  stop_fd_ = -1;
}

std::optional<UdpSocket> SocketDnsTransport::acquire_socket() {
  {
    util::LockGuard lock{mutex_};
    if (!running_.load(std::memory_order_relaxed)) return std::nullopt;
    ++callers_;
    if (!idle_.empty()) {
      UdpSocket socket = std::move(idle_.back());
      idle_.pop_back();
      return socket;
    }
  }
  // Every pooled socket is busy: this caller gets its own. A fresh
  // ephemeral source port also lets the server's SO_REUSEPORT hash
  // spread concurrent callers across its worker threads.
  UdpSocket socket;
  std::string error;
  if (socket.open_loopback(0, /*reuse_port=*/false, &error) &&
      socket.connect_loopback(server_port_, &error))
    return socket;
  obs::log_error("netio.client", "client socket failed: {}", error);
  release_socket(UdpSocket{});
  return std::nullopt;
}

void SocketDnsTransport::release_socket(UdpSocket socket) {
  util::LockGuard lock{mutex_};
  if (socket.valid()) idle_.push_back(std::move(socket));
  if (--callers_ == 0) callers_left_.notify_all();
}

std::optional<std::vector<std::uint8_t>> SocketDnsTransport::exchange(
    net::Ipv4 client, net::Ipv4 server, std::span<const std::uint8_t> query) {
  static auto& exchanges = obs::counter("netio.client.exchanges");
  static auto& retransmits = obs::counter("netio.client.retransmits");
  static auto& expirations = obs::counter("netio.client.expirations");

  auto socket = acquire_socket();
  if (!socket) return std::nullopt;
  exchanges.inc();
  const auto original_id = dns_id(query).value_or(0);
  const auto wire_id = next_wire_id_.fetch_add(1, std::memory_order_relaxed);
  auto datagram = encode_frame(FrameKind::kQuery, client, server, query);
  rewrite_dns_id(std::span{datagram}.subspan(kFrameHeaderSize), wire_id);
  // The wire-decision and backoff-jitter key: query_key skips the DNS ID,
  // so it is the same before and after the wire-ID rewrite.
  const auto key = fault::query_key(client.value(), server.value(), query);
  const auto started_us = obs::steady_now_us();

  std::optional<std::vector<std::uint8_t>> answer;
  HeldCopies held;
  const auto send_held = [&socket](const HeldCopy& copy) {
    socket->send(copy.bytes);
  };
  unsigned attempts = 0;
  std::uint64_t deadline_us = 0;
  for (;;) {
    const auto now = obs::steady_now_us();
    if (now >= deadline_us) {
      if (attempts == options_.max_attempts) {
        expirations.inc();
        break;
      }
      if (attempts > 0) retransmits.inc();
      // Same DNS bytes, same wire ID: the server replays the same seeded
      // loss/timeout decision, so an injected loss stays lost across
      // every attempt. Only the frame's attempt index moves, and with it
      // the wire's per-datagram decisions and this attempt's wait.
      send_attempt(*socket, datagram, key, attempts, held);
      ++attempts;
      deadline_us =
          now + retransmit_delay_us(options_.rto_us, key, attempts);
    }
    // Both the deadline and every held copy's due time lie past `now`.
    const auto wait_us =
        std::min(deadline_us, held.send_due(now, send_held)) - now;
    const timespec timeout{static_cast<time_t>(wait_us / 1'000'000),
                           static_cast<long>(wait_us % 1'000'000 * 1000)};
    pollfd fds[2] = {{socket->fd(), POLLIN, 0}, {stop_fd_, POLLIN, 0}};
    ::ppoll(fds, 2, &timeout, nullptr);
    if (fds[1].revents != 0) break;  // stop(): fail the exchange
    // Read on a timeout too: an answer that landed before this caller saw
    // its deadline pass still settles the exchange.
    if (receive(*socket, wire_id, server, answer)) break;
  }
  // Hand the resolver back its own DNS ID; the wire ID was transport-local.
  if (answer) rewrite_dns_id(*answer, original_id);
  // Only a drop keeps a datagram off the wire: copies the plan still
  // holds go out now.
  held.send_due(HeldCopies::kNone, send_held);
  exchange_histogram().observe(
      static_cast<double>(obs::steady_now_us() - started_us));
  release_socket(std::move(*socket));
  return answer;
}

}  // namespace cs::netio
