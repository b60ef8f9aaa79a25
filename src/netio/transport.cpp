#include "netio/transport.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "fault/fault.h"
#include "netio/wire.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/sync.h"

namespace cs::netio {
namespace {

constexpr std::size_t kRecvBufferSize = 65536 + kFrameHeaderSize;
constexpr std::size_t kMuxIds = 65536;  // the DNS header ID space

/// Salt for the deterministic decorrelated backoff jitter stream.
constexpr std::uint64_t kBackoffSalt = 0xBAC0FFBAC0FFBAC0ULL;

obs::Histogram& exchange_histogram() {
  static auto& h = obs::histogram(
      "netio.client.exchange_us",
      {50, 100, 200, 500, 1000, 2000, 5000, 10000, 25000, 50000, 100000,
       250000, 500000});
  return h;
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
  if (options_.server_threads == 0) options_.server_threads = 1;
  if (options_.max_in_flight == 0) options_.max_in_flight = 1;
  if (options_.max_in_flight > kMuxIds)
    options_.max_in_flight = static_cast<unsigned>(kMuxIds);
  if (options_.max_attempts == 0) options_.max_attempts = 1;
}

SocketDnsTransport::~SocketDnsTransport() { stop(); }

bool SocketDnsTransport::start() {
  if (running()) return true;
  if (server_port_ == 0) {
    obs::log_error("netio.client", "no server port configured");
    return false;
  }
  sockets_.clear();
  sockets_.resize(options_.server_threads);
  for (std::size_t i = 0; i < sockets_.size(); ++i) {
    std::string error;
    // Each socket binds its own ephemeral source port, so the server's
    // SO_REUSEPORT hash spreads this client across its reactor workers.
    if (!sockets_[i].open_loopback(0, /*reuse_port=*/false, &error) ||
        !sockets_[i].connect_loopback(server_port_, &error)) {
      obs::log_error("netio.client", "client socket {} failed: {}", i, error);
      sockets_.clear();
      return false;
    }
    if (!reactor_.add_fd(sockets_[i].fd(), [this, i] { drain(i); })) {
      obs::log_error("netio.client", "epoll registration failed");
      sockets_.clear();
      return false;
    }
  }
  {
    util::LockGuard lock{mutex_};
    free_ids_.clear();
    for (std::size_t id = 0; id < kMuxIds; ++id)
      free_ids_.push_back(static_cast<std::uint16_t>(id));
  }
  running_.store(true, std::memory_order_release);
  reactor_.start();
  obs::log_info("netio.client",
                "connected {} sockets to 127.0.0.1:{} (in-flight cap {}, "
                "rto {} us x{})",
                sockets_.size(), server_port_, options_.max_in_flight,
                options_.rto_us, options_.max_attempts);
  return true;
}

void SocketDnsTransport::stop() {
  {
    util::LockGuard lock{mutex_};
    if (!running_.load(std::memory_order_relaxed)) return;
    running_.store(false, std::memory_order_release);
    // Fail every still-blocked exchange; their callers wake with nullopt.
    std::vector<std::uint16_t> live;
    live.reserve(pending_.size());
    for (const auto& [mux_id, p] : pending_) live.push_back(mux_id);
    for (const auto mux_id : live) settle_locked(mux_id, std::nullopt);
  }
  slot_free_.notify_all();
  reactor_.stop();
  sockets_.clear();
}

void SocketDnsTransport::send_attempt_locked(std::uint16_t mux_id,
                                             Pending& p) {
  const auto attempt = p.attempts - 1;
  set_frame_attempt(p.datagram,
                    static_cast<std::uint8_t>(std::min(attempt, 255u)));
  // A failed send (full socket buffer) is just a lost datagram: the
  // retransmit timer recovers it. Held-back copies run on the reactor
  // lock-free on purpose: B1 bans mutex acquisition inside reactor
  // callbacks, and none is needed — the atomic running_ check plus
  // stop()'s join-before-close ordering keep the send inside the
  // sockets' lifetime.
  send_impaired(reactor_, fault::Direction::kQuery, p.exchange_key, attempt,
                p.datagram,
                [this, index = p.socket_index](
                    std::span<const std::uint8_t> bytes) {
                  if (running_.load(std::memory_order_acquire))
                    sockets_[index].send(bytes);
                });
  p.timer = reactor_.run_after(
      retransmit_delay_us(options_.rto_us, p.exchange_key, p.attempts),
      [this, mux_id] { on_retransmit_deadline(mux_id); });
}

std::optional<std::vector<std::uint8_t>> SocketDnsTransport::exchange(
    net::Ipv4 client, net::Ipv4 server, std::span<const std::uint8_t> query) {
  static auto& exchanges = obs::counter("netio.client.exchanges");
  static auto& in_flight_gauge = obs::gauge("netio.client.in_flight");
  static auto& guard_trips = obs::counter("netio.client.hang_guard_trips");

  std::shared_ptr<Pending> p;
  std::uint16_t mux_id = 0;
  {
    util::LockGuard lock{mutex_};
    // Bounded in-flight backpressure: hold the caller until a slot frees.
    while (running_.load(std::memory_order_relaxed) &&
           in_flight_ >= options_.max_in_flight)
      slot_free_.wait(mutex_);
    if (!running_.load(std::memory_order_relaxed)) return std::nullopt;
    exchanges.inc();
    ++in_flight_;
    in_flight_gauge.set(in_flight_);
    mux_id = free_ids_.front();
    free_ids_.pop_front();

    p = std::make_shared<Pending>();
    p->server = server;
    p->original_id = dns_id(query).value_or(0);
    p->exchange_key = fault::query_key(client.value(), server.value(), query);
    std::vector<std::uint8_t> payload{query.begin(), query.end()};
    rewrite_dns_id(payload, mux_id);
    p->datagram = encode_frame(FrameKind::kQuery, client, server, payload);
    p->socket_index = mux_id % sockets_.size();
    p->sent_us = Reactor::now_us();
    p->attempts = 1;
    pending_.emplace(mux_id, p);
    send_attempt_locked(mux_id, *p);
  }

  // Hang guard: the retransmit schedule bounds every exchange, so waiting
  // past it (a lost timer would be a netio bug, not an injected fault)
  // must not deadlock the resolver; reclaim the slot and fail the lookup.
  // Every armed delay is < 1.5 * kMaxRetransmitDelayUs.
  // cslint:allow(D1): hang-guard deadline needs the raw monotonic clock for cv::wait_until; transport timing never shapes artifacts
  const auto guard_deadline = std::chrono::steady_clock::now() +
      std::chrono::microseconds(
          kMaxRetransmitDelayUs * 2 * options_.max_attempts + 1'000'000);
  bool done = false;
  {
    util::LockGuard pl{p->m};
    while (!p->done && p->cv.wait_until(p->m, guard_deadline) !=
                           std::cv_status::timeout) {
    }
    done = p->done;
  }
  if (!done) {
    util::LockGuard lock{mutex_};
    if (const auto it = pending_.find(mux_id);
        it != pending_.end() && it->second == p) {
      guard_trips.inc();
      obs::log_warn("netio.client",
                    "exchange hang guard tripped (mux id {})", mux_id);
      settle_locked(mux_id, std::nullopt);
    }
  }
  util::LockGuard pl{p->m};
  return std::move(p->result);
}

void SocketDnsTransport::drain(std::size_t socket_index) {
  std::uint8_t buffer[kRecvBufferSize];
  while (const auto n = sockets_[socket_index].recv_from(buffer, nullptr))
    on_frame(std::span<const std::uint8_t>{buffer, *n});
}

void SocketDnsTransport::on_frame(std::span<const std::uint8_t> datagram) {
  static auto& responses = obs::counter("netio.client.responses");
  static auto& unreachable = obs::counter("netio.client.unreachable");
  static auto& strays = obs::counter("netio.client.strays");

  const auto frame = decode_frame(datagram);
  if (!frame || (frame->kind != FrameKind::kResponse &&
                 frame->kind != FrameKind::kUnreachable)) {
    strays.inc();
    return;
  }
  const auto mux_id = dns_id(frame->payload);
  if (!mux_id) {
    strays.inc();
    return;
  }

  util::LockGuard lock{mutex_};
  const auto it = pending_.find(*mux_id);
  // A missing or mismatched slot is a straggler from an already-settled
  // exchange (e.g. a retransmit raced its own first response); the FIFO
  // free-list keeps released IDs cold, and the server check catches the
  // rare immediate reuse.
  if (it == pending_.end() || it->second->server != frame->server) {
    strays.inc();
    return;
  }
  if (frame->kind == FrameKind::kUnreachable) {
    // The path answered — the *server* is down: fail now, as the sim does.
    unreachable.inc();
    settle_locked(*mux_id, std::nullopt);
    return;
  }
  responses.inc();
  std::vector<std::uint8_t> bytes{frame->payload.begin(),
                                  frame->payload.end()};
  // Hand the resolver back its own DNS ID; the mux ID was transport-local.
  rewrite_dns_id(bytes, it->second->original_id);
  settle_locked(*mux_id, std::move(bytes));
}

void SocketDnsTransport::on_retransmit_deadline(std::uint16_t mux_id) {
  static auto& retransmits = obs::counter("netio.client.retransmits");
  static auto& expirations = obs::counter("netio.client.expirations");

  util::LockGuard lock{mutex_};
  const auto it = pending_.find(mux_id);
  if (it == pending_.end()) return;  // settled while the timer fired
  auto& p = *it->second;
  if (p.attempts >= options_.max_attempts) {
    expirations.inc();
    settle_locked(mux_id, std::nullopt);
    return;
  }
  ++p.attempts;
  retransmits.inc();
  // Same DNS bytes, same mux ID: the server replays the same seeded
  // loss/timeout decision, so an injected loss stays lost across every
  // attempt. Only the frame's attempt index moves, and with it the
  // wire's per-datagram decisions and this attempt's wait.
  send_attempt_locked(mux_id, p);
}

void SocketDnsTransport::settle_locked(
    std::uint16_t mux_id, std::optional<std::vector<std::uint8_t>> result) {
  const auto it = pending_.find(mux_id);
  if (it == pending_.end()) return;
  const auto p = it->second;
  pending_.erase(it);
  // Back of the FIFO: a released ID stays out of circulation for as long
  // as the free-list allows, so stragglers find an empty slot.
  free_ids_.push_back(mux_id);
  --in_flight_;
  static auto& in_flight_gauge = obs::gauge("netio.client.in_flight");
  in_flight_gauge.set(in_flight_);
  reactor_.cancel_timer(p->timer);
  exchange_histogram().observe(
      static_cast<double>(Reactor::now_us() - p->sent_us));
  {
    util::LockGuard pl{p->m};
    p->done = true;
    p->result = std::move(result);
  }
  p->cv.notify_one();
  slot_free_.notify_one();
}

}  // namespace cs::netio
