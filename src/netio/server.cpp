#include "netio/server.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#include <string>
#include <utility>

#include "fault/fault.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cs::netio {
namespace {

/// Loopback UDP comfortably carries 64 KiB datagrams; anything larger
/// fails at send time (EMSGSIZE) and is counted, not crashed on.
constexpr std::size_t kRecvBufferSize = 65536;

void send_to(UdpSocket& socket, const Endpoint& peer,
             std::span<const std::uint8_t> bytes) {
  static auto& send_drops = obs::counter("netio.server.send_drops");
  if (!socket.send_to(peer, bytes)) send_drops.inc();
}

}  // namespace

DnsSocketServer::DnsSocketServer(const dns::SimulatedDnsNetwork& network,
                                 unsigned threads)
    : network_(network), threads_(threads ? threads : 1) {}

DnsSocketServer::~DnsSocketServer() { stop(); }

bool DnsSocketServer::start() {
  if (started_) return true;
  port_ = 0;
  stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (stop_fd_ < 0) {
    obs::log_error("netio.server", "stop eventfd failed");
    return false;
  }
  workers_ = std::vector<Worker>(threads_);
  for (unsigned i = 0; i < threads_; ++i) {
    std::string error;
    // Every listener (including the first) opts into SO_REUSEPORT; the
    // kernel then spreads client source ports across them.
    if (!workers_[i].socket.open_loopback(port_, /*reuse_port=*/true,
                                          &error)) {
      obs::log_error("netio.server", "listener {} failed: {}", i, error);
      close_all();
      port_ = 0;
      return false;
    }
    if (i == 0) port_ = workers_[i].socket.local_port();
  }
  // Started before the first spawn, so a spawn that throws still leaves
  // stop() to join the workers already running.
  started_ = true;
  for (unsigned i = 0; i < threads_; ++i)
    workers_[i].thread = std::thread([this, i] { work(workers_[i], i); });
  obs::log_info("netio.server", "serving {} zones on 127.0.0.1:{} with {} "
                "worker threads",
                network_.server_count(), port_, workers_.size());
  return true;
}

void DnsSocketServer::stop() {
  if (!started_) return;
  // The eventfd stays readable, so every worker's ppoll wakes and returns.
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(stop_fd_, &one, sizeof(one));
  for (auto& worker : workers_)
    if (worker.thread.joinable()) worker.thread.join();
  close_all();
  started_ = false;
}

void DnsSocketServer::close_all() {
  workers_.clear();
  ::close(stop_fd_);
  stop_fd_ = -1;
}

void DnsSocketServer::work(Worker& worker, unsigned index) {
  obs::Tracer::instance().set_thread_name("netio-server-" +
                                          std::to_string(index));
  const auto send_held = [&worker](const HeldCopy& copy) {
    send_to(worker.socket, copy.peer, copy.bytes);
  };
  std::uint64_t next_due_us = HeldCopies::kNone;
  for (;;) {
    // With nothing held the worker sleeps until a datagram or stop().
    timespec timeout{};
    const timespec* wait = nullptr;
    if (next_due_us != HeldCopies::kNone) {
      const auto now = obs::steady_now_us();
      const auto wait_us = next_due_us > now ? next_due_us - now : 0;
      timeout = {static_cast<time_t>(wait_us / 1'000'000),
                 static_cast<long>(wait_us % 1'000'000 * 1000)};
      wait = &timeout;
    }
    pollfd fds[2] = {{worker.socket.fd(), POLLIN, 0}, {stop_fd_, POLLIN, 0}};
    if (::ppoll(fds, 2, wait, nullptr) < 0 && errno != EINTR) {
      obs::log_error("netio.server", "ppoll failed on listener {}: errno {}",
                     index, errno);
      return;
    }
    if (fds[1].revents != 0) return;
    if (fds[0].revents != 0) drain(worker);
    next_due_us = worker.held.send_due(obs::steady_now_us(), send_held);
  }
}

void DnsSocketServer::drain(Worker& worker) {
  static auto& queries = obs::counter("netio.server.queries");
  static auto& dropped = obs::counter("netio.server.malformed");
  static auto& unreachable = obs::counter("netio.server.unreachable");
  static auto& silent = obs::counter("netio.server.fault_silence");

  std::uint8_t buffer[kRecvBufferSize];
  Endpoint peer;
  while (const auto n = worker.socket.recv_from(buffer, &peer)) {
    const std::span<const std::uint8_t> datagram{buffer, *n};
    const auto frame = decode_frame(datagram);
    // Anything that is not a well-formed query frame — truncated header,
    // bad magic, unexpected kind — is dropped and counted, exactly like a
    // real authoritative ignoring junk datagrams. Malformed *DNS* inside a
    // valid frame flows on to serve(), whose decoder answers FORMERR.
    if (!frame || frame->kind != FrameKind::kQuery) {
      dropped.inc();
      continue;
    }
    queries.inc();
    const auto reply =
        network_.serve(frame->client, frame->server, frame->payload);
    switch (reply.verdict) {
      case dns::WireVerdict::kAnswer:
        send_frame(worker, peer, *frame, FrameKind::kResponse, reply.bytes);
        break;
      case dns::WireVerdict::kDrop:
        // Injected loss/timeout: real silence, the client's retransmit
        // timer does the rest (and its retry replays the same decision).
        silent.inc();
        break;
      case dns::WireVerdict::kUnreachable: {
        unreachable.inc();
        // Echo the query's DNS ID (the client's wire ID) so the client
        // settles its exchange at once (the ICMP-unreachable analog).
        std::uint8_t echo[2] = {0, 0};
        if (frame->payload.size() >= 2) {
          echo[0] = frame->payload[0];
          echo[1] = frame->payload[1];
        }
        send_frame(worker, peer, *frame, FrameKind::kUnreachable, echo);
        break;
      }
    }
  }
}

void DnsSocketServer::send_frame(Worker& worker, const Endpoint& peer,
                                 const Frame& query, FrameKind kind,
                                 std::span<const std::uint8_t> payload) {
  const auto datagram = encode_frame(kind, query.client, query.server,
                                     payload, query.attempt);
  const auto* plan = wire_plan();
  if (!plan) [[likely]] {
    send_to(worker.socket, peer, datagram);
    return;
  }
  // The key matches the client's, which keys the query before its wire-ID
  // rewrite: query_key skips the ID bytes.
  const auto key = fault::query_key(query.client.value(),
                                    query.server.value(), query.payload);
  const auto now = obs::steady_now_us();
  for (auto& copy : wire_copies(*plan, fault::Direction::kResponse, key,
                                query.attempt, datagram)) {
    if (copy.delay_us == 0)
      send_to(worker.socket, peer, copy.bytes);
    else
      worker.held.hold(now + copy.delay_us,
                       HeldCopy{std::move(copy.bytes), peer});
  }
}

}  // namespace cs::netio
