#include "netio/server.h"

#include <string>
#include <utility>

#include "fault/fault.h"
#include "netio/wire.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace cs::netio {
namespace {

/// Loopback UDP comfortably carries 64 KiB datagrams; anything larger
/// fails at send time (EMSGSIZE) and is counted, not crashed on.
constexpr std::size_t kRecvBufferSize = 65536;

}  // namespace

DnsSocketServer::DnsSocketServer(const dns::SimulatedDnsNetwork& network,
                                 unsigned threads)
    : network_(network), threads_(threads ? threads : 1) {}

DnsSocketServer::~DnsSocketServer() { stop(); }

bool DnsSocketServer::start() {
  if (started_) return true;
  workers_.clear();
  port_ = 0;
  for (unsigned i = 0; i < threads_; ++i) {
    Worker worker;
    std::string error;
    // Every listener (including the first) opts into SO_REUSEPORT; the
    // kernel then spreads client source ports across them.
    if (!worker.socket.open_loopback(port_, /*reuse_port=*/true, &error)) {
      obs::log_error("netio.server", "listener {} failed: {}", i, error);
      workers_.clear();
      port_ = 0;
      return false;
    }
    if (i == 0) port_ = worker.socket.local_port();
    worker.reactor = std::make_unique<Reactor>(
        "netio-server-" + std::to_string(i));
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    auto* w = &worker;
    if (!worker.reactor->add_fd(worker.socket.fd(),
                                [this, w] { drain(*w); })) {
      obs::log_error("netio.server", "epoll registration failed");
      workers_.clear();
      port_ = 0;
      return false;
    }
  }
  for (auto& worker : workers_) worker.reactor->start();
  started_ = true;
  obs::log_info("netio.server", "serving {} zones on 127.0.0.1:{} with {} "
                "reactor threads",
                network_.server_count(), port_, workers_.size());
  return true;
}

void DnsSocketServer::stop() {
  if (!started_) return;
  for (auto& worker : workers_)
    if (worker.reactor) worker.reactor->stop();
  workers_.clear();
  started_ = false;
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
  static auto& send_drops = obs::counter("netio.server.send_drops");
  const auto datagram = encode_frame(kind, query.client, query.server,
                                     payload, query.attempt);
  const auto send = [socket = &worker.socket, peer](
                        std::span<const std::uint8_t> bytes) {
    if (!socket->send_to(peer, bytes)) send_drops.inc();
  };
  const auto* plan = wire_plan();
  if (!plan) [[likely]] {
    send(datagram);
    return;
  }
  // The key matches the client's, which keys the query before its wire-ID
  // rewrite: query_key skips the ID bytes. Held-back copies ride the
  // worker's own reactor timers; stop() joins that reactor before the
  // socket is closed, so the capture is safe.
  const auto key = fault::query_key(query.client.value(),
                                    query.server.value(), query.payload);
  for (auto& copy : wire_copies(*plan, fault::Direction::kResponse, key,
                                query.attempt, datagram)) {
    if (copy.delay_us == 0) {
      send(copy.bytes);
      continue;
    }
    worker.reactor->run_after(copy.delay_us,
                              [send, bytes = std::move(copy.bytes)] {
                                send(bytes);
                              });
  }
}

}  // namespace cs::netio
