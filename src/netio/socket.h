#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "net/ipv4.h"

/// Thin RAII wrappers over non-blocking loopback UDP sockets.
///
/// netio speaks real sockets so the enumerator's query load exercises the
/// kernel datagram path — send/recv syscalls, socket buffers, EAGAIN —
/// instead of an in-process function call. Everything here is loopback
/// only: the synthetic world is served on 127.0.0.1 and the simulated
/// topology (client/server IPs from the paper's address plan) rides inside
/// the datagram framing (see netio/wire.h), not in the IP header.
namespace cs::netio {

/// One datagram's worth of peer identity (loopback address + real port).
struct Endpoint {
  std::uint32_t addr = 0;  ///< host order, 127.0.0.1 in practice
  std::uint16_t port = 0;

  bool operator==(const Endpoint&) const = default;
};

/// A non-blocking UDP/IPv4 socket. Move-only; closes on destruction.
class UdpSocket {
 public:
  UdpSocket() = default;
  ~UdpSocket();

  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Opens a non-blocking loopback socket bound to 127.0.0.1:`port`
  /// (0 = kernel-assigned). `reuse_port` opts into SO_REUSEPORT so several
  /// sockets can share one port — the server's listener fan-out. With
  /// `port` 0 the kernel picks a port no other socket holds, so a new
  /// fan-out never joins a foreign one. Returns false (and stores
  /// nothing) on any syscall failure.
  bool open_loopback(std::uint16_t port, bool reuse_port,
                     std::string* error = nullptr);

  /// Connects the socket to a loopback peer, enabling send()/plain recv().
  bool connect_loopback(std::uint16_t port, std::string* error = nullptr);

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  /// The locally bound port (after open_loopback).
  std::uint16_t local_port() const noexcept { return local_port_; }

  /// One datagram to a loopback peer; false on EAGAIN/EMSGSIZE/error.
  bool send_to(const Endpoint& peer, std::span<const std::uint8_t> payload);
  /// One datagram on a connected socket; false on would-block/error.
  bool send(std::span<const std::uint8_t> payload);

  /// One datagram into `buffer`; nullopt on EAGAIN (nothing pending).
  /// `peer`, when non-null, receives the sender's endpoint.
  std::optional<std::size_t> recv_from(std::span<std::uint8_t> buffer,
                                       Endpoint* peer);

  void close() noexcept;

 private:
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
};

}  // namespace cs::netio
