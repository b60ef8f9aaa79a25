#include "netio/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/metrics.h"

namespace cs::netio {
namespace {

constexpr std::uint32_t kLoopback = 0x7F000001;  // 127.0.0.1

sockaddr_in loopback_sockaddr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(kLoopback);
  addr.sin_port = htons(port);
  return addr;
}

void set_error(std::string* error, const char* what) {
  if (error) *error = std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

UdpSocket::~UdpSocket() { close(); }

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      local_port_(std::exchange(other.local_port_, 0)) {}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    local_port_ = std::exchange(other.local_port_, 0);
  }
  return *this;
}

bool UdpSocket::open_loopback(std::uint16_t port, bool reuse_port,
                              std::string* error) {
  close();
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    set_error(error, "socket");
    return false;
  }
  const auto enable_reuse_port = [&] {
    const int one = 1;
    if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) == 0)
      return true;
    set_error(error, "setsockopt(SO_REUSEPORT)");
    close();
    return false;
  };
  // A kernel-assigned port is picked before SO_REUSEPORT goes on. Linux
  // lets bind(0) with SO_REUSEPORT land on a port that another same-user
  // process's SO_REUSEPORT sockets hold, and the new socket then joins
  // their group and shares their datagrams (two test processes would
  // answer each other's queries). A plain bind(0) never picks a held
  // port; setting SO_REUSEPORT after it still lets later binds to the
  // port join this socket.
  if (reuse_port && port != 0 && !enable_reuse_port()) return false;
  // Deep socket buffers: a server listener takes every caller's queries,
  // and a dropped datagram costs a retransmit timeout. Best effort — the
  // kernel clamps to its limits.
  const int bytes = 1 << 20;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
  (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  sockaddr_in addr = loopback_sockaddr(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    set_error(error, "bind");
    close();
    return false;
  }
  if (reuse_port && port == 0 && !enable_reuse_port()) return false;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    set_error(error, "getsockname");
    close();
    return false;
  }
  local_port_ = ntohs(addr.sin_port);
  return true;
}

bool UdpSocket::connect_loopback(std::uint16_t port, std::string* error) {
  sockaddr_in addr = loopback_sockaddr(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    set_error(error, "connect");
    return false;
  }
  return true;
}

bool UdpSocket::send_to(const Endpoint& peer,
                        std::span<const std::uint8_t> payload) {
  sockaddr_in addr = loopback_sockaddr(peer.port);
  addr.sin_addr.s_addr = htonl(peer.addr);
  const auto sent =
      ::sendto(fd_, payload.data(), payload.size(), 0,
               reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (sent < 0) {
    static auto& failures = obs::counter("netio.socket.send_failures");
    failures.inc();
    return false;
  }
  return static_cast<std::size_t>(sent) == payload.size();
}

bool UdpSocket::send(std::span<const std::uint8_t> payload) {
  const auto sent = ::send(fd_, payload.data(), payload.size(), 0);
  if (sent < 0) {
    static auto& failures = obs::counter("netio.socket.send_failures");
    failures.inc();
    return false;
  }
  return static_cast<std::size_t>(sent) == payload.size();
}

std::optional<std::size_t> UdpSocket::recv_from(std::span<std::uint8_t> buffer,
                                                Endpoint* peer) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  const auto got = ::recvfrom(fd_, buffer.data(), buffer.size(), 0,
                              reinterpret_cast<sockaddr*>(&addr), &len);
  if (got < 0) return std::nullopt;  // EAGAIN and transient errors alike
  if (peer) {
    peer->addr = ntohl(addr.sin_addr.s_addr);
    peer->port = ntohs(addr.sin_port);
  }
  return static_cast<std::size_t>(got);
}

void UdpSocket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    local_port_ = 0;
  }
}

}  // namespace cs::netio
