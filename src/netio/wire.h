#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "net/ipv4.h"
#include "netio/socket.h"

/// Datagram framing for the loopback DNS wire, the one place netio
/// executes the fault plan's per-datagram decisions, and the queue both
/// ends hold delayed copies in.
///
/// Real sockets carry loopback addresses, but the synthetic world speaks
/// the paper's address plan — vantage-point clients querying authoritative
/// servers at their simulated IPs. A 13-byte frame header carries that
/// identity alongside every DNS payload:
///
///   0      2      3      4         5        9        13
///   +------+------+------+---------+--------+--------+----------------+
///   | "CS" | ver  | kind | attempt | client | server | DNS payload... |
///   +------+------+------+---------+--------+--------+----------------+
///                                    u32 BE   u32 BE
///
/// kQuery travels client->server; kResponse carries the authoritative
/// answer back; kUnreachable is the server's fast-fail for a server
/// address with no server attached (the stand-in for an ICMP port
/// unreachable), its payload echoing the query's 2-byte DNS ID so the
/// client can settle its exchange immediately instead of waiting out the
/// retransmit schedule. `attempt` is the query's send index within its
/// exchange (0 = first, saturating at 255); the server echoes it, so each
/// side keys its wire decisions on it without state.
namespace cs::netio {

inline constexpr std::size_t kFrameHeaderSize = 13;
inline constexpr std::uint8_t kFrameVersion = 2;

enum class FrameKind : std::uint8_t {
  kQuery = 0,
  kResponse = 1,
  kUnreachable = 2,
};

struct Frame {
  FrameKind kind = FrameKind::kQuery;
  std::uint8_t attempt = 0;
  net::Ipv4 client;
  net::Ipv4 server;
  std::span<const std::uint8_t> payload;  ///< view into the datagram
};

/// Renders header + payload into one datagram buffer.
std::vector<std::uint8_t> encode_frame(FrameKind kind, net::Ipv4 client,
                                       net::Ipv4 server,
                                       std::span<const std::uint8_t> payload,
                                       std::uint8_t attempt = 0);

/// Overwrites an encoded frame's attempt byte in place (a retransmit
/// resends the same frame under the next index).
void set_frame_attempt(std::span<std::uint8_t> datagram,
                       std::uint8_t attempt);

/// Parses a datagram; nullopt on short input, bad magic, unknown version,
/// or unknown kind. The payload span aliases `datagram`.
std::optional<Frame> decode_frame(std::span<const std::uint8_t> datagram);

/// The DNS message ID of a wire-format payload (first two bytes,
/// big-endian); nullopt when the payload is too short to carry one.
std::optional<std::uint16_t> dns_id(std::span<const std::uint8_t> payload);

/// Overwrites the DNS message ID in place — the client transport rewrites
/// each outbound query's ID to a transport-wide wire ID and restores the
/// resolver's original ID on the way back.
void rewrite_dns_id(std::span<std::uint8_t> payload, std::uint16_t id);

/// The active plan when it impairs datagrams, else nullptr: then every
/// datagram goes out once, unchanged, at once. With no plan, or one
/// without wire kinds, this costs one relaxed load and a predicted branch.
inline const fault::Plan* wire_plan() noexcept {
  const auto* plan = fault::active_plan();
  return plan && plan->spec().wire() ? plan : nullptr;
}

/// One copy of an outgoing datagram, due `delay_us` after the send.
struct WireCopy {
  std::vector<std::uint8_t> bytes;
  std::uint64_t delay_us = 0;
};

/// The copies of `datagram` that `plan`'s wire decision for (direction,
/// key, attempt) puts on the wire, counted in the fault.wire.* counters:
/// none when it drops the datagram, a flipped copy when it corrupts it, a
/// second copy when it duplicates it, each with its hold-back. The
/// sender puts delay-0 copies out at once and holds the rest.
std::vector<WireCopy> wire_copies(const fault::Plan& plan,
                                  fault::Direction direction,
                                  std::uint64_t key, std::uint32_t attempt,
                                  std::span<const std::uint8_t> datagram);

/// A datagram copy the wire plan held back.
struct HeldCopy {
  std::vector<std::uint8_t> bytes;
  Endpoint peer;  ///< where a server copy goes; a client socket is connected
};

/// The copies one sender holds back, each due at an obs::steady_now_us()
/// time. Both ends of the wire keep one: a client caller per exchange, a
/// server worker per thread. Its owner is its only user, so it takes no
/// lock, and it reads no clock: the caller passes the time in. Copies go
/// out in (due time, hold order), so two copies due at one microsecond
/// leave in the order they were held.
class HeldCopies {
 public:
  static constexpr std::uint64_t kNone =
      std::numeric_limits<std::uint64_t>::max();

  void hold(std::uint64_t due_us, HeldCopy copy) {
    // A multimap inserts an equal key after the ones already there.
    copies_.emplace(due_us, std::move(copy));
  }

  /// Calls send(copy) for every copy due by `now_us`, in firing order,
  /// forgets them, and returns the earliest due time left (kNone when
  /// none is).
  template <typename Send>
  std::uint64_t send_due(std::uint64_t now_us, Send&& send) {
    auto due = copies_.begin();
    for (; due != copies_.end() && due->first <= now_us; ++due)
      send(due->second);
    copies_.erase(copies_.begin(), due);
    return copies_.empty() ? kNone : copies_.begin()->first;
  }

 private:
  std::multimap<std::uint64_t, HeldCopy> copies_;
};

}  // namespace cs::netio
