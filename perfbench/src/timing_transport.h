#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "dns/transport.h"
#include "synth/world.h"

/// A dns::DnsTransport decorator for the traced run. It forwards every
/// exchange unchanged to the transport the world would have used (the
/// in-process network, or the live-socket client), and on the way counts
/// exchanges and bytes, sums the time spent inside the wrapped transport,
/// keeps each exchange's latency, and keeps every 97th query datagram (at
/// most 2048) for the replay ladder.
namespace perfbench {

class TimingTransport final : public cs::dns::DnsTransport {
 public:
  struct Sample {
    cs::net::Ipv4 client;
    cs::net::Ipv4 server;
    std::vector<std::uint8_t> query;
  };
  struct Totals {
    std::uint64_t exchanges = 0;
    std::uint64_t failed = 0;  ///< no response (timeout, loss, unreachable)
    std::uint64_t query_bytes = 0;
    std::uint64_t response_bytes = 0;
    double busy_s = 0.0;  ///< wall time inside the wrapped transport
  };

  explicit TimingTransport(cs::dns::DnsTransport& inner) : inner_(inner) {}

  std::optional<std::vector<std::uint8_t>> exchange(
      cs::net::Ipv4 client, cs::net::Ipv4 server,
      std::span<const std::uint8_t> query) override;

  // Read these once the timed phase is over.
  Totals totals() const;
  std::vector<double> latencies_us() const;
  std::vector<Sample> samples() const;

 private:
  cs::dns::DnsTransport& inner_;
  mutable std::mutex mutex_;
  Totals totals_;
  std::vector<double> latencies_us_;
  std::vector<Sample> samples_;
};

/// Installs a TimingTransport over whatever the world would route resolver
/// traffic through, and restores the world's previous route on
/// destruction. Declare it after the Study it wraps.
class TimingInstall {
 public:
  explicit TimingInstall(cs::synth::World& world);
  ~TimingInstall() { world_.set_transport_override(previous_); }
  TimingInstall(const TimingInstall&) = delete;
  TimingInstall& operator=(const TimingInstall&) = delete;

  TimingTransport& transport() noexcept { return timing_; }
  /// Puts the world's previous route back early (for the replay ladder).
  void uninstall() noexcept { world_.set_transport_override(previous_); }

 private:
  cs::synth::World& world_;
  cs::dns::DnsTransport* previous_;
  TimingTransport timing_;
};

}  // namespace perfbench
