#include "timing_transport.h"

#include "spans.h"

namespace perfbench {
namespace {
constexpr std::size_t kSampleEvery = 97;
constexpr std::size_t kMaxSamples = 2048;
}  // namespace

std::optional<std::vector<std::uint8_t>> TimingTransport::exchange(
    cs::net::Ipv4 client, cs::net::Ipv4 server,
    std::span<const std::uint8_t> query) {
  const auto start = Clock::now();
  auto response = inner_.exchange(client, server, query);
  const double seconds = seconds_since(start);

  std::lock_guard lock{mutex_};
  if (totals_.exchanges % kSampleEvery == 0 && samples_.size() < kMaxSamples)
    samples_.push_back({client, server, {query.begin(), query.end()}});
  ++totals_.exchanges;
  totals_.query_bytes += query.size();
  if (response)
    totals_.response_bytes += response->size();
  else
    ++totals_.failed;
  totals_.busy_s += seconds;
  latencies_us_.push_back(seconds * 1e6);
  return response;
}

TimingTransport::Totals TimingTransport::totals() const {
  std::lock_guard lock{mutex_};
  return totals_;
}

std::vector<double> TimingTransport::latencies_us() const {
  std::lock_guard lock{mutex_};
  return latencies_us_;
}

std::vector<TimingTransport::Sample> TimingTransport::samples() const {
  std::lock_guard lock{mutex_};
  return samples_;
}

namespace {
cs::dns::DnsTransport& current_route(cs::synth::World& world) {
  if (auto* route = world.transport_override()) return *route;
  return world.network();
}
}  // namespace

TimingInstall::TimingInstall(cs::synth::World& world)
    : world_(world),
      previous_(world.transport_override()),
      timing_(current_route(world)) {
  world_.set_transport_override(&timing_);
}

}  // namespace perfbench
