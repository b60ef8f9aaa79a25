#include "netio/loopback.h"

#include "obs/log.h"
#include "util/env.h"

namespace cs::netio {
namespace {

/// Strict unsigned knob with a floor of 1; malformed or zero values warn
/// once through the uniform util::env message and keep `fallback`.
unsigned env_unsigned_knob(util::Knob knob, unsigned fallback,
                           const char* expected) {
  const auto text = util::env_text(knob);
  if (!text) return fallback;
  const auto parsed = util::parse_env_unsigned(*text);
  if (!parsed || *parsed == 0) {
    obs::log_warn("netio", "{}", util::env_malformed(knob, *text, expected));
    return fallback;
  }
  return *parsed;
}

}  // namespace

TransportMode transport_mode_from_env() {
  const auto text = util::env_text(util::Knob::kTransport);
  if (!text || *text == "sim") return TransportMode::kSim;
  if (*text == "socket") return TransportMode::kSocket;
  obs::log_warn(
      "netio", "{}",
      util::env_malformed(util::Knob::kTransport, *text, "sim|socket"));
  return TransportMode::kSim;
}

LoopbackDns::Options LoopbackDns::options_from_env() {
  Options options;
  options.server_threads =
      env_unsigned_knob(util::Knob::kNetioThreads, options.server_threads,
                        "server worker thread count >= 1");
  options.rto_us = env_unsigned_knob(
      util::Knob::kNetioRtoUs, static_cast<unsigned>(options.rto_us),
      "first attempt's retransmit timeout in us >= 1");
  options.max_attempts =
      env_unsigned_knob(util::Knob::kNetioMaxAttempts, options.max_attempts,
                        "send attempts per exchange >= 1");
  return options;
}

LoopbackDns::LoopbackDns(const dns::SimulatedDnsNetwork& network,
                         Options options)
    : options_(options), server_(network, options.server_threads) {}

LoopbackDns::~LoopbackDns() { stop(); }

bool LoopbackDns::start() {
  if (running()) return true;
  if (!server_.start()) return false;
  transport_ = std::make_unique<SocketDnsTransport>(server_.port(), options_);
  if (!transport_->start()) {
    transport_.reset();
    server_.stop();
    return false;
  }
  return true;
}

void LoopbackDns::stop() {
  // Client first so no exchange is waiting when the listeners go away.
  if (transport_) transport_->stop();
  transport_.reset();
  server_.stop();
}

}  // namespace cs::netio
