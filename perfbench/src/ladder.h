#pragma once

#include <vector>

#include "core/study.h"
#include "spans.h"
#include "timing_transport.h"
#include "workloads.h"

/// The replay ladder of the traced run: after the timed phase it replays a
/// sample of the workload's own query datagrams through the DNS layer's
/// public calls, one rung at a time, and reports each rung's unit cost:
///
///   dns.name.child_ns              Name::child (wordlist label on a domain)
///   dns.message.query_decode_ns    Message::decode of a sampled query
///   dns.message.query_encode_ns    Message::encode of that query
///   dns.server.handle_ns           server_at(addr)->handle(client, query)
///   dns.message.response_encode_ns Message::encode of the response
///   dns.message.response_decode_ns Message::decode of the response bytes
///   dns.resolver.resolve_us        cold World::make_resolver().resolve
///   dns.enumerate.domain_ms        Enumerator::enumerate of a sampled domain
///
/// Resolver and enumerator rungs run over the world's own route (the
/// simulated network, or the socket transport), so remove the timing
/// decorator before climbing.
namespace perfbench {

void run_ladder(cs::synth::World& world, const cs::core::StudyConfig& config,
                const std::vector<TimingTransport::Sample>& samples,
                SpanLog* log, Metrics& out);

}  // namespace perfbench
