// Micro-benchmarks (google-benchmark) for the hot substrate paths the
// study pipeline leans on: DNS wire codec, iterative resolution, prefix
// matching, packet decode, flow assembly, and HTTP/TLS parsing.
#include <benchmark/benchmark.h>

#include "analysis/ranges.h"
#include "dns/message.h"
#include "dns/resolver.h"
#include "dns/server.h"
#include "fault/fault.h"
#include "pcap/decode.h"
#include "pcap/flow.h"
#include "proto/http.h"
#include "proto/tls.h"
#include "synth/world.h"

namespace {

using namespace cs;

dns::Message sample_response() {
  auto query = dns::Message::query(
      1, dns::Name::must_parse("www.example.com"), dns::RrType::kA);
  auto resp = dns::Message::response_to(query, dns::Rcode::kNoError, true);
  resp.answers.push_back(dns::ResourceRecord::cname(
      dns::Name::must_parse("www.example.com"),
      dns::Name::must_parse("lb-1.us-east-1.elb.amazonaws.com")));
  for (int i = 0; i < 3; ++i)
    resp.answers.push_back(dns::ResourceRecord::a(
        dns::Name::must_parse("lb-1.us-east-1.elb.amazonaws.com"),
        net::Ipv4(54, 0, 0, i)));
  return resp;
}

void BM_DnsEncode(benchmark::State& state) {
  const auto message = sample_response();
  for (auto _ : state) benchmark::DoNotOptimize(message.encode());
}
BENCHMARK(BM_DnsEncode);

void BM_DnsDecode(benchmark::State& state) {
  const auto wire = sample_response().encode();
  for (auto _ : state) benchmark::DoNotOptimize(dns::Message::decode(wire));
}
BENCHMARK(BM_DnsDecode);

// Probe-path ladder rungs: name building, zone lookup, one server answer
// and the client's decode of it, on the shapes the brute force produces.

const char* const kWords[] = {"www", "mail", "api", "cdn", "m", "blog",
                              "dev", "shop"};

void BM_NameChild(benchmark::State& state) {
  const auto base = dns::Name::must_parse("pinterest-cdn.example.com");
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(base.child(kWords[i++ % std::size(kWords)]));
}
BENCHMARK(BM_NameChild);

/// A domain zone like the synthetic world's: the apex plus wordlist hosts.
dns::Zone make_domain_zone(const dns::Name& origin) {
  dns::SoaRecord soa;
  soa.mname = *origin.child("ns1");
  soa.rname = *origin.child("hostmaster");
  dns::Zone zone{origin, soa};
  zone.add(dns::ResourceRecord::ns(origin, soa.mname));
  zone.add(dns::ResourceRecord::a(soa.mname, net::Ipv4(198, 51, 100, 1)));
  for (std::size_t w = 0; w < std::size(kWords); ++w)
    zone.add(dns::ResourceRecord::a(
        *origin.child(kWords[w]),
        net::Ipv4(54, 0, 0, static_cast<std::uint8_t>(w))));
  return zone;
}

void BM_ZoneFind(benchmark::State& state) {
  const auto origin = dns::Name::must_parse("example.com");
  const auto zone = make_domain_zone(origin);
  // Half the lookups hit, half miss, like brute-force probes.
  std::vector<dns::Name> names;
  for (const char* word : kWords) {
    names.push_back(*origin.child(word));
    names.push_back(*origin.child(std::string{word} + "-x"));
  }
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        zone.find(names[i++ % names.size()], dns::RrType::kA));
}
BENCHMARK(BM_ZoneFind);

/// A fleet server hosting 50 domain zones, and an NXDOMAIN probe for it.
struct FleetServer {
  dns::AuthoritativeServer server;
  std::vector<std::uint8_t> query;
  FleetServer() {
    for (int d = 0; d < 50; ++d) {
      const auto origin =
          dns::Name::must_parse("domain" + std::to_string(d) + ".com");
      const auto source = make_domain_zone(origin);
      dns::Zone& zone = server.add_zone(origin, source.soa());
      for (const auto& rr : source.axfr())
        if (rr.type() != dns::RrType::kSoa) zone.add(rr);
    }
    query = dns::Message::query(
                7, dns::Name::must_parse("staging.domain25.com"),
                dns::RrType::kA)
                .encode();
  }
};

void BM_ServerHandleNxdomain(benchmark::State& state) {
  const FleetServer fleet;
  const net::Ipv4 client{199, 16, 0, 10};
  for (auto _ : state)
    benchmark::DoNotOptimize(fleet.server.handle_wire(client, fleet.query));
}
BENCHMARK(BM_ServerHandleNxdomain);

void BM_ResponseDecodeNxdomain(benchmark::State& state) {
  const FleetServer fleet;
  const auto wire =
      fleet.server.handle_wire(net::Ipv4{199, 16, 0, 10}, fleet.query);
  for (auto _ : state) benchmark::DoNotOptimize(dns::Message::decode(wire));
}
BENCHMARK(BM_ResponseDecodeNxdomain);

// One brute-force miss end to end: query encode, the server's NXDOMAIN,
// the reply read and the negative-cache write, from a resolver that
// already holds the domain's cut (as a chunk resolver does after its
// first probe). Answers are flushed each round; the cut stays.
void BM_ResolverProbeNxdomain(benchmark::State& state) {
  synth::WorldConfig config;
  config.domain_count = 200;
  synth::World world{config};
  auto resolver = world.make_resolver(net::Ipv4(199, 16, 0, 10));
  const auto& domain = world.domains()[25].name;
  resolver.resolve(domain, dns::RrType::kA);  // learns the cut
  const auto miss = *domain.child("staging-x");
  for (auto _ : state) {
    resolver.flush_answers();
    benchmark::DoNotOptimize(resolver.resolve(miss, dns::RrType::kA));
  }
}
BENCHMARK(BM_ResolverProbeNxdomain);

// The same miss from the roots, the cache flushed each round: the root's
// referral to the TLD and the TLD's referral to the domain's servers are
// read by the resolver's own referral path before the NXDOMAIN. The excess
// over BM_ResolverProbeNxdomain is the two referral exchanges.
void BM_ResolverFollowReferrals(benchmark::State& state) {
  synth::WorldConfig config;
  config.domain_count = 200;
  synth::World world{config};
  auto resolver = world.make_resolver(net::Ipv4(199, 16, 0, 10));
  const auto miss = *world.domains()[25].name.child("staging-x");
  for (auto _ : state) {
    resolver.flush_cache();
    benchmark::DoNotOptimize(resolver.resolve(miss, dns::RrType::kA));
  }
}
BENCHMARK(BM_ResolverFollowReferrals);

void BM_PrefixLookup(benchmark::State& state) {
  auto ec2 = cloud::Provider::make_ec2(1);
  auto azure = cloud::Provider::make_azure(1);
  analysis::CloudRanges ranges{ec2, azure};
  std::uint32_t ip = 0x36000000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ranges.classify(net::Ipv4{ip}));
    ip += 77777;
  }
}
BENCHMARK(BM_PrefixLookup);

void BM_FrameDecode(benchmark::State& state) {
  const std::vector<std::uint8_t> payload(1200, 0x5A);
  const auto packet = pcap::make_tcp_packet(
      1.0, {net::Ipv4(10, 0, 0, 1), 50000}, {net::Ipv4(54, 0, 0, 1), 443},
      {.ack = true, .psh = true}, 7, payload);
  for (auto _ : state)
    benchmark::DoNotOptimize(pcap::decode_frame(packet.bytes()));
}
BENCHMARK(BM_FrameDecode);

void BM_FlowAssembly(benchmark::State& state) {
  std::vector<pcap::Packet> packets;
  for (int i = 0; i < 64; ++i) {
    packets.push_back(pcap::make_tcp_packet(
        i * 0.01, {net::Ipv4(10, 0, 0, 1), static_cast<std::uint16_t>(
                                               40000 + i % 8)},
        {net::Ipv4(54, 0, 0, 1), 80}, {.ack = true}, i,
        std::vector<std::uint8_t>(256, 'x')));
  }
  for (auto _ : state) {
    pcap::FlowTable table;
    for (const auto& packet : packets) table.add(packet);
    benchmark::DoNotOptimize(table.finish());
  }
}
BENCHMARK(BM_FlowAssembly);

void BM_HttpParse(benchmark::State& state) {
  const auto request = proto::build_request("GET", "www.dropbox.com", "/f");
  for (auto _ : state) {
    std::size_t offset = 0;
    benchmark::DoNotOptimize(proto::parse_request(request, offset));
  }
}
BENCHMARK(BM_HttpParse);

void BM_TlsSniExtract(benchmark::State& state) {
  const auto hello = proto::build_client_hello("client1.dropbox.com");
  for (auto _ : state) benchmark::DoNotOptimize(proto::extract_sni(hello));
}
BENCHMARK(BM_TlsSniExtract);

void BM_IterativeResolution(benchmark::State& state) {
  synth::WorldConfig config;
  config.domain_count = 200;
  synth::World world{config};
  auto resolver = world.make_resolver(net::Ipv4(199, 16, 0, 10));
  const auto name = dns::Name::must_parse("www.pinterest.com");
  for (auto _ : state) {
    resolver.flush_cache();
    benchmark::DoNotOptimize(resolver.resolve(name, dns::RrType::kA));
  }
}
BENCHMARK(BM_IterativeResolution);

// The injector's contract when CS_FAULT is unset: one relaxed load and a
// branch. Compare against BM_IterativeResolution to confirm the guarded
// exchange path costs the same with the injector compiled in.
void BM_FaultCheckDisabled(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(fault::active_plan());
}
BENCHMARK(BM_FaultCheckDisabled);

void BM_FaultDecideEnabled(benchmark::State& state) {
  fault::Spec spec;
  spec.loss = 0.02;
  const fault::Plan plan{spec};
  std::uint64_t key = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(plan.decide(fault::Kind::kLoss, key++));
}
BENCHMARK(BM_FaultDecideEnabled);

void BM_WorldBuild(benchmark::State& state) {
  for (auto _ : state) {
    synth::WorldConfig config;
    config.domain_count = static_cast<std::size_t>(state.range(0));
    synth::World world{config};
    benchmark::DoNotOptimize(world.domains().size());
  }
}
BENCHMARK(BM_WorldBuild)->Arg(100)->Arg(400);

}  // namespace

BENCHMARK_MAIN();
