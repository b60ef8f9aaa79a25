#include "ladder.h"

#include <algorithm>
#include <memory>

#include "dns/enumerate.h"
#include "dns/wordlist.h"

namespace perfbench {
namespace {

using cs::dns::Message;

/// Minimum wall time each rung repeats for.
constexpr double kRungSeconds = 0.15;
constexpr std::size_t kMaxNames = 256;
constexpr std::size_t kDomainsForChild = 64;
constexpr std::size_t kDomainsForEnumerate = 8;
/// analysis::DatasetBuilder's probe source address.
constexpr cs::net::Ipv4 kProbeClient{199, 16, 0, 10};

/// Results land here so the compiler cannot drop a rung's work.
volatile std::size_t g_sink = 0;

/// Repeats `pass`, which performs `ops` operations and returns a size to
/// sink, until kRungSeconds have passed. Returns the mean seconds per
/// operation (0 when there is nothing to replay).
template <typename Fn>
double seconds_per_op(SpanLog* log, const char* name, std::size_t ops,
                      Fn&& pass) {
  if (ops == 0) return 0.0;
  SpanLog::Scope scope{log, name};
  std::size_t done = 0;
  do {
    g_sink = pass();
    done += ops;
  } while (scope.elapsed() < kRungSeconds);
  return scope.stop() / static_cast<double>(done);
}

/// Every `size / want`-th element's index, at most `want` of them.
std::vector<std::size_t> stride_sample(std::size_t size, std::size_t want) {
  std::vector<std::size_t> picked;
  const std::size_t step = std::max<std::size_t>(1, size / want);
  for (std::size_t i = 0; i < size && picked.size() < want; i += step)
    picked.push_back(i);
  return picked;
}

}  // namespace

void run_ladder(cs::synth::World& world, const cs::core::StudyConfig& config,
                const std::vector<TimingTransport::Sample>& samples,
                SpanLog* log, Metrics& out) {
  SpanLog::Scope ladder{log, "ladder"};

  // Rung inputs, prepared outside the timers: the sampled queries that
  // decode and reach a server, that server's answer, and its wire form.
  struct Replay {
    const TimingTransport::Sample* sample;
    Message query;
    std::shared_ptr<cs::dns::AuthoritativeServer> server;
    Message response;
    std::vector<std::uint8_t> response_wire;
  };
  std::vector<Replay> replays;
  for (const auto& sample : samples) {
    auto query = Message::decode(sample.query);
    auto server = world.network().server_at(sample.server);
    if (!query || !server) continue;
    auto response = server->handle(sample.client, *query);
    auto wire = response.encode();
    replays.push_back({&sample, std::move(*query), std::move(server),
                       std::move(response), std::move(wire)});
  }
  const std::size_t n = replays.size();

  const auto& wordlist = config.dataset.wordlist.empty()
                             ? cs::dns::default_wordlist()
                             : config.dataset.wordlist;
  const auto& domains = world.domains();
  const auto child_domains =
      stride_sample(domains.size(), kDomainsForChild);
  out.set("dns.name.child_ns",
          1e9 * seconds_per_op(
                    log, "ladder.name.child",
                    child_domains.size() * wordlist.size(), [&] {
                      std::size_t sink = 0;
                      for (const auto d : child_domains)
                        for (const auto& word : wordlist)
                          if (auto name = domains[d].name.child(word))
                            sink += name->label_count();
                      return sink;
                    }),
          "ns");

  out.set("dns.message.query_decode_ns",
          1e9 * seconds_per_op(log, "ladder.message.query_decode", n, [&] {
            std::size_t sink = 0;
            for (const auto& r : replays)
              if (auto m = Message::decode(r.sample->query))
                sink += m->questions.size();
            return sink;
          }),
          "ns");
  out.set("dns.message.query_encode_ns",
          1e9 * seconds_per_op(log, "ladder.message.query_encode", n, [&] {
            std::size_t sink = 0;
            for (const auto& r : replays) sink += r.query.encode().size();
            return sink;
          }),
          "ns");
  out.set("dns.server.handle_ns",
          1e9 * seconds_per_op(log, "ladder.server.handle", n, [&] {
            std::size_t sink = 0;
            for (const auto& r : replays)
              sink += r.server->handle(r.sample->client, r.query)
                          .answers.size();
            return sink;
          }),
          "ns");
  out.set("dns.message.response_encode_ns",
          1e9 * seconds_per_op(log, "ladder.message.response_encode", n, [&] {
            std::size_t sink = 0;
            for (const auto& r : replays) sink += r.response.encode().size();
            return sink;
          }),
          "ns");
  out.set("dns.message.response_decode_ns",
          1e9 * seconds_per_op(log, "ladder.message.response_decode", n, [&] {
            std::size_t sink = 0;
            for (const auto& r : replays)
              if (auto m = Message::decode(r.response_wire))
                sink += m->answers.size();
            return sink;
          }),
          "ns");

  const std::size_t names = std::min(n, kMaxNames);
  out.set("dns.resolver.resolve_us",
          1e6 * seconds_per_op(log, "ladder.resolver.resolve", names, [&] {
            std::size_t sink = 0;
            for (std::size_t i = 0; i < names; ++i) {
              const auto& question = replays[i].query.questions.front();
              auto resolver = world.make_resolver(replays[i].sample->client);
              sink += resolver.resolve(question.name, question.type)
                          .records.size();
            }
            return sink;
          }),
          "us");

  // Enumeration, one span per sampled domain sharing the domain's rank.
  const cs::dns::Enumerator::Options enum_options{
      .wordlist = wordlist,
      .attempt_axfr = config.dataset.attempt_axfr,
      .resolver_factory = [&world] {
        return world.make_resolver(kProbeClient);
      }};
  const auto enum_domains =
      stride_sample(domains.size(), kDomainsForEnumerate);
  out.set("dns.enumerate.domain_ms",
          1e3 * seconds_per_op(
                    log, "ladder.enumerate", enum_domains.size(), [&] {
                      std::size_t sink = 0;
                      for (const auto d : enum_domains) {
                        SpanLog::Scope span{log, "ladder.enumerate.domain",
                                            domains[d].rank};
                        auto resolver = world.make_resolver(kProbeClient);
                        cs::dns::Enumerator enumerator{resolver, enum_options};
                        sink += enumerator.enumerate(domains[d].name)
                                    .subdomains.size();
                      }
                      return sink;
                    }),
          "ms");
}

}  // namespace perfbench
