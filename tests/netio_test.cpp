// The live-socket DNS backend, bottom up: frame codec and retransmit
// schedule units, the held-copy queue's firing order, a fresh
// listener port that no foreign SO_REUSEPORT group shares, then
// DnsSocketServer + SocketDnsTransport end to end over real localhost
// UDP — byte-equality against the in-process backend, unreachable
// fast-fail, retransmit expiry under injected loss, concurrent callers,
// a malformed-datagram corpus the server must survive, and the fault
// plan's wire decisions executed on real datagrams. Runs under ASan/TSan
// in CI (socket-smoke and tsan jobs).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "dns/message.h"
#include "dns/resolver.h"
#include "dns/transport.h"
#include "fault/fault.h"
#include "netio/loopback.h"
#include "netio/server.h"
#include "netio/socket.h"
#include "netio/transport.h"
#include "netio/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace cs::netio {
namespace {

// --- frame codec ----------------------------------------------------------

TEST(Wire, FrameRoundTrip) {
  const std::vector<std::uint8_t> payload = {0xAB, 0xCD, 0x01, 0x00, 0x42};
  const net::Ipv4 client{192, 0, 2, 1};
  const net::Ipv4 server{198, 41, 0, 4};
  const auto datagram =
      encode_frame(FrameKind::kQuery, client, server, payload);
  ASSERT_EQ(datagram.size(), kFrameHeaderSize + payload.size());
  const auto frame = decode_frame(datagram);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, FrameKind::kQuery);
  EXPECT_EQ(frame->client.value(), client.value());
  EXPECT_EQ(frame->server.value(), server.value());
  EXPECT_TRUE(std::equal(frame->payload.begin(), frame->payload.end(),
                         payload.begin(), payload.end()));
}

TEST(Wire, DecodeRejectsJunk) {
  EXPECT_FALSE(decode_frame({}).has_value());
  const std::vector<std::uint8_t> short_header = {'C', 'S', 1, 0, 0};
  EXPECT_FALSE(decode_frame(short_header).has_value());
  auto bad = encode_frame(FrameKind::kQuery, net::Ipv4{1}, net::Ipv4{2}, {});
  bad[0] = 'X';  // magic
  EXPECT_FALSE(decode_frame(bad).has_value());
  auto version = encode_frame(FrameKind::kQuery, net::Ipv4{1}, net::Ipv4{2},
                              {});
  version[2] = 9;
  EXPECT_FALSE(decode_frame(version).has_value());
  auto kind = encode_frame(FrameKind::kQuery, net::Ipv4{1}, net::Ipv4{2}, {});
  kind[3] = 7;
  EXPECT_FALSE(decode_frame(kind).has_value());
}

TEST(Wire, DnsIdRewriteRoundTrips) {
  std::vector<std::uint8_t> payload = {0x12, 0x34, 0x01, 0x00};
  EXPECT_EQ(dns_id(payload), 0x1234);
  rewrite_dns_id(payload, 0xBEEF);
  EXPECT_EQ(dns_id(payload), 0xBEEF);
  EXPECT_EQ(payload[2], 0x01);  // rest untouched
  std::vector<std::uint8_t> tiny = {0x01};
  EXPECT_FALSE(dns_id(tiny).has_value());
  rewrite_dns_id(tiny, 0xFFFF);  // must not write out of bounds
  EXPECT_EQ(tiny[0], 0x01);
}

// --- retransmit schedule -------------------------------------------------

TEST(RetransmitSchedule, DoublesPerAttemptUnderACapWithKeyedJitter) {
  constexpr std::uint64_t kRto = 5'000;
  for (const std::uint64_t key : {0ull, 0x5EEDull, ~0ull}) {
    for (unsigned attempt = 1; attempt <= 255; ++attempt) {
      // 5 ms doubles past the 2 s cap at attempt 10.
      const std::uint64_t d =
          attempt < 10 ? kRto << (attempt - 1) : kMaxRetransmitDelayUs;
      const auto delay = retransmit_delay_us(kRto, key, attempt);
      EXPECT_GE(delay, d) << "attempt " << attempt;
      EXPECT_LT(2 * delay, 3 * d) << "attempt " << attempt;
      // A pure function: the same (key, attempt) always waits the same.
      EXPECT_EQ(delay, retransmit_delay_us(kRto, key, attempt));
    }
  }
  // No doubling overflows, however large the RTO or the attempt index.
  const auto huge = retransmit_delay_us(~0ull, 7, 255);
  EXPECT_GE(huge, kMaxRetransmitDelayUs);
  EXPECT_LT(2 * huge, 3 * kMaxRetransmitDelayUs);
  // The jitter is keyed: two exchanges wait different times.
  EXPECT_NE(retransmit_delay_us(kRto, 1, 1), retransmit_delay_us(kRto, 2, 1));
}

// --- held-copy queue -----------------------------------------------------

/// A one-byte copy that names itself.
HeldCopy copy_of(int id) {
  return HeldCopy{{static_cast<std::uint8_t>(id)}, {}};
}

/// The ids of the copies send_due hands out at `now_us`, in order; `next`
/// receives its return value.
std::vector<int> send_due_ids(HeldCopies& held, std::uint64_t now_us,
                              std::uint64_t* next = nullptr) {
  std::vector<int> sent;
  const auto next_due = held.send_due(
      now_us, [&](const HeldCopy& copy) { sent.push_back(copy.bytes[0]); });
  if (next) *next = next_due;
  return sent;
}

TEST(HeldCopies, CopiesGoOutInDueOrder) {
  HeldCopies held;
  held.hold(60'000, copy_of(3));
  held.hold(20'000, copy_of(1));
  held.hold(40'000, copy_of(2));
  std::uint64_t next = 0;
  EXPECT_TRUE(send_due_ids(held, 19'999, &next).empty());
  EXPECT_EQ(next, 20'000u);
  EXPECT_EQ(send_due_ids(held, 60'000, &next), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(next, HeldCopies::kNone);
}

TEST(HeldCopies, DueTiesGoOutInHoldOrder) {
  // 32 copies due at one microsecond: only a (due time, hold order)
  // queue sends them as held.
  HeldCopies held;
  std::vector<int> want;
  for (int i = 0; i < 32; ++i) {
    held.hold(50'000, copy_of(i));
    want.push_back(i);
  }
  EXPECT_EQ(send_due_ids(held, 50'000), want);
}

TEST(HeldCopies, RandomizedHoldsMatchReferenceModel) {
  // Model check: a seeded random mix of hold bursts (each at one due
  // time, so ties are common) and sends at an advancing clock. Each send
  // must hand out exactly the reference model's due copies — stably
  // sorted by due time — and report the earliest due time left.
  struct Ref {
    std::uint64_t due_us = 0;
    int id = 0;
  };
  std::vector<Ref> model;  // in hold order
  HeldCopies held;
  util::Rng rng{0xC10C4DE7EC7AB1EULL};
  std::uint64_t now = 0;
  int id = 0;
  while (id < 250 || !model.empty()) {
    if (id < 250 && rng.uniform01() < 0.6) {
      const std::uint64_t due = now + 1'000 * rng.next_below(20);
      for (auto burst = 1 + rng.next_below(8); burst > 0 && id < 250;
           --burst, ++id) {
        held.hold(due, copy_of(id));
        model.push_back(Ref{due, id});
      }
      continue;
    }
    now += rng.next_below(3'000);
    std::vector<Ref> due;
    std::erase_if(model, [&](const Ref& r) {
      if (r.due_us > now) return false;
      due.push_back(r);
      return true;
    });
    std::stable_sort(due.begin(), due.end(), [](const Ref& a, const Ref& b) {
      return a.due_us < b.due_us;
    });
    std::vector<int> want;
    for (const auto& r : due) want.push_back(r.id);
    std::uint64_t want_next = HeldCopies::kNone;
    for (const auto& r : model) want_next = std::min(want_next, r.due_us);
    std::uint64_t next = 0;
    ASSERT_EQ(send_due_ids(held, now, &next), want) << "at " << now;
    ASSERT_EQ(next, want_next) << "at " << now;
  }
}

TEST(HeldCopies, PastDueCopyGoesOutOnTheNextSend) {
  // A copy held with a due time already past goes out on the next send,
  // ahead of every later due time.
  HeldCopies held;
  held.hold(50'000, copy_of(3));
  held.hold(1'000, copy_of(1));
  EXPECT_EQ(send_due_ids(held, 2'000), (std::vector<int>{1}));
  held.hold(1'500, copy_of(2));
  std::uint64_t next = 0;
  EXPECT_EQ(send_due_ids(held, 2'001, &next), (std::vector<int>{2}));
  EXPECT_EQ(next, 50'000u);
  EXPECT_EQ(send_due_ids(held, 50'000), (std::vector<int>{3}));
}

TEST(UdpSocket, FreshReusePortGroupNeverJoinsAForeignOne) {
  // Other processes of the same user hold SO_REUSEPORT ports: here, 1000
  // sockets bound the plain way, with SO_REUSEPORT set before bind(0).
  // Linux may hand such a bind a port one of them already holds. A new
  // listener fan-out must land on a port of its own — a shared port would
  // split one test process's queries with another's server — and a
  // second listener must still be able to join it.
  constexpr int kForeign = 1000;
  std::vector<int> foreign_fds;
  std::set<std::uint16_t> foreign_ports;
  for (int i = 0; i < kForeign; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    foreign_fds.push_back(fd);
    const int one = 1;
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)),
              0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    foreign_ports.insert(ntohs(addr.sin_port));
  }
  int shared = 0;
  for (int i = 0; i < kForeign; ++i) {
    UdpSocket first;
    ASSERT_TRUE(first.open_loopback(0, /*reuse_port=*/true));
    if (foreign_ports.count(first.local_port())) ++shared;
    UdpSocket second;
    ASSERT_TRUE(second.open_loopback(first.local_port(), /*reuse_port=*/true));
  }
  EXPECT_EQ(shared, 0) << "fresh listeners joined a foreign port group";
  for (const int fd : foreign_fds) ::close(fd);
}

// --- server + transport end to end ----------------------------------------

constexpr net::Ipv4 kRoot{198, 41, 0, 4};
constexpr net::Ipv4 kClient{192, 0, 2, 1};

/// One authoritative root answering www.example.com, fronted by live
/// sockets; sim and socket backends share the routing table.
class SocketBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto root = std::make_shared<dns::AuthoritativeServer>();
    dns::SoaRecord soa;
    soa.mname = dns::Name::must_parse("a.root");
    soa.rname = dns::Name::must_parse("a.root");
    auto& zone = root->add_zone(dns::Name{}, soa);
    zone.add(dns::ResourceRecord::a(dns::Name::must_parse("www.example.com"),
                                    net::Ipv4(203, 0, 113, 80), 60));
    network.attach(kRoot, root);
  }

  /// A wire-format A query for `qname` with the given DNS message ID.
  static std::vector<std::uint8_t> query_bytes(
      std::uint16_t id, const char* qname = "www.example.com") {
    dns::Message query;
    query.header.id = id;
    query.header.rd = false;
    query.questions.push_back(
        dns::Question{dns::Name::must_parse(qname), dns::RrType::kA});
    return query.encode();
  }

  LoopbackDns::Options tight_options() {
    LoopbackDns::Options options;
    options.server_threads = 2;
    options.rto_us = 20'000;
    options.max_attempts = 3;
    return options;
  }

  /// An unimpaired plan, so an ambient CS_FAULT (the chaos-smoke CI job
  /// exports one) cannot reach these exact-count cases; a test that wants
  /// impairment installs its own plan on top.
  fault::ScopedPlan unimpaired{fault::Spec{}};
  dns::SimulatedDnsNetwork network;
};

TEST_F(SocketBackendTest, SocketExchangeMatchesSimBytes) {
  LoopbackDns loopback{network, tight_options()};
  ASSERT_TRUE(loopback.start());
  const auto query = query_bytes(0x1234);
  const auto sim = network.exchange(kClient, kRoot, query);
  const auto socket = loopback.transport().exchange(kClient, kRoot, query);
  ASSERT_TRUE(sim.has_value());
  ASSERT_TRUE(socket.has_value());
  // Identical bytes, DNS ID included: the wire ID never leaks upward.
  EXPECT_EQ(*sim, *socket);
}

TEST_F(SocketBackendTest, UnknownServerFailsFastAsUnreachable) {
  LoopbackDns loopback{network, tight_options()};
  ASSERT_TRUE(loopback.start());
  const auto before =
      obs::MetricsRegistry::instance().snapshot().counter(
          "netio.client.unreachable");
  const auto reply = loopback.transport().exchange(
      kClient, net::Ipv4{10, 9, 9, 9}, query_bytes(7));
  EXPECT_FALSE(reply.has_value());
  EXPECT_GT(obs::MetricsRegistry::instance().snapshot().counter(
                "netio.client.unreachable"),
            before);
}

TEST_F(SocketBackendTest, DownServerFailsFastAsUnreachable) {
  // An address is down while no server is attached there; attaching one
  // between query phases brings it up.
  constexpr net::Ipv4 kSpare{198, 41, 0, 5};
  {
    LoopbackDns loopback{network, tight_options()};
    ASSERT_TRUE(loopback.start());
    EXPECT_FALSE(
        loopback.transport().exchange(kClient, kSpare, query_bytes(8)));
  }
  network.attach(kSpare, network.server_at(kRoot));
  LoopbackDns loopback{network, tight_options()};
  ASSERT_TRUE(loopback.start());
  EXPECT_TRUE(
      loopback.transport().exchange(kClient, kSpare, query_bytes(9)));
}

TEST_F(SocketBackendTest, InjectedLossExpiresAfterRetransmits) {
  auto options = tight_options();
  options.rto_us = 2'000;  // keep attempts * rto tiny
  // The server's worker threads read the plan, so it must outlive the
  // backend; the loss is lifted below by uninstalling it, not deleting it.
  fault::ScopedPlan plan{"loss=1"};
  LoopbackDns loopback{network, options};
  ASSERT_TRUE(loopback.start());
  const auto snapshot_before = obs::MetricsRegistry::instance().snapshot();
  EXPECT_FALSE(
      loopback.transport().exchange(kClient, kRoot, query_bytes(10)));
  fault::set_plan(nullptr);
  const auto snapshot = obs::MetricsRegistry::instance().snapshot();
  // All three attempts reached the server (loss re-decided identically),
  // the client retransmitted twice, then the exchange expired.
  EXPECT_GE(snapshot.counter("netio.client.retransmits") -
                snapshot_before.counter("netio.client.retransmits"),
            2u);
  EXPECT_GT(snapshot.counter("netio.client.expirations"),
            snapshot_before.counter("netio.client.expirations"));
  // And the backend recovers: the next exchange succeeds.
  EXPECT_TRUE(
      loopback.transport().exchange(kClient, kRoot, query_bytes(11)));
}

TEST_F(SocketBackendTest, ConcurrentCallersEachGetTheirOwnAnswer) {
  // Eight callers at once, each waiting on its own socket: every one
  // gets its own DNS ID back on the sim's answer.
  LoopbackDns loopback{network, tight_options()};
  ASSERT_TRUE(loopback.start());
  const auto expected = network.exchange(kClient, kRoot, query_bytes(0));
  ASSERT_TRUE(expected.has_value());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto id =
            static_cast<std::uint16_t>(t * kPerThread + i + 1);
        auto reply =
            loopback.transport().exchange(kClient, kRoot, query_bytes(id));
        if (!reply) {
          mismatches.fetch_add(1);
          continue;
        }
        // Each caller gets its own DNS ID back; the rest of the message
        // matches the sim answer byte for byte.
        auto normalized = *reply;
        rewrite_dns_id(normalized, 0);
        auto want = *expected;
        rewrite_dns_id(want, 0);
        if (dns_id(*reply) != id || normalized != want)
          mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(SocketBackendTest, ResolverRunsUnchangedOverSockets) {
  LoopbackDns loopback{network, tight_options()};
  ASSERT_TRUE(loopback.start());
  dns::Resolver::Options options;
  options.root_servers = {kRoot};
  options.client_address = kClient;
  dns::Resolver resolver{loopback.transport(), options};
  const auto result = resolver.resolve(
      dns::Name::must_parse("www.example.com"), dns::RrType::kA);
  ASSERT_TRUE(result.ok());
  const auto addresses = result.addresses();
  ASSERT_EQ(addresses.size(), 1u);
  EXPECT_EQ(addresses[0].value(), net::Ipv4(203, 0, 113, 80).value());
}

// --- malformed datagram corpus (satellite: server must not crash) ---------

TEST_F(SocketBackendTest, ServerSurvivesMalformedDatagramCorpus) {
  LoopbackDns loopback{network, tight_options()};
  ASSERT_TRUE(loopback.start());

  UdpSocket attacker;
  ASSERT_TRUE(attacker.open_loopback(0, false));
  ASSERT_TRUE(attacker.connect_loopback(loopback.server().port()));

  const auto framed = [&](FrameKind kind, std::vector<std::uint8_t> payload) {
    return encode_frame(kind, kClient, kRoot, payload);
  };
  std::vector<std::vector<std::uint8_t>> corpus;
  corpus.push_back({});                    // empty datagram
  corpus.push_back({0x00});                // single byte
  corpus.push_back({'C', 'S'});            // magic only
  corpus.push_back({'C', 'S', 1, 0});      // header truncated mid-address
  corpus.push_back({'X', 'Y', 1, 0, 0, 0, 0, 0, 0, 0, 0, 0});  // bad magic
  corpus.push_back({'C', 'S', 9, 0, 0, 0, 0, 0, 0, 0, 0, 0});  // bad version
  corpus.push_back({'C', 'S', 1, 7, 0, 0, 0, 0, 0, 0, 0, 0});  // bad kind
  // Response/unreachable kinds sent *to* the server (role confusion).
  corpus.push_back(framed(FrameKind::kResponse, {0x00, 0x01}));
  corpus.push_back(framed(FrameKind::kUnreachable, {0x00, 0x01}));
  // Valid frame, empty DNS payload (decoder must answer FORMERR or drop).
  corpus.push_back(framed(FrameKind::kQuery, {}));
  // Valid frame, garbage DNS payload.
  corpus.push_back(framed(FrameKind::kQuery,
                          {0xDE, 0xAD, 0xBE, 0xEF, 0xFF, 0xFF}));
  // Valid frame, truncated DNS header (shorter than 12 bytes).
  corpus.push_back(framed(FrameKind::kQuery, {0x00, 0x01, 0x02}));
  // A valid frame cut mid-header (header is 12 bytes): the decoder sees
  // real magic/version/kind but runs out of address bytes.
  const auto whole = framed(FrameKind::kQuery, query_bytes(0x55));
  for (const std::size_t cut : {6u, 8u, 10u})
    corpus.emplace_back(whole.begin(),
                        whole.begin() + static_cast<std::ptrdiff_t>(cut));
  // The same role-confused response twice: a duplicated stray must be
  // dropped cold both times, not tallied into any pending state.
  corpus.push_back(framed(FrameKind::kResponse, {0x00, 0x02}));
  corpus.push_back(framed(FrameKind::kResponse, {0x00, 0x02}));
  // A 64 KiB garbage blob (oversized but deliverable over loopback).
  corpus.push_back(std::vector<std::uint8_t>(60'000, 0xAA));

  for (const auto& datagram : corpus) attacker.send(datagram);

  // The server is still alive and correct: a well-formed exchange answers
  // with exactly the sim bytes, repeatedly (every worker still serves).
  const auto want = network.exchange(kClient, kRoot, query_bytes(0x77));
  ASSERT_TRUE(want.has_value());
  for (int i = 0; i < 8; ++i) {
    const auto got =
        loopback.transport().exchange(kClient, kRoot, query_bytes(0x77));
    ASSERT_TRUE(got.has_value()) << "exchange " << i;
    EXPECT_EQ(*got, *want) << "exchange " << i;
  }
}

// --- the plan's wire decisions on the live path ---------------------------

TEST_F(SocketBackendTest, ChaosDuplicatesAnswerOnceAndLandAsStrays) {
  // dup=1 doubles every datagram in both directions; the held-back copies
  // of each response arrive after their exchange settled, carrying a wire
  // ID that is now stale. The next exchange on the same socket must count
  // every late copy it reads a stray — never delivered, never corrupting
  // its answer. Installed before the backend so it outlives every server
  // worker.
  fault::ScopedPlan plan{"dup=1,delay_us=500,jitter_us=200"};
  LoopbackDns loopback{network, tight_options()};
  ASSERT_TRUE(loopback.start());
  const auto want = network.exchange(kClient, kRoot, query_bytes(0));
  ASSERT_TRUE(want.has_value());
  const auto before = obs::MetricsRegistry::instance().snapshot();
  constexpr int kExchanges = 24;
  for (int i = 0; i < kExchanges; ++i) {
    const auto id = static_cast<std::uint16_t>(0x400 + i);
    const auto got =
        loopback.transport().exchange(kClient, kRoot, query_bytes(id));
    ASSERT_TRUE(got.has_value()) << "exchange " << i;
    EXPECT_EQ(dns_id(*got), id) << "exchange " << i;
    auto normalized = *got;
    rewrite_dns_id(normalized, 0);
    auto expected = *want;
    rewrite_dns_id(expected, 0);
    EXPECT_EQ(normalized, expected) << "exchange " << i;
  }
  const auto after = obs::MetricsRegistry::instance().snapshot();
  EXPECT_GT(after.counter("fault.wire.dup"), before.counter("fault.wire.dup"));
  EXPECT_GT(after.counter("netio.client.strays"),
            before.counter("netio.client.strays"));
  // Exactly one response settled each exchange: duplicates never matched
  // a later exchange, whatever their arrival timing.
  EXPECT_EQ(after.counter("netio.client.responses") -
                before.counter("netio.client.responses"),
            static_cast<std::uint64_t>(kExchanges));
}

TEST_F(SocketBackendTest, StaleCopyNeverSettlesALaterExchangeWithTheSameId) {
  // dup=1 sends every datagram twice, the copy held back. One thread
  // runs two exchanges to one server with the same DNS ID, so both wait
  // on the same pooled socket, and the first exchange's late copies land
  // while the second waits. Only the wire ID tells them apart: each
  // exchange must still get the sim's answer to its own question.
  fault::ScopedPlan plan{"dup=1"};
  LoopbackDns loopback{network, tight_options()};
  ASSERT_TRUE(loopback.start());
  constexpr std::uint16_t kId = 0x2222;
  for (const char* qname :
       {"www.example.com", "mail.example.com", "www.example.com"}) {
    const auto want =
        network.exchange(kClient, kRoot, query_bytes(kId, qname));
    ASSERT_TRUE(want.has_value()) << qname;
    const auto got = loopback.transport().exchange(kClient, kRoot,
                                                   query_bytes(kId, qname));
    ASSERT_TRUE(got.has_value()) << qname;
    EXPECT_EQ(*got, *want) << qname;
  }
}

TEST_F(SocketBackendTest, ChaosDropClampForcesEventualDelivery) {
  // drop=1 loses every first attempt and nothing after it: the query's
  // first send vanishes, the retransmit gets through, and the answer is
  // byte-identical to the sim — the survivability contract.
  auto options = tight_options();
  options.rto_us = 2'000;  // keep the retransmit schedule quick
  fault::ScopedPlan plan{"drop=1"};
  LoopbackDns loopback{network, options};
  ASSERT_TRUE(loopback.start());
  const auto want = network.exchange(kClient, kRoot, query_bytes(0x99));
  ASSERT_TRUE(want.has_value());
  const auto before = obs::MetricsRegistry::instance().snapshot();
  const auto got =
      loopback.transport().exchange(kClient, kRoot, query_bytes(0x99));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, *want);
  const auto after = obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(after.counter("fault.wire.drop") -
                before.counter("fault.wire.drop"),
            1u);
  EXPECT_GE(after.counter("netio.client.retransmits") -
                before.counter("netio.client.retransmits"),
            1u);
  EXPECT_EQ(after.counter("netio.client.expirations"),
            before.counter("netio.client.expirations"));
}

TEST_F(SocketBackendTest, RepeatedExchangeIsDroppedOnEveryRepeat) {
  // Regression: the configured drop rate used to decay over a run. The
  // wire kept one attempt counter and one drop budget per exchange key
  // for the whole process, so an exchange that recurs (every NS-address
  // lookup after flush_cache() does) stopped being impaired once earlier
  // repeats had spent max_attempts - 1 drops. A decision is now a pure
  // function of the attempt index, so each repeat loses its first send.
  auto options = tight_options();
  options.rto_us = 2'000;
  fault::ScopedPlan plan{"drop=1"};
  LoopbackDns loopback{network, options};
  ASSERT_TRUE(loopback.start());
  const auto want = network.exchange(kClient, kRoot, query_bytes(0x5A));
  ASSERT_TRUE(want.has_value());
  const auto before = obs::MetricsRegistry::instance().snapshot();
  constexpr std::uint64_t kRepeats = 8;
  for (std::uint64_t i = 0; i < kRepeats; ++i) {
    const auto got =
        loopback.transport().exchange(kClient, kRoot, query_bytes(0x5A));
    ASSERT_TRUE(got.has_value()) << "repeat " << i;
    EXPECT_EQ(*got, *want) << "repeat " << i;
  }
  const auto after = obs::MetricsRegistry::instance().snapshot();
  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  EXPECT_EQ(delta("fault.wire.drop"), kRepeats);
  EXPECT_GE(delta("netio.client.retransmits"), kRepeats);
  EXPECT_EQ(delta("netio.client.expirations"), 0u);
}

TEST_F(SocketBackendTest, RunningFlagGatesExchangeAcrossTheLifecycle) {
  // Regression: running() used to read a plain bool that stop() wrote
  // under the transport mutex — a racy read for callers probing the
  // lifecycle from other threads. It is atomic now, and exchange() must
  // refuse (not crash, not touch the wire) outside the start/stop window.
  SocketDnsTransport transport{/*server_port=*/1, Options{}};  // never used
  EXPECT_FALSE(transport.running());
  EXPECT_FALSE(transport.exchange(kClient, kRoot, query_bytes(31)));
  ASSERT_TRUE(transport.start());
  EXPECT_TRUE(transport.running());
  transport.stop();
  EXPECT_FALSE(transport.running());
  EXPECT_FALSE(transport.exchange(kClient, kRoot, query_bytes(32)));
}

TEST_F(SocketBackendTest, StopFailsPendingExchangesInsteadOfHanging) {
  auto options = tight_options();
  options.rto_us = 500'000;  // long enough that stop() races the wait
  LoopbackDns loopback{network, options};
  ASSERT_TRUE(loopback.start());
  fault::ScopedPlan plan{"loss=1"};  // exchange would otherwise block
  // Four callers blocked at once, each on its own socket: stop() has to
  // wake every one of them.
  std::vector<std::thread> callers;
  for (std::uint16_t id = 21; id < 25; ++id)
    callers.emplace_back([&, id] {
      EXPECT_FALSE(
          loopback.transport().exchange(kClient, kRoot, query_bytes(id)));
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto before = obs::steady_now_us();
  loopback.stop();
  for (auto& caller : callers) caller.join();
  // Callers left to expire would wait out 0.5 + 1 + 2 s of attempts.
  EXPECT_LT(obs::steady_now_us() - before, 1'000'000u);
}

TEST_F(SocketBackendTest, ServerStopDoesNotWaitForHeldResponseCopies) {
  // Every datagram is held back 2 s. A query from a plain socket (no
  // client transport, so only the server's wire decision holds anything)
  // leaves its response held in a worker's queue; stop() must wake that
  // worker and return without waiting the copy out.
  fault::ScopedPlan plan{"delay_us=2000000"};
  DnsSocketServer server{network, 2};
  ASSERT_TRUE(server.start());
  UdpSocket client;
  ASSERT_TRUE(client.open_loopback(0, false));
  ASSERT_TRUE(client.connect_loopback(server.port()));
  const auto delays = [] {
    return obs::MetricsRegistry::instance().snapshot().counter(
        "fault.wire.delay");
  };
  const auto before = delays();
  ASSERT_TRUE(client.send(
      encode_frame(FrameKind::kQuery, kClient, kRoot, query_bytes(0x44))));
  const auto give_up = obs::steady_now_us() + 5'000'000;
  while (delays() == before && obs::steady_now_us() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GT(delays(), before) << "the server never held the response";
  const auto stop_started = obs::steady_now_us();
  server.stop();
  EXPECT_LT(obs::steady_now_us() - stop_started, 1'000'000u);
  // The held copy was never sent.
  std::uint8_t buffer[512];
  EXPECT_FALSE(client.recv_from(buffer, nullptr).has_value());
}

}  // namespace
}  // namespace cs::netio
