// The live-socket DNS backend, bottom up: timing wheel, frame codec and
// retransmit schedule units, reactor timer/fd dispatch, then DnsSocketServer +
// SocketDnsTransport end to end over real localhost UDP — byte-equality
// against the in-process backend, unreachable fast-fail, retransmit
// expiry under injected loss, pipelined multi-threaded exchanges under a
// tiny in-flight cap, a malformed-datagram corpus the server must
// survive, and the fault plan's wire decisions executed on real
// datagrams. Runs under ASan/TSan in CI (socket-smoke and tsan jobs).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dns/message.h"
#include "dns/resolver.h"
#include "dns/transport.h"
#include "fault/fault.h"
#include "netio/loopback.h"
#include "netio/reactor.h"
#include "netio/server.h"
#include "netio/socket.h"
#include "netio/timer_wheel.h"
#include "netio/transport.h"
#include "netio/wire.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace cs::netio {
namespace {

// --- timing wheel ---------------------------------------------------------

TEST(TimerWheel, FiresInDeadlineOrder) {
  TimerWheel wheel{/*tick_us=*/100, /*slots=*/16};
  std::vector<int> order;
  wheel.schedule(3000, [&] { order.push_back(3); });
  wheel.schedule(1000, [&] { order.push_back(1); });
  wheel.schedule(2000, [&] { order.push_back(2); });
  EXPECT_EQ(wheel.next_deadline(), 1000u);
  for (auto& fn : wheel.advance(5000)) fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(wheel.active(), 0u);
  EXPECT_FALSE(wheel.next_deadline().has_value());
}

TEST(TimerWheel, TiesFireInScheduleOrder) {
  TimerWheel wheel;
  std::vector<int> order;
  wheel.schedule(500, [&] { order.push_back(1); });
  wheel.schedule(500, [&] { order.push_back(2); });
  wheel.schedule(500, [&] { order.push_back(3); });
  for (auto& fn : wheel.advance(1000)) fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheel, CancelPreventsFiring) {
  TimerWheel wheel;
  bool fired = false;
  const auto token = wheel.schedule(100, [&] { fired = true; });
  EXPECT_TRUE(wheel.cancel(token));
  EXPECT_FALSE(wheel.cancel(token));  // already gone
  for (auto& fn : wheel.advance(1000)) fn();
  EXPECT_FALSE(fired);
  EXPECT_EQ(wheel.active(), 0u);
}

TEST(TimerWheel, FutureTimersSurviveEarlyAdvances) {
  TimerWheel wheel{/*tick_us=*/100, /*slots=*/8};
  int fired = 0;
  // 5000 us is several full revolutions of an 8-slot, 100 us wheel: the
  // sweep must skip it (future lap) every pass until it is really due.
  wheel.schedule(5000, [&] { ++fired; });
  for (std::uint64_t now = 100; now < 5000; now += 100) {
    for (auto& fn : wheel.advance(now)) fn();
    ASSERT_EQ(fired, 0) << "fired early at " << now;
  }
  for (auto& fn : wheel.advance(5000)) fn();
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, PastDeadlineFiresOnNextAdvance) {
  TimerWheel wheel{/*tick_us=*/100, /*slots=*/8};
  for (auto& fn : wheel.advance(10'000)) fn();
  bool fired = false;
  // Deadline far behind the cursor: its natural slot was already swept.
  wheel.schedule(400, [&] { fired = true; });
  for (auto& fn : wheel.advance(10'100)) fn();
  EXPECT_TRUE(fired);
}

TEST(TimerWheel, EqualDeadlinesAcrossRotationsFireInScheduleOrder) {
  // The tie-break contract holds unconditionally: equal deadlines fire in
  // schedule order even when the schedules straddle cursor advances and
  // full revolutions of the wheel (5000 us is laps of an 8x100 wheel).
  TimerWheel wheel{/*tick_us=*/100, /*slots=*/8};
  std::vector<int> order;
  wheel.schedule(5000, [&] { order.push_back(1); });
  for (auto& fn : wheel.advance(900)) fn();
  wheel.schedule(5000, [&] { order.push_back(2); });
  for (auto& fn : wheel.advance(2500)) fn();
  wheel.schedule(5000, [&] { order.push_back(3); });
  for (auto& fn : wheel.advance(6000)) fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheel, SameSlotDifferentLapsFireInDeadlineOrder) {
  // 800 and 1600 share a slot on an 8x100 wheel but sit a lap apart;
  // scheduled in reverse, the sweep must still fire them deadline-first.
  TimerWheel wheel{/*tick_us=*/100, /*slots=*/8};
  std::vector<int> order;
  wheel.schedule(1600, [&] { order.push_back(2); });
  wheel.schedule(800, [&] { order.push_back(1); });
  for (auto& fn : wheel.advance(2000)) fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerWheel, AdvanceToleratesRegressingClock) {
  TimerWheel wheel{/*tick_us=*/100, /*slots=*/8};
  for (auto& fn : wheel.advance(10'000)) fn();
  int fired = 0;
  wheel.schedule(10'200, [&] { ++fired; });
  // A clock that runs backwards must neither fire the timer early nor
  // corrupt the sweep window: advance clamps to its high-water mark.
  for (auto& fn : wheel.advance(400)) fn();
  EXPECT_EQ(fired, 0);
  for (auto& fn : wheel.advance(10'200)) fn();
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, RandomizedFiringMatchesReferenceModel) {
  // Model check: under a seeded random interleaving of schedules and
  // advances, every advance fires exactly the due set, globally ordered
  // by (deadline, schedule sequence) — the invariant the transport's
  // retransmit determinism leans on.
  util::Rng rng{0xC10C4DE7EC7AB1EULL};
  TimerWheel wheel{/*tick_us=*/50, /*slots=*/16};
  struct Ref {
    std::uint64_t deadline;
    int seq;
  };
  std::vector<Ref> outstanding;
  std::vector<int> fired;
  std::uint64_t now = 0;
  int seq = 0;
  for (int step = 0; step < 400; ++step) {
    if (rng.uniform01() < 0.6) {
      const std::uint64_t deadline = now + 1 + rng.next_below(3000);
      const int id = seq++;
      wheel.schedule(deadline, [&fired, id] { fired.push_back(id); });
      outstanding.push_back({deadline, id});
    } else {
      now += 50 + rng.next_below(800);
      std::stable_sort(outstanding.begin(), outstanding.end(),
                       [](const Ref& a, const Ref& b) {
                         return a.deadline != b.deadline
                                    ? a.deadline < b.deadline
                                    : a.seq < b.seq;
                       });
      std::vector<int> want;
      std::vector<Ref> keep;
      for (const auto& r : outstanding) {
        if (r.deadline <= now)
          want.push_back(r.seq);
        else
          keep.push_back(r);
      }
      outstanding = std::move(keep);
      fired.clear();
      for (auto& fn : wheel.advance(now)) fn();
      ASSERT_EQ(fired, want) << "divergence at now=" << now;
    }
  }
}

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

// --- reactor --------------------------------------------------------------

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

TEST(Reactor, RunAfterFiresOnLoopThread) {
  Reactor reactor{"netio-test"};
  std::mutex m;
  std::condition_variable cv;
  bool fired = false;
  reactor.start();
  reactor.run_after(1000, [&] {
    std::lock_guard lock{m};
    fired = true;
    cv.notify_one();
  });
  std::unique_lock lock{m};
  EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return fired; }));
  reactor.stop();
}

TEST(Reactor, CancelTimerSuppressesCallback) {
  Reactor reactor{"netio-test"};
  std::atomic<bool> fired{false};
  reactor.start();
  const auto token =
      reactor.run_after(200'000, [&] { fired.store(true); });
  EXPECT_TRUE(reactor.cancel_timer(token));
  reactor.stop();  // joins: any pending callback would have run by now
  EXPECT_FALSE(fired.load());
}

TEST(Reactor, DispatchesReadableFd) {
  UdpSocket rx;
  ASSERT_TRUE(rx.open_loopback(0, false));
  UdpSocket tx;
  ASSERT_TRUE(tx.open_loopback(0, false));
  ASSERT_TRUE(tx.connect_loopback(rx.local_port()));

  Reactor reactor{"netio-test"};
  std::mutex m;
  std::condition_variable cv;
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(reactor.add_fd(rx.fd(), [&] {
    std::uint8_t buffer[64];
    while (const auto n = rx.recv_from(buffer, nullptr)) {
      std::lock_guard lock{m};
      got.assign(buffer, buffer + *n);
      cv.notify_one();
    }
  }));
  reactor.start();
  const std::vector<std::uint8_t> ping = {1, 2, 3};
  ASSERT_TRUE(tx.send(ping));
  std::unique_lock lock{m};
  EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return !got.empty(); }));
  EXPECT_EQ(got, ping);
  reactor.stop();
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

  /// A wire-format A query with the given DNS message ID.
  static std::vector<std::uint8_t> query_bytes(std::uint16_t id) {
    dns::Message query;
    query.header.id = id;
    query.header.rd = false;
    query.questions.push_back(dns::Question{
        dns::Name::must_parse("www.example.com"), dns::RrType::kA});
    return query.encode();
  }

  LoopbackDns::Options tight_options() {
    LoopbackDns::Options options;
    options.server_threads = 2;
    options.max_in_flight = 8;
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
  // Identical bytes, DNS ID included: the mux ID never leaks upward.
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
  network.set_down(kRoot, true);
  LoopbackDns loopback{network, tight_options()};
  ASSERT_TRUE(loopback.start());
  EXPECT_FALSE(
      loopback.transport().exchange(kClient, kRoot, query_bytes(8)));
  network.set_down(kRoot, false);
  EXPECT_TRUE(
      loopback.transport().exchange(kClient, kRoot, query_bytes(9)));
}

TEST_F(SocketBackendTest, InjectedLossExpiresAfterRetransmits) {
  auto options = tight_options();
  options.rto_us = 2'000;  // keep attempts * rto tiny
  // The server's reactor threads read the plan, so it must outlive the
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

TEST_F(SocketBackendTest, PipelinedExchangesUnderTinyInFlightCap) {
  auto options = tight_options();
  options.max_in_flight = 2;  // force backpressure
  LoopbackDns loopback{network, options};
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
  // of each response arrive after their exchange settled, carrying a mux
  // ID that is now stale. The FIFO free-list keeps released IDs cold and
  // the server check catches immediate reuse, so every late copy must be
  // counted a stray — never delivered, never corrupting a later answer.
  // Installed before the backend so it outlives every reactor callback.
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
  // Let the held-back duplicates land before reading the counters.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto after = obs::MetricsRegistry::instance().snapshot();
  EXPECT_GT(after.counter("fault.wire.dup"), before.counter("fault.wire.dup"));
  EXPECT_GT(after.counter("netio.client.strays"),
            before.counter("netio.client.strays"));
  // Exactly one response settled each exchange: duplicates never matched
  // a pending slot, whatever their arrival timing.
  EXPECT_EQ(after.counter("netio.client.responses") -
                before.counter("netio.client.responses"),
            static_cast<std::uint64_t>(kExchanges));
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
  std::thread caller{[&] {
    EXPECT_FALSE(
        loopback.transport().exchange(kClient, kRoot, query_bytes(21)));
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  loopback.stop();
  caller.join();
}

}  // namespace
}  // namespace cs::netio
