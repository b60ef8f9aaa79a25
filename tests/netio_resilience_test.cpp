// The socket client's resilience state machines, exercised as pure
// units: RFC 6298 RTO estimation (including Karn's rule and backoff),
// the retransmit token bucket, and the per-server circuit breaker's full
// closed -> open -> half-open cycle — every test deterministic,
// clock-free, and sleep-free (time is a scripted microsecond value). The
// wire decisions the client executes are tested in fault_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "netio/resilience.h"

namespace cs::netio {
namespace {

// --- RtoEstimator (RFC 6298) ----------------------------------------------

RtoEstimator::Options wide_band() {
  RtoEstimator::Options options;
  options.initial_us = 100'000;
  options.min_us = 5'000;
  options.max_us = 2'000'000;
  return options;
}

TEST(RtoEstimator, FirstSampleSeedsSrttAndRttvar) {
  RtoEstimator est{wide_band()};
  EXPECT_FALSE(est.seeded());
  EXPECT_EQ(est.rto_us(), 100'000u);
  est.observe_rtt(40'000);
  EXPECT_TRUE(est.seeded());
  // SRTT <- R, RTTVAR <- R/2, RTO <- SRTT + 4*RTTVAR (§2.2).
  EXPECT_DOUBLE_EQ(est.srtt_us(), 40'000.0);
  EXPECT_DOUBLE_EQ(est.rttvar_us(), 20'000.0);
  EXPECT_EQ(est.rto_us(), 120'000u);
}

TEST(RtoEstimator, SubsequentSamplesUseStandardGains) {
  RtoEstimator est{wide_band()};
  est.observe_rtt(40'000);
  est.observe_rtt(80'000);
  // Variance first, from the pre-update SRTT (§2.3):
  //   RTTVAR = 0.75*20000 + 0.25*|40000-80000| = 25000
  //   SRTT   = 0.875*40000 + 0.125*80000       = 45000
  EXPECT_DOUBLE_EQ(est.rttvar_us(), 25'000.0);
  EXPECT_DOUBLE_EQ(est.srtt_us(), 45'000.0);
  EXPECT_EQ(est.rto_us(), 145'000u);
}

TEST(RtoEstimator, RtoClampsToConfiguredBand) {
  RtoEstimator est{wide_band()};
  // A steady stream of tiny identical samples drives RTTVAR toward zero;
  // the floor keeps the timer from becoming hair-triggered.
  for (int i = 0; i < 64; ++i) est.observe_rtt(100);
  EXPECT_EQ(est.rto_us(), 5'000u);
  RtoEstimator slow{wide_band()};
  slow.observe_rtt(5'000'000);  // one pathological sample
  EXPECT_EQ(slow.rto_us(), 2'000'000u);
}

TEST(RtoEstimator, TimeoutDoublesUpToCapWithoutOverflow) {
  RtoEstimator est{wide_band()};
  est.on_timeout();
  EXPECT_EQ(est.rto_us(), 200'000u);
  est.on_timeout();
  EXPECT_EQ(est.rto_us(), 400'000u);
  for (int i = 0; i < 80; ++i) est.on_timeout();  // far past the cap
  EXPECT_EQ(est.rto_us(), 2'000'000u);
}

TEST(RtoEstimator, CleanSampleClearsBackoff) {
  RtoEstimator est{wide_band()};
  est.observe_rtt(40'000);
  est.on_timeout();
  est.on_timeout();
  EXPECT_EQ(est.rto_us(), 480'000u);  // 120000 doubled twice
  // The next clean sample recomputes from SRTT/RTTVAR (§5.7): the
  // backed-off value is gone, not halved or remembered.
  est.observe_rtt(40'000);
  EXPECT_LT(est.rto_us(), 130'000u);
}

TEST(RtoEstimator, KarnExclusionKeepsAmbiguousSamplesOut) {
  // Karn's rule lives in the transport: an exchange that was ever
  // retransmitted yields no sample, because the client cannot tell which
  // transmission the response answered. This pins why: feeding the
  // ambiguous (first-send-to-late-response) measurement would poison the
  // estimator upward, while exclusion leaves it exactly where clean
  // samples put it.
  RtoEstimator excluded{wide_band()};
  RtoEstimator poisoned{wide_band()};
  for (const auto rtt : {20'000u, 22'000u, 21'000u}) {
    excluded.observe_rtt(rtt);
    poisoned.observe_rtt(rtt);
  }
  const auto clean_rto = excluded.rto_us();
  // A retransmitted exchange: the response arrives one full backed-off
  // RTO after the *first* send. The transport feeds neither estimator's
  // on_timeout here — only the sample policy differs.
  poisoned.observe_rtt(clean_rto + 200'000);
  EXPECT_EQ(excluded.rto_us(), clean_rto);
  EXPECT_GT(poisoned.rto_us(), clean_rto);
}

// --- RetryBudget ----------------------------------------------------------

TEST(RetryBudget, StartsFullAndRefusesWhenDry) {
  RetryBudget budget{RetryBudget::Options{0.0, 3.0}};
  EXPECT_DOUBLE_EQ(budget.tokens(), 3.0);
  EXPECT_TRUE(budget.try_spend());
  EXPECT_TRUE(budget.try_spend());
  EXPECT_TRUE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());  // dry: refuse, don't go negative
  EXPECT_FALSE(budget.try_spend());
  EXPECT_DOUBLE_EQ(budget.tokens(), 0.0);
}

TEST(RetryBudget, FirstSendsEarnFractionalCreditUpToCap) {
  RetryBudget budget{RetryBudget::Options{0.25, 2.0}};
  EXPECT_TRUE(budget.try_spend());
  EXPECT_TRUE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());  // the two-token bucket is dry
  // Four first sends earn exactly one retransmit back.
  for (int i = 0; i < 3; ++i) {
    budget.on_send();
    EXPECT_FALSE(budget.try_spend());
  }
  budget.on_send();
  EXPECT_TRUE(budget.try_spend());
  // And the cap holds: no amount of sending banks more than max_tokens.
  for (int i = 0; i < 100; ++i) budget.on_send();
  EXPECT_DOUBLE_EQ(budget.tokens(), 2.0);
}

// --- CircuitBreaker -------------------------------------------------------

CircuitBreaker::Options quick_breaker() {
  CircuitBreaker::Options options;
  options.failure_threshold = 3;
  options.cooldown_us = 1'000;
  return options;
}

TEST(CircuitBreaker, OpensAtThresholdAndFailsFastUntilCooldown) {
  CircuitBreaker breaker{quick_breaker()};
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(0));
  breaker.on_failure(10);
  breaker.on_failure(20);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(30));  // below threshold: still admitting
  breaker.on_failure(30);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.allow(31));
  EXPECT_FALSE(breaker.allow(1'029));  // cooldown measured from the trip
}

TEST(CircuitBreaker, HalfOpenAdmitsExactlyOneProbeThenCloses) {
  CircuitBreaker breaker{quick_breaker()};
  for (int i = 0; i < 3; ++i) breaker.on_failure(100);
  EXPECT_TRUE(breaker.allow(1'200));  // cooldown elapsed: the probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow(1'201));  // probe slot is single-occupancy
  breaker.on_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  EXPECT_TRUE(breaker.allow(1'202));
}

TEST(CircuitBreaker, FailedProbeReopensImmediately) {
  CircuitBreaker breaker{quick_breaker()};
  for (int i = 0; i < 3; ++i) breaker.on_failure(100);
  EXPECT_TRUE(breaker.allow(1'200));
  // One failure re-opens a half-open breaker — no fresh threshold count.
  breaker.on_failure(1'300);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_FALSE(breaker.allow(1'301));
  // And the new cooldown is measured from the re-open.
  EXPECT_FALSE(breaker.allow(2'200));
  EXPECT_TRUE(breaker.allow(2'400));
}

TEST(CircuitBreaker, AbandonFreesTheProbeSlotWithoutVerdict) {
  CircuitBreaker breaker{quick_breaker()};
  for (int i = 0; i < 3; ++i) breaker.on_failure(100);
  EXPECT_TRUE(breaker.allow(1'200));
  EXPECT_FALSE(breaker.allow(1'201));
  // The probe ended with no verdict (budget refusal, shutdown): the slot
  // frees so the breaker is not wedged awaiting an answer that never
  // comes — but the breaker stays half-open, not closed.
  breaker.on_abandon();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.allow(1'202));
  // on_abandon in other states is a no-op.
  breaker.on_success();
  breaker.on_abandon();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(1'203));
}

}  // namespace
}  // namespace cs::netio
