#include "fault/fault.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace cs::fault {
namespace {

TEST(FaultSpec, ParsesFullSpec) {
  const auto spec = Spec::parse(
      "loss=0.02,timeout=0.01,truncate=0.005,servfail=0.01,corrupt=0.5,"
      "vantage_drop=0.25,seed=42");
  ASSERT_TRUE(spec);
  EXPECT_DOUBLE_EQ(spec->loss, 0.02);
  EXPECT_DOUBLE_EQ(spec->timeout, 0.01);
  EXPECT_DOUBLE_EQ(spec->truncate, 0.005);
  EXPECT_DOUBLE_EQ(spec->servfail, 0.01);
  EXPECT_DOUBLE_EQ(spec->corrupt, 0.5);
  EXPECT_DOUBLE_EQ(spec->vantage_drop, 0.25);
  EXPECT_EQ(spec->seed, 42u);
  EXPECT_TRUE(spec->any());
}

TEST(FaultSpec, ParsesPartialSpec) {
  const auto spec = Spec::parse("loss=1");
  ASSERT_TRUE(spec);
  EXPECT_DOUBLE_EQ(spec->loss, 1.0);
  EXPECT_DOUBLE_EQ(spec->timeout, 0.0);
  EXPECT_TRUE(spec->any());
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  // Strict in the env_size/CS_THREADS style: any defect rejects the whole
  // spec rather than silently injecting different faults than asked for.
  EXPECT_FALSE(Spec::parse(""));
  EXPECT_FALSE(Spec::parse("loss"));                 // no value
  EXPECT_FALSE(Spec::parse("loss=0.02x"));           // trailing garbage
  EXPECT_FALSE(Spec::parse("loss=1.5"));             // rate above 1
  EXPECT_FALSE(Spec::parse("loss=-0.1"));            // negative rate
  EXPECT_FALSE(Spec::parse("loss=nan"));             // non-finite
  EXPECT_FALSE(Spec::parse("lose=0.1"));             // unknown key
  EXPECT_FALSE(Spec::parse("loss=0.1,loss=0.2"));    // duplicate key
  EXPECT_FALSE(Spec::parse("loss=0.1,"));            // empty trailing entry
  EXPECT_FALSE(Spec::parse("seed=12beef"));          // non-decimal seed
}

TEST(FaultSpec, ParsesWireKeys) {
  const auto spec = Spec::parse(
      "drop=0.05,dup=0.02,reorder=0.1,delay_us=300,jitter_us=150,"
      "corrupt=0.01,seed=42");
  ASSERT_TRUE(spec);
  EXPECT_DOUBLE_EQ(spec->drop, 0.05);
  EXPECT_DOUBLE_EQ(spec->dup, 0.02);
  EXPECT_DOUBLE_EQ(spec->reorder, 0.1);
  EXPECT_DOUBLE_EQ(spec->corrupt, 0.01);
  EXPECT_EQ(spec->delay_us, 300u);
  EXPECT_EQ(spec->jitter_us, 150u);
  EXPECT_EQ(spec->seed, 42u);
  EXPECT_TRUE(spec->any());
  EXPECT_TRUE(spec->wire());
}

TEST(FaultSpec, WireCoversDatagramKindsOnly) {
  // wire() is what the transports ask before deciding per datagram:
  // every kind that acts on a socket datagram, and nothing else.
  for (const char* text : {"drop=1", "dup=1", "reorder=1", "delay_us=5000",
                           "jitter_us=1", "corrupt=0.001"}) {
    const auto spec = Spec::parse(text);
    ASSERT_TRUE(spec) << text;
    EXPECT_TRUE(spec->wire()) << text;
  }
  for (const char* text : {"loss=1", "timeout=1", "truncate=1", "servfail=1",
                           "vantage_drop=1", "stage_abort=1", "seed=3"}) {
    const auto spec = Spec::parse(text);
    ASSERT_TRUE(spec) << text;
    EXPECT_FALSE(spec->wire()) << text;
  }
}

TEST(FaultSpec, RejectsMalformedWireKeys) {
  // The wire keys share the grammar's strictness: a half-read spec would
  // silently change what an impaired CI run proves.
  EXPECT_FALSE(Spec::parse(""));
  EXPECT_FALSE(Spec::parse("drop"));
  EXPECT_FALSE(Spec::parse("drop="));
  EXPECT_FALSE(Spec::parse("drop=0.1,"));          // trailing comma
  EXPECT_FALSE(Spec::parse("drop=1.5"));           // out of range
  EXPECT_FALSE(Spec::parse("drop=-0.1"));
  EXPECT_FALSE(Spec::parse("drop=nan"));           // non-finite
  EXPECT_FALSE(Spec::parse("drop=0.1,drop=0.2"));  // duplicate
  EXPECT_FALSE(Spec::parse("drops=0.1"));          // unknown key
  EXPECT_FALSE(Spec::parse("delay_us=abc"));
  EXPECT_FALSE(Spec::parse("delay_us=-1"));
  EXPECT_FALSE(Spec::parse("jitter_us=0.5"));      // not an integer
  EXPECT_FALSE(Spec::parse("drop=0.1 ,dup=0.2"));  // whitespace
}

TEST(FaultPlan, DecisionsAreDeterministic) {
  Spec spec;
  spec.loss = 0.3;
  spec.seed = 7;
  const Plan a{spec};
  const Plan b{spec};
  for (std::uint64_t key = 0; key < 2000; ++key)
    ASSERT_EQ(a.decide(Kind::kLoss, key), b.decide(Kind::kLoss, key)) << key;
}

TEST(FaultPlan, DecisionRateTracksSpec) {
  Spec spec;
  spec.loss = 0.2;
  spec.seed = 11;
  const Plan plan{spec};
  std::size_t hits = 0;
  constexpr std::size_t kTrials = 20000;
  for (std::uint64_t key = 0; key < kTrials; ++key)
    hits += plan.decide(Kind::kLoss, key);
  const double observed = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(observed, 0.2, 0.02);
}

TEST(FaultPlan, KindsDrawFromIndependentStreams) {
  Spec spec;
  spec.loss = 0.5;
  spec.timeout = 0.5;
  spec.seed = 3;
  const Plan plan{spec};
  std::size_t agree = 0;
  constexpr std::size_t kTrials = 4000;
  for (std::uint64_t key = 0; key < kTrials; ++key)
    agree += plan.decide(Kind::kLoss, key) == plan.decide(Kind::kTimeout, key);
  // Correlated streams would agree (or disagree) nearly always.
  EXPECT_GT(agree, kTrials / 3);
  EXPECT_LT(agree, 2 * kTrials / 3);
}

TEST(FaultPlan, SeedChangesDecisions) {
  Spec a, b;
  a.loss = b.loss = 0.5;
  a.seed = 1;
  b.seed = 2;
  const Plan plan_a{a}, plan_b{b};
  std::size_t differ = 0;
  for (std::uint64_t key = 0; key < 1000; ++key)
    differ += plan_a.decide(Kind::kLoss, key) != plan_b.decide(Kind::kLoss, key);
  EXPECT_GT(differ, 0u);
}

TEST(FaultPlan, ZeroRateNeverFires) {
  Spec spec;  // all rates zero
  const Plan plan{spec};
  for (std::uint64_t key = 0; key < 1000; ++key)
    ASSERT_FALSE(plan.decide(Kind::kServFail, key));
}

TEST(FaultPlan, StreamIsIndependentOfDecisionDraw) {
  Spec spec;
  spec.truncate = 1.0;
  const Plan plan{spec};
  auto rng_a = plan.stream(Kind::kTruncate, 99);
  auto rng_b = plan.stream(Kind::kTruncate, 99);
  EXPECT_EQ(rng_a(), rng_b());  // same key -> same stream
  auto rng_c = plan.stream(Kind::kTruncate, 100);
  auto rng_d = plan.stream(Kind::kTruncate, 99);
  EXPECT_NE(rng_c(), rng_d());  // different key -> different stream
}

TEST(FaultExchangeKey, SensitiveToAllInputs) {
  const std::vector<std::uint8_t> query = {0x12, 0x34, 0x01, 0x00};
  std::vector<std::uint8_t> other_query = query;
  other_query[0] ^= 1;
  const auto base = exchange_key(1, 2, query);
  EXPECT_EQ(base, exchange_key(1, 2, query));
  EXPECT_NE(base, exchange_key(3, 2, query));
  EXPECT_NE(base, exchange_key(1, 3, query));
  EXPECT_NE(base, exchange_key(1, 2, other_query));
}

// --- wire decisions ---------------------------------------------------------

TEST(FaultWire, DecisionsAreAPureFunctionOfTheAttempt) {
  // Two plans with the same spec decide identically for the same
  // (direction, key, attempt), whatever else either decided in between:
  // determinism at any CS_THREADS hangs off this.
  Spec spec;
  spec.drop = 0.3;
  spec.dup = 0.3;
  spec.reorder = 0.3;
  spec.corrupt = 0.3;
  spec.delay_us = 100;
  spec.jitter_us = 400;
  spec.seed = 7;
  const Plan a{spec};
  const Plan b{spec};
  // b also decides for unrelated keys first; a's answers must not care.
  for (std::uint64_t noise = 900; noise < 940; ++noise)
    b.wire(Direction::kQuery, noise, 0, 64);
  std::size_t drops = 0;
  for (std::uint64_t key = 1; key <= 32; ++key) {
    for (std::uint32_t attempt = 0; attempt < 3; ++attempt) {
      for (const auto dir : {Direction::kQuery, Direction::kResponse}) {
        const auto da = a.wire(dir, key, attempt, 64);
        const auto db = b.wire(dir, key, attempt, 64);
        EXPECT_EQ(da.drop, db.drop);
        EXPECT_EQ(da.reorder, db.reorder);
        EXPECT_EQ(da.duplicate, db.duplicate);
        EXPECT_EQ(da.delay_us, db.delay_us);
        EXPECT_EQ(da.duplicate_delay_us, db.duplicate_delay_us);
        EXPECT_EQ(da.corrupt_offset, db.corrupt_offset);
        EXPECT_EQ(da.corrupt_mask, db.corrupt_mask);
        EXPECT_EQ(da.drop, a.drops(dir, key, attempt));
        // Asking again is the same question: no per-key state.
        EXPECT_EQ(a.wire(dir, key, attempt, 64).delay_us, da.delay_us);
        drops += da.drop;
      }
    }
  }
  EXPECT_GT(drops, 0u);
}

TEST(FaultWire, SeedChangesTheDecisionStream) {
  Spec base;
  base.drop = 0.5;
  Spec reseeded = base;
  reseeded.seed = base.seed ^ 0xFFFF;
  const Plan a{base};
  const Plan b{reseeded};
  int disagreements = 0;
  for (std::uint64_t key = 1; key <= 64; ++key)
    if (a.drops(Direction::kQuery, key, 0) !=
        b.drops(Direction::kQuery, key, 0))
      ++disagreements;
  EXPECT_GT(disagreements, 0);
}

TEST(FaultWire, OnlyFirstAttemptsDrop) {
  // drop=1 loses both directions of every first attempt, and nothing
  // after it: a retransmit always gets through, so drop is survivable
  // for any client that sends twice, however often an exchange recurs.
  Spec spec;
  spec.drop = 1.0;
  const Plan plan{spec};
  for (std::uint64_t key = 50; key < 58; ++key) {
    for (const auto dir : {Direction::kQuery, Direction::kResponse}) {
      EXPECT_TRUE(plan.drops(dir, key, 0)) << "key " << key;
      EXPECT_TRUE(plan.wire(dir, key, 0, 64).drop) << "key " << key;
      for (std::uint32_t attempt = 1; attempt < 6; ++attempt) {
        EXPECT_FALSE(plan.drops(dir, key, attempt)) << "key " << key;
        EXPECT_FALSE(plan.wire(dir, key, attempt, 64).drop) << "key " << key;
      }
    }
  }
}

TEST(FaultWire, CorruptionPicksOneInBoundsBit) {
  Spec spec;
  spec.corrupt = 1.0;
  const Plan plan{spec};
  for (std::uint64_t key = 1; key <= 64; ++key) {
    const auto d = plan.wire(Direction::kQuery, key, 0, 17);
    EXPECT_FALSE(d.drop);
    ASSERT_NE(d.corrupt_mask, 0);
    // Exactly one bit, and an offset inside the datagram.
    EXPECT_EQ(d.corrupt_mask & (d.corrupt_mask - 1), 0);
    EXPECT_LT(d.corrupt_offset, 17u);
  }
  // A zero-length datagram cannot be corrupted, only delivered.
  const auto empty = plan.wire(Direction::kQuery, 999, 0, 0);
  EXPECT_FALSE(empty.drop);
  EXPECT_EQ(empty.corrupt_mask, 0);
}

TEST(FaultWire, DelayStaysInsideTheConfiguredBand) {
  Spec spec;
  spec.delay_us = 300;
  spec.jitter_us = 150;
  spec.reorder = 1.0;
  const Plan plan{spec};
  const std::uint64_t holdback = 2 * (300 + 150) + 200;
  for (std::uint64_t key = 1; key <= 32; ++key) {
    const auto d = plan.wire(Direction::kResponse, key, 1, 64);
    EXPECT_TRUE(d.reorder);
    EXPECT_GE(d.delay_us, 300u + holdback);
    EXPECT_LE(d.delay_us, 300u + 150u + holdback);
  }
}

TEST(FaultGlobalPlan, ScopedPlanInstallsAndRestores) {
  // CS_FAULT is unset in the test environment, so the default is off.
  EXPECT_EQ(active_plan(), nullptr);
  {
    ScopedPlan scoped{"loss=0.5,seed=9"};
    ASSERT_NE(active_plan(), nullptr);
    EXPECT_DOUBLE_EQ(active_plan()->spec().loss, 0.5);
    {
      Spec inner;
      inner.timeout = 0.25;
      ScopedPlan nested{inner};
      ASSERT_NE(active_plan(), nullptr);
      EXPECT_DOUBLE_EQ(active_plan()->spec().timeout, 0.25);
    }
    ASSERT_NE(active_plan(), nullptr);
    EXPECT_DOUBLE_EQ(active_plan()->spec().loss, 0.5);
  }
  EXPECT_EQ(active_plan(), nullptr);
}

TEST(FaultGlobalPlan, ScopedPlanRejectsMalformedSpec) {
  EXPECT_THROW(ScopedPlan{"bogus"}, std::invalid_argument);
}

}  // namespace
}  // namespace cs::fault
