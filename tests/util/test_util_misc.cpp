// Unit tests for Timer, StatAccumulator, Rng, and diagnostics.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "src/util/diagnostics.hpp"
#include "src/util/rng.hpp"
#include "src/util/timer.hpp"

namespace u = mph::util;

TEST(Timer, MeasuresElapsedTime) {
  u::Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const double s = t.seconds();
  EXPECT_GE(s, 0.009);
  EXPECT_LT(s, 5.0);  // generous bound for loaded CI machines
}

TEST(Timer, ResetRestarts) {
  u::Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.reset();
  EXPECT_LT(t.seconds(), 0.5);
}

TEST(StatAccumulator, EmptyIsZero) {
  u::StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.min(), 0.0);
  EXPECT_EQ(acc.max(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(StatAccumulator, KnownMoments) {
  u::StatAccumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
}

TEST(StatAccumulator, SingleSampleHasZeroVariance) {
  u::StatAccumulator acc;
  acc.add(3.5);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Rng, Deterministic) {
  u::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  u::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowRespectsBound) {
  u::Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit in 1000 draws
}

TEST(Rng, RangeInclusive) {
  u::Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  u::Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  u::Rng parent(99);
  u::Rng s0 = parent.split(0);
  u::Rng s1 = parent.split(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (s0() == s1()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, FreshEntropySeedsNeverRepeat) {
  std::set<std::uint64_t> seeds;
  for (int i = 0; i < 10000; ++i) seeds.insert(u::fresh_entropy_seed());
  EXPECT_EQ(seeds.size(), 10000u);
}

TEST(Diagnostics, ThreadLabelRoundTrip) {
  u::set_thread_label("rank 7 (ocean)");
  EXPECT_EQ(u::thread_label(), "rank 7 (ocean)");
}

TEST(Diagnostics, LevelSetGet) {
  u::set_diag_level(u::DiagLevel::info);
  EXPECT_EQ(u::diag_level(), u::DiagLevel::info);
  u::set_diag_level(u::DiagLevel::warn);
  EXPECT_EQ(u::diag_level(), u::DiagLevel::warn);
}

TEST(Diagnostics, EmitBelowThresholdIsSilentAndSafe) {
  u::set_diag_level(u::DiagLevel::off);
  // Must not crash or throw.
  MPH_DIAG_LOG(trace) << "invisible " << 42;
  u::set_diag_level(u::DiagLevel::warn);
}
