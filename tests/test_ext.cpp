// Tests for src/ext: the Section-7 extensions (bin speeds, weighted balls).
#include <gtest/gtest.h>

#include <numeric>

#include "config/generators.hpp"
#include "ext/speed_rls.hpp"
#include "ext/weighted_rls.hpp"
#include "process/process.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "stats/running_stat.hpp"

namespace rlslb::ext {
namespace {

/// Run to Nash equilibrium within `maxActivations` activations.
process::RunResult runToNash(process::Process& engine, std::int64_t maxActivations) {
  return process::run(engine, process::Target::equilibrium(), {.maxEvents = maxActivations});
}

std::vector<std::int64_t> unitSpeeds(std::int64_t n) {
  return std::vector<std::int64_t>(static_cast<std::size_t>(n), 1);
}

TEST(SpeedRls, UnitSpeedsReduceToClassicRls) {
  // With all speeds 1 the improvement rule (l_j+1)/1 < l_i/1 is the strict
  // protocol variant; equilibrium = spread <= 1 = perfect balance.
  SpeedRlsEngine engine(config::allInOne(8, 64), unitSpeeds(8), 1);
  const auto r = runToNash(engine, 10'000'000);
  ASSERT_TRUE(r.reachedTarget);
  const auto [mn, mx] = std::minmax_element(engine.loads().begin(), engine.loads().end());
  EXPECT_LE(*mx - *mn, 1);
}

TEST(SpeedRls, MassConserved) {
  SpeedRlsEngine engine(config::allInOne(6, 60), {1, 1, 2, 2, 4, 4}, 2);
  for (int i = 0; i < 20000; ++i) engine.step();
  EXPECT_EQ(std::accumulate(engine.loads().begin(), engine.loads().end(), std::int64_t{0}), 60);
}

TEST(SpeedRls, EquilibriumRespectsSpeeds) {
  // Faster bins should end with proportionally more balls: loads near
  // m * s_i / sum(s).
  const std::vector<std::int64_t> speeds = {1, 1, 2, 4};
  SpeedRlsEngine engine(config::allInOne(4, 160), speeds, 3);
  const auto r = runToNash(engine, 20'000'000);
  ASSERT_TRUE(r.reachedTarget);
  // sum s = 8, m = 160 -> per-unit-speed 20.
  EXPECT_NEAR(static_cast<double>(engine.loads()[0]), 20.0, 3.0);
  EXPECT_NEAR(static_cast<double>(engine.loads()[2]), 40.0, 5.0);
  EXPECT_NEAR(static_cast<double>(engine.loads()[3]), 80.0, 8.0);
}

TEST(SpeedRls, EquilibriumPredicateExact) {
  // Hand-built equilibrium: speeds (1,2), loads (2,4): experienced 2 and 2;
  // move 1->2: (4+1)/2 = 2.5 >= 2; move 2->1: (2+1)/1 = 3 >= 2. Stable.
  config::Configuration c({2, 4});
  SpeedRlsEngine engine(c, {1, 2}, 4);
  EXPECT_TRUE(engine.isEquilibrium());
  // Non-equilibrium: loads (6,0) with speeds (1,2).
  config::Configuration c2({6, 0});
  SpeedRlsEngine engine2(c2, {1, 2}, 5);
  EXPECT_FALSE(engine2.isEquilibrium());
}

TEST(SpeedRls, WeightedDiscrepancyShrinks) {
  SpeedRlsEngine engine(config::allInOne(8, 200), {1, 1, 1, 1, 2, 2, 2, 2}, 6);
  const double initial = engine.weightedDiscrepancy();
  runToNash(engine, 20'000'000);
  EXPECT_LT(engine.weightedDiscrepancy(), initial);
}

TEST(SpeedRls, TimeAdvances) {
  SpeedRlsEngine engine(config::allInOne(4, 16), unitSpeeds(4), 7);
  engine.step();
  EXPECT_GT(engine.time(), 0.0);
  EXPECT_EQ(engine.activations(), 1);
}

// ---------------------------------------------------------------- weighted

WeightedRlsEngine makeWeighted(std::int64_t n, const std::vector<std::int64_t>& weights,
                               std::uint64_t seed, bool allInFirstBin = true) {
  std::vector<std::uint32_t> start(weights.size(), 0);
  if (!allInFirstBin) {
    rng::Xoshiro256pp eng(seed * 31 + 7);
    for (auto& s : start) {
      s = static_cast<std::uint32_t>(rng::uniformIndex(eng, static_cast<std::uint64_t>(n)));
    }
  }
  return WeightedRlsEngine(n, weights, start, seed);
}

TEST(WeightedRls, UnitWeightsReachPerfectBalance) {
  auto engine = makeWeighted(8, std::vector<std::int64_t>(64, 1), 8);
  const auto r = runToNash(engine, 10'000'000);
  ASSERT_TRUE(r.reachedTarget);
  // Unit weights: equilibrium means spread <= 1.
  EXPECT_LE(engine.weightedSpread(), 1);
}

TEST(WeightedRls, WeightConserved) {
  const std::vector<std::int64_t> weights = {5, 3, 3, 2, 2, 1, 1, 1};
  auto engine = makeWeighted(4, weights, 9);
  const std::int64_t total = engine.totalWeight();
  for (int i = 0; i < 20000; ++i) engine.step();
  EXPECT_EQ(std::accumulate(engine.loads().begin(), engine.loads().end(), std::int64_t{0}),
            total);
}

TEST(WeightedRls, EquilibriumSpreadBoundedByMaxWeight) {
  // At Nash equilibrium the spread is at most the maximum ball weight
  // (else the top bin's heaviest... any ball on the max bin improves by
  // moving to the min bin).
  rng::Xoshiro256pp weng(10);
  std::vector<std::int64_t> weights(100);
  std::int64_t maxW = 0;
  for (auto& w : weights) {
    w = 1 + static_cast<std::int64_t>(rng::uniformIndex(weng, 8));
    maxW = std::max(maxW, w);
  }
  auto engine = makeWeighted(10, weights, 11);
  const auto r = runToNash(engine, 20'000'000);
  ASSERT_TRUE(r.reachedTarget);
  EXPECT_LE(engine.weightedSpread(), maxW);
}

TEST(WeightedRls, BimodalWeightsEquilibrate) {
  std::vector<std::int64_t> weights;
  for (int i = 0; i < 20; ++i) weights.push_back(10);
  for (int i = 0; i < 200; ++i) weights.push_back(1);
  auto engine = makeWeighted(16, weights, 12, /*allInFirstBin=*/false);
  const auto r = runToNash(engine, 30'000'000);
  EXPECT_TRUE(r.reachedTarget);
  EXPECT_LE(engine.weightedSpread(), 10);
}

TEST(WeightedRls, EquilibriumPredicateExact) {
  // loads: bin0 = {w=3}, bin1 = {w=1,w=1}: loads (3,2). Ball w=3 moving to
  // bin1: 2+3=5 > 3 rejected and not improving; w=1 balls moving to bin0:
  // 3+1=4 > 2 not improving. Equilibrium.
  WeightedRlsEngine engine(2, {3, 1, 1}, {0, 1, 1}, 13);
  EXPECT_TRUE(engine.isEquilibrium());
  // loads (5,0): the w=1 ball improves by moving.
  WeightedRlsEngine engine2(2, {3, 1, 1}, {0, 0, 0}, 14);
  EXPECT_FALSE(engine2.isEquilibrium());
}

TEST(WeightedRls, MoveRuleAllowsNeutral) {
  // A ball may move when the new load equals the old (non-worsening),
  // matching the paper's >= rule under unit weights.
  WeightedRlsEngine engine(2, {1, 1, 1}, {0, 0, 1}, 15);  // loads (2,1)
  // Ball in bin0: dest load 1 + w 1 = 2 <= 2 -> allowed (neutral).
  int moved = 0;
  for (int i = 0; i < 2000 && moved == 0; ++i) moved += engine.step();
  EXPECT_GT(moved, 0);
}

TEST(WeightedRls, DeterministicForSeed) {
  auto a = makeWeighted(8, std::vector<std::int64_t>(32, 2), 16);
  auto b = makeWeighted(8, std::vector<std::int64_t>(32, 2), 16);
  for (int i = 0; i < 5000; ++i) {
    a.step();
    b.step();
  }
  EXPECT_EQ(a.loads(), b.loads());
}

TEST(WeightedRls, HeavierSystemsSlower) {
  // More total weight concentration -> longer to equilibrium (sanity shape).
  stats::RunningStat light;
  stats::RunningStat heavy;
  for (int rep = 0; rep < 30; ++rep) {
    auto a = makeWeighted(8, std::vector<std::int64_t>(32, 1), rng::streamSeed(17, rep));
    light.add(runToNash(a, 10'000'000).time);
    auto b = makeWeighted(8, std::vector<std::int64_t>(64, 1), rng::streamSeed(18, rep));
    heavy.add(runToNash(b, 10'000'000).time);
  }
  // Both should be modest; no strict ordering guaranteed, just finiteness.
  EXPECT_GT(light.count(), 0);
  EXPECT_GT(heavy.count(), 0);
}

}  // namespace
}  // namespace rlslb::ext
