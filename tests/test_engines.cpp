// Tests for src/sim and src/core: the three engines are exact samplers of
// the same CTMC. Verified via (a) structural invariants from Section 3 of
// the paper, (b) closed-form expected times, (c) the exact absorbing-chain
// solver, and (d) cross-engine distributional tests.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "config/generators.hpp"
#include "config/metrics.hpp"
#include "core/rls.hpp"
#include "exact/rls_chain.hpp"
#include "process/process.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "sim/hybrid_engine.hpp"
#include "sim/jump_engine.hpp"
#include "sim/naive_engine.hpp"
#include "sim/ensemble.hpp"
#include "sim/probes.hpp"
#include "stats/running_stat.hpp"
#include "stats/tests.hpp"

#include "jump_reference.hpp"

namespace rlslb {
namespace {

using config::Configuration;
using core::SimOptions;
using process::RunLimits;
using process::Target;

SimOptions opts(SimOptions::EngineKind kind, std::uint64_t seed, int gap = 1) {
  SimOptions o;
  o.engine = kind;
  o.seed = seed;
  o.gap = gap;
  return o;
}

// Probe asserting the paper's Section-3 monotonicity properties after every
// event: discrepancy never increases, min never decreases, max never
// increases, mass conserved.
class InvariantProbe final : public process::Probe {
 public:
  void onEvent(const process::Process& engine) override {
    const auto& s = engine.state();
    if (seen_) {
      EXPECT_GE(s.minLoad, lastMin_);
      EXPECT_LE(s.maxLoad, lastMax_);
      EXPECT_LE(s.overloadedBalls, lastOverload_);
    }
    EXPECT_EQ(s.numBalls, balls_ == -1 ? s.numBalls : balls_);
    balls_ = s.numBalls;
    lastMin_ = s.minLoad;
    lastMax_ = s.maxLoad;
    lastOverload_ = s.overloadedBalls;
    seen_ = true;
  }

 private:
  bool seen_ = false;
  std::int64_t balls_ = -1;
  std::int64_t lastMin_ = 0;
  std::int64_t lastMax_ = 0;
  std::int64_t lastOverload_ = 0;
};

TEST(NaiveEngine, InvariantsFromAllInOne) {
  InvariantProbe probe;
  const auto r = core::balance(config::allInOne(8, 64), opts(SimOptions::EngineKind::Naive, 1),
                               Target::perfect(), {}, &probe);
  EXPECT_TRUE(r.reachedTarget);
  EXPECT_TRUE(r.finalState.perfectlyBalanced());
}

TEST(NaiveEngine, InvariantsFromRandom) {
  rng::Xoshiro256pp eng(2);
  for (int rep = 0; rep < 10; ++rep) {
    InvariantProbe probe;
    const auto init = config::uniformRandom(12, 60, eng);
    const auto r = core::balance(init, opts(SimOptions::EngineKind::Naive, 100 + rep),
                                 Target::perfect(), {}, &probe);
    EXPECT_TRUE(r.reachedTarget);
  }
}

TEST(JumpEngine, InvariantsFromAllInOne) {
  InvariantProbe probe;
  const auto r = core::balance(config::allInOne(8, 64), opts(SimOptions::EngineKind::Jump, 3),
                               Target::perfect(), {}, &probe);
  EXPECT_TRUE(r.reachedTarget);
}

TEST(NaiveEngine, MassConservedAndStateMatchesLoads) {
  sim::NaiveEngine engine(config::staircase(16, 256), 4);
  for (int i = 0; i < 2000; ++i) engine.advance();
  const auto mm = config::computeMetrics(Configuration(engine.loads()));
  EXPECT_EQ(mm.minLoad, engine.state().minLoad);
  EXPECT_EQ(mm.maxLoad, engine.state().maxLoad);
  EXPECT_EQ(mm.overloadedBalls, engine.state().overloadedBalls);
  std::int64_t total = 0;
  for (auto v : engine.loads()) total += v;
  EXPECT_EQ(total, 256);
}

TEST(NaiveEngine, ActivationLowerBound) {
  // To empty the initial bin below ceil(avg), at least m - ceil(avg)
  // successful moves (hence activations) are needed (Theorem 1 lower-bound
  // argument).
  const std::int64_t n = 16;
  const std::int64_t m = 64;
  const auto r = core::balance(config::allInOne(n, m), opts(SimOptions::EngineKind::Naive, 5));
  EXPECT_TRUE(r.reachedTarget);
  EXPECT_GE(r.moves, m - (m + n - 1) / n);
  EXPECT_GE(r.activations, r.moves);
}

TEST(NaiveEngine, StrictGapAbsorbsWhenSpreadBelowGap) {
  // Strict protocol (gap 2) at spread 1: load(src) >= load(dst) + 2 can
  // never hold, so the labeled chain is absorbed. advance() must say so in
  // O(1) instead of simulating failed activations forever (previously a
  // run with an unreachable target spun until RunLimits).
  sim::NaiveEngine engine(Configuration({2, 1}), 31, /*gap=*/2);
  EXPECT_FALSE(engine.advance());
  EXPECT_DOUBLE_EQ(engine.time(), 0.0);
  EXPECT_EQ(engine.activations(), 0);

  RunLimits limits;
  limits.maxEvents = 50000;
  // disc <= 0 needs n | m, impossible for n=2, m=3: unreachable target.
  const auto r = process::run(engine, Target::xBalanced(0), limits);
  EXPECT_FALSE(r.reachedTarget);
  EXPECT_EQ(r.activations, 0);  // terminated by absorption, not the limit
}

TEST(NaiveEngine, StrictGapRunTerminatesByAbsorptionLikeJump) {
  // gap = 2 from the worst case with an unreachable target: the run must
  // end by absorption once the spread drops below the gap, mirroring the
  // jump engine's absorption contract, instead of exhausting maxEvents.
  sim::NaiveEngine engine(config::allInOne(4, 6), 32, /*gap=*/2);
  RunLimits limits;
  limits.maxEvents = 2000000;
  const auto r = process::run(engine, Target::xBalanced(0), limits);
  EXPECT_FALSE(r.reachedTarget);
  EXPECT_LT(r.activations, limits.maxEvents);
  EXPECT_LE(engine.state().maxLoad - engine.state().minLoad, 1);
}

TEST(NaiveEngine, GapOneAbsorbsExactlyAtUniformLoads) {
  // With n | m the gap-1 chain absorbs exactly when every load equals the
  // average; a bare advance() loop must terminate there (previously it would
  // keep consuming rng and advancing time on failed activations).
  sim::NaiveEngine engine(config::allInOne(6, 30), 33);
  while (engine.advance()) {
  }
  EXPECT_EQ(engine.state().minLoad, engine.state().maxLoad);
  EXPECT_TRUE(engine.state().perfectlyBalanced());
  // Absorption is permanent: further steps change nothing.
  const double t = engine.time();
  EXPECT_FALSE(engine.advance());
  EXPECT_DOUBLE_EQ(engine.time(), t);
}

TEST(NaiveEngine, ForcedMoveRevivesAbsorbedChain) {
  // The DML adversary can push an absorbed configuration apart again; the
  // absorption check must be state-based, not sticky.
  sim::NaiveEngine engine(Configuration({2, 2}), 34);
  EXPECT_FALSE(engine.advance());
  engine.applyForcedMove(0, 1);  // now {1, 3}: spread 2, moves possible
  EXPECT_TRUE(engine.advance());
}

TEST(JumpEngine, AbsorbsExactlyAtPerfectBalance) {
  sim::JumpEngine engine(config::allInOne(6, 30), 6);
  while (engine.advance()) {
  }
  EXPECT_TRUE(engine.state().perfectlyBalanced());
  EXPECT_DOUBLE_EQ(engine.totalRate(), 0.0);
}

TEST(JumpEngine, TotalRateMatchesBruteForce) {
  // R = (1/n) sum over ordered pairs (i, j) with l_i >= l_j + 2 of l_i,
  // checked at the start and after every step.
  for (const Configuration& c :
       {Configuration({7, 4, 4, 2, 0}), Configuration({12, 9, 9, 5, 3, 3, 0, 0})}) {
    sim::JumpEngine engine(c, 7);
    std::int64_t steps = 0;
    do {
      const std::vector<std::int64_t> loads = engine.multiset().toSortedLoads();
      double brute = 0.0;
      for (std::int64_t li : loads) {
        for (std::int64_t lj : loads) {
          if (li >= lj + 2) brute += static_cast<double>(li);
        }
      }
      brute /= static_cast<double>(c.numBins());
      ASSERT_NEAR(engine.totalRate(), brute, 1e-9) << "after step " << steps;
      ++steps;
    } while (engine.advance());
    EXPECT_GT(steps, 3);
  }
}

// ------------------------------------------- the frozen scan-path oracle

bool sameMultiset(const ds::LoadMultiset& a, const ds::LoadMultiset& b) {
  if (a.numLevels() != b.numLevels() || a.numBins() != b.numBins() ||
      a.numBalls() != b.numBalls()) {
    return false;
  }
  for (std::size_t i = 0; i < a.numLevels(); ++i) {
    if (a.level(i).load != b.level(i).load || a.level(i).count != b.level(i).count) return false;
  }
  return true;
}

// Steps the engine and the frozen oracle in lockstep for up to `maxSteps`
// events (until both absorb by default): the clocks must be bit-equal and
// the move counts, states and multisets equal after every step. Returns the
// number of events taken.
template <class Oracle>
std::int64_t expectLockstep(sim::JumpEngine& engine, Oracle& oracle,
                            std::int64_t maxSteps = std::int64_t{1} << 40) {
  std::int64_t steps = 0;
  while (steps < maxSteps) {
    const bool alive = engine.advance();
    EXPECT_EQ(alive, oracle.advance()) << "step " << steps;
    EXPECT_EQ(engine.time(), oracle.time()) << "step " << steps;
    EXPECT_EQ(engine.moves(), oracle.moves()) << "step " << steps;
    EXPECT_EQ(engine.state(), oracle.state()) << "step " << steps;
    EXPECT_TRUE(sameMultiset(engine.multiset(), oracle.multiset())) << "step " << steps;
    EXPECT_EQ(engine.totalRate(), oracle.totalRate()) << "step " << steps;
    if (::testing::Test::HasFailure() || !alive) break;
    ++steps;
  }
  return steps;
}

TEST(JumpEngine, ScanPathMatchesFrozenOracleFromAllInOne) {
  for (const std::int64_t n : {2, 7, 64, 257}) {
    for (const std::int64_t ratio : {1, 4, 64}) {
      for (std::uint64_t rep = 0; rep < 3; ++rep) {
        const std::uint64_t cell = static_cast<std::uint64_t>(n * 100 + ratio);
        const std::uint64_t seed = rng::streamSeed(9300, cell * 8 + rep);
        const auto init = config::allInOne(n, ratio * n);
        sim::JumpEngine engine(init, seed);
        sim::reference::ScanJumpEngine oracle(init.toMultiset(), seed);
        ASSERT_FALSE(engine.usesLevelIndex());
        expectLockstep(engine, oracle);
        ASSERT_FALSE(HasFailure()) << "n=" << n << " m/n=" << ratio << " rep " << rep;
        EXPECT_TRUE(engine.state().perfectlyBalanced());
      }
    }
  }
}

TEST(JumpEngine, ScanPathMatchesFrozenOracleFromSpreadStarts) {
  for (const std::int64_t n : {16, 64, 200}) {
    for (std::uint64_t rep = 0; rep < 4; ++rep) {
      const std::uint64_t seed = rng::streamSeed(9400, static_cast<std::uint64_t>(n) * 8 + rep);
      rng::Xoshiro256pp eng(seed);
      const Configuration starts[] = {
          config::halfHalf(n, 16 * n, 5 + static_cast<std::int64_t>(rep)),
          config::greedyD(n, 12 * n, 2, eng), config::uniformRandom(n, 12 * n, eng)};
      for (const Configuration& init : starts) {
        sim::JumpEngine engine(init, seed);
        sim::reference::ScanJumpEngine oracle(init.toMultiset(), seed);
        ASSERT_EQ(engine.usesLevelIndex(), oracle.usesLevelIndex());
        expectLockstep(engine, oracle);
        ASSERT_FALSE(HasFailure()) << "n=" << n << " rep " << rep;
      }
    }
  }
}

TEST(JumpEngine, OffsetConstructorMatchesFrozenOracle) {
  for (std::uint64_t seed = 31; seed < 36; ++seed) {
    const auto ms = ds::LoadMultiset::fromLoads({40, 9, 9, 6, 2, 2, 2, 0, 0, 0, 0});
    sim::JumpEngine engine(ms, seed, /*startTime=*/5.5, /*startMoves=*/7);
    sim::reference::ScanJumpEngine oracle(ms, seed, 5.5, 7);
    const std::int64_t steps = expectLockstep(engine, oracle);
    EXPECT_EQ(steps, engine.moves() - 7);
    ASSERT_FALSE(HasFailure()) << "seed " << seed;
  }
}

TEST(JumpEngine, IndexScanHandOffsMatchFrozenOracle) {
  // A staircase starts on the level index; it moves to the scan path
  // mid-run and back, and the oracle follows the same hand-offs.
  for (std::uint64_t seed = 41; seed < 45; ++seed) {
    const auto init = config::staircase(48, 1128);
    sim::JumpEngine engine(init, seed);
    sim::reference::ScanJumpEngine oracle(init.toMultiset(), seed);
    engine.enableLevelIndex();
    oracle.enableLevelIndex();
    ASSERT_EQ(expectLockstep(engine, oracle, 150), 150);
    engine.disableLevelIndex();
    oracle.disableLevelIndex();
    ASSERT_FALSE(engine.usesLevelIndex());
    ASSERT_EQ(expectLockstep(engine, oracle, 300), 300);
    engine.enableLevelIndex();
    oracle.enableLevelIndex();
    ASSERT_TRUE(engine.usesLevelIndex());
    expectLockstep(engine, oracle);
    ASSERT_FALSE(HasFailure()) << "seed " << seed;
    EXPECT_TRUE(engine.state().perfectlyBalanced());
  }
}

TEST(HybridEngine, MatchesFrozenOracleFromStaircase) {
  // Naive until at most 96 levels remain, then the scan path: the hand-off
  // and every jump step after it match the frozen hybrid.
  for (std::uint64_t seed = 51; seed < 54; ++seed) {
    const auto init = config::staircase(128, 128 * 160);  // 128 levels
    sim::HybridEngine engine(init, seed);
    sim::reference::Hybrid oracle(init, seed);
    ASSERT_FALSE(engine.switched());
    std::int64_t steps = 0;
    for (bool alive = true; alive; ++steps) {
      alive = engine.advance();
      ASSERT_EQ(alive, oracle.advance()) << "step " << steps;
      ASSERT_EQ(engine.switched(), oracle.switched()) << "step " << steps;
      ASSERT_EQ(engine.time(), oracle.time()) << "step " << steps;
      ASSERT_EQ(engine.moves(), oracle.moves()) << "step " << steps;
      ASSERT_EQ(engine.state(), oracle.state()) << "step " << steps;
    }
    EXPECT_TRUE(engine.switched());
    EXPECT_TRUE(engine.state().perfectlyBalanced());
  }
}

TEST(JumpEngine, RejectsWeightsPastTwoToThe62) {
  // The level weights sum to at most m * n, kept exact in int64: both
  // constructors reject m * n >= 2^62 and accept it just below.
  const std::int64_t top = std::int64_t{1} << 61;
  const auto twoBins = [](std::int64_t m) { return ds::LoadMultiset::fromLoads({m, 0}); };
  EXPECT_THROW(sim::JumpEngine(twoBins(top), 1), std::invalid_argument);
  EXPECT_THROW(sim::JumpEngine(Configuration({top + 5, 0}), 1), std::invalid_argument);
  EXPECT_THROW(sim::HybridEngine(Configuration({top, 0}), 1), std::invalid_argument);
  EXPECT_THROW(sim::HybridEngine(Configuration({2 * top, 0, 0}), 1), std::invalid_argument);

  sim::JumpEngine below(twoBins(top - 1), 1);  // m * n = 2^62 - 2
  EXPECT_EQ(below.totalRate(), static_cast<double>(top - 1) / 2.0);
  EXPECT_TRUE(below.advance());
  EXPECT_NO_THROW(sim::JumpEngine(Configuration({top / 2 - 1, 0, 0, 0}), 1));
  sim::HybridEngine hybrid(Configuration({top - 1, 0}), 1);
  EXPECT_TRUE(hybrid.switched());
  EXPECT_TRUE(hybrid.advance());
}

TEST(Engines, DeterministicForSeed) {
  for (auto kind : {SimOptions::EngineKind::Naive, SimOptions::EngineKind::Jump,
                    SimOptions::EngineKind::Hybrid}) {
    const auto a = core::balance(config::allInOne(8, 32), opts(kind, 42));
    const auto b = core::balance(config::allInOne(8, 32), opts(kind, 42));
    EXPECT_DOUBLE_EQ(a.time, b.time);
    EXPECT_EQ(a.moves, b.moves);
  }
}

TEST(Engines, DifferentSeedsDiffer) {
  const auto a = core::balance(config::allInOne(8, 32), opts(SimOptions::EngineKind::Naive, 1));
  const auto b = core::balance(config::allInOne(8, 32), opts(SimOptions::EngineKind::Naive, 2));
  EXPECT_NE(a.time, b.time);
}

TEST(Engines, TwoPointExactExpectation) {
  // E[T] = n/(avg+1) exactly; check all three engines to ~4 SEM.
  const std::int64_t n = 16;
  const std::int64_t avg = 4;
  const auto init = config::twoPoint(n, n * avg);
  const double expected = static_cast<double>(n) / static_cast<double>(avg + 1);  // 3.2
  for (auto kind : {SimOptions::EngineKind::Naive, SimOptions::EngineKind::Jump,
                    SimOptions::EngineKind::Hybrid}) {
    stats::RunningStat rs;
    for (int rep = 0; rep < 3000; ++rep) {
      rs.add(core::balancingTime(init, opts(kind, rng::streamSeed(1000, rep))));
    }
    EXPECT_NEAR(rs.mean(), expected, 4.5 * expected / std::sqrt(3000.0))
        << "engine kind " << static_cast<int>(kind);
  }
}

TEST(Engines, TwoPointTimeIsExponential) {
  // The balancing time of the two-point configuration is Exp((avg+1)/n);
  // compare simulated sample against a synthetic exponential sample by KS.
  const std::int64_t n = 12;
  const std::int64_t avg = 3;
  const auto init = config::twoPoint(n, n * avg);
  std::vector<double> simulated;
  for (int rep = 0; rep < 1500; ++rep) {
    simulated.push_back(
        core::balancingTime(init, opts(SimOptions::EngineKind::Jump, rng::streamSeed(2000, rep))));
  }
  rng::Xoshiro256pp eng(77);
  std::vector<double> reference;
  const double rate = static_cast<double>(avg + 1) / static_cast<double>(n);
  for (int rep = 0; rep < 1500; ++rep) reference.push_back(rng::exponential(eng, rate));
  EXPECT_GT(stats::ksTwoSample(simulated, reference).pValue, 1e-4);
}

TEST(Engines, MatchExactChainExpectation) {
  // Strongest validation: simulated mean E[T] must match the absorbing-chain
  // solve for an asymmetric start, for every engine.
  const Configuration init({6, 3, 2, 1});  // n=4, m=12
  exact::RlsChain chain(4, 12);
  const double expected = chain.expectedTimeFrom(init);
  ASSERT_GT(expected, 0.0);
  for (auto kind : {SimOptions::EngineKind::Naive, SimOptions::EngineKind::Jump,
                    SimOptions::EngineKind::Hybrid}) {
    stats::RunningStat rs;
    for (int rep = 0; rep < 4000; ++rep) {
      rs.add(core::balancingTime(init, opts(kind, rng::streamSeed(3000, rep))));
    }
    EXPECT_NEAR(rs.mean(), expected, 5.0 * rs.sem())
        << "engine kind " << static_cast<int>(kind) << " expected " << expected;
  }
}

TEST(Engines, MatchExactChainVariance) {
  const Configuration init({8, 0, 0, 0});  // n=4, m=8 all-in-one
  exact::RlsChain chain(4, 8);
  const auto id = chain.stateId(init.loads());
  const double et = chain.expectedBalanceTimes()[id];
  const double var = chain.expectedSquaredTimes()[id] - et * et;
  stats::RunningStat rs;
  for (int rep = 0; rep < 6000; ++rep) {
    rs.add(core::balancingTime(init, opts(SimOptions::EngineKind::Jump, rng::streamSeed(4000, rep))));
  }
  EXPECT_NEAR(rs.mean(), et, 5.0 * rs.sem());
  EXPECT_NEAR(rs.variance(), var, 0.15 * var);
}

TEST(Engines, NaiveAndJumpDistributionsAgree) {
  const auto init = config::allInOne(8, 40);
  std::vector<double> naive;
  std::vector<double> jump;
  for (int rep = 0; rep < 1200; ++rep) {
    naive.push_back(
        core::balancingTime(init, opts(SimOptions::EngineKind::Naive, rng::streamSeed(5000, rep))));
    jump.push_back(
        core::balancingTime(init, opts(SimOptions::EngineKind::Jump, rng::streamSeed(6000, rep))));
  }
  EXPECT_GT(stats::ksTwoSample(naive, jump).pValue, 1e-4);
  EXPECT_GT(stats::mannWhitneyU(naive, jump).pValue, 1e-4);
}

TEST(Engines, GapInvarianceDistributional) {
  // Section 3 remark: the ">=" and strict ">" protocols have identical
  // balancing-time distributions (identical lumped chains).
  const auto init = config::allInOne(6, 36);
  std::vector<double> gap1;
  std::vector<double> gap2;
  for (int rep = 0; rep < 1200; ++rep) {
    gap1.push_back(core::balancingTime(
        init, opts(SimOptions::EngineKind::Naive, rng::streamSeed(7000, rep), 1)));
    gap2.push_back(core::balancingTime(
        init, opts(SimOptions::EngineKind::Naive, rng::streamSeed(8000, rep), 2)));
  }
  EXPECT_GT(stats::ksTwoSample(gap1, gap2).pValue, 1e-4);
  EXPECT_GT(stats::mannWhitneyU(gap1, gap2).pValue, 1e-4);
}

TEST(HybridEngine, SwitchesOnConcentratedStart) {
  sim::HybridEngine engine(config::allInOne(32, 1024), 9);
  // All-in-one has 2 distinct loads: the switch happens at construction.
  EXPECT_TRUE(engine.switched());
}

TEST(HybridEngine, StaysNaiveOnManyLevelStart) {
  // A staircase with more distinct loads than the threshold starts naive.
  std::vector<std::int64_t> loads(200);
  for (std::size_t i = 0; i < loads.size(); ++i) loads[i] = static_cast<std::int64_t>(2 * i);
  sim::HybridEngine engine(Configuration(loads), 10, /*levelThreshold=*/96);
  EXPECT_FALSE(engine.switched());
  process::run(engine, Target::perfect(), {});
  EXPECT_TRUE(engine.switched());  // levels must have merged on the way down
  EXPECT_TRUE(engine.state().perfectlyBalanced());
}

TEST(RunLoop, RespectsEventLimit) {
  sim::NaiveEngine engine(config::allInOne(64, 4096), 11);
  RunLimits limits;
  limits.maxEvents = 100;
  const auto r = process::run(engine, Target::perfect(), limits);
  EXPECT_FALSE(r.reachedTarget);
  EXPECT_EQ(r.activations, 100);
}

TEST(RunLoop, RespectsTimeLimit) {
  sim::NaiveEngine engine(config::allInOne(64, 4096), 12);
  RunLimits limits;
  limits.maxTime = 0.05;
  const auto r = process::run(engine, Target::perfect(), limits);
  EXPECT_FALSE(r.reachedTarget);
  EXPECT_GE(r.time, 0.05);
}

TEST(RunLoop, XBalancedTargetStopsEarly) {
  const auto full = core::balance(config::allInOne(16, 256),
                                  opts(SimOptions::EngineKind::Naive, 13), Target::perfect());
  const auto part = core::balance(config::allInOne(16, 256),
                                  opts(SimOptions::EngineKind::Naive, 13), Target::xBalanced(8));
  EXPECT_TRUE(part.reachedTarget);
  EXPECT_LE(part.time, full.time);
  EXPECT_LE(part.finalState.discrepancy(), 8.0);
}

TEST(Probes, TrajectoryRecorderGridAndMonotonicity) {
  sim::TrajectoryRecorder recorder(0.25);
  core::balance(config::allInOne(16, 128), opts(SimOptions::EngineKind::Naive, 14),
                Target::perfect(), {}, &recorder);
  const auto& pts = recorder.points();
  ASSERT_GE(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts.front().time, 0.0);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].time, pts[i - 1].time);
    EXPECT_LE(pts[i].discrepancy, pts[i - 1].discrepancy + 1e-12);
  }
}

TEST(Probes, PhaseTrackerOrderedHits) {
  sim::PhaseTracker tracker({16, 4, 1});
  core::balance(config::allInOne(16, 160), opts(SimOptions::EngineKind::Naive, 15),
                Target::perfect(), {}, &tracker);
  const auto& hits = tracker.hitTimes();
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_LE(hits[0], hits[1]);
  EXPECT_LE(hits[1], hits[2]);
  EXPECT_LT(hits[2], std::numeric_limits<double>::infinity());
}

TEST(Probes, OverloadDecayNeverIncreases) {
  sim::OverloadDecayRecorder recorder(1);
  core::balance(config::halfHalf(16, 160, 5), opts(SimOptions::EngineKind::Naive, 16),
                Target::perfect(), {}, &recorder);
  const auto& pts = recorder.points();
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LE(pts[i].overloadedBalls, pts[i - 1].overloadedBalls);
  }
}

TEST(JumpEngine, IndexAndScanPathsDistributionallyIdentical) {
  // The incremental LevelIndex path and the scan over the kept level
  // weights are two exact samplers of the same lumped chain; their
  // balancing-time distributions must not separate.
  const auto init = config::staircase(24, 276);  // many levels in play
  std::vector<double> indexed;
  std::vector<double> scan;
  for (int rep = 0; rep < 800; ++rep) {
    {
      sim::JumpEngine engine(init, rng::streamSeed(9100, rep));
      engine.enableLevelIndex();  // below the cost heuristic's cutoff
      EXPECT_TRUE(engine.usesLevelIndex());
      while (engine.advance()) {
      }
      indexed.push_back(engine.time());
    }
    {
      sim::JumpEngine engine(init, rng::streamSeed(9200, rep));
      engine.disableLevelIndex();
      EXPECT_FALSE(engine.usesLevelIndex());
      while (engine.advance()) {
      }
      scan.push_back(engine.time());
    }
  }
  EXPECT_GT(stats::ksTwoSample(indexed, scan).pValue, 1e-4);
  EXPECT_GT(stats::mannWhitneyU(indexed, scan).pValue, 1e-4);
}

TEST(JumpEngine, IndexedStateMatchesMultisetRebuild) {
  sim::JumpEngine engine(config::staircase(32, 496), 77);
  engine.enableLevelIndex();
  ASSERT_TRUE(engine.usesLevelIndex());
  for (int step = 0; step < 400 && engine.advance(); ++step) {
    const auto& state = engine.state();
    const ds::LoadMultiset& ms = engine.multiset();  // rebuilt from the index
    ASSERT_TRUE(ms.validate());
    ASSERT_EQ(state.minLoad, ms.minLoad());
    ASSERT_EQ(state.maxLoad, ms.maxLoad());
    ASSERT_EQ(state.numBalls, ms.numBalls());
    const auto metrics = config::computeMetrics(ms);
    ASSERT_EQ(state.overloadedBalls, metrics.overloadedBalls);
  }
  // The rate stays consistent between the index and the multiset scan.
  const double indexedRate = engine.totalRate();
  engine.disableLevelIndex();
  EXPECT_NEAR(engine.totalRate(), indexedRate, 1e-9 * (1.0 + indexedRate));
  // The scan path finishes the job from the handed-off multiset.
  while (engine.advance()) {
  }
  EXPECT_LE(engine.state().maxLoad - engine.state().minLoad, 1);
}

TEST(JumpEngine, OffsetConstructorContinuesClock) {
  // The hybrid hand-off constructor must resume time and move accounting.
  auto ms = ds::LoadMultiset::fromLoads({6, 2, 2, 2});
  sim::JumpEngine engine(std::move(ms), 21, /*startTime=*/5.5, /*startMoves=*/7);
  EXPECT_DOUBLE_EQ(engine.time(), 5.5);
  EXPECT_EQ(engine.moves(), 7);
  ASSERT_TRUE(engine.advance());
  EXPECT_GT(engine.time(), 5.5);
  EXPECT_EQ(engine.moves(), 8);
}

TEST(HybridEngine, SwitchTimeRecorded) {
  // Staircase start stays naive initially; after the switch the recorded
  // switch time must be between 0 and the final time.
  std::vector<std::int64_t> loads(150);
  for (std::size_t i = 0; i < loads.size(); ++i) loads[i] = static_cast<std::int64_t>(i);
  sim::HybridEngine engine(Configuration(loads), 22, /*levelThreshold=*/64);
  ASSERT_FALSE(engine.switched());
  EXPECT_DOUBLE_EQ(engine.switchTime(), -1.0);
  const auto r = process::run(engine, Target::perfect());
  ASSERT_TRUE(engine.switched());
  EXPECT_GE(engine.switchTime(), 0.0);
  EXPECT_LE(engine.switchTime(), r.time);
}

TEST(Engines, XBalancedBoundarySemantics) {
  // xBalanced(x) uses disc <= x with exact integer arithmetic: loads
  // {6,2} with n=2, m=8 (avg 4) has disc exactly 2.
  sim::NaiveEngine engine(Configuration({6, 2}), 23);
  EXPECT_TRUE(engine.state().xBalanced(2));
  EXPECT_FALSE(engine.state().xBalanced(1));
}

TEST(Engines, Lemma16PotentialNeverIncreases) {
  // The Lemma 16 proof asserts 3A - k - h is "always between 0 and 3n and
  // never increases over time" under protocol moves, in the lemma's setting
  // (n | m and at most n overloaded balls). Check it on a full trajectory
  // from a start satisfying the precondition (A = n/2 <= n).
  const std::int64_t n = 16;
  const std::int64_t m = 256;
  sim::NaiveEngine engine(config::halfHalf(n, m, 1), 24);
  std::int64_t lastPotential =
      config::lemma16Potential(ds::LoadMultiset::fromLoads(engine.loads()));
  EXPECT_GE(lastPotential, 0);
  EXPECT_LE(lastPotential, 3 * n);
  while (!engine.state().perfectlyBalanced()) {
    engine.advance();
    if (!engine.lastEvent().moved) continue;
    const std::int64_t pot =
        config::lemma16Potential(ds::LoadMultiset::fromLoads(engine.loads()));
    ASSERT_LE(pot, lastPotential);
    ASSERT_GE(pot, 0);
    lastPotential = pot;
  }
}

TEST(Ensemble, SampleAndHoldMath) {
  sim::EnsembleAccumulator acc(1.0, 3.0);
  EXPECT_EQ(acc.gridSize(), 4u);
  EXPECT_DOUBLE_EQ(acc.timeAt(2), 2.0);
  // Synthetic run: disc 10 at t=0, 4 at t=1.5, 1 at t=2.5.
  std::vector<sim::TrajectoryRecorder::Point> run = {
      {0.0, 10.0, 10, 0, 9}, {1.5, 4.0, 5, 1, 3}, {2.5, 1.0, 3, 2, 0}};
  acc.addRun(run);
  EXPECT_DOUBLE_EQ(acc.meanDiscrepancy(0), 10.0);
  EXPECT_DOUBLE_EQ(acc.meanDiscrepancy(1), 10.0);  // hold until 1.5
  EXPECT_DOUBLE_EQ(acc.meanDiscrepancy(2), 4.0);
  EXPECT_DOUBLE_EQ(acc.meanDiscrepancy(3), 1.0);
  EXPECT_DOUBLE_EQ(acc.meanOverloaded(3), 0.0);
}

TEST(Ensemble, AveragesAcrossRuns) {
  sim::EnsembleAccumulator acc(1.0, 1.0);
  acc.addRun({{0.0, 8.0, 8, 0, 8}});
  acc.addRun({{0.0, 4.0, 4, 0, 4}});
  EXPECT_EQ(acc.runs(), 2);
  EXPECT_DOUBLE_EQ(acc.meanDiscrepancy(0), 6.0);
  EXPECT_DOUBLE_EQ(acc.meanOverloaded(1), 6.0);
}

TEST(Ensemble, RealTrajectoriesMonotone) {
  sim::EnsembleAccumulator acc(0.5, 10.0);
  for (int rep = 0; rep < 10; ++rep) {
    sim::TrajectoryRecorder recorder(0.125);
    core::SimOptions o;
    o.seed = rng::streamSeed(777, rep);
    core::balance(config::allInOne(64, 512), o, Target::perfect(), {}, &recorder);
    acc.addRun(recorder.points());
  }
  for (std::size_t g = 1; g < acc.gridSize(); ++g) {
    EXPECT_LE(acc.meanDiscrepancy(g), acc.meanDiscrepancy(g - 1) + 1e-12);
    EXPECT_LE(acc.meanOverloaded(g), acc.meanOverloaded(g - 1) + 1e-12);
  }
}

TEST(Engines, PerfectStartIsInstant) {
  const auto r =
      core::balance(config::balanced(8, 35), opts(SimOptions::EngineKind::Hybrid, 17));
  EXPECT_TRUE(r.reachedTarget);
  EXPECT_DOUBLE_EQ(r.time, 0.0);
  EXPECT_EQ(r.moves, 0);
}

TEST(Engines, SmallMLessThanN) {
  // Lemma 8 regime: m <= n balances to {0,1} loads.
  const auto r = core::balance(config::allInOne(32, 20), opts(SimOptions::EngineKind::Naive, 18));
  EXPECT_TRUE(r.reachedTarget);
  EXPECT_LE(r.finalState.maxLoad, 1);
}

TEST(Engines, MEqualsOne) {
  const auto r = core::balance(config::allInOne(4, 1), opts(SimOptions::EngineKind::Naive, 19));
  EXPECT_TRUE(r.reachedTarget);
  EXPECT_DOUBLE_EQ(r.time, 0.0);  // one ball anywhere is perfectly balanced
}

TEST(Engines, DistributionMatchesExactCdf) {
  // The definitive engine validation: one-sample KS of simulated balancing
  // times against the EXACT absorption CDF (uniformization) of the chain.
  const Configuration init({7, 3, 1, 1});  // n=4, m=12
  exact::RlsChain chain(4, 12);
  const auto id = chain.stateId(init.loads());
  const auto cdf = [&](double t) { return chain.absorptionCdf(id, t); };
  for (auto kind : {SimOptions::EngineKind::Naive, SimOptions::EngineKind::Jump}) {
    std::vector<double> samples;
    for (int rep = 0; rep < 800; ++rep) {
      samples.push_back(
          core::balancingTime(init, opts(kind, rng::streamSeed(12000 + static_cast<int>(kind), rep))));
    }
    const auto ks = stats::ksOneSample(samples, cdf);
    EXPECT_GT(ks.pValue, 1e-4) << "engine kind " << static_cast<int>(kind)
                               << " KS D = " << ks.statistic;
  }
}

TEST(Engines, HybridMatchesExactChain) {
  const Configuration init({5, 5, 2, 0});  // n=4, m=12
  exact::RlsChain chain(4, 12);
  const double expected = chain.expectedTimeFrom(init);
  stats::RunningStat rs;
  for (int rep = 0; rep < 4000; ++rep) {
    rs.add(core::balancingTime(init,
                               opts(SimOptions::EngineKind::Hybrid, rng::streamSeed(9000, rep))));
  }
  EXPECT_NEAR(rs.mean(), expected, 5.0 * rs.sem());
}

}  // namespace
}  // namespace rlslb
