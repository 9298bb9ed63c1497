// Tests for the public facade in src/core/rls.hpp: makeEngine's engine-kind
// dispatch and option plumbing, and balance()'s target/limit handling. The
// engines themselves are exercised exhaustively in test_engines.cpp; here we
// only pin down the facade's contract.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "config/generators.hpp"
#include "core/rls.hpp"
#include "sim/hybrid_engine.hpp"
#include "sim/jump_engine.hpp"
#include "sim/naive_engine.hpp"

namespace rlslb {
namespace {

using core::SimOptions;
using process::RunLimits;
using process::Target;

SimOptions opts(SimOptions::EngineKind kind, std::uint64_t seed = 1) {
  SimOptions o;
  o.engine = kind;
  o.seed = seed;
  return o;
}

TEST(MakeEngine, SelectsConcreteEngineByKind) {
  const auto init = config::allInOne(8, 64);
  auto naive = core::makeEngine(init, opts(SimOptions::EngineKind::Naive));
  auto jump = core::makeEngine(init, opts(SimOptions::EngineKind::Jump));
  auto hybrid = core::makeEngine(init, opts(SimOptions::EngineKind::Hybrid));
  EXPECT_NE(dynamic_cast<sim::NaiveEngine*>(naive.get()), nullptr);
  EXPECT_NE(dynamic_cast<sim::JumpEngine*>(jump.get()), nullptr);
  EXPECT_NE(dynamic_cast<sim::HybridEngine*>(hybrid.get()), nullptr);
}

TEST(MakeEngine, EngineStartsOnACopyOfTheInitialConfiguration) {
  const auto init = config::allInOne(4, 12);
  auto engine = core::makeEngine(init, opts(SimOptions::EngineKind::Naive));
  EXPECT_EQ(engine->state().numBins, 4);
  EXPECT_EQ(engine->state().numBalls, 12);
  EXPECT_EQ(engine->state().maxLoad, 12);
  EXPECT_EQ(engine->state().minLoad, 0);
  EXPECT_DOUBLE_EQ(engine->now().value, 0.0);
  EXPECT_EQ(engine->moves(), 0);
  // Stepping the engine must not mutate the caller's configuration.
  while (engine->advance() && !engine->state().perfectlyBalanced()) {
  }
  EXPECT_EQ(init.load(0), 12);
}

TEST(MakeEngine, GapReachesTheNaiveEngine) {
  // With gap = 3 no move is ever legal from the start [2, 0] (a move
  // requires load(src) >= load(dst) + 3), so the engine detects absorption
  // immediately -- which can only happen if the facade forwarded the gap:
  // with the default gap = 1 the same start has legal moves and steps.
  SimOptions o = opts(SimOptions::EngineKind::Naive);
  o.gap = 3;
  auto engine = core::makeEngine(config::allInOne(2, 2), o);
  EXPECT_FALSE(engine->advance());
  EXPECT_EQ(engine->moves(), 0);
  EXPECT_EQ(engine->state().maxLoad, 2);
  EXPECT_EQ(engine->state().minLoad, 0);

  auto dflt = core::makeEngine(config::allInOne(2, 2), opts(SimOptions::EngineKind::Naive));
  EXPECT_TRUE(dflt->advance());
}

TEST(MakeEngine, ActivationsVisibilityMatchesEngineKind) {
  const auto init = config::allInOne(8, 64);
  auto naive = core::makeEngine(init, opts(SimOptions::EngineKind::Naive));
  auto jump = core::makeEngine(init, opts(SimOptions::EngineKind::Jump));
  naive->advance();
  jump->advance();
  EXPECT_GE(naive->activations(), 1);
  EXPECT_EQ(jump->activations(), -1);
}

TEST(Balance, ReachesPerfectBalanceByDefault) {
  const auto r = core::balance(config::allInOne(8, 64), opts(SimOptions::EngineKind::Hybrid, 7));
  EXPECT_TRUE(r.reachedTarget);
  EXPECT_TRUE(r.finalState.perfectlyBalanced());
  EXPECT_EQ(r.finalState.maxLoad, 8);
  EXPECT_EQ(r.finalState.minLoad, 8);
  EXPECT_GT(r.time, 0.0);
  EXPECT_GE(r.moves, 56);  // at least 64 - 8 balls must leave bin 0
}

TEST(Balance, XBalancedTargetStopsBeforePerfectBalance) {
  // Stop at max <= ceil(avg) + 4: strictly weaker than perfect balance from
  // the all-in-one start, so the run should stop with spread still positive
  // in at least some runs; in all runs the target predicate must hold.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto r = core::balance(config::allInOne(16, 64), opts(SimOptions::EngineKind::Naive, seed),
                                 Target::xBalanced(4));
    EXPECT_TRUE(r.reachedTarget);
    EXPECT_TRUE(r.finalState.xBalanced(4));
    EXPECT_LE(r.finalState.maxLoad, 4 + 4);  // ceil(64/16) + x
  }
}

TEST(Balance, MaxEventsLimitStopsTheRun) {
  RunLimits limits;
  limits.maxEvents = 3;
  const auto r = core::balance(config::allInOne(64, 4096),
                               opts(SimOptions::EngineKind::Naive, 11), Target::perfect(), limits);
  EXPECT_FALSE(r.reachedTarget);
  // Activations count engine steps for the naive engine; at most 3 ran.
  EXPECT_LE(r.activations, 3);
  EXPECT_LE(r.moves, 3);
}

TEST(Balance, MaxTimeLimitStopsTheRun) {
  RunLimits limits;
  limits.maxTime = 1e-12;  // essentially immediately after the first event
  const auto r = core::balance(config::allInOne(64, 4096),
                               opts(SimOptions::EngineKind::Jump, 13), Target::perfect(), limits);
  EXPECT_FALSE(r.reachedTarget);
  EXPECT_FALSE(r.finalState.perfectlyBalanced());
}

TEST(Balance, ProbeSeesEveryEventPlusThePreRunCall) {
  class CountingProbe final : public process::Probe {
   public:
    std::int64_t calls = 0;
    void onEvent(const process::Process&) override { ++calls; }
  };
  CountingProbe probe;
  RunLimits limits;
  limits.maxEvents = 5;
  const auto r = core::balance(config::allInOne(32, 1024),
                               opts(SimOptions::EngineKind::Naive, 17), Target::perfect(), limits,
                               &probe);
  EXPECT_FALSE(r.reachedTarget);
  EXPECT_EQ(probe.calls, 5 + 1);  // one call before the run, one per event
}

TEST(Balance, AlreadyBalancedStartReturnsImmediately) {
  const auto r = core::balance(config::balanced(8, 64), opts(SimOptions::EngineKind::Hybrid, 3));
  EXPECT_TRUE(r.reachedTarget);
  EXPECT_EQ(r.moves, 0);
  EXPECT_DOUBLE_EQ(r.time, 0.0);
}

TEST(BalancingTime, MatchesBalanceAndIsSeedDeterministic) {
  const auto init = config::allInOne(8, 64);
  const SimOptions o = opts(SimOptions::EngineKind::Hybrid, 99);
  const double t1 = core::balancingTime(init, o);
  const double t2 = core::balancingTime(init, o);
  EXPECT_GT(t1, 0.0);
  EXPECT_DOUBLE_EQ(t1, t2);
  EXPECT_DOUBLE_EQ(t1, core::balance(init, o).time);
}

}  // namespace
}  // namespace rlslb
