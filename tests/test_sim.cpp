// Tests for the run-loop plumbing around the sim engines that the
// engine-centric suites do not cover: probe call discipline, recorder
// decimation, limit edge cases, and target semantics.
#include <gtest/gtest.h>

#include <limits>

#include "config/generators.hpp"
#include "process/process.hpp"
#include "sim/engine.hpp"
#include "sim/naive_engine.hpp"
#include "sim/probes.hpp"

namespace rlslb::sim {
namespace {

using process::run;
using process::Target;

class CountingProbe final : public process::Probe {
 public:
  void onEvent(const process::Process&) override { ++calls_; }
  [[nodiscard]] std::int64_t calls() const { return calls_; }

 private:
  std::int64_t calls_ = 0;
};

TEST(RunLoop, ProbeSeesInitialStateAndEveryEvent) {
  NaiveEngine engine(config::allInOne(4, 8), 1);
  CountingProbe probe;
  RunLimits limits;
  limits.maxEvents = 25;
  run(engine, Target::perfect(), limits, &probe);
  // One initial call plus one per executed step.
  EXPECT_EQ(probe.calls(), engine.activations() + 1);
}

TEST(RunLoop, AlreadyAtTargetTakesNoSteps) {
  NaiveEngine engine(config::balanced(4, 8), 2);
  CountingProbe probe;
  const auto r = run(engine, Target::perfect(), {}, &probe);
  EXPECT_TRUE(r.reachedTarget);
  EXPECT_EQ(r.activations, 0);
  EXPECT_EQ(probe.calls(), 1);  // initial observation only
}

TEST(RunLoop, ZeroEventBudget) {
  NaiveEngine engine(config::allInOne(4, 8), 3);
  RunLimits limits;
  limits.maxEvents = 0;
  const auto r = run(engine, Target::perfect(), limits);
  EXPECT_FALSE(r.reachedTarget);
  EXPECT_EQ(r.activations, 0);
}

TEST(RunLoop, TargetCheckedAfterEachStep) {
  // With a generous budget the run must stop exactly when the state first
  // satisfies the target, not later.
  NaiveEngine engine(config::allInOne(6, 12), 4);
  const auto r = run(engine, Target::xBalanced(4), {});
  EXPECT_TRUE(r.reachedTarget);
  EXPECT_TRUE(engine.state().xBalanced(4));
}

TEST(RunLoop, ZeroBallsAbsorbsImmediately) {
  NaiveEngine engine(config::Configuration({0, 0, 0}), 5);
  const auto r = run(engine, Target::perfect(), {});
  EXPECT_TRUE(r.reachedTarget);  // disc = 0
  EXPECT_DOUBLE_EQ(r.time, 0.0);
}

TEST(Target, PerfectVersusXBalancedZero) {
  // xBalanced(0) demands disc <= 0, strictly stronger than perfect (< 1)
  // when n does not divide m.
  NaiveEngine engine(config::balanced(4, 9), 6);
  EXPECT_TRUE(engine.reached(Target::perfect()));
  EXPECT_FALSE(engine.reached(Target::xBalanced(0)));
}

TEST(TrajectoryRecorder, DecimatesToGrid) {
  NaiveEngine engine(config::allInOne(8, 64), 7);
  TrajectoryRecorder recorder(2.0);
  run(engine, Target::perfect(), {}, &recorder);
  const auto& pts = recorder.points();
  ASSERT_GE(pts.size(), 2u);
  // Consecutive recorded points are at least one grid step apart (except
  // possibly the final forced sample).
  for (std::size_t i = 2; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].time - pts[i - 2].time, 2.0 - 1e-9);
  }
}

TEST(TrajectoryRecorder, FirstPointIsInitialState) {
  NaiveEngine engine(config::allInOne(8, 64), 8);
  TrajectoryRecorder recorder(1.0);
  recorder.onEvent(engine);
  ASSERT_EQ(recorder.points().size(), 1u);
  EXPECT_DOUBLE_EQ(recorder.points()[0].time, 0.0);
  EXPECT_EQ(recorder.points()[0].maxLoad, 64);
}

TEST(PhaseTracker, UnreachedThresholdsStayInfinite) {
  NaiveEngine engine(config::allInOne(8, 64), 9);
  PhaseTracker tracker({16, 1});
  RunLimits limits;
  limits.maxEvents = 1;  // no time to reach anything
  run(engine, Target::perfect(), limits, &tracker);
  EXPECT_EQ(tracker.hitTime(1), std::numeric_limits<double>::infinity());
}

TEST(PhaseTracker, MultipleThresholdsHitInOneEvent) {
  // A single move can satisfy several thresholds at once; all must record.
  NaiveEngine engine(config::Configuration({4, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0}), 10);
  PhaseTracker tracker({8, 4, 1});
  run(engine, Target::perfect(), {}, &tracker);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_LT(tracker.hitTime(i), std::numeric_limits<double>::infinity());
  }
  EXPECT_LE(tracker.hitTime(0), tracker.hitTime(2));
}

TEST(BalanceState, DiscrepancyMatchesPredicates) {
  NaiveEngine engine(config::Configuration({5, 3, 1}), 11);  // avg 3
  const auto& s = engine.state();
  EXPECT_DOUBLE_EQ(s.discrepancy(), 2.0);
  EXPECT_TRUE(s.xBalanced(2));
  EXPECT_FALSE(s.xBalanced(1));
  EXPECT_FALSE(s.perfectlyBalanced());
}

}  // namespace
}  // namespace rlslb::sim
