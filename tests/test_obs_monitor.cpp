// Conformance-monitor coverage (src/obs/monitor.hpp):
//   - unit behavior of every monitor: LoadConservation flags broken
//     structural invariants as errors and stays silent on healthy
//     sequences; GapEnvelope debounces (sustained-violation streaks) and
//     escalates past 2x the bound; Convergence respects open populations,
//     Steps-clock rescaling, and escalates a never-converged run;
//   - serve-loop integration: a healthy Poisson run with the default
//     roster attached produces no structural/envelope anomalies, while
//     the inverted-acceptance broken dynamic (AllocatorOptions::
//     invertAcceptance) drives the gap through the envelope and triggers
//     error-severity anomalies;
//   - the determinism contract: gap-sketch snapshots and anomaly
//     sequences from simulated-state monitors are byte-identical across
//     runs;
//   - process-side integration through obs::ProcessProbe: the RLS
//     dynamic converges inside the envelope with no anomalies.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/monitor.hpp"
#include "obs/probe.hpp"
#include "process/registry.hpp"
#include "config/generators.hpp"
#include "serve/event_loop.hpp"
#include "serve/online_allocator.hpp"
#include "workload/generators.hpp"

namespace rlslb::obs {
namespace {

CheckSample healthyServeSample(std::int64_t step) {
  CheckSample s;
  s.origin = CheckSample::Origin::kServeEpoch;
  s.step = step;
  s.time = static_cast<double>(step);
  s.events = 100;
  s.gap = 2;
  s.liveBalls = 50;
  s.totalLoad = 50;
  s.maxWeight = 1;
  s.arrivals = 60 + step;
  s.departures = 10 + step;
  s.migrations = 5 + step;
  return s;
}

// ------------------------------------------------------ LoadConservation

TEST(LoadConservationMonitor_, SilentOnHealthySequences) {
  MonitorSet set;
  set.add(std::make_unique<LoadConservationMonitor>());
  for (std::int64_t step = 0; step < 16; ++step) set.check(healthyServeSample(step));
  EXPECT_TRUE(set.log().empty());
  EXPECT_EQ(set.checks(), 16);
}

TEST(LoadConservationMonitor_, FlagsBrokenInvariantsAsErrors) {
  const auto errorsFor = [](CheckSample broken) {
    MonitorSet set;
    set.add(std::make_unique<LoadConservationMonitor>());
    set.check(healthyServeSample(0));
    broken.step = 1;
    set.check(broken);
    return set.log().errors();
  };

  CheckSample s = healthyServeSample(1);
  s.gap = -1;
  EXPECT_GE(errorsFor(s), 1) << "negative gap";

  s = healthyServeSample(1);
  s.liveBalls = 999;  // != arrivals - departures
  EXPECT_GE(errorsFor(s), 1) << "conservation";

  s = healthyServeSample(1);
  s.totalLoad = s.liveBalls - 1;
  EXPECT_GE(errorsFor(s), 1) << "load below live";

  s = healthyServeSample(1);
  s.totalLoad = s.liveBalls * s.maxWeight + 1;
  EXPECT_GE(errorsFor(s), 1) << "load above live x max weight";

  // Monotonicity: a re-used step index must be flagged.
  MonitorSet set;
  set.add(std::make_unique<LoadConservationMonitor>());
  set.check(healthyServeSample(5));
  set.check(healthyServeSample(5));
  EXPECT_GE(set.log().errors(), 1) << "step did not advance";

  // ...unless beginRun() separated two sub-runs.
  MonitorSet runs;
  runs.add(std::make_unique<LoadConservationMonitor>());
  runs.beginRun();
  runs.check(healthyServeSample(5));
  runs.beginRun();
  runs.check(healthyServeSample(5));
  EXPECT_EQ(runs.log().errors(), 0) << "beginRun must reset the monotone-step state";
}

// ---------------------------------------------------------- GapEnvelope

TEST(GapEnvelopeMonitor_, DebouncesAndEscalates) {
  GapEnvelope envelope;
  envelope.n = 256;
  envelope.d = 2;
  envelope.warmupSteps = 4;
  envelope.consecutive = 3;
  const std::int64_t bound = envelope.bound(1);
  ASSERT_GT(bound, 0);

  MonitorSet set;
  set.add(std::make_unique<GapEnvelopeMonitor>(envelope));
  const auto gapSample = [](std::int64_t step, std::int64_t gap) {
    CheckSample s;
    s.step = step;
    s.gap = gap;
    s.maxWeight = 1;
    return s;
  };

  // Warmup steps and isolated spikes below `consecutive` never report.
  set.check(gapSample(0, 10 * bound));
  set.check(gapSample(10, bound + 1));
  set.check(gapSample(11, bound + 1));
  set.check(gapSample(12, 0));  // streak broken
  set.check(gapSample(13, bound + 1));
  set.check(gapSample(14, bound + 1));
  EXPECT_TRUE(set.log().empty());

  // The third consecutive violation reports a warning (gap <= 2x bound).
  set.check(gapSample(15, bound + 1));
  EXPECT_EQ(set.log().warnings(), 1);
  EXPECT_EQ(set.log().errors(), 0);

  // A sustained deep divergence escalates to an error on its own streak.
  MonitorSet deep;
  deep.add(std::make_unique<GapEnvelopeMonitor>(envelope));
  for (std::int64_t step = 10; step < 13; ++step) {
    deep.check(gapSample(step, 3 * bound));
  }
  EXPECT_EQ(deep.log().errors(), 1);
  EXPECT_EQ(deep.log().at(0).severity, Severity::kError);
  EXPECT_STREQ(deep.log().at(0).monitor, "gap_envelope");
}

TEST(GapEnvelope_, BoundScalesWithWeightAndSingleChoiceArrivals) {
  GapEnvelope envelope;
  envelope.n = 256;
  envelope.d = 2;
  EXPECT_EQ(envelope.bound(4), 4 * envelope.bound(1));
  GapEnvelope single = envelope;
  single.d = 1;
  EXPECT_GT(single.bound(1), envelope.bound(1))
      << "without d-choices arrivals the envelope must widen";
}

// ----------------------------------------------------------- Convergence

TEST(ConvergenceMonitor_, EscalatesANeverConvergedRun) {
  MonitorSet set;
  set.add(std::make_unique<ConvergenceMonitor>(64, 512, ConvergenceEnvelope{}));
  CheckSample s;
  s.origin = CheckSample::Origin::kProcessStride;
  s.gap = 1000;
  for (std::int64_t i = 1; i <= 8; ++i) {
    s.step = i * 100;
    s.time = static_cast<double>(i * 100);  // far past the ~50-unit deadline
    set.check(s);
  }
  set.finish();
  EXPECT_GE(set.log().errors(), 1);
}

TEST(ConvergenceMonitor_, OpenPopulationsAndHealthyRunsAreSilent) {
  // Open systems hold an equilibrium, not a convergence point: skipped.
  MonitorSet open;
  open.add(std::make_unique<ConvergenceMonitor>(64, 512, ConvergenceEnvelope{}));
  CheckSample s;
  s.origin = CheckSample::Origin::kProcessStride;
  s.openPopulation = true;
  s.gap = 1000;
  for (std::int64_t i = 1; i <= 8; ++i) {
    s.step = i * 100;
    s.time = static_cast<double>(i * 1000);
    open.check(s);
  }
  open.finish();
  EXPECT_TRUE(open.log().empty());

  // A run that converges before the deadline is silent even if it keeps
  // running long past it.
  MonitorSet good;
  good.add(std::make_unique<ConvergenceMonitor>(64, 512, ConvergenceEnvelope{}));
  CheckSample g;
  g.origin = CheckSample::Origin::kProcessStride;
  g.gap = 0;
  for (std::int64_t i = 1; i <= 8; ++i) {
    g.step = i * 100;
    g.time = static_cast<double>(i * 1000);
    good.check(g);
  }
  good.finish();
  EXPECT_TRUE(good.log().empty());
}

TEST(ConvergenceMonitor_, StepsClockDeadlineIsRescaledByM) {
  // A sequential Steps clock ticks per activation: time m is only one
  // round-equivalent unit, so a large gap at time m must NOT be past
  // the deadline yet.
  constexpr std::int64_t kM = 512;
  MonitorSet set;
  set.add(std::make_unique<ConvergenceMonitor>(64, kM, ConvergenceEnvelope{}));
  CheckSample s;
  s.origin = CheckSample::Origin::kProcessStride;
  s.clockKind = 2;  // process::Clock::Kind::Steps
  s.gap = 1000;
  for (std::int64_t i = 1; i <= 8; ++i) {
    s.step = i * kM;
    s.time = static_cast<double>(i * kM);  // 8 round-equivalents: inside deadline
    set.check(s);
  }
  EXPECT_TRUE(set.log().empty());
}

// ------------------------------------------------ serve-loop integration

struct ServeRun {
  std::vector<std::int64_t> loads;
  std::string gapSketchJson;
  std::vector<std::string> anomalies;  // rendered, deterministic monitors only
  std::int64_t errors = 0;
  std::int64_t warnings = 0;
  std::int64_t checks = 0;
};

/// Drive one Poisson serve run with a DETERMINISTIC roster (conservation +
/// gap envelope; no wall-clock drift monitor).
ServeRun runServeWithMonitors(bool invert) {
  // Heavy load (~28 balls/bin at equilibrium): healthy RLS holds the gap
  // far inside the envelope, while the inverted dynamic has room to blow
  // it past 2x the bound.
  workload::OpenTraceOptions base;
  base.bins = 64;
  base.arrivalRatePerBin = 2.0;
  base.departureRate = 0.05;
  base.resampleRate = 1.0;
  base.maxEvents = 32768;
  workload::PoissonTrace trace(base, 99);

  serve::AllocatorOptions allocOptions;
  allocOptions.bins = 64;
  allocOptions.arrivalChoices = 2;
  allocOptions.invertAcceptance = invert;
  serve::OnlineAllocator allocator(allocOptions);

  MonitorSet monitors;
  monitors.add(std::make_unique<LoadConservationMonitor>());
  GapEnvelope envelope;
  envelope.n = 64;
  envelope.d = 2;
  envelope.warmupSteps = 8;
  monitors.add(std::make_unique<GapEnvelopeMonitor>(envelope));
  monitors.beginRun();

  serve::LoopOptions options;
  options.epochEvents = 512;
  options.unitBudget = 32768;
  options.seed = 13;
  options.monitors = &monitors;
  serve::EpochLoop loop(allocator, options);
  (void)loop.run(trace);
  monitors.finish();

  ServeRun out;
  out.loads = allocator.loads();
  out.gapSketchJson = monitors.gapSketch().toJson().dump();
  for (std::size_t i = 0; i < monitors.log().size(); ++i) {
    out.anomalies.push_back(anomalyToJson(monitors.log().at(i)).dump());
  }
  out.errors = monitors.log().errors();
  out.warnings = monitors.log().warnings();
  out.checks = monitors.checks();
  return out;
}

TEST(ServeConformance, HealthyRunIsAnomalyFree) {
  const ServeRun run = runServeWithMonitors(/*invert=*/false);
  EXPECT_GT(run.checks, 0);
  EXPECT_EQ(run.errors, 0);
  EXPECT_EQ(run.warnings, 0);
  EXPECT_TRUE(run.anomalies.empty());
}

TEST(ServeConformance, InvertedAcceptanceTriggersGapEnvelopeErrors) {
  // The broken dynamic: accepting exactly the moves strict RLS rejects
  // drives load onto the fullest bins; the gap envelope must catch it.
  const ServeRun run = runServeWithMonitors(/*invert=*/true);
  EXPECT_GT(run.errors, 0);
  ASSERT_FALSE(run.anomalies.empty());
  EXPECT_NE(run.anomalies.front().find("gap_envelope"), std::string::npos);
}

TEST(ServeConformance, SnapshotsAreByteIdenticalAcrossRuns) {
  const ServeRun ref = runServeWithMonitors(/*invert=*/false);
  const ServeRun run = runServeWithMonitors(/*invert=*/false);
  EXPECT_EQ(run.loads, ref.loads);
  EXPECT_EQ(run.checks, ref.checks);
  EXPECT_EQ(run.gapSketchJson, ref.gapSketchJson);
  EXPECT_EQ(run.anomalies, ref.anomalies);
  // The broken dynamic's anomaly sequence is deterministic too.
  const ServeRun brokenRef = runServeWithMonitors(true);
  const ServeRun broken = runServeWithMonitors(true);
  EXPECT_EQ(broken.anomalies, brokenRef.anomalies);
  ASSERT_FALSE(brokenRef.anomalies.empty());
}

// --------------------------------------------- process-probe integration

TEST(ProcessConformance, RlsConvergesInsideTheEnvelope) {
  process::registerBuiltinProcesses();
  const process::ProcessRegistry& registry = process::ProcessRegistry::global();
  constexpr std::int64_t kN = 64;
  constexpr std::int64_t kM = 512;
  const config::Configuration start = config::allInOne(kN, kM);
  const auto proc = registry.make("rls", start, 4242);

  MonitorSet monitors;
  installProcessMonitors(monitors, kN, kM);
  monitors.beginRun();

  MetricsRegistry metrics;
  ProcessProbe::Options probeOptions;
  probeOptions.prefix = "process.rls";
  probeOptions.monitors = &monitors;
  ProcessProbe probe(&metrics, nullptr, probeOptions);

  process::RunLimits limits;
  limits.maxEvents = 10'000'000;
  const auto result = process::run(*proc, process::Target::perfect(), limits, &probe);
  probe.finish(*proc);
  monitors.finish();

  EXPECT_TRUE(result.reachedTarget);
  EXPECT_GT(monitors.checks(), 0);
  EXPECT_EQ(monitors.log().errors(), 0);
  EXPECT_EQ(monitors.log().warnings(), 0);
}

}  // namespace
}  // namespace rlslb::obs
