// Tests for src/process: the unified Process API, the registry, and --
// most importantly -- the equivalence suite pinning process::run
// byte-identical to the *historical* per-family run loops. Each reference
// loop below is a verbatim copy of the pre-refactor code, so if the generic
// loop ever drifts (an extra rng draw, an off-by-one stop, a different
// final check), these tests catch it against frozen behaviour rather than
// against the refactored wrappers themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "config/generators.hpp"
#include "config/metrics.hpp"
#include "core/rls.hpp"
#include "dynamic/open_system.hpp"
#include "ext/speed_rls.hpp"
#include "ext/weighted_rls.hpp"
#include "graph/graph_engine.hpp"
#include "graph/topology.hpp"
#include "process/adapters.hpp"
#include "process/params.hpp"
#include "process/process.hpp"
#include "process/registry.hpp"
#include "process/replicate.hpp"
#include "protocols/crs.hpp"
#include "protocols/edm.hpp"
#include "protocols/repeated.hpp"
#include "protocols/selfish.hpp"
#include "protocols/threshold.hpp"
#include "rng/distributions.hpp"
#include "runner/thread_pool.hpp"
#include "serve/online_allocator.hpp"
#include "sim/balance_tracker.hpp"
#include "sim/naive_engine.hpp"

namespace rlslb::process {
namespace {

// ------------------------------------------------------- reference loops
// Verbatim copies of the pre-refactor per-family run loops.

sim::RunResult referenceSimRunUntil(sim::Engine& engine, sim::Target target,
                                    const sim::RunLimits& limits) {
  sim::RunResult result;
  bool reached = target.reached(engine.state());
  std::int64_t steps = 0;
  while (!reached && engine.time() < limits.maxTime && steps < limits.maxEvents) {
    if (!engine.step()) break;  // absorbed
    ++steps;
    reached = target.reached(engine.state());
  }
  result.time = engine.time();
  result.moves = engine.moves();
  result.activations = engine.activations();
  result.finalState = engine.state();
  result.reachedTarget = reached || target.reached(engine.state());
  return result;
}

std::int64_t referenceRoundRunUntilBalanced(protocols::RoundProtocol& p, std::int64_t x,
                                            std::int64_t maxRounds) {
  std::int64_t rounds = 0;
  const auto balancedWithin = [&] {
    const auto& loads = p.loads();
    const auto [mn, mx] = std::minmax_element(loads.begin(), loads.end());
    const std::int64_t n = p.numBins();
    if (x == 0) return config::isPerfectlyBalanced(*mn, *mx, n, p.numBalls());
    return config::isXBalancedInt(*mn, *mx, n, p.numBalls(), x);
  };
  for (std::int64_t r = 0; r < maxRounds; ++r) {
    if (balancedWithin()) return rounds;
    p.round();
    ++rounds;
  }
  return balancedWithin() ? rounds : -1;
}

std::int64_t referenceCrsRunUntilStable(protocols::CrsProtocol& p, std::int64_t maxSteps) {
  const std::int64_t checkEvery = std::max<std::int64_t>(1, p.numBins() / 8);
  std::int64_t sinceCheck = checkEvery;
  for (std::int64_t s = 0; s < maxSteps; ++s) {
    if (sinceCheck >= checkEvery) {
      sinceCheck = 0;
      if (p.isLocallyStable()) return p.steps();
    }
    p.step();
    ++sinceCheck;
  }
  return p.isLocallyStable() ? p.steps() : -1;
}

template <typename Engine>
struct ReferenceEquilibriumResult {
  double time = 0.0;
  std::int64_t activations = 0;
  std::int64_t moves = 0;
  bool reached = false;
};

template <typename Engine>
ReferenceEquilibriumResult<Engine> referenceRunUntilEquilibrium(Engine& engine,
                                                                std::int64_t maxActivations,
                                                                std::int64_t checkEvery) {
  ReferenceEquilibriumResult<Engine> r;
  std::int64_t sinceCheck = checkEvery;  // check before the first step
  while (engine.activations() < maxActivations) {
    if (sinceCheck >= checkEvery) {
      sinceCheck = 0;
      if (engine.isEquilibrium()) {
        r.reached = true;
        break;
      }
    }
    engine.step();
    ++sinceCheck;
  }
  if (!r.reached) r.reached = engine.isEquilibrium();
  r.time = engine.time();
  r.activations = engine.activations();
  r.moves = engine.moves();
  return r;
}

std::int64_t referenceOpenRunUntilTime(dynamic::OpenSystem& sys, double time) {
  std::int64_t events = 0;
  while (sys.time() < time) {
    if (!sys.step()) break;
    ++events;
  }
  return events;
}

void expectStatesEqual(const sim::BalanceState& a, const sim::BalanceState& b) {
  EXPECT_EQ(a.numBins, b.numBins);
  EXPECT_EQ(a.numBalls, b.numBalls);
  EXPECT_EQ(a.minLoad, b.minLoad);
  EXPECT_EQ(a.maxLoad, b.maxLoad);
  EXPECT_EQ(a.overloadedBalls, b.overloadedBalls);
}

void expectStateMatchesLoads(const sim::BalanceState& state,
                             const std::vector<std::int64_t>& loads) {
  const config::Metrics mm = config::computeMetrics(loads);
  EXPECT_EQ(state.numBins, static_cast<std::int64_t>(loads.size()));
  EXPECT_EQ(state.minLoad, mm.minLoad);
  EXPECT_EQ(state.maxLoad, mm.maxLoad);
  EXPECT_EQ(state.overloadedBalls, mm.overloadedBalls);
  std::int64_t total = 0;
  for (const std::int64_t v : loads) total += v;
  EXPECT_EQ(state.numBalls, total);
}

// --------------------------------------------- equivalence: sim engines

TEST(ProcessEquivalence, SimEnginesMatchReferenceLoop) {
  struct Case {
    core::SimOptions::EngineKind kind;
    int gap;
  };
  const Case cases[] = {
      {core::SimOptions::EngineKind::Naive, 1},
      {core::SimOptions::EngineKind::Naive, 2},
      {core::SimOptions::EngineKind::Jump, 1},
      {core::SimOptions::EngineKind::Hybrid, 1},
  };
  for (const Case& c : cases) {
    for (const auto start : {0, 1}) {
      const auto init =
          start == 0 ? config::allInOne(48, 48 * 6) : config::staircase(48, 48 * 6);
      core::SimOptions o;
      o.engine = c.kind;
      o.gap = c.gap;
      o.seed = 12345;
      auto a = core::makeEngine(init, o);
      auto b = core::makeEngine(init, o);

      const auto ra = referenceSimRunUntil(*a, sim::Target::perfect(), {});
      EngineProcess pb(*b);
      const RunResult rb = run(pb, Target::perfect(), {});

      // Bit-identical time pins the entire rng stream, not just the count.
      EXPECT_EQ(ra.time, rb.time);
      EXPECT_EQ(ra.moves, rb.moves);
      EXPECT_EQ(ra.activations, rb.activations);
      EXPECT_EQ(ra.reachedTarget, rb.reachedTarget);
      expectStatesEqual(ra.finalState, rb.finalState);
    }
  }
}

TEST(ProcessEquivalence, LimitsMatchReferenceLoop) {
  const auto init = config::allInOne(32, 512);
  for (const auto& limits :
       {sim::RunLimits{.maxTime = 2.5, .maxEvents = std::numeric_limits<std::int64_t>::max()},
        sim::RunLimits{.maxTime = std::numeric_limits<double>::infinity(), .maxEvents = 100}}) {
    core::SimOptions o;
    o.engine = core::SimOptions::EngineKind::Naive;
    o.seed = 7;
    auto a = core::makeEngine(init, o);
    auto b = core::makeEngine(init, o);
    const auto ra = referenceSimRunUntil(*a, sim::Target::perfect(), limits);
    EngineProcess pb(*b);
    const RunResult rb = run(pb, Target::perfect(), limits);
    EXPECT_EQ(ra.time, rb.time);
    EXPECT_EQ(ra.moves, rb.moves);
    EXPECT_EQ(ra.activations, rb.activations);
    EXPECT_EQ(ra.reachedTarget, rb.reachedTarget);
    expectStatesEqual(ra.finalState, rb.finalState);
  }
}

TEST(ProcessEquivalence, RegistryRlsKindsMatchCoreBalance) {
  const auto init = config::allInOne(40, 40 * 5);
  struct Case {
    const char* kind;
    core::SimOptions options;
  };
  std::vector<Case> cases;
  {
    core::SimOptions o;
    o.engine = core::SimOptions::EngineKind::Hybrid;
    o.seed = 99;
    cases.push_back({"rls", o});
    o.engine = core::SimOptions::EngineKind::Naive;
    cases.push_back({"rls_naive", o});
    o.engine = core::SimOptions::EngineKind::Jump;
    cases.push_back({"rls_jump", o});
  }
  for (const Case& c : cases) {
    const sim::RunResult legacy = core::balance(init, c.options);
    auto p = makeProcess(c.kind, init, c.options.seed);
    const RunResult viaRegistry = run(*p, Target::perfect(), {});
    EXPECT_EQ(legacy.time, viaRegistry.time) << c.kind;
    EXPECT_EQ(legacy.moves, viaRegistry.moves) << c.kind;
    EXPECT_EQ(legacy.activations, viaRegistry.activations) << c.kind;
    EXPECT_EQ(legacy.reachedTarget, viaRegistry.reachedTarget) << c.kind;
    expectStatesEqual(legacy.finalState, viaRegistry.finalState);
  }
}

// ----------------------------------------- equivalence: round protocols

TEST(ProcessEquivalence, RoundProtocolsMatchReferenceLoop) {
  const auto init = config::allInOne(24, 24 * 32);
  const std::int64_t band = 8;
  const char* kinds[] = {"selfish", "edm", "threshold", "repeated"};
  for (const char* kind : kinds) {
    auto pa = makeProcess(kind, init, 4242);
    auto pb = makeProcess(kind, init, 4242);
    auto& protoA = dynamic_cast<RoundProcess&>(*pa).underlying();

    // `repeated` churns forever near m >> n; cap the budget so both paths
    // exercise the budget-exhausted branch too.
    const std::int64_t maxRounds = 400;
    const std::int64_t legacy = referenceRoundRunUntilBalanced(protoA, band, maxRounds);

    RunLimits limits;
    limits.maxEvents = maxRounds;
    const RunResult r = run(*pb, Target::xBalanced(band), limits);
    const std::int64_t viaProcess =
        r.reachedTarget ? static_cast<std::int64_t>(r.clock.value) : -1;

    EXPECT_EQ(legacy, viaProcess) << kind;
    auto& protoB = dynamic_cast<RoundProcess&>(*pb).underlying();
    EXPECT_EQ(protoA.loads(), protoB.loads()) << kind;
  }
}

TEST(ProcessEquivalence, RunUntilBalancedWrapperMatchesReference) {
  // The retained legacy entry point itself (now a wrapper over
  // process::run) against the frozen reference loop.
  const auto init = config::allInOne(16, 1 << 12);
  protocols::SelfishRerouting a(init, 31);
  protocols::SelfishRerouting b(init, 31);
  const std::int64_t viaWrapper = a.runUntilBalanced(64, 200);
  const std::int64_t viaReference = referenceRoundRunUntilBalanced(b, 64, 200);
  EXPECT_EQ(viaWrapper, viaReference);
  EXPECT_EQ(a.loads(), b.loads());
}

// ----------------------------------------------------- equivalence: CRS

TEST(ProcessEquivalence, CrsMatchesReferenceStableLoop) {
  protocols::CrsProtocol a(32, 128, 77);
  protocols::CrsProtocol b(32, 128, 77);
  const std::int64_t legacy = referenceCrsRunUntilStable(a, 50'000'000);
  ASSERT_GE(legacy, 0);

  CrsProcess pb(b);
  RunLimits limits;
  limits.maxEvents = 50'000'000;
  const RunResult r = run(pb, Target::equilibrium(), limits);
  const std::int64_t viaProcess = r.reachedTarget ? b.steps() : -1;
  EXPECT_EQ(legacy, viaProcess);
  EXPECT_EQ(a.loads(), b.loads());
  EXPECT_EQ(a.moves(), b.moves());
}

// ----------------------------------------------------- equivalence: ext

TEST(ProcessEquivalence, SpeedRlsMatchesReferenceLoop) {
  const auto init = config::allInOne(32, 32 * 8);
  std::vector<std::int64_t> speeds(32, 1);
  for (std::size_t i = 16; i < 32; ++i) speeds[i] = 2;

  ext::SpeedRlsEngine a(init, speeds, 555);
  ext::SpeedRlsEngine b(init, speeds, 555);
  const std::int64_t checkEvery = std::max<std::int64_t>(1, 32 / 4);
  const auto legacy = referenceRunUntilEquilibrium(a, 10'000'000, checkEvery);

  const auto viaWrapper = b.runUntilEquilibrium(10'000'000);
  EXPECT_EQ(legacy.time, viaWrapper.time);
  EXPECT_EQ(legacy.activations, viaWrapper.activations);
  EXPECT_EQ(legacy.moves, viaWrapper.moves);
  EXPECT_EQ(legacy.reached, viaWrapper.reachedEquilibrium);
  EXPECT_EQ(a.loads(), b.loads());
}

TEST(ProcessEquivalence, WeightedRlsMatchesReferenceLoop) {
  const std::int64_t n = 24;
  std::vector<std::int64_t> weights(96, 1);
  for (std::size_t i = 0; i < weights.size(); i += 7) weights[i] = 5;
  std::vector<std::uint32_t> start(weights.size(), 0);

  ext::WeightedRlsEngine a(n, weights, start, 888);
  ext::WeightedRlsEngine b(n, weights, start, 888);
  const std::int64_t checkEvery =
      std::max<std::int64_t>(1, (n + static_cast<std::int64_t>(weights.size())) / 4);
  const auto legacy = referenceRunUntilEquilibrium(a, 20'000'000, checkEvery);

  const auto viaWrapper = b.runUntilEquilibrium(20'000'000);
  EXPECT_EQ(legacy.time, viaWrapper.time);
  EXPECT_EQ(legacy.activations, viaWrapper.activations);
  EXPECT_EQ(legacy.moves, viaWrapper.moves);
  EXPECT_EQ(legacy.reached, viaWrapper.reachedEquilibrium);
  EXPECT_EQ(a.loads(), b.loads());
}

// --------------------------------------------------- equivalence: graph

TEST(ProcessEquivalence, GraphEngineMatchesReferenceAndRegistry) {
  const std::int64_t n = 32;
  const auto init = config::allInOne(n, 4 * n);
  const auto topo = graph::Topology::cycle(n);

  graph::GraphRlsEngine a(init, topo, 1717);
  const auto legacy = referenceSimRunUntil(a, sim::Target::perfect(),
                                           {.maxTime = 1e9, .maxEvents = 2'000'000'000});

  ProcessParams params;
  params.set("topology", "cycle");
  auto p = makeProcess("graph_rls", init, 1717, params);
  EXPECT_TRUE(p->capabilities().topology);
  const RunResult r = run(*p, Target::perfect(), {.maxTime = 1e9, .maxEvents = 2'000'000'000});

  EXPECT_EQ(legacy.time, r.time);
  EXPECT_EQ(legacy.moves, r.moves);
  EXPECT_EQ(legacy.activations, r.activations);
  expectStatesEqual(legacy.finalState, r.finalState);
}

// ----------------------------------------------- equivalence: open system

TEST(ProcessEquivalence, OpenSystemMatchesReferenceTimeLoop) {
  dynamic::OpenSystemOptions options;
  options.arrivalRatePerBin = 2.0;
  options.departureRate = 0.5;
  dynamic::OpenSystem a(16, options, 2024);
  dynamic::OpenSystem b(16, options, 2024);

  const std::int64_t legacyEvents = referenceOpenRunUntilTime(a, 40.0);
  const std::int64_t wrapperEvents = b.runUntilTime(40.0);

  EXPECT_EQ(legacyEvents, wrapperEvents);
  EXPECT_EQ(a.time(), b.time());
  EXPECT_EQ(a.loads(), b.loads());
  EXPECT_EQ(a.counters().arrivals, b.counters().arrivals);
  EXPECT_EQ(a.counters().departures, b.counters().departures);
  EXPECT_EQ(a.counters().migrations, b.counters().migrations);
}

// --------------------------------------------- incremental balance state

TEST(ProcessState, BalanceTrackerMatchesRecompute) {
  sim::BalanceTracker tracker;
  std::vector<std::int64_t> loads = {3, 0, 7, 1, 1};
  tracker.reset(loads);
  expectStateMatchesLoads(tracker.state(), loads);

  rng::Xoshiro256pp eng(5);
  for (int step = 0; step < 2000; ++step) {
    const auto bin = static_cast<std::size_t>(rng::uniformIndex(eng, loads.size()));
    std::int64_t delta =
        static_cast<std::int64_t>(rng::uniformIndex(eng, 7)) - 3;  // -3..+3, open system
    if (loads[bin] + delta < 0) delta = -loads[bin];
    tracker.onLoadChange(loads[bin], loads[bin] + delta);
    loads[bin] += delta;
    expectStateMatchesLoads(tracker.state(), loads);
  }
}

TEST(ProcessState, BalanceTrackerZeroStartMatchesEmptyLoads) {
  sim::BalanceTracker tracker(std::int64_t{5});
  std::vector<std::int64_t> loads(5, 0);
  expectStateMatchesLoads(tracker.state(), loads);
  EXPECT_EQ(tracker.levelCount(0), 5);
  EXPECT_EQ(tracker.levelCount(1), 0);

  // Unit changes from empty (the serving allocator's pattern), through
  // ceiling moves, then drained back to empty.
  rng::Xoshiro256pp eng(8);
  for (int step = 0; step < 2000; ++step) {
    const auto bin = static_cast<std::size_t>(rng::uniformIndex(eng, loads.size()));
    const std::int64_t delta = loads[bin] == 0 || rng::uniformIndex(eng, 3) != 0 ? 1 : -1;
    tracker.onLoadChange(loads[bin], loads[bin] + delta);
    loads[bin] += delta;
    expectStateMatchesLoads(tracker.state(), loads);
  }
  for (std::size_t bin = 0; bin < loads.size(); ++bin) {
    while (loads[bin] > 0) {
      tracker.onLoadChange(loads[bin], loads[bin] - 1);
      --loads[bin];
      expectStateMatchesLoads(tracker.state(), loads);
    }
  }
  EXPECT_EQ(tracker.levelCount(0), 5);

  // resetEmpty restarts a used tracker at a new bin count.
  tracker.resetEmpty(3);
  expectStateMatchesLoads(tracker.state(), std::vector<std::int64_t>(3, 0));
  EXPECT_EQ(tracker.levelCount(0), 3);
  EXPECT_EQ(tracker.levelCount(1), 0);
}

TEST(ProcessState, RoundProtocolStateIsIncremental) {
  protocols::ThresholdProtocol p(config::allInOne(16, 512), 3, 32, 0.5);
  for (int r = 0; r < 30; ++r) {
    p.runRound();
    expectStateMatchesLoads(p.state(), p.loads());
  }
  EXPECT_EQ(p.roundsTaken(), 30);
  EXPECT_GT(p.moves(), 0);
}

TEST(ProcessState, OpenSystemStateIsIncremental) {
  dynamic::OpenSystemOptions options;
  options.arrivalRatePerBin = 4.0;
  options.departureRate = 1.0;
  dynamic::OpenSystem sys(8, options, 11);
  for (int e = 0; e < 3000; ++e) {
    sys.step();
    expectStateMatchesLoads(sys.state(), sys.loads());
    EXPECT_EQ(sys.state().numBalls, sys.numBalls());
  }
}

TEST(ProcessState, WeightedStateIsInWeightUnits) {
  std::vector<std::int64_t> weights = {4, 4, 1, 1, 1, 1};
  std::vector<std::uint32_t> start(weights.size(), 0);
  ext::WeightedRlsEngine engine(4, weights, start, 2);
  EXPECT_EQ(engine.state().numBalls, engine.totalWeight());
  for (int e = 0; e < 5000; ++e) {
    engine.step();
    expectStateMatchesLoads(engine.state(), engine.loads());
  }
}

TEST(ProcessState, ServeAllocatorSharesTheVocabulary) {
  serve::AllocatorOptions options;
  options.bins = 8;
  serve::OnlineAllocator allocator(options);
  rng::Xoshiro256pp eng(9);
  std::vector<std::int32_t> candidates;
  std::int64_t nextBall = 0;
  for (int e = 0; e < 500; ++e) {
    workload::Event event;
    event.kind = workload::EventKind::kArrive;
    event.ball = nextBall++;
    event.weight = 1 + static_cast<std::int64_t>(rng::uniformIndex(eng, 3));
    serve::Decision d;
    allocator.decideBatch(&event, 1, 0, eng, &candidates, nullptr, &d);
    allocator.apply(event, d);
  }
  const sim::BalanceState state = allocator.balanceState();
  expectStateMatchesLoads(state, allocator.loads());
  EXPECT_EQ(state.maxLoad - state.minLoad, allocator.gap());
}

// -------------------------------------------------------------- registry

TEST(ProcessRegistry, RosterCoversAllFiveFamilies) {
  registerBuiltinProcesses();
  const ProcessRegistry& registry = ProcessRegistry::global();
  EXPECT_EQ(registry.size(), 12u);
  const char* families[] = {"sim", "protocols", "ext", "graph", "dynamic"};
  for (const char* family : families) {
    bool found = false;
    for (const ProcessSpec* spec : registry.list()) {
      if (spec->family == family) found = true;
    }
    EXPECT_TRUE(found) << family;
  }
}

TEST(ProcessRegistry, EveryKindConstructsAndAdvances) {
  registerBuiltinProcesses();
  const auto init = config::allInOne(16, 64);
  for (const ProcessSpec* spec : ProcessRegistry::global().list()) {
    auto p = makeProcess(spec->kind, init, 42);
    ASSERT_NE(p, nullptr) << spec->kind;
    const std::int64_t ballsBefore = p->state().numBalls;
    EXPECT_GT(ballsBefore, 0) << spec->kind;
    for (int e = 0; e < 50; ++e) p->advance();
    EXPECT_GT(p->now().value, 0.0) << spec->kind;
    if (!p->capabilities().openSystem) {
      EXPECT_EQ(p->state().numBalls, ballsBefore) << spec->kind;  // closed systems conserve
    }
  }
}

TEST(ProcessRegistry, UnknownKindThrowsWithRoster) {
  const auto init = config::allInOne(4, 8);
  try {
    (void)makeProcess("bogus", init, 1);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("rls_jump"), std::string::npos);
  }
}

TEST(ProcessRegistry, UnusedParameterThrows) {
  const auto init = config::allInOne(4, 8);
  ProcessParams params;
  params.set("threshold", "3");  // a threshold knob handed to selfish
  EXPECT_THROW((void)makeProcess("selfish", init, 1, params), std::invalid_argument);
}

TEST(ProcessRegistry, ParamsReachTheDynamic) {
  const auto init = config::allInOne(8, 64);
  ProcessParams params;
  params.set("threshold", "3");
  params.set("p", "0.25");
  auto p = makeProcess("threshold", init, 1, params);
  auto& proto = dynamic_cast<RoundProcess&>(*p).underlying();
  EXPECT_EQ(dynamic_cast<protocols::ThresholdProtocol&>(proto).threshold(), 3);
}

TEST(ProcessRegistry, SpecsDeclareTheirParams) {
  registerBuiltinProcesses();
  const ProcessSpec* threshold = ProcessRegistry::global().find("threshold");
  ASSERT_NE(threshold, nullptr);
  EXPECT_EQ(threshold->params.size(), 2u);
  EXPECT_EQ(threshold->params[0].name, "threshold");
  const ProcessSpec* open = ProcessRegistry::global().find("open");
  ASSERT_NE(open, nullptr);
  EXPECT_EQ(open->params.size(), 4u);
}

TEST(ProcessRegistry, CapabilitiesDescribeTheDynamics) {
  const auto init = config::allInOne(16, 64);
  EXPECT_TRUE(makeProcess("open", init, 1)->capabilities().openSystem);
  EXPECT_TRUE(makeProcess("graph_rls", init, 1)->capabilities().topology);
  EXPECT_TRUE(makeProcess("weighted_rls", init, 1)->capabilities().weights);
  EXPECT_TRUE(makeProcess("crs", init, 1)->capabilities().equilibrium);
  EXPECT_FALSE(makeProcess("rls", init, 1)->capabilities().openSystem);
  EXPECT_FALSE(makeProcess("selfish", init, 1)->capabilities().continuousTime);
  EXPECT_TRUE(makeProcess("rls_naive", init, 1)->capabilities().continuousTime);
}

TEST(ProcessRegistry, ClockKindsSpanTheGranularities) {
  const auto init = config::allInOne(16, 64);
  EXPECT_EQ(makeProcess("rls", init, 1)->now().kind, Clock::Kind::Continuous);
  EXPECT_EQ(makeProcess("selfish", init, 1)->now().kind, Clock::Kind::Rounds);
  EXPECT_EQ(makeProcess("crs", init, 1)->now().kind, Clock::Kind::Steps);
  EXPECT_STREQ(makeProcess("crs", init, 1)->now().unit(), "steps");
}

// ------------------------------------------------------------- run loop

class CountingProbe final : public Probe {
 public:
  void onEvent(const Process&) override { ++calls; }
  std::int64_t calls = 0;
};

TEST(ProcessRun, ProbeSeesEveryEventPlusTheStart) {
  const auto init = config::allInOne(8, 32);
  auto p = makeProcess("rls_naive", init, 5);
  CountingProbe probe;
  RunLimits limits;
  limits.maxEvents = 25;
  const RunResult r = run(*p, Target::perfect(), limits, &probe);
  EXPECT_EQ(probe.calls, r.events + 1);
}

TEST(ProcessRun, AlreadyAtTargetDoesNotAdvance) {
  const auto init = config::balanced(8, 32);
  auto p = makeProcess("rls", init, 5);
  const RunResult r = run(*p, Target::perfect(), {});
  EXPECT_TRUE(r.reachedTarget);
  EXPECT_EQ(r.events, 0);
  EXPECT_EQ(r.time, 0.0);
}

TEST(ProcessRun, ReplicatedRunsAreThreadCountInvariant) {
  const auto init = config::allInOne(24, 24 * 4);
  registerBuiltinProcesses();
  ProcessParams params;
  const Target target = Target::perfect();
  runner::ThreadPool serial(1);
  runner::ThreadPool wide(4);
  const auto a = runReplicated("rls", init, params, target, {}, 12, 99, serial);
  const auto b = runReplicated("rls", init, params, target, {}, 12, 99, wide);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].moves, b[i].moves);
    EXPECT_EQ(a[i].events, b[i].events);
  }
}

}  // namespace
}  // namespace rlslb::process
