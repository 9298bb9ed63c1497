// Tests for src/process: the unified Process API, the registry, and --
// most importantly -- the equivalence suite pinning process::run over each
// dynamic byte-identical to the *historical* per-family run loops. Each
// reference loop below is a verbatim copy of the pre-refactor code (only
// renamed calls and locals: step() -> advance(), time() -> now().value), so
// if the generic loop ever drifts (an extra rng draw, an off-by-one stop, a
// different final check), these tests catch it against frozen behaviour
// rather than against the code under test itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "config/configuration.hpp"
#include "config/generators.hpp"
#include "config/metrics.hpp"
#include "core/dml.hpp"
#include "core/rls.hpp"
#include "dynamic/open_system.hpp"
#include "ext/speed_rls.hpp"
#include "ext/weighted_rls.hpp"
#include "graph/graph_engine.hpp"
#include "graph/topology.hpp"
#include "process/process.hpp"
#include "process/registry.hpp"
#include "process/replicate.hpp"
#include "protocols/crs.hpp"
#include "protocols/edm.hpp"
#include "protocols/repeated.hpp"
#include "protocols/selfish.hpp"
#include "protocols/threshold.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "runner/thread_pool.hpp"
#include "serve/compact_allocator.hpp"
#include "sim/balance_tracker.hpp"
#include "sim/naive_engine.hpp"
#include "sim/probes.hpp"
#include "util/params.hpp"

namespace rlslb::process {
namespace {

// ------------------------------------------------------- reference loops
// Verbatim copies of the pre-refactor per-family run loops.

/// The sim layer's historical stopping target and run report.
struct SimTarget {
  enum class Kind { PerfectBalance, XBalanced };
  Kind kind = Kind::PerfectBalance;
  std::int64_t x = 0;

  static SimTarget perfect() { return {Kind::PerfectBalance, 0}; }
  static SimTarget xBalanced(std::int64_t x) { return {Kind::XBalanced, x}; }

  [[nodiscard]] bool reached(const sim::BalanceState& s) const {
    return kind == Kind::PerfectBalance ? s.perfectlyBalanced() : s.xBalanced(x);
  }
};

struct SimRunResult {
  double time = 0.0;
  std::int64_t moves = 0;
  std::int64_t activations = 0;
  bool reachedTarget = false;
  sim::BalanceState finalState;
};

SimRunResult referenceSimRunUntil(Process& engine, SimTarget target,
                                  const sim::RunLimits& limits) {
  SimRunResult result;
  bool reached = target.reached(engine.state());
  std::int64_t steps = 0;
  while (!reached && engine.now().value < limits.maxTime && steps < limits.maxEvents) {
    if (!engine.advance()) break;  // absorbed
    ++steps;
    reached = target.reached(engine.state());
  }
  result.time = engine.now().value;
  result.moves = engine.moves();
  result.activations = engine.activations();
  result.finalState = engine.state();
  result.reachedTarget = reached || target.reached(engine.state());
  return result;
}

/// The adversarial run loop of core::runWithAdversary (the probe sees the
/// engine itself).
SimRunResult referenceRunWithAdversary(const config::Configuration& initial,
                                       std::uint64_t seed,
                                       core::DestructiveAdversary& adversary, SimTarget target,
                                       const sim::RunLimits& limits, Probe* probe, int gap) {
  sim::NaiveEngine engine(initial, seed, gap);
  rng::Xoshiro256pp adversaryEng(rng::streamSeed(seed, 0xadb3e25a17ULL));

  SimRunResult result;
  if (probe != nullptr) probe->onEvent(engine);
  bool reached = target.reached(engine.state());
  while (!reached && engine.time() < limits.maxTime && engine.activations() < limits.maxEvents) {
    if (!engine.advance() && !engine.stepActivation()) break;
    adversary.afterEvent(engine, adversaryEng);
    if (probe != nullptr) probe->onEvent(engine);
    reached = target.reached(engine.state());
  }
  result.time = engine.time();
  result.moves = engine.moves();
  result.activations = engine.activations();
  result.finalState = engine.state();
  result.reachedTarget = reached;
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
  const std::int64_t checkInterval = std::max<std::int64_t>(1, p.numBins() / 8);
  std::int64_t sinceCheck = checkInterval;
  for (std::int64_t s = 0; s < maxSteps; ++s) {
    if (sinceCheck >= checkInterval) {
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
                                                                std::int64_t checkInterval) {
  ReferenceEquilibriumResult<Engine> r;
  std::int64_t sinceCheck = checkInterval;  // check before the first step
  while (engine.activations() < maxActivations) {
    if (sinceCheck >= checkInterval) {
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

      const auto ra = referenceSimRunUntil(*a, SimTarget::perfect(), {});
      const RunResult rb = run(*b, Target::perfect(), {});

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
    const auto ra = referenceSimRunUntil(*a, SimTarget::perfect(), limits);
    const RunResult rb = run(*b, Target::perfect(), limits);
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
    const RunResult facade = core::balance(init, c.options);
    auto p = makeProcess(c.kind, init, c.options.seed);
    const RunResult viaRegistry = run(*p, Target::perfect(), {});
    EXPECT_EQ(facade.time, viaRegistry.time) << c.kind;
    EXPECT_EQ(facade.moves, viaRegistry.moves) << c.kind;
    EXPECT_EQ(facade.activations, viaRegistry.activations) << c.kind;
    EXPECT_EQ(facade.reachedTarget, viaRegistry.reachedTarget) << c.kind;
    expectStatesEqual(facade.finalState, viaRegistry.finalState);
  }
}

// ------------------------------------------- equivalence: DML adversaries

// The adversarial composite under process::run against the frozen
// runWithAdversary loop, for each adversary policy: the run report and
// every probe sample bit for bit.
TEST(ProcessEquivalence, AdversarialRlsMatchesReferenceLoop) {
  struct Case {
    const char* name;
    std::unique_ptr<core::DestructiveAdversary> (*make)();
    config::Configuration start;
    SimTarget simTarget;
    Target target;
    sim::RunLimits limits;
    int gap;
  };
  const auto inf = std::numeric_limits<double>::infinity();
  const auto maxEvents = std::numeric_limits<std::int64_t>::max();
  const Case cases[] = {
      {"reverse-last p=0.5",
       [] {
         return std::unique_ptr<core::DestructiveAdversary>(
             new core::ReverseLastMoveAdversary(0.5));
       },
       config::allInOne(24, 24 * 8), SimTarget::perfect(), Target::perfect(),
       {.maxTime = inf, .maxEvents = maxEvents}, 1},
      {"random-pair x2",
       [] {
         return std::unique_ptr<core::DestructiveAdversary>(new core::RandomPairAdversary(2));
       },
       config::allInOne(24, 24 * 8), SimTarget::perfect(), Target::perfect(),
       {.maxTime = 6.0, .maxEvents = maxEvents}, 1},
      {"min-to-max p=0.2",
       [] {
         return std::unique_ptr<core::DestructiveAdversary>(new core::MinToMaxAdversary(0.2));
       },
       config::allInOne(24, 24 * 8), SimTarget::perfect(), Target::perfect(),
       {.maxTime = 6.0, .maxEvents = maxEvents}, 1},
      // gap 2 absorbs the protocol at spread 1; the composite keeps ringing.
      {"reverse-last p=1 gap=2",
       [] {
         return std::unique_ptr<core::DestructiveAdversary>(
             new core::ReverseLastMoveAdversary(1.0));
       },
       config::Configuration({2, 1}), SimTarget::xBalanced(0), Target::xBalanced(0),
       {.maxTime = inf, .maxEvents = 500}, 2},
  };
  for (const Case& c : cases) {
    for (const std::uint64_t seed : {3ULL, 41ULL}) {
      auto advA = c.make();
      auto advB = c.make();
      sim::TrajectoryRecorder probeA(0.01);
      sim::TrajectoryRecorder probeB(0.01);
      const SimRunResult ra = referenceRunWithAdversary(c.start, seed, *advA, c.simTarget,
                                                        c.limits, &probeA, c.gap);
      core::AdversarialRls rls(c.start, seed, *advB, c.gap);
      const RunResult rb = run(rls, c.target, c.limits, &probeB);

      EXPECT_EQ(ra.time, rb.time) << c.name;
      EXPECT_EQ(ra.moves, rb.moves) << c.name;
      EXPECT_EQ(ra.activations, rb.activations) << c.name;
      EXPECT_EQ(ra.reachedTarget, rb.reachedTarget) << c.name;
      expectStatesEqual(ra.finalState, rb.finalState);
      ASSERT_EQ(probeA.points().size(), probeB.points().size()) << c.name;
      for (std::size_t i = 0; i < probeA.points().size(); ++i) {
        EXPECT_EQ(probeA.points()[i].time, probeB.points()[i].time) << c.name;
        EXPECT_EQ(probeA.points()[i].maxLoad, probeB.points()[i].maxLoad) << c.name;
        EXPECT_EQ(probeA.points()[i].minLoad, probeB.points()[i].minLoad) << c.name;
      }
    }
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
    auto& protoA = dynamic_cast<protocols::RoundProtocol&>(*pa);

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
    auto& protoB = dynamic_cast<protocols::RoundProtocol&>(*pb);
    EXPECT_EQ(protoA.loads(), protoB.loads()) << kind;
  }
}

TEST(ProcessEquivalence, SelfishMatchesReferenceLoop) {
  // A protocol built directly (not via the registry) under process::run,
  // against the frozen loop, at a larger m/n than above.
  const auto init = config::allInOne(16, 1 << 12);
  protocols::SelfishRerouting a(init, 31);
  protocols::SelfishRerouting b(init, 31);
  const RunResult r = run(a, Target::xBalanced(64), {.maxEvents = 200});
  const std::int64_t viaReference = referenceRoundRunUntilBalanced(b, 64, 200);
  EXPECT_EQ(r.reachedTarget ? a.roundsTaken() : -1, viaReference);
  EXPECT_EQ(a.loads(), b.loads());
}

// ----------------------------------------------------- equivalence: CRS

TEST(ProcessEquivalence, CrsMatchesReferenceStableLoop) {
  // Several seeds, so the stop lands off every coarser check cadence.
  for (const std::uint64_t seed : {77ULL, 78ULL, 79ULL, 80ULL, 81ULL, 82ULL}) {
    protocols::CrsProtocol a(32, 128, seed);
    protocols::CrsProtocol b(32, 128, seed);
    const std::int64_t legacy = referenceCrsRunUntilStable(a, 50'000'000);
    ASSERT_GE(legacy, 0);

    RunLimits limits;
    limits.maxEvents = 50'000'000;
    const RunResult r = run(b, Target::equilibrium(), limits);
    const std::int64_t viaProcess = r.reachedTarget ? b.steps() : -1;
    EXPECT_EQ(legacy, viaProcess) << seed;
    EXPECT_EQ(a.loads(), b.loads()) << seed;
    EXPECT_EQ(a.moves(), b.moves()) << seed;
  }
}

// ----------------------------------------------------- equivalence: ext

TEST(ProcessEquivalence, SpeedRlsMatchesReferenceLoop) {
  const auto init = config::allInOne(32, 32 * 8);
  std::vector<std::int64_t> speeds(32, 1);
  for (std::size_t i = 16; i < 32; ++i) speeds[i] = 2;

  ext::SpeedRlsEngine a(init, speeds, 555);
  ext::SpeedRlsEngine b(init, speeds, 555);
  const std::int64_t checkInterval = std::max<std::int64_t>(1, 32 / 4);
  const auto legacy = referenceRunUntilEquilibrium(a, 10'000'000, checkInterval);

  const RunResult r = run(b, Target::equilibrium(), {.maxEvents = 10'000'000});
  EXPECT_EQ(legacy.time, r.time);
  EXPECT_EQ(legacy.activations, r.activations);
  EXPECT_EQ(legacy.moves, r.moves);
  EXPECT_EQ(legacy.reached, r.reachedTarget);
  EXPECT_EQ(a.loads(), b.loads());
}

TEST(ProcessEquivalence, WeightedRlsMatchesReferenceLoop) {
  const std::int64_t n = 24;
  std::vector<std::int64_t> weights(96, 1);
  for (std::size_t i = 0; i < weights.size(); i += 7) weights[i] = 5;
  std::vector<std::uint32_t> start(weights.size(), 0);

  ext::WeightedRlsEngine a(n, weights, start, 888);
  ext::WeightedRlsEngine b(n, weights, start, 888);
  const std::int64_t checkInterval =
      std::max<std::int64_t>(1, (n + static_cast<std::int64_t>(weights.size())) / 4);
  const auto legacy = referenceRunUntilEquilibrium(a, 20'000'000, checkInterval);

  const RunResult r = run(b, Target::equilibrium(), {.maxEvents = 20'000'000});
  EXPECT_EQ(legacy.time, r.time);
  EXPECT_EQ(legacy.activations, r.activations);
  EXPECT_EQ(legacy.moves, r.moves);
  EXPECT_EQ(legacy.reached, r.reachedTarget);
  EXPECT_EQ(a.loads(), b.loads());
}

// --------------------------------------------------- equivalence: graph

TEST(ProcessEquivalence, GraphEngineMatchesReferenceAndRegistry) {
  const std::int64_t n = 32;
  const auto init = config::allInOne(n, 4 * n);
  const auto topo = graph::Topology::cycle(n);

  graph::GraphRlsEngine a(init, topo, 1717);
  const auto legacy = referenceSimRunUntil(a, SimTarget::perfect(),
                                           {.maxTime = 1e9, .maxEvents = 2'000'000'000});

  util::Params params;
  params.set("topology", "cycle");
  auto p = makeProcess("graph_rls", init, 1717, params);
  EXPECT_NE(dynamic_cast<graph::GraphRlsEngine*>(p.get()), nullptr);
  const RunResult r = run(*p, Target::perfect(), {.maxTime = 1e9, .maxEvents = 2'000'000'000});

  EXPECT_EQ(legacy.time, r.time);
  EXPECT_EQ(legacy.moves, r.moves);
  EXPECT_EQ(legacy.activations, r.activations);
  expectStatesEqual(legacy.finalState, r.finalState);
}

// ----------------------------------------------- equivalence: open system

// process::run with maxTime = t stops the open system AT t, exactly as
// OpenSystem::runUntilTime(t): the same draws, the same final time, state,
// level counts and counters. Also when the system is absorbed: with no
// arrivals or departures and loads one apart, no multiset change has
// positive rate, yet both reach t and count the neutral moves up to it.
TEST(ProcessEquivalence, OpenSystemMatchesReferenceTimeLoop) {
  dynamic::OpenSystemOptions busy;
  busy.arrivalRatePerBin = 2.0;
  busy.departureRate = 0.5;
  dynamic::OpenSystemOptions absorbed;
  absorbed.arrivalRatePerBin = 0.0;
  absorbed.departureRate = 0.0;
  const config::Configuration oneApart({1, 0, 1, 0, 1, 0, 1, 0});
  struct Case {
    std::int64_t n;
    dynamic::OpenSystemOptions options;
    const config::Configuration* start;
    double t;
  };
  for (const Case& c : {Case{16, busy, nullptr, 40.0}, Case{8, absorbed, &oneApart, 30.0}}) {
    dynamic::OpenSystem a(c.n, c.options, 2024, c.start);
    dynamic::OpenSystem b(c.n, c.options, 2024, c.start);

    const std::int64_t events = a.runUntilTime(c.t);
    const RunResult r = run(b, Target::none(), {.maxTime = c.t});

    EXPECT_EQ(events, r.events);
    EXPECT_EQ(r.time, c.t);
    EXPECT_EQ(a.time(), b.time());
    expectStatesEqual(a.state(), r.finalState);
    for (std::int64_t v = a.minLoad(); v <= a.maxLoad(); ++v) {
      EXPECT_EQ(a.levelCount(v), b.levelCount(v));
    }
    EXPECT_EQ(a.counters().arrivals, b.counters().arrivals);
    EXPECT_EQ(a.counters().departures, b.counters().departures);
    EXPECT_EQ(a.counters().migrations, r.moves);
    EXPECT_EQ(a.counters().migrations, b.counters().migrations);
    EXPECT_GT(r.moves, 0);
  }
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

// The level array is a window over the occupied levels: a bin climbing to
// 2^24 keeps it O(spread + delta), not O(max load), and the window follows
// the load back down.
TEST(ProcessState, BalanceTrackerWindowFollowsTheLoads) {
  constexpr std::int64_t kStep = 1024;
  constexpr std::int64_t kTop = std::int64_t{1} << 24;
  std::vector<std::int64_t> loads = {0, 0};
  sim::BalanceTracker tracker(std::int64_t{2});
  const auto change = [&](std::size_t bin, std::int64_t to) {
    tracker.onLoadChange(loads[bin], to);
    loads[bin] = to;
    expectStateMatchesLoads(tracker.state(), loads);
    ASSERT_EQ(tracker.levelCount(loads[0]), 1);
  };
  for (std::int64_t level = kStep; level <= kTop; level += kStep) {
    change(0, level);
    change(1, level - 1);
  }
  EXPECT_LT(tracker.heapBytes(), 64 * kStep);
  for (std::int64_t level = kTop - kStep; level >= 0; level -= kStep) {
    change(1, level);
    change(0, level + 1);
  }
  EXPECT_LT(tracker.heapBytes(), 64 * kStep);
  EXPECT_EQ(tracker.levelCount(0), 1);
  EXPECT_EQ(tracker.levelCount(1), 1);
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
    p.advance();
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
    sys.advance();
    // The open system keeps level counts only; rebuild the loads from them.
    std::vector<std::int64_t> loads;
    for (std::int64_t v = 0; v <= sys.maxLoad(); ++v) {
      loads.insert(loads.end(), static_cast<std::size_t>(sys.levelCount(v)), v);
    }
    expectStateMatchesLoads(sys.state(), loads);
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
  serve::CompactAllocator allocator(options);
  rng::Xoshiro256pp eng(9);
  std::vector<std::int32_t> candidates;
  for (int e = 0; e < 500; ++e) {
    workload::Event event;
    event.kind = workload::EventKind::kArrive;
    event.slot = e;
    event.weight = 1 + static_cast<std::int64_t>(rng::uniformIndex(eng, 3));
    serve::Decision d;
    allocator.decideBatch(&event, 1, 0, eng, &candidates, nullptr, &d);
    allocator.apply(event, d);
  }
  const sim::BalanceState state = allocator.balanceState();
  expectStateMatchesLoads(state, {allocator.loads().begin(), allocator.loads().end()});
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
  util::Params params;
  params.set("threshold", "3");  // a threshold knob handed to selfish
  EXPECT_THROW((void)makeProcess("selfish", init, 1, params), std::invalid_argument);
}

TEST(ProcessRegistry, ParamsReachTheDynamic) {
  const auto init = config::allInOne(8, 64);
  util::Params params;
  params.set("threshold", "3");
  params.set("p", "0.25");
  auto p = makeProcess("threshold", init, 1, params);
  EXPECT_EQ(dynamic_cast<protocols::ThresholdProtocol&>(*p).threshold(), 3);
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

// Every kind's two capability flags and clock kind, pinned: each dynamic
// declares its own flags, so a flag lost or flipped in a move shows here.
TEST(ProcessRegistry, CapabilitiesDescribeTheDynamics) {
  using K = Clock::Kind;
  struct Row {
    const char* kind;
    K clock;
    bool openSystem;
    bool equilibrium;
  };
  const Row rows[] = {
      {"rls", K::Continuous, false, false},
      {"rls_naive", K::Continuous, false, false},
      {"rls_jump", K::Continuous, false, false},
      {"selfish", K::Rounds, false, false},
      {"edm", K::Rounds, false, false},
      {"threshold", K::Rounds, false, false},
      {"repeated", K::Rounds, false, false},
      {"crs", K::Steps, false, true},
      {"speed_rls", K::Continuous, false, true},
      {"weighted_rls", K::Continuous, false, true},
      {"graph_rls", K::Continuous, false, false},
      {"open", K::Continuous, true, false},
  };
  registerBuiltinProcesses();
  ASSERT_EQ(ProcessRegistry::global().size(), std::size(rows));
  const auto init = config::allInOne(16, 64);
  for (const Row& row : rows) {
    const auto p = makeProcess(row.kind, init, 1);
    const Capabilities& c = p->capabilities();
    EXPECT_EQ(c.openSystem, row.openSystem) << row.kind;
    EXPECT_EQ(c.equilibrium, row.equilibrium) << row.kind;
    EXPECT_EQ(p->now().kind, row.clock) << row.kind;
  }
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
  util::Params params;
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
