// The compact allocator's equivalence contract -- CompactAllocator and the
// dense OnlineAllocator, each under the one serve::EpochLoop, land on
// byte-identical loads, counters, and gap trajectories across a (trace,
// seed) differential matrix; both sides run a clock ring as the same
// (live slot, destination bin) draw pair -- plus the compact layout's internal
// invariants, its incremental balance accounting against a brute-force
// scan, the dense allocator's fused balance pass, resident-byte
// accounting, and the budget-gate estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "rng/distributions.hpp"
#include "serve/compact_allocator.hpp"
#include "serve/event_loop.hpp"
#include "serve/online_allocator.hpp"
#include "workload/compose.hpp"
#include "workload/generators.hpp"

namespace rlslb::serve {
namespace {

constexpr std::int64_t kBins = 48;
constexpr std::int64_t kEvents = 6000;
constexpr std::int64_t kEpochEvents = 256;

workload::OpenTraceOptions traceOptions() {
  workload::OpenTraceOptions o;
  o.bins = kBins;
  o.arrivalRatePerBin = 1.0;
  o.departureRate = 0.25;
  o.resampleRate = 1.0;
  o.ballWeight = 1;  // the compact layout is unit-weight by design
  o.maxEvents = kEvents;
  return o;
}

struct Outcome {
  std::vector<std::int64_t> loads;
  serve::ServeCounters counters;
  std::int64_t liveBalls = 0;
  std::int64_t totalLoad = 0;
  std::vector<std::int64_t> gapTrajectory;
  std::int64_t residentBytes = 0;
};

void expectEqualOutcomes(const Outcome& compact, const Outcome& dense,
                         const std::string& label) {
  EXPECT_EQ(compact.loads, dense.loads) << label;
  EXPECT_EQ(compact.liveBalls, dense.liveBalls) << label;
  EXPECT_EQ(compact.totalLoad, dense.totalLoad) << label;
  EXPECT_EQ(compact.gapTrajectory, dense.gapTrajectory) << label;
  const serve::ServeCounters& a = compact.counters;
  const serve::ServeCounters& b = dense.counters;
  EXPECT_EQ(a.events, b.events) << label;
  EXPECT_EQ(a.arrivals, b.arrivals) << label;
  EXPECT_EQ(a.departures, b.departures) << label;
  EXPECT_EQ(a.resamples, b.resamples) << label;
  EXPECT_EQ(a.migrations, b.migrations) << label;
  EXPECT_EQ(a.rejectedMoves, b.rejectedMoves) << label;
}

std::vector<std::int64_t> loadsOf(const OnlineAllocator& a) { return a.loads(); }
std::vector<std::int64_t> loadsOf(const CompactAllocator& a) { return a.loadsCopy(); }

/// Serves `trace` through the loop into a fresh `Allocator`, for `budget`
/// units or to the end of the trace.
template <typename Allocator>
Outcome runOn(workload::TraceGenerator& trace, std::int64_t epochEvents,
              std::uint64_t seed,
              std::int64_t budget = std::numeric_limits<std::int64_t>::max()) {
  AllocatorOptions options;
  options.bins = kBins;
  options.arrivalChoices = 2;
  Allocator allocator(options);
  LoopOptions loopOptions;
  loopOptions.epochEvents = epochEvents;
  loopOptions.unitBudget = budget;
  loopOptions.seed = seed;
  EpochLoop loop(allocator, loopOptions);
  Outcome out;
  const RunResult result = loop.run(trace, [&](const EpochStats& s) {
    out.gapTrajectory.push_back(s.gap());
  });
  EXPECT_EQ(result.events, allocator.counters().events);
  EXPECT_TRUE(allocator.validate());
  out.loads = loadsOf(allocator);
  out.counters = allocator.counters();
  out.liveBalls = allocator.liveBalls();
  out.totalLoad = allocator.totalLoad();
  out.residentBytes = allocator.residentBytes();
  return out;
}

Outcome runCompact(const std::string& spec, std::uint64_t seed) {
  workload::ComposedTrace trace(traceOptions(), spec, seed);
  const Outcome out = runOn<CompactAllocator>(trace, kEpochEvents, seed, kEvents);
  EXPECT_EQ(out.counters.events, kEvents);
  return out;
}

Outcome runDense(const std::string& spec, std::uint64_t seed) {
  workload::ComposedTrace trace(traceOptions(), spec, seed);
  const Outcome out = runOn<OnlineAllocator>(trace, kEpochEvents, seed, kEvents);
  EXPECT_EQ(out.counters.events, kEvents);
  return out;
}

/// Builds a scripted record list: ring() counts a clock ring (only while a
/// ball is live), and the next record pushed carries the rings counted
/// since the last one, as a generator's would.
struct ScriptBuilder {
  std::vector<workload::Event> events;
  std::int32_t rings = 0;
  double t = 0.0;
  void push(workload::EventKind kind, std::int64_t ball, std::int64_t weight) {
    events.push_back({t += 1.0, kind, rings, ball, weight});
    rings = 0;
  }
};

/// A fixed record list as a trace.
class ScriptedTrace final : public workload::TraceGenerator {
 public:
  explicit ScriptedTrace(std::vector<workload::Event> events) : events_(std::move(events)) {}
  bool next(workload::Event* out) override {
    if (next_ == events_.size()) return false;
    *out = events_[next_++];
    return true;
  }
  [[nodiscard]] std::string name() const override { return "scripted"; }

 private:
  std::vector<workload::Event> events_;
  std::size_t next_ = 0;
};

/// Unit-weight churn aimed at the compact apply's prefetch windows (record
/// hints 16 and 8 records ahead, ring hints 16, 8 and 4 draws ahead): balls
/// that arrive and depart within a few records, the newest live ball
/// departing, bursts of rings around them (so ring hints name slots that a
/// departure empties first), ids arriving out of order (an indexed ball
/// that is not live yet), and two drains to an empty system, each followed
/// by a restart whose departures are hinted while no ball is live.
std::vector<workload::Event> prefetchWindowScript() {
  rng::Xoshiro256pp eng(16);
  ScriptBuilder script;
  std::vector<std::int64_t> live;
  std::int64_t nextBall = 0;
  const auto arrive = [&](std::int64_t ball) {
    script.push(workload::EventKind::kArrive, ball, 1);
    live.push_back(ball);
  };
  const auto depart = [&](std::size_t i) {
    script.push(workload::EventKind::kDepart, live[i], 0);
    live[i] = live.back();
    live.pop_back();
  };
  const auto ring = [&](int k) {
    if (!live.empty()) script.rings += k;
  };
  const auto anyLive = [&] {
    return static_cast<std::size_t>(rng::uniformIndex(eng, live.size()));
  };
  for (int round = 0; round < 2; ++round) {
    // Restart from empty: the first departures are hinted while no ball
    // is live, and ball `b` is indexed (b + 1 arrived first) but not live.
    const std::int64_t b = nextBall;
    arrive(b + 1);
    depart(live.size() - 1);
    for (std::int64_t k = 2; k <= 5; ++k) {
      arrive(b + k);
      depart(live.size() - 1);
    }
    arrive(b + 6);
    arrive(b);
    depart(live.size() - 1);
    nextBall = b + 7;
    // Fill, a ring after every second arrival.
    for (int k = 0; k < 60; ++k) {
      arrive(nextBall++);
      arrive(nextBall++);
      ring(1);
    }
    // Short-lived balls, the pair arriving in swapped id order, with rings
    // before each departure.
    for (int k = 0; k < 20; ++k) {
      arrive(nextBall + 1);
      arrive(nextBall);
      nextBall += 2;
      ring(1);
      depart(live.size() - 1);
      ring(2);
      depart(live.size() - 1);
    }
    // Random churn, with runs of rings longer than the ring hints' reach.
    for (int k = 0; k < 300; ++k) {
      const std::uint64_t roll = rng::uniformIndex(eng, 10);
      if (live.empty() || roll < 4) {
        arrive(nextBall++);
      } else if (roll < 7) {
        depart(anyLive());
      } else {
        ring(1 + static_cast<int>(rng::uniformIndex(eng, 20)));
      }
    }
    // Drain to empty, ringing in between; the last live ball departs.
    while (!live.empty()) {
      if (rng::uniformIndex(eng, 2) == 0) ring(3);
      depart(anyLive());
    }
  }
  return script.events;
}

/// Units in a record list: each record plus its rings.
std::int64_t unitsOf(const std::vector<workload::Event>& events) {
  std::int64_t units = 0;
  for (const workload::Event& e : events) units += 1 + e.rings;
  return units;
}

// The equivalence contract: for every unit-weight trace shape and seed,
// the compact allocator equals the dense one through the same loop.
TEST(CompactAllocator, MatchesDenseAcrossTheDifferentialMatrix) {
  const std::vector<std::string> specs = {
      "poisson",
      "diurnal(0.8,64)",
      "bursty(8,0.05,0.5)",
      "diurnal(0.8,64)*bursty(8,0.05,0.5)+hotspot(16,8,1)",
  };
  const std::vector<std::uint64_t> seeds = {1, 20170529};
  for (const std::string& spec : specs) {
    for (const std::uint64_t seed : seeds) {
      const Outcome compact = runCompact(spec, seed);
      EXPECT_GT(compact.counters.events, 0);
      expectEqualOutcomes(compact, runDense(spec, seed),
                          spec + " seed=" + std::to_string(seed));
    }
  }
  // The scripted prefetch-window trace, at epochs shorter than the 8-record
  // hint (no record hints), of exactly 16 and 17 units (the window's
  // edges), and longer.
  const std::vector<workload::Event> script = prefetchWindowScript();
  for (const std::int64_t epochEvents : {5, 16, 17, 64}) {
    ScriptedTrace compactTrace(script);
    ScriptedTrace denseTrace(script);
    const Outcome compact = runOn<CompactAllocator>(compactTrace, epochEvents, 3);
    EXPECT_EQ(compact.counters.events, unitsOf(script));
    EXPECT_GT(compact.counters.resamples, 1000);
    EXPECT_EQ(compact.liveBalls, 0);
    expectEqualOutcomes(compact, runOn<OnlineAllocator>(denseTrace, epochEvents, 3),
                        "scripted epoch=" + std::to_string(epochEvents));
  }
}

TEST(CompactAllocator, RingStreamMatchesDense) {
  // Heavier ring pressure: the ring draw pair (live slot -> destination
  // bin) is where the two live-ball arrays must agree on order (append on
  // arrival, swap-remove on departure) exactly.
  workload::OpenTraceOptions hot = traceOptions();
  hot.resampleRate = 8.0;
  LoopOptions options;
  options.epochEvents = 64;
  options.unitBudget = 4 * kEvents;
  options.seed = 11;
  workload::ComposedTrace compactTrace(hot, "poisson", 11);
  CompactAllocator compact(AllocatorOptions{.bins = kBins});
  EpochLoop(compact, options).run(compactTrace);

  workload::ComposedTrace denseTrace(hot, "poisson", 11);
  OnlineAllocator dense(AllocatorOptions{.bins = kBins});
  EpochLoop(dense, options).run(denseTrace);

  EXPECT_EQ(compact.loadsCopy(), dense.loads());
  EXPECT_GT(compact.counters().resamples, 3 * kEvents);
  EXPECT_EQ(compact.counters().resamples, dense.counters().resamples);
  EXPECT_EQ(compact.counters().migrations, dense.counters().migrations);
  EXPECT_TRUE(compact.validate());
}

TEST(CompactAllocator, InvertedAcceptanceStaysEquivalent) {
  const std::uint64_t seed = 5;
  const AllocatorOptions inverted{.bins = kBins, .invertAcceptance = true};
  LoopOptions options;
  options.epochEvents = kEpochEvents;
  options.seed = seed;
  workload::ComposedTrace compactTrace(traceOptions(), "poisson", seed);
  CompactAllocator compact(inverted);
  EpochLoop(compact, options).run(compactTrace);

  workload::ComposedTrace denseTrace(traceOptions(), "poisson", seed);
  OnlineAllocator dense(inverted);
  EpochLoop(dense, options).run(denseTrace);

  EXPECT_EQ(compact.loadsCopy(), dense.loads());
  EXPECT_EQ(compact.counters().migrations, dense.counters().migrations);
}

TEST(CompactAllocator, ResidentBytesBeatDenseAndEstimateTracksActual) {
  // Per ball the compact layout stores a 4 B live slot plus 8 B of implicit
  // index per ball *ever* arrived; the dense one an 8 B live slot plus a
  // 24-byte map entry at <= 3/4 load. So the compact layout is the leaner
  // one while arrivals stay within a few multiples of the live population,
  // as in a capacity sweep's fill (here: no departures). Under long churn
  // its index outgrows the dense map until ids are recycled at ingest.
  workload::OpenTraceOptions fill = traceOptions();
  fill.departureRate = 0.0;
  LoopOptions options;
  options.epochEvents = kEpochEvents;
  options.seed = 2;
  workload::ComposedTrace compactTrace(fill, "poisson", 2);
  CompactAllocator filled(AllocatorOptions{.bins = kBins});
  EpochLoop(filled, options).run(compactTrace);
  workload::ComposedTrace denseTrace(fill, "poisson", 2);
  OnlineAllocator dense(AllocatorOptions{.bins = kBins});
  EpochLoop(dense, options).run(denseTrace);
  ASSERT_EQ(filled.liveBalls(), filled.counters().arrivals);
  EXPECT_EQ(filled.loadsCopy(), dense.loads());
  EXPECT_LT(filled.residentBytes(), dense.residentBytes());
  EXPECT_GT(filled.residentBytes(), 0);

  const Outcome compact = runCompact("poisson", 2);
  // The budget-gate estimator should land within ~2x of a real run (it
  // sizes the gate, not the ledger).
  const std::int64_t ballsEver = compact.counters.arrivals;
  const std::int64_t estimate =
      CompactAllocator::estimateBytes(kBins, ballsEver, compact.liveBalls);
  EXPECT_GT(estimate, compact.residentBytes / 3);
  EXPECT_LT(estimate, compact.residentBytes * 3);
  // Monotone in every argument.
  EXPECT_LE(estimate, CompactAllocator::estimateBytes(kBins * 2, ballsEver, compact.liveBalls));
  EXPECT_LE(estimate, CompactAllocator::estimateBytes(kBins, ballsEver * 2, compact.liveBalls));
  EXPECT_LE(estimate,
            CompactAllocator::estimateBytes(kBins, ballsEver, compact.liveBalls * 2));
}

TEST(CompactAllocator, ValidateCatchesFreshAndRunStates) {
  CompactAllocator allocator(AllocatorOptions{.bins = 8});
  EXPECT_TRUE(allocator.validate());
  EXPECT_EQ(allocator.numBins(), 8);
  EXPECT_EQ(allocator.totalLoad(), 0);
  EXPECT_EQ(allocator.liveBalls(), 0);
  EXPECT_EQ(allocator.gap(), 0);

  // Drive a tiny hand-built batch: arrivals, then two rings and a
  // departure, then a ring no record of the batch carries.
  std::vector<workload::Event> events;
  std::vector<Decision> decisions(7);
  std::vector<std::int32_t> candidates;
  std::vector<RingDraw> rings(3);
  for (std::int64_t ball = 0; ball < 6; ++ball) {
    events.push_back({static_cast<double>(ball), workload::EventKind::kArrive, 0, ball, 1});
  }
  events.push_back({7.0, workload::EventKind::kDepart, 2, 0, 0});
  rng::Xoshiro256pp eng(3);
  allocator.decideBatch(events.data(), events.size(), 3, eng, &candidates, rings.data(),
                        decisions.data());
  for (const RingDraw& r : rings) {
    EXPECT_GE(r.slot, 0);
    EXPECT_LT(r.slot, 6);  // drawn over the six balls live before the depart
  }
  EXPECT_LT(rings[2].slot, 5);  // the last ring: five live after it
  allocator.applyBatch(events.data(), decisions.data(), events.size(), rings.data(), 3);
  EXPECT_TRUE(allocator.validate());
  EXPECT_EQ(allocator.totalLoad(), 5);
  EXPECT_EQ(allocator.liveBalls(), 5);
  EXPECT_EQ(allocator.counters().arrivals, 6);
  EXPECT_EQ(allocator.counters().departures, 1);
  EXPECT_EQ(allocator.counters().resamples, 3);
  EXPECT_EQ(allocator.counters().events, 10);
  EXPECT_EQ(allocator.maxWeightSeen(), 1);
}

// ------------------------------------------------ incremental balance

/// The balance view recomputed from scratch: the three O(n) passes the
/// tracker replaced.
sim::BalanceState scanState(const std::vector<std::int32_t>& loads) {
  sim::BalanceState state;
  state.numBins = static_cast<std::int64_t>(loads.size());
  for (const std::int32_t v : loads) state.numBalls += v;
  state.minLoad = *std::min_element(loads.begin(), loads.end());
  state.maxLoad = *std::max_element(loads.begin(), loads.end());
  const std::int64_t ceilAvg = (state.numBalls + state.numBins - 1) / state.numBins;
  for (const std::int32_t v : loads) {
    if (v > ceilAvg) state.overloadedBalls += v - ceilAvg;
  }
  return state;
}

void expectSameState(const sim::BalanceState& got, const sim::BalanceState& want,
                     const std::string& label) {
  EXPECT_EQ(got.numBins, want.numBins) << label;
  EXPECT_EQ(got.numBalls, want.numBalls) << label;
  EXPECT_EQ(got.minLoad, want.minLoad) << label;
  EXPECT_EQ(got.maxLoad, want.maxLoad) << label;
  EXPECT_EQ(got.overloadedBalls, want.overloadedBalls) << label;
}

/// Runs the loop and, after every epoch, checks the tracked balance view
/// (the EpochStats copy and the allocator's accessors) against a scan of
/// loads32(), plus validate()'s tracker cross-check. Returns the epochs run.
std::int64_t checkEveryEpoch(CompactAllocator& allocator, workload::TraceGenerator& trace,
                             const LoopOptions& options, const std::string& label) {
  EpochLoop loop(allocator, options);
  std::int64_t epochs = 0;
  loop.run(trace, [&](const EpochStats& s) {
    const std::string where = label + " epoch=" + std::to_string(s.epoch);
    const sim::BalanceState scan = scanState(allocator.loads32());
    expectSameState(s.balance, scan, where);
    expectSameState(allocator.balanceState(), scan, where);
    EXPECT_EQ(allocator.minLoad(), scan.minLoad) << where;
    EXPECT_EQ(allocator.maxLoad(), scan.maxLoad) << where;
    EXPECT_EQ(allocator.gap(), scan.maxLoad - scan.minLoad) << where;
    EXPECT_TRUE(allocator.validate()) << where;
    ++epochs;
  });
  return epochs;
}

/// Fill `balls` balls, then depart every one in random order, with a clock
/// ring after each arrival and departure while a ball is live: the ball
/// count crosses every multiple of the bin count both ways and ends at
/// zero.
std::vector<workload::Event> fillThenDrain(std::int64_t balls, std::uint64_t seed) {
  rng::Xoshiro256pp eng(seed);
  ScriptBuilder script;
  std::vector<std::int64_t> live;
  for (std::int64_t ball = 0; ball < balls; ++ball) {
    script.push(workload::EventKind::kArrive, ball, 1);
    live.push_back(ball);
    ++script.rings;
  }
  while (!live.empty()) {
    const auto i = static_cast<std::size_t>(rng::uniformIndex(eng, live.size()));
    script.push(workload::EventKind::kDepart, live[i], 0);
    live[i] = live.back();
    live.pop_back();
    if (!live.empty()) ++script.rings;
  }
  return script.events;
}

TEST(CompactBalance, TrackedStateMatchesAScanAfterEveryEpoch) {
  // Arrivals, departures and heavy ring pressure.
  workload::OpenTraceOptions hot = traceOptions();
  hot.resampleRate = 4.0;
  for (const std::string spec : {"poisson", "diurnal(0.8,64)*bursty(8,0.05,0.5)"}) {
    workload::ComposedTrace trace(hot, spec, 7);
    CompactAllocator allocator(AllocatorOptions{.bins = kBins});
    LoopOptions options;
    options.epochEvents = 64;
    options.unitBudget = 2 * kEvents;
    options.seed = 7;
    EXPECT_GT(checkEveryEpoch(allocator, trace, options, spec), 0);
    EXPECT_GT(allocator.counters().migrations, 0);
  }
}

TEST(CompactBalance, TrackedStateSurvivesInvertedAcceptance) {
  // The broken dynamic piles balls up: long min/max walks, a wide spread.
  workload::ComposedTrace trace(traceOptions(), "poisson", 9);
  CompactAllocator allocator(
      AllocatorOptions{.bins = kBins, .arrivalChoices = 2, .invertAcceptance = true});
  LoopOptions options;
  options.epochEvents = kEpochEvents;
  options.seed = 9;
  EXPECT_GT(checkEveryEpoch(allocator, trace, options, "inverted"), 0);
  EXPECT_GT(allocator.gap(), 2);
}

TEST(CompactBalance, TrackedStateFollowsATraceThatDrainsToEmpty) {
  ScriptedTrace trace(fillThenDrain(300, 4));
  CompactAllocator allocator(AllocatorOptions{.bins = 16});
  LoopOptions options;
  options.epochEvents = 16;
  options.seed = 4;
  EXPECT_GT(checkEveryEpoch(allocator, trace, options, "drain"), 0);
  EXPECT_EQ(allocator.totalLoad(), 0);
  const sim::BalanceState state = allocator.balanceState();
  EXPECT_EQ(state.numBalls, 0);
  EXPECT_EQ(state.minLoad, 0);
  EXPECT_EQ(state.maxLoad, 0);
  EXPECT_EQ(state.overloadedBalls, 0);
}

// The dense allocator answers the same view with one fused pass; it must
// equal the separate min, max and overload passes it replaced.
TEST(DenseBalance, FusedPassMatchesTheThreePassDefinition) {
  OnlineAllocator allocator(AllocatorOptions{.bins = 13, .arrivalChoices = 2});
  rng::Xoshiro256pp eng(17);
  rng::Xoshiro256pp decisionEng(18);
  std::vector<std::int64_t> live;
  std::vector<std::int32_t> candidates;
  std::vector<RingDraw> rings(8);
  std::int64_t nextBall = 0;
  for (int step = 0; step < 4000; ++step) {
    workload::Event e;
    // Up to 7 rings before each record while a ball is live.
    if (!live.empty()) e.rings = static_cast<std::int32_t>(rng::uniformIndex(eng, 8));
    const std::uint64_t roll = rng::uniformIndex(eng, 10);
    if (live.empty() || roll < 5) {
      e.kind = workload::EventKind::kArrive;
      e.ball = nextBall++;
      e.weight = 1 + static_cast<std::int64_t>(rng::uniformIndex(eng, 4));
      live.push_back(e.ball);
    } else {
      const auto i = static_cast<std::size_t>(rng::uniformIndex(eng, live.size()));
      e.ball = live[i];
      e.kind = workload::EventKind::kDepart;
      live[i] = live.back();
      live.pop_back();
    }
    Decision decision;
    allocator.decideBatch(&e, 1, e.rings, decisionEng, &candidates, rings.data(), &decision);
    allocator.applyBatch(&e, &decision, 1, rings.data(), e.rings);
    if (step % 37 != 0) continue;

    const std::vector<std::int64_t>& loads = allocator.loads();
    std::int64_t lo = loads[0];
    for (const std::int64_t v : loads) lo = std::min(lo, v);
    std::int64_t hi = loads[0];
    for (const std::int64_t v : loads) hi = std::max(hi, v);
    std::int64_t total = 0;
    for (const std::int64_t v : loads) total += v;
    const auto bins = static_cast<std::int64_t>(loads.size());
    const std::int64_t ceilAvg = (total + bins - 1) / bins;
    std::int64_t overloaded = 0;
    for (const std::int64_t v : loads) {
      if (v > ceilAvg) overloaded += v - ceilAvg;
    }
    const sim::BalanceState state = allocator.balanceState();
    EXPECT_EQ(state.numBins, bins);
    EXPECT_EQ(state.numBalls, total);
    EXPECT_EQ(state.minLoad, lo);
    EXPECT_EQ(state.maxLoad, hi);
    EXPECT_EQ(state.overloadedBalls, overloaded);
    EXPECT_EQ(allocator.minLoad(), lo);
    EXPECT_EQ(allocator.maxLoad(), hi);
    EXPECT_EQ(allocator.gap(), hi - lo);
  }
  EXPECT_TRUE(allocator.validate());
}

}  // namespace
}  // namespace rlslb::serve
