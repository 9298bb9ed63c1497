// The serving allocator's own invariants, beyond the oracle differential
// (tests/test_serve_differential.cpp): its internal consistency on fresh,
// hand-built and weighted states, the live-weight ceiling, memory bounded
// by the peak live count, the budget-gate estimator, and its incremental
// balance accounting against a brute-force scan after every epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "rng/distributions.hpp"
#include "serve/compact_allocator.hpp"
#include "serve/event_loop.hpp"
#include "serve_scripts.hpp"
#include "workload/compose.hpp"
#include "workload/generators.hpp"

namespace rlslb::serve {
namespace {

using scripts::ScriptBuilder;
using scripts::ScriptedTrace;

constexpr std::int64_t kBins = 48;
constexpr std::int64_t kEvents = 6000;
constexpr std::int64_t kEpochEvents = 256;

workload::OpenTraceOptions traceOptions() {
  workload::OpenTraceOptions o;
  o.bins = kBins;
  o.arrivalRatePerBin = 1.0;
  o.departureRate = 0.25;
  o.resampleRate = 1.0;
  o.ballWeight = 1;
  o.maxEvents = kEvents;
  return o;
}

/// The peak live count of a record stream.
std::int64_t peakLiveOf(workload::TraceGenerator& trace) {
  std::int64_t live = 0;
  std::int64_t peak = 0;
  workload::Event e;
  while (trace.next(&e)) {
    live += e.kind == workload::EventKind::kArrive ? 1 : -1;
    peak = std::max(peak, live);
  }
  return peak;
}

// The state is per live slot, so it is bounded by the peak live count, not
// by the arrivals ever: a long churning run stays within twice the
// estimate (the factor covers vector capacity slack).
TEST(CompactAllocator, MemoryIsBoundedByThePeakLiveCount) {
  workload::OpenTraceOptions churn = traceOptions();
  churn.maxEvents = 20000;
  workload::PoissonTrace peakTrace(churn, 4);
  const std::int64_t peakLive = peakLiveOf(peakTrace);

  workload::PoissonTrace trace(churn, 4);
  CompactAllocator allocator(AllocatorOptions{.bins = kBins});
  EpochLoop(allocator, LoopOptions{.epochEvents = kEpochEvents, .seed = 4}).run(trace);
  EXPECT_GE(allocator.counters().arrivals, 10 * peakLive);
  EXPECT_LE(allocator.residentBytes(), 2 * CompactAllocator::estimateBytes(kBins, peakLive));
  EXPECT_TRUE(allocator.validate());
}

TEST(CompactAllocator, EstimateTracksResidentBytes) {
  // The budget-gate estimator should land within ~2x of a real run (it
  // sizes the gate, not the ledger), at unit weights and with weighted
  // hotspot bursts, which it prices with the weight array.
  for (const bool weighted : {false, true}) {
    workload::ComposedTrace trace(traceOptions(),
                                  weighted ? "hotspot(2,4,3)" : "poisson", 2);
    CompactAllocator allocator(AllocatorOptions{.bins = kBins});
    EpochLoop(allocator, LoopOptions{.epochEvents = kEpochEvents, .unitBudget = kEvents,
                                     .seed = 2})
        .run(trace);
    EXPECT_EQ(allocator.maxWeightSeen() > 1, weighted);
    const std::int64_t live = allocator.liveBalls();
    const std::int64_t estimate = CompactAllocator::estimateBytes(kBins, live, weighted);
    EXPECT_GT(estimate, allocator.residentBytes() / 3) << weighted;
    EXPECT_LT(estimate, allocator.residentBytes() * 3) << weighted;
    // Monotone in every argument.
    EXPECT_LE(estimate, CompactAllocator::estimateBytes(kBins * 2, live, weighted));
    EXPECT_LE(estimate, CompactAllocator::estimateBytes(kBins, live * 2, weighted));
    EXPECT_LE(estimate, CompactAllocator::estimateBytes(kBins, live, true));
  }
  // 4 B per bin and per live ball, and 2 B more per ball when weighted.
  EXPECT_EQ(CompactAllocator::estimateBytes(1000, 300), 4 * 1000 + 4 * 300);
  EXPECT_EQ(CompactAllocator::estimateBytes(1000, 300, true), 4 * 1000 + 6 * 300);
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
  for (std::int64_t slot = 0; slot < 6; ++slot) {
    events.push_back({static_cast<double>(slot), workload::EventKind::kArrive, 0, slot, 1});
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

workload::Event arrival(std::int64_t slot, std::int64_t weight) {
  return {0.0, workload::EventKind::kArrive, 0, slot, weight};
}

// Unit-weight traffic never allocates the weight array; the first heavier
// ball does, and from then on every structure counts weight.
TEST(CompactAllocator, WeightsAreStoredFromTheFirstNonUnitArrival) {
  CompactAllocator allocator(AllocatorOptions{.bins = 4, .arrivalChoices = 1});
  for (std::int64_t slot = 0; slot < 5; ++slot) {
    allocator.apply(arrival(slot, 1), Decision{static_cast<std::int32_t>(slot % 4)});
  }
  allocator.apply({1.0, workload::EventKind::kDepart, 0, 4, 0}, Decision{});
  const std::int64_t unitBytes = allocator.residentBytes();
  allocator.apply(arrival(4, 7), Decision{0});
  EXPECT_GT(allocator.residentBytes(), unitBytes);  // the weight array, and only it
  EXPECT_EQ(allocator.loads(), (std::vector<std::int32_t>{8, 1, 1, 1}));
  EXPECT_EQ(allocator.totalLoad(), 11);
  EXPECT_EQ(allocator.maxWeightSeen(), 7);
  EXPECT_EQ(allocator.gap(), 7);
  EXPECT_EQ(allocator.balanceState().numBalls, 11);
  EXPECT_TRUE(allocator.validate());
  allocator.apply({2.0, workload::EventKind::kDepart, 0, 4, 0}, Decision{});
  EXPECT_EQ(allocator.loads(), (std::vector<std::int32_t>{1, 1, 1, 1}));
  EXPECT_EQ(allocator.totalLoad(), 4);
  EXPECT_EQ(allocator.maxWeightSeen(), 7);  // ever seen
  EXPECT_TRUE(allocator.validate());

  // The very first arrival weighted: no live ball to back-fill, and its
  // own weight is stored, so its departure removes all of it.
  CompactAllocator heavyFirst(AllocatorOptions{.bins = 4, .arrivalChoices = 1});
  heavyFirst.apply(arrival(0, 5), Decision{0});
  heavyFirst.apply(arrival(1, 1), Decision{1});
  EXPECT_EQ(heavyFirst.loads(), (std::vector<std::int32_t>{5, 1, 0, 0}));
  EXPECT_TRUE(heavyFirst.validate());
  heavyFirst.apply({1.0, workload::EventKind::kDepart, 0, 0, 0}, Decision{});
  EXPECT_EQ(heavyFirst.loads(), (std::vector<std::int32_t>{0, 1, 0, 0}));
  EXPECT_EQ(heavyFirst.totalLoad(), 1);
  EXPECT_EQ(heavyFirst.maxWeightSeen(), 5);
  EXPECT_TRUE(heavyFirst.validate());
}

// The live weight stops at 2^31 - 1: 32768 balls of the largest weight fit,
// the next one is a usage error that changes nothing. (Many bins keep the
// tracker's O(spread) re-sums rare: ceil(m/n) moves every 16 arrivals.)
TEST(CompactAllocator, LiveWeightPastInt32MaxIsAUsageError) {
  constexpr std::int64_t kWideBins = std::int64_t{1} << 20;
  CompactAllocator allocator(AllocatorOptions{.bins = kWideBins, .arrivalChoices = 1});
  for (std::int64_t slot = 0; slot < 32768; ++slot) {
    allocator.apply(arrival(slot, workload::kMaxBallWeight),
                    Decision{static_cast<std::int32_t>(slot)});
  }
  EXPECT_EQ(allocator.totalLoad(), 32768 * workload::kMaxBallWeight);
  EXPECT_THROW(allocator.apply(arrival(32768, workload::kMaxBallWeight), Decision{0}),
               std::invalid_argument);
  EXPECT_EQ(allocator.liveBalls(), 32768);
  EXPECT_EQ(allocator.counters().arrivals, 32768);
  EXPECT_TRUE(allocator.validate());
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
/// loads(), plus validate()'s tracker cross-check. Returns the epochs run.
std::int64_t checkEachEpoch(CompactAllocator& allocator, workload::TraceGenerator& trace,
                             const LoopOptions& options, const std::string& label) {
  EpochLoop loop(allocator, options);
  std::int64_t epochs = 0;
  loop.run(trace, [&](const EpochStats& s) {
    const std::string where = label + " epoch=" + std::to_string(s.epoch);
    const sim::BalanceState scan = scanState(allocator.loads());
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
  for (std::int64_t slot = 0; slot < balls; ++slot) {
    script.push(workload::EventKind::kArrive, slot, 1);
    ++script.rings;
  }
  for (std::int64_t live = balls; live > 0; --live) {
    const auto slot =
        static_cast<std::int64_t>(rng::uniformIndex(eng, static_cast<std::uint64_t>(live)));
    script.push(workload::EventKind::kDepart, slot, 0);
    if (live > 1) ++script.rings;
  }
  return script.events;
}

TEST(CompactBalance, TrackedStateMatchesAScanAfterEveryEpoch) {
  // Arrivals, departures and heavy ring pressure, at unit weights and with
  // weight-3 background balls under weight-5 bursts.
  workload::OpenTraceOptions hot = traceOptions();
  hot.resampleRate = 4.0;
  workload::OpenTraceOptions heavy = hot;
  heavy.ballWeight = 3;
  const struct {
    const workload::OpenTraceOptions* options;
    const char* spec;
  } runs[] = {{&hot, "poisson"},
              {&hot, "diurnal(0.8,64)*bursty(8,0.05,0.5)"},
              {&heavy, "diurnal(0.8,64)+hotspot(16,8,5)"}};
  for (const auto& run : runs) {
    workload::ComposedTrace trace(*run.options, run.spec, 7);
    CompactAllocator allocator(AllocatorOptions{.bins = kBins});
    LoopOptions options;
    options.epochEvents = 64;
    options.unitBudget = 2 * kEvents;
    options.seed = 7;
    EXPECT_GT(checkEachEpoch(allocator, trace, options, run.spec), 0);
    EXPECT_GT(allocator.counters().migrations, 0);
  }
  // The weighted prefetch-window script: weights 2..5 arrive mid-window.
  ScriptedTrace script(scripts::prefetchWindowScript(/*weighted=*/true));
  CompactAllocator allocator(AllocatorOptions{.bins = 16});
  EXPECT_GT(checkEachEpoch(allocator, script, LoopOptions{.epochEvents = 17, .seed = 3},
                            "weighted script"),
            0);
  EXPECT_EQ(allocator.maxWeightSeen(), 5);
  EXPECT_GT(allocator.counters().migrations, 0);
}

TEST(CompactBalance, TrackedStateSurvivesInvertedAcceptance) {
  // The broken dynamic piles balls up: long min/max walks, a wide spread.
  workload::ComposedTrace trace(traceOptions(), "poisson", 9);
  CompactAllocator allocator(
      AllocatorOptions{.bins = kBins, .arrivalChoices = 2, .invertAcceptance = true});
  LoopOptions options;
  options.epochEvents = kEpochEvents;
  options.seed = 9;
  EXPECT_GT(checkEachEpoch(allocator, trace, options, "inverted"), 0);
  EXPECT_GT(allocator.gap(), 2);
}

TEST(CompactBalance, TrackedStateFollowsATraceThatDrainsToEmpty) {
  ScriptedTrace trace(fillThenDrain(300, 4));
  CompactAllocator allocator(AllocatorOptions{.bins = 16});
  LoopOptions options;
  options.epochEvents = 16;
  options.seed = 4;
  EXPECT_GT(checkEachEpoch(allocator, trace, options, "drain"), 0);
  EXPECT_EQ(allocator.totalLoad(), 0);
  const sim::BalanceState state = allocator.balanceState();
  EXPECT_EQ(state.numBalls, 0);
  EXPECT_EQ(state.minLoad, 0);
  EXPECT_EQ(state.maxLoad, 0);
  EXPECT_EQ(state.overloadedBalls, 0);
}

}  // namespace
}  // namespace rlslb::serve
