// Tests for src/dynamic: the lumped open-system sampler of [11]'s setting,
// pinned in law to the frozen per-bin engine (tests/open_reference.hpp) and,
// through that engine, the serving loop at one unit per epoch.
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <numeric>

#include "config/generators.hpp"
#include "config/metrics.hpp"
#include "dynamic/open_system.hpp"
#include "open_reference.hpp"
#include "process/process.hpp"
#include "rng/splitmix64.hpp"
#include "serve/compact_allocator.hpp"
#include "serve/event_loop.hpp"
#include "stats/running_stat.hpp"
#include "stats/tests.hpp"
#include "workload/generators.hpp"

namespace rlslb::dynamic {
namespace {

/// The bin loads, lowest first, rebuilt from the level counts over
/// [0, maxLoad] (so a count outside [minLoad, maxLoad] shows too).
std::vector<std::int64_t> sortedLoads(const OpenSystem& sys) {
  std::vector<std::int64_t> loads;
  for (std::int64_t v = 0; v <= sys.maxLoad(); ++v) {
    loads.insert(loads.end(), static_cast<std::size_t>(sys.levelCount(v)), v);
  }
  return loads;
}

TEST(OpenSystem, StartsEmptyByDefault) {
  OpenSystem sys(16, {}, 1);
  EXPECT_EQ(sys.numBalls(), 0);
  EXPECT_EQ(sys.numBins(), 16);
  EXPECT_EQ(sys.levelCount(0), 16);
  EXPECT_DOUBLE_EQ(sys.time(), 0.0);
}

TEST(OpenSystem, AcceptsInitialConfiguration) {
  const auto init = config::balanced(8, 64);
  OpenSystem sys(8, {}, 2, &init);
  EXPECT_EQ(sys.numBalls(), 64);
  EXPECT_EQ(sys.levelCount(8), 8);
}

TEST(OpenSystem, BallCountFollowsArrivalsMinusDepartures) {
  OpenSystemOptions opts;
  opts.arrivalRatePerBin = 1.0;
  opts.departureRate = 0.5;
  OpenSystem sys(8, opts, 3);
  sys.runUntilTime(50.0);
  const auto& c = sys.counters();
  EXPECT_EQ(sys.numBalls(), c.arrivals - c.departures);
  const auto loads = sortedLoads(sys);
  EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), std::int64_t{0}), sys.numBalls());
}

TEST(OpenSystem, EmptyNoArrivalsIsAbsorbing) {
  OpenSystemOptions opts;
  opts.arrivalRatePerBin = 0.0;
  OpenSystem sys(4, opts, 4);
  EXPECT_FALSE(sys.advance());
}

TEST(OpenSystem, PureDeathDrainsToEmpty) {
  OpenSystemOptions opts;
  opts.arrivalRatePerBin = 0.0;
  opts.departureRate = 1.0;
  const auto init = config::balanced(4, 40);
  OpenSystem sys(4, opts, 5, &init);
  sys.runUntilTime(200.0);
  EXPECT_EQ(sys.numBalls(), 0);
  EXPECT_EQ(sys.counters().departures, 40);
}

TEST(OpenSystem, StationaryMeanMatchesMMInfinity) {
  // Without migrations affecting counts, the total ball count is M/M/inf
  // with mean lambda*n/mu. Time-average after warmup should match.
  OpenSystemOptions opts;
  opts.arrivalRatePerBin = 2.0;
  opts.departureRate = 1.0;
  OpenSystem sys(16, opts, 6);
  sys.runUntilTime(50.0);  // warmup
  stats::RunningStat rs;
  for (int i = 0; i < 4000; ++i) {
    sys.runUntilTime(sys.time() + 0.25);
    rs.add(static_cast<double>(sys.numBalls()));
  }
  EXPECT_NEAR(rs.mean(), 32.0, 2.0);  // lambda*n/mu = 2*16/1
}

TEST(OpenSystem, MigrationKeepsSpreadSmall) {
  // With RLS migrations on, the stationary spread is far below the
  // arrivals-only spread at the same offered load.
  OpenSystemOptions withRls;
  withRls.arrivalRatePerBin = 4.0;
  withRls.departureRate = 0.05;  // mean load ~ 80 per bin
  OpenSystem sys(16, withRls, 7);
  sys.runUntilTime(150.0);  // warm up to stationarity-ish

  stats::RunningStat spread;
  for (int i = 0; i < 200; ++i) {
    sys.runUntilTime(sys.time() + 0.5);
    spread.add(static_cast<double>(sys.spread()));
  }
  // Poisson-only fluctuation at mean 80 would be ~ 4*sqrt(80) ~ 36 spread;
  // the migration clock is 20x the departure rate here, so RLS holds the
  // spread to a small band.
  EXPECT_LT(spread.mean(), 12.0);
  EXPECT_GT(sys.counters().migrations, 0);
}

TEST(OpenSystem, TwoChoiceArrivalsTightenSpread) {
  OpenSystemOptions oneChoice;
  oneChoice.arrivalRatePerBin = 4.0;
  oneChoice.departureRate = 1.0;
  oneChoice.arrivalChoices = 1;
  OpenSystemOptions twoChoice = oneChoice;
  twoChoice.arrivalChoices = 2;

  stats::RunningStat s1;
  stats::RunningStat s2;
  for (int rep = 0; rep < 8; ++rep) {
    OpenSystem a(32, oneChoice, rng::streamSeed(8, rep));
    a.runUntilTime(60.0);
    s1.add(static_cast<double>(a.spread()));
    OpenSystem b(32, twoChoice, rng::streamSeed(9, rep));
    b.runUntilTime(60.0);
    s2.add(static_cast<double>(b.spread()));
  }
  EXPECT_LE(s2.mean(), s1.mean() + 0.5);
}

TEST(OpenSystem, DeterministicForSeed) {
  OpenSystemOptions opts;
  opts.arrivalRatePerBin = 1.0;
  OpenSystem a(8, opts, 10);
  OpenSystem b(8, opts, 10);
  a.runUntilTime(20.0);
  b.runUntilTime(20.0);
  EXPECT_EQ(sortedLoads(a), sortedLoads(b));
  EXPECT_DOUBLE_EQ(a.time(), b.time());
  EXPECT_EQ(a.counters().migrations, b.counters().migrations);
}

// Every event the sampler makes changes the multiset: an arrival, a
// departure or a move of at least two levels. Neutral moves (gap 1 only)
// add to the migration counter without being events.
TEST(OpenSystem, CountersConsistent) {
  for (const int gap : {1, 2}) {
    OpenSystemOptions opts;
    opts.arrivalRatePerBin = 1.0;
    opts.departureRate = 0.8;
    opts.gap = gap;
    OpenSystem sys(8, opts, 11);
    const std::int64_t events = sys.runUntilTime(30.0);
    const auto& c = sys.counters();
    const std::int64_t changing = events - c.arrivals - c.departures;
    EXPECT_GT(changing, 0) << "gap=" << gap;
    if (gap == 1) {
      EXPECT_GT(c.migrations, changing);
    } else {
      EXPECT_EQ(c.migrations, changing);
    }
  }
}

TEST(OpenSystem, GapTwoStillBalances) {
  OpenSystemOptions opts;
  opts.arrivalRatePerBin = 2.0;
  opts.departureRate = 0.1;
  opts.gap = 2;
  OpenSystem sys(8, opts, 12);
  sys.runUntilTime(100.0);
  EXPECT_GT(sys.counters().migrations, 0);
  EXPECT_LT(sys.spread(), 30);
}

TEST(OpenSystem, RunUntilTimeStopsAtTheTime) {
  OpenSystemOptions opts;
  opts.arrivalRatePerBin = 3.0;
  OpenSystem sys(8, opts, 13);
  EXPECT_GT(sys.runUntilTime(7.25), 0);
  EXPECT_EQ(sys.time(), 7.25);
  const std::int64_t balls = sys.numBalls();
  EXPECT_EQ(sys.runUntilTime(5.0), 0);  // already past: a no-op
  EXPECT_EQ(sys.time(), 7.25);
  EXPECT_EQ(sys.numBalls(), balls);

  // An absorbed system still reaches the time.
  OpenSystemOptions none;
  none.arrivalRatePerBin = 0.0;
  OpenSystem empty(4, none, 14);
  EXPECT_EQ(empty.runUntilTime(3.0), 0);
  EXPECT_EQ(empty.time(), 3.0);
}

// process::run stops at its maxTime as runUntilTime does, an absorbed
// system too; advance() keeps its contract there: no event, the clock
// unchanged.
TEST(OpenSystem, RunStopsAtTheHorizon) {
  OpenSystemOptions opts;
  opts.arrivalRatePerBin = 3.0;
  OpenSystem sys(8, opts, 13);
  const auto r = process::run(sys, process::Target::none(), {.maxTime = 7.25});
  EXPECT_GT(r.events, 0);
  EXPECT_EQ(r.time, 7.25);
  EXPECT_EQ(sys.time(), 7.25);

  OpenSystemOptions none;
  none.arrivalRatePerBin = 0.0;
  OpenSystem empty(4, none, 14);
  const auto e = process::run(empty, process::Target::none(), {.maxTime = 3.0});
  EXPECT_EQ(e.events, 0);
  EXPECT_EQ(e.time, 3.0);
  EXPECT_FALSE(empty.advance());
  EXPECT_EQ(empty.time(), 3.0);
}

// Reading the counters draws the neutral moves from their own stream, so
// a system read after every event makes the same chain as one never read.
TEST(OpenSystem, ReadingCountersLeavesTheChainAlone) {
  OpenSystemOptions opts;
  opts.arrivalRatePerBin = 2.0;
  opts.departureRate = 0.25;
  OpenSystem read(8, opts, 15);
  OpenSystem unread(8, opts, 15);
  std::int64_t lastMigrations = 0;
  for (int e = 0; e < 5000; ++e) {
    ASSERT_TRUE(read.advance());
    ASSERT_TRUE(unread.advance());
    ASSERT_GE(read.counters().migrations, lastMigrations);
    lastMigrations = read.counters().migrations;
  }
  EXPECT_EQ(sortedLoads(read), sortedLoads(unread));
  EXPECT_EQ(read.time(), unread.time());
  EXPECT_EQ(read.counters().arrivals, unread.counters().arrivals);
  EXPECT_EQ(read.counters().departures, unread.counters().departures);
  EXPECT_GT(unread.counters().migrations, 0);
}

// The level counts are the whole state: after every event they cover n
// bins and B balls, and min, max and the overloaded balls match a recount.
TEST(OpenSystem, InvariantsHoldAfterEveryEvent) {
  struct Case {
    int d;
    int gap;
    double lambda, mu;
  };
  for (const Case c : {Case{1, 1, 4.0, 0.5}, Case{2, 1, 4.0, 0.5}, Case{1, 2, 2.0, 0.25},
                       Case{3, 3, 4.0, 1.0}, Case{1, 1 << 30, 4.0, 0.5}}) {
    OpenSystemOptions opts;
    opts.arrivalRatePerBin = c.lambda;
    opts.departureRate = c.mu;
    opts.arrivalChoices = c.d;
    opts.gap = c.gap;
    const auto init = config::staircase(10, 90);
    OpenSystem sys(10, opts, 16, &init);
    for (int e = 0; e < 3000; ++e) {
      ASSERT_TRUE(sys.advance());
      const auto loads = sortedLoads(sys);
      ASSERT_EQ(static_cast<std::int64_t>(loads.size()), sys.numBins()) << "event " << e;
      ASSERT_EQ(std::accumulate(loads.begin(), loads.end(), std::int64_t{0}), sys.numBalls());
      const config::Metrics m = config::computeMetrics(loads);
      ASSERT_EQ(sys.minLoad(), m.minLoad);
      ASSERT_EQ(sys.maxLoad(), m.maxLoad);
      ASSERT_EQ(sys.state().overloadedBalls, m.overloadedBalls);
      ASSERT_EQ(sys.numBalls(), sys.counters().arrivals - sys.counters().departures + 90);
    }
  }
}

// d is one inversion of the least-of-d tail, not d bin draws: at
// d = 2^31 - 1 every arrival joins a least loaded bin, so without
// departures or migration the spread never exceeds 1.
TEST(OpenSystem, HugeChoiceCountIsOneInversion) {
  OpenSystemOptions opts;
  opts.arrivalRatePerBin = 4.0;
  opts.departureRate = 0.0;
  opts.arrivalChoices = INT_MAX;
  opts.gap = 1 << 30;
  OpenSystem sys(16, opts, 17);
  for (int e = 0; e < 20000; ++e) {
    ASSERT_TRUE(sys.advance());
    ASSERT_LE(sys.spread(), 1);
  }
  EXPECT_EQ(sys.numBalls(), 20000);
}

// ------------------------------------------------------ equality in law

/// One replication's observation: the state at (or, for the serving loop,
/// after a number of records near) the sample point, and the migrations per
/// departure up to it.
struct Sample {
  std::vector<double> spread, balls, migrationsPerDeparture;

  void add(std::int64_t spreadValue, std::int64_t ballCount, std::int64_t migrations,
           std::int64_t departures) {
    spread.push_back(static_cast<double>(spreadValue));
    balls.push_back(static_cast<double>(ballCount));
    migrationsPerDeparture.push_back(
        departures > 0 ? static_cast<double>(migrations) / static_cast<double>(departures)
                       : 0.0);
  }
};

void expectSameLaw(const Sample& a, const Sample& b, const std::string& label) {
  const auto check = [&label](const char* metric, const std::vector<double>& x,
                              const std::vector<double>& y) {
    EXPECT_GT(stats::ksTwoSample(x, y).pValue, 1e-4) << label << " " << metric;
    EXPECT_GT(stats::mannWhitneyU(x, y).pValue, 1e-4) << label << " " << metric;
  };
  check("spread", a.spread, b.spread);
  check("balls", a.balls, b.balls);
  check("migrations/departure", a.migrationsPerDeparture, b.migrationsPerDeparture);
}

constexpr std::int64_t kLawBins = 8;
constexpr double kLawLambda = 1.5;  // mean load lambda/mu = 3 per bin
constexpr double kLawMu = 0.5;

OpenSystemOptions lawOptions(int d, int gap) {
  OpenSystemOptions opts;
  opts.arrivalRatePerBin = kLawLambda;
  opts.departureRate = kLawMu;
  opts.arrivalChoices = d;
  opts.gap = gap;
  return opts;
}

/// The oracle's state at time t: the state before the first event past t.
void addOracleAt(reference::PerBinOpenSystem& sys, double t, Sample* out) {
  for (;;) {
    const std::int64_t spread = sys.spread();
    const std::int64_t balls = sys.numBalls();
    const auto counters = sys.counters();
    if (!sys.step() || sys.time() > t) {
      out->add(spread, balls, counters.migrations, counters.departures);
      return;
    }
  }
}

// The lumped sampler against the per-bin oracle: the state at a fixed time
// and the migrations per departure up to it, over d in {1, 2} and gap in
// {1, 2, 2^30} (the no-RLS cells of E14).
TEST(OpenSystemLaw, LumpedSamplerMatchesPerBinOracle) {
  constexpr int kReps = 1000;
  constexpr double kTime = 16.0;  // 8 relaxation times 1/mu from empty
  for (const int d : {1, 2}) {
    for (const int gap : {1, 2, 1 << 30}) {
      const OpenSystemOptions opts = lawOptions(d, gap);
      Sample lumped;
      Sample oracle;
      for (int rep = 0; rep < kReps; ++rep) {
        OpenSystem sys(kLawBins, opts, rng::streamSeed(0x1a, rep));
        sys.runUntilTime(kTime);
        const auto& c = sys.counters();
        lumped.add(sys.spread(), sys.numBalls(), c.migrations, c.departures);

        reference::PerBinOpenSystem ref(kLawBins, opts, rng::streamSeed(0x2b, rep));
        addOracleAt(ref, kTime, &oracle);
      }
      const std::string label = "d=" + std::to_string(d) + " gap=" + std::to_string(gap);
      expectSameLaw(lumped, oracle, label);
      if (gap == 1 << 30) {
        for (const double v : lumped.migrationsPerDeparture) ASSERT_EQ(v, 0.0) << label;
      }
    }
  }
}

// The long-open serving cross-check: serve::EpochLoop at one unit per
// epoch, one ring per ball per time unit (resample=1), is the per-ball-clock
// open system with the strict rule -- gap 2, which lumps like gap 1. After
// the same number of trace records (arrivals plus departures) it must match
// the oracle that stands behind E14 in law.
TEST(OpenSystemLaw, ServingLoopAtOneUnitPerEpochMatchesOracle) {
  constexpr int kReps = 600;
  constexpr std::int64_t kRecords = 400;  // ~8 relaxation times from empty
  for (const int d : {1, 2}) {
    Sample serving;
    Sample oracle;
    for (int rep = 0; rep < kReps; ++rep) {
      workload::OpenTraceOptions trace;
      trace.bins = kLawBins;
      trace.arrivalRatePerBin = kLawLambda;
      trace.departureRate = kLawMu;
      trace.resampleRate = 1.0;
      trace.maxEvents = kRecords;
      workload::PoissonTrace gen(trace, rng::streamSeed(0x3c, rep));
      serve::CompactAllocator allocator(
          serve::AllocatorOptions{.bins = kLawBins, .arrivalChoices = d});
      serve::EpochLoop loop(
          allocator, serve::LoopOptions{.epochEvents = 1, .seed = rng::streamSeed(0x4d, rep)});
      loop.run(gen);
      const auto& sc = allocator.counters();
      ASSERT_EQ(sc.arrivals + sc.departures, kRecords);
      serving.add(allocator.gap(), allocator.liveBalls(), sc.migrations, sc.departures);

      reference::PerBinOpenSystem ref(kLawBins, lawOptions(d, 2), rng::streamSeed(0x5e, rep));
      while (ref.counters().arrivals + ref.counters().departures < kRecords) {
        ASSERT_TRUE(ref.step());
      }
      const auto& rc = ref.counters();
      oracle.add(ref.spread(), ref.numBalls(), rc.migrations, rc.departures);
    }
    expectSameLaw(serving, oracle, "serving d=" + std::to_string(d));
  }
}

}  // namespace
}  // namespace rlslb::dynamic
