// e14_opensystem -- the open-system setting of Ganesh et al. [11] (the work
// whose closed-system bound the paper tightens; see src/dynamic).
//
// Balls arrive at rate lambda per bin, depart at rate mu each, and migrate
// with RLS clocks while resident. The harness measures the stationary
// spread (max - min load):
//  (a) against the no-migration baseline at the same offered load --
//      RLS compresses the Poisson fluctuation band;
//  (b) across offered loads rho = lambda/mu;
//  (c) with two-choice arrivals (the [11]/[17] hybrid), which compose
//      with migration.
#include <stdexcept>
#include <string>
#include <vector>

#include "dynamic/open_system.hpp"
#include "runner/replication.hpp"
#include "scenario/builtin/builtin.hpp"
#include "stats/summary.hpp"

namespace rlslb::scenario::builtin {

namespace {

/// Time-averaged spread after warmup.
double stationarySpread(dynamic::OpenSystem& sys, double warmup, int samples, double interval) {
  sys.runUntilTime(warmup);
  double total = 0.0;
  for (int i = 0; i < samples; ++i) {
    sys.runUntilTime(sys.time() + interval);
    total += static_cast<double>(sys.spread());
  }
  return total / samples;
}

void runOpensystem(ScenarioContext& ctx) {
  const std::int64_t n = ctx.params.getInt("n", ctx.sized(64));
  if (n < 1) {
    throw std::invalid_argument("e14_opensystem: n= must be >= 1 (got " + std::to_string(n) +
                                ")");
  }

  // ------------------------------------------- (a) migration on vs off
  {
    Table table({"mean load/bin", "reps", "spread (no RLS)", "spread (RLS)", "compression"});
    for (const double meanLoad : {8.0, 32.0, 128.0}) {
      const std::int64_t reps = ctx.repsOr(10);
      const double mu = 0.2;
      const double lambda = meanLoad * mu;  // lambda*n/mu = meanLoad*n

      auto measure = [&](bool rls, std::uint64_t salt) {
        return runner::runReplicationsScalar(
            reps, ctx.seed ^ salt ^ static_cast<std::uint64_t>(meanLoad),
            [&](std::int64_t, std::uint64_t seed) {
              dynamic::OpenSystemOptions opts;
              opts.arrivalRatePerBin = lambda;
              opts.departureRate = mu;
              // "No RLS" is modeled by gap so large no move ever fires.
              opts.gap = rls ? 1 : 1 << 30;
              dynamic::OpenSystem sys(n, opts, seed);
              return stationarySpread(sys, 30.0 / mu, 60, 0.5 / mu);
            }, ctx.pool());
      };
      const auto off = stats::summarize(measure(false, 0x1));
      const auto on = stats::summarize(measure(true, 0x2));
      table.row()
          .cell(meanLoad, 4)
          .cell(reps)
          .cell(off.mean, 4)
          .cell(on.mean, 4)
          .cell(off.mean / on.mean, 3);
    }
    ctx.emitTable(table,
                  "[E14a] stationary spread, n=64: RLS vs pure arrivals/departures "
                  "(no-RLS spread grows like sqrt(mean load); RLS holds an O(1)-ish band)");
  }

  // ----------------------------------------------- (b) offered-load sweep
  {
    Table table({"rho = lambda/mu", "mean balls", "reps", "spread (RLS)", "migrations/departure"});
    for (const double rho : {4.0, 16.0, 64.0}) {
      const std::int64_t reps = ctx.repsOr(10);
      const double mu = 0.2;
      const auto result = runner::runReplications(
          reps, ctx.seed ^ static_cast<std::uint64_t>(rho * 10), 3,
          [&](std::int64_t, std::uint64_t seed) {
            dynamic::OpenSystemOptions opts;
            opts.arrivalRatePerBin = rho * mu;
            opts.departureRate = mu;
            dynamic::OpenSystem sys(n, opts, seed);
            const double spread = stationarySpread(sys, 30.0 / mu, 60, 0.5 / mu);
            const auto& c = sys.counters();
            return std::vector<double>{spread, static_cast<double>(sys.numBalls()),
                                       c.departures > 0 ? static_cast<double>(c.migrations) /
                                                              static_cast<double>(c.departures)
                                                        : 0.0};
          }, ctx.pool());
      table.row()
          .cell(rho, 4)
          .cell(result.summary(1).mean, 5)
          .cell(reps)
          .cell(result.summary(0).mean, 4)
          .cell(result.summary(2).mean, 3);
    }
    ctx.emitTable(table,
                  "[E14b] offered-load sweep: the spread stays flat while the ball "
                  "population scales (migration clock is per ball, so repair capacity "
                  "scales with load)");
  }

  // ------------------------------------------- (c) arrival rule ablation
  {
    Table table({"arrival rule", "reps", "spread (no RLS)", "spread (RLS)"});
    for (const int d : {1, 2}) {
      const std::int64_t reps = ctx.repsOr(10);
      auto measure = [&](bool rls, std::uint64_t salt) {
        return runner::runReplicationsScalar(
            reps, ctx.seed ^ salt ^ static_cast<std::uint64_t>(d),
            [&](std::int64_t, std::uint64_t seed) {
              dynamic::OpenSystemOptions opts;
              opts.arrivalRatePerBin = 6.4;
              opts.departureRate = 0.2;
              opts.arrivalChoices = d;
              opts.gap = rls ? 1 : 1 << 30;
              dynamic::OpenSystem sys(n, opts, seed);
              return stationarySpread(sys, 150.0, 60, 2.5);
            }, ctx.pool());
      };
      const auto off = stats::summarize(measure(false, 0x3));
      const auto on = stats::summarize(measure(true, 0x4));
      table.row()
          .cell(d == 1 ? "uniform (1 choice)" : "lesser of 2 choices")
          .cell(reps)
          .cell(off.mean, 4)
          .cell(on.mean, 4);
    }
    ctx.emitTable(table,
                  "[E14c] two-choice arrivals vs uniform arrivals, with and without "
                  "migration (choices shrink the no-RLS band; with RLS both land in "
                  "the same small band)");
  }
}

}  // namespace

void registerOpensystem(ScenarioRegistry& r) {
  r.add({"e14_opensystem",
         "open-system RLS (the [11] setting): stationary spread under arrivals and departures",
         "Section 1 related work; Ganesh et al. [11]", runOpensystem,
         {{"n", "int", "64 (scaled)", "bins"}}});
}

}  // namespace rlslb::scenario::builtin
