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
//
// The tables read only the load multiset and the counters, so every cell
// runs dynamic::OpenSystem, the exact sampler of the lumped open chain: it
// never simulates a clock ring that leaves the multiset unchanged, and it
// samples the state exactly at each sample time.
#include <iterator>
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

/// One replication of sections (a) and (c): the stationary spread of an
/// open system of n bins with the given rates and arrival choices, with RLS
/// migration on or off ("off" is a gap so large no move ever fires).
runner::ReplicationFn spreadCell(std::int64_t n, double lambda, double mu, int choices,
                                 bool rls, double warmup, double interval) {
  return [=](std::int64_t, std::uint64_t seed) {
    dynamic::OpenSystemOptions opts;
    opts.arrivalRatePerBin = lambda;
    opts.departureRate = mu;
    opts.arrivalChoices = choices;
    opts.gap = rls ? 1 : 1 << 30;
    dynamic::OpenSystem sys(n, opts, seed);
    return std::vector<double>{stationarySpread(sys, warmup, 60, interval)};
  };
}

void runOpensystem(ScenarioContext& ctx) {
  const std::int64_t n = ctx.params.getInt("n", ctx.sized(64));
  const std::int64_t reps = ctx.repsOr(10);
  const double mu = 0.2;

  // The three sections' 13 cells run as one replication plan, so no cell
  // waits at a barrier for another's stragglers. Cells are claimed in
  // declaration order: (a) and (b) each from their largest ball population
  // down, so the longest replications (mean load 128, then rho = 64) start
  // first, then (c). The tables read their cells back by index.
  std::vector<runner::ReplicationCell> plan;

  // (a) per mean load: migration off (salt 0x1), then on (salt 0x2).
  const double meanLoads[] = {8.0, 32.0, 128.0};
  std::size_t cellA[std::size(meanLoads)] = {};
  for (std::size_t i = std::size(meanLoads); i-- > 0;) {
    const double meanLoad = meanLoads[i];
    const double lambda = meanLoad * mu;  // lambda*n/mu = meanLoad*n
    cellA[i] = plan.size();
    for (const bool rls : {false, true}) {
      const std::uint64_t salt = rls ? 0x2 : 0x1;
      plan.push_back({reps, ctx.seed ^ salt ^ static_cast<std::uint64_t>(meanLoad), 1,
                      spreadCell(n, lambda, mu, 1, rls, 30.0 / mu, 0.5 / mu)});
    }
  }

  // (b) per offered load: one cell, migration on.
  const double rhos[] = {4.0, 16.0, 64.0};
  std::size_t cellB[std::size(rhos)] = {};
  for (std::size_t i = std::size(rhos); i-- > 0;) {
    const double rho = rhos[i];
    cellB[i] = plan.size();
    plan.push_back({reps, ctx.seed ^ static_cast<std::uint64_t>(rho * 10), 3,
                    [n, rho, mu](std::int64_t, std::uint64_t seed) {
                      dynamic::OpenSystemOptions opts;
                      opts.arrivalRatePerBin = rho * mu;
                      opts.departureRate = mu;
                      dynamic::OpenSystem sys(n, opts, seed);
                      const double spread = stationarySpread(sys, 30.0 / mu, 60, 0.5 / mu);
                      const auto& c = sys.counters();
                      return std::vector<double>{
                          spread, static_cast<double>(sys.numBalls()),
                          c.departures > 0 ? static_cast<double>(c.migrations) /
                                                 static_cast<double>(c.departures)
                                           : 0.0};
                    }});
  }

  // (c) per arrival rule: migration off (salt 0x3), then on (salt 0x4).
  const int choices[] = {1, 2};
  std::size_t cellC[std::size(choices)] = {};
  for (std::size_t i = 0; i < std::size(choices); ++i) {
    const int d = choices[i];
    cellC[i] = plan.size();
    for (const bool rls : {false, true}) {
      const std::uint64_t salt = rls ? 0x4 : 0x3;
      plan.push_back({reps, ctx.seed ^ salt ^ static_cast<std::uint64_t>(d), 1,
                      spreadCell(n, 6.4, 0.2, d, rls, 150.0, 2.5)});
    }
  }

  const auto results = runner::runReplications(plan, ctx.pool());
  const auto meanOf = [&](std::size_t cell) { return results[cell].summary(0).mean; };

  // ------------------------------------------- (a) migration on vs off
  {
    Table table({"mean load/bin", "reps", "spread (no RLS)", "spread (RLS)", "compression"});
    for (std::size_t i = 0; i < std::size(meanLoads); ++i) {
      const double off = meanOf(cellA[i]);
      const double on = meanOf(cellA[i] + 1);
      table.row().cell(meanLoads[i], 4).cell(reps).cell(off, 4).cell(on, 4).cell(off / on, 3);
    }
    ctx.emitTable(table,
                  "[E14a] stationary spread, n=" + std::to_string(n) +
                      ": RLS vs pure arrivals/departures (no-RLS spread grows like "
                      "sqrt(mean load); RLS holds an O(1)-ish band)");
  }

  // ----------------------------------------------- (b) offered-load sweep
  {
    Table table({"rho = lambda/mu", "mean balls", "reps", "spread (RLS)", "migrations/departure"});
    for (std::size_t i = 0; i < std::size(rhos); ++i) {
      const runner::ReplicationResult& result = results[cellB[i]];
      table.row()
          .cell(rhos[i], 4)
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
    for (std::size_t i = 0; i < std::size(choices); ++i) {
      table.row()
          .cell(choices[i] == 1 ? "uniform (1 choice)" : "lesser of 2 choices")
          .cell(reps)
          .cell(meanOf(cellC[i]), 4)
          .cell(meanOf(cellC[i] + 1), 4);
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
         {{"n", "int", "64 (scaled)", "bins", {.intMin = 1, .intMax = kMaxBins}}}});
}

}  // namespace rlslb::scenario::builtin
