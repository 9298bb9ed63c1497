// ablation -- design ablations for the choices called out in
// docs/EXPERIMENTS.md:
//
//  (a) engine choice -- wall-clock of naive vs jump vs hybrid on workloads
//      with opposite shapes (all-in-one: 2 levels; staircase: many levels),
//      with the measured mean T printed alongside to confirm all engines
//      sample the same distribution while differing wildly in cost;
//  (b) hybrid switch threshold -- sweep of the #distinct-loads threshold;
//  (c) gap parameter accounting -- the strict variant performs no neutral
//      moves, so it reports fewer successful moves for the *same* balancing
//      time (the lumped chains coincide).
//
// Tables (a) and (b) contain wall-clock cells, so they are emitted as
// "timing" records (machine-dependent); table (c) is deterministic.
//
// All three tables run as one replication plan, so no cell waits at a
// barrier for another's stragglers. Each (a)/(b) replication times its own
// core::balancingTime call, so "wall ms/run" is the mean time of one run,
// whatever --threads is. Cells are claimed in declaration order: the naive
// engine on each workload first (on the staircase the longest runs of the
// plan), then the rest of (a), then (b) and (c); the tables read their
// cells back by index.
#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "config/generators.hpp"
#include "core/rls.hpp"
#include "runner/replication.hpp"
#include "scenario/builtin/builtin.hpp"
#include "stats/summary.hpp"
#include "util/timer.hpp"

namespace rlslb::scenario::builtin {

namespace {

using EngineKind = core::SimOptions::EngineKind;

struct Workload {
  const char* name;
  config::Configuration configuration;
};

/// One timed balancing run: {T, wall ms}. Captures its start by value;
/// `levelThreshold` 0 is the hybrid engine's default.
runner::ReplicationFn timedRun(config::Configuration start, EngineKind kind,
                               std::int64_t levelThreshold) {
  return [start = std::move(start), kind, levelThreshold](std::int64_t, std::uint64_t seed) {
    core::SimOptions o;
    o.engine = kind;
    o.levelThreshold = levelThreshold;
    o.seed = seed;
    const WallTimer wall;
    const double t = core::balancingTime(start, o);
    return std::vector<double>{t, wall.millis()};
  };
}

void runAblation(ScenarioContext& ctx) {
  const std::int64_t n = ctx.params.getInt("n", ctx.sized(1024, 2));
  if (n % 2 != 0) {
    // The half-half workload splits the bins into two equal halves.
    throw std::invalid_argument("ablation: n= must be even (got " + std::to_string(n) + ")");
  }
  const std::vector<Workload> workloads = {
      {"all-in-one m=8n", config::allInOne(n, 8 * n)},
      {"staircase m~n^2/4", config::staircase(n, n * n / 4)},
      {"half-half x=16 m=32n", config::halfHalf(n, 32 * n, 16)},
  };
  const EngineKind kinds[] = {EngineKind::Naive, EngineKind::Jump, EngineKind::Hybrid};
  const std::int64_t thresholds[] = {8, 32, 96, 512, 4096};
  const std::size_t byCost[] = {1, 2, 0};  // staircase, half-half, all-in-one

  std::vector<runner::ReplicationCell> plan;

  // (a) engine choice; the naive cells are declared first.
  std::size_t cellA[3][3] = {};  // [workload][engine]
  const auto repsA = [&](EngineKind kind) {
    // The single-engine runs on their bad workloads are the whole point of
    // the ablation, but keep their budgets sane.
    return ctx.repsOr(kind == EngineKind::Hybrid ? 8 : 3);
  };
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    for (const std::size_t w : byCost) {
      cellA[w][k] = plan.size();
      plan.push_back({repsA(kinds[k]),
                      ctx.seed ^ static_cast<std::uint64_t>(kinds[k] == EngineKind::Naive), 2,
                      timedRun(workloads[w].configuration, kinds[k], 0)});
    }
  }

  // (b) hybrid threshold sweep.
  std::size_t cellB[3][std::size(thresholds)] = {};
  const std::int64_t repsB = ctx.repsOr(6);
  for (const std::size_t w : byCost) {
    for (std::size_t t = 0; t < std::size(thresholds); ++t) {
      cellB[w][t] = plan.size();
      plan.push_back({repsB, ctx.seed ^ static_cast<std::uint64_t>(thresholds[t]), 2,
                      timedRun(workloads[w].configuration, EngineKind::Hybrid, thresholds[t])});
    }
  }

  // (c) gap accounting.
  const int gaps[] = {1, 2};
  const std::size_t firstC = plan.size();
  const std::int64_t repsC = ctx.repsOr(50);
  const auto gapStart = config::allInOne(ctx.sized(256), 8 * ctx.sized(256));
  for (const int gap : gaps) {
    plan.push_back({repsC, ctx.seed ^ static_cast<std::uint64_t>(gap), 3,
                    [gapStart, gap](std::int64_t, std::uint64_t seed) {
                      core::SimOptions o;
                      o.engine = EngineKind::Naive;
                      o.gap = gap;
                      o.seed = seed;
                      const auto r = core::balance(gapStart, o);
                      return std::vector<double>{r.time, static_cast<double>(r.activations),
                                                 static_cast<double>(r.moves)};
                    }});
  }

  const auto results = runner::runReplications(plan, ctx.pool());
  const auto meanOf = [&](std::size_t cell, std::size_t metric) {
    return results[cell].summary(metric).mean;
  };

  // -------------------------------------------------- (a) engine choice
  {
    Table table({"workload", "engine", "reps", "mean T (low reps)", "wall ms/run"});
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      for (std::size_t k = 0; k < std::size(kinds); ++k) {
        const char* name = kinds[k] == EngineKind::Naive   ? "naive"
                           : kinds[k] == EngineKind::Jump ? "jump"
                                                          : "hybrid";
        table.row()
            .cell(workloads[w].name)
            .cell(name)
            .cell(repsA(kinds[k]))
            .cell(meanOf(cellA[w][k], 0))
            .cell(meanOf(cellA[w][k], 1), 4);
      }
    }
    ctx.emitTimingTable(table,
                        "[ablation-a] same E[T] per workload across engines (exactness); "
                        "wall-clock shows where each engine wins");
  }

  // ----------------------------------------- (b) hybrid threshold sweep
  {
    Table table({"workload", "threshold", "mean T (low reps)", "wall ms/run"});
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      for (std::size_t t = 0; t < std::size(thresholds); ++t) {
        table.row()
            .cell(workloads[w].name)
            .cell(thresholds[t])
            .cell(meanOf(cellB[w][t], 0))
            .cell(meanOf(cellB[w][t], 1), 4);
      }
    }
    ctx.emitTimingTable(table,
                        "[ablation-b] hybrid switch threshold (#distinct loads); the default "
                        "96 should be near the flat bottom for every workload");
  }

  // ------------------------------------------------- (c) gap accounting
  {
    Table table({"gap", "reps", "E[T]", "mean activations", "mean moves"});
    for (std::size_t g = 0; g < std::size(gaps); ++g) {
      table.row()
          .cell(gaps[g])
          .cell(repsC)
          .cell(meanOf(firstC + g, 0))
          .cell(meanOf(firstC + g, 1), 5)
          .cell(meanOf(firstC + g, 2), 5);
    }
    ctx.emitTable(table,
                  "[ablation-c] '>=' vs strict '>': same E[T] and activations, fewer "
                  "counted moves for the strict variant (no neutral moves)");
  }
}

}  // namespace

void registerAblation(ScenarioRegistry& r) {
  r.add({"ablation", "design ablations: engine choice, hybrid threshold, gap",
         "docs/EXPERIMENTS.md ablations", runAblation,
         {{"n", "int", "1024 (scaled, even)", "bins (even)",
           {.intMin = 2, .intMax = kMaxBins}}}});
}

}  // namespace rlslb::scenario::builtin
