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
#include <stdexcept>
#include <string>
#include <vector>

#include "config/generators.hpp"
#include "core/rls.hpp"
#include "runner/replication.hpp"
#include "scenario/builtin/builtin.hpp"
#include "stats/summary.hpp"
#include "util/timer.hpp"

namespace rlslb::scenario::builtin {

namespace {

struct Workload {
  const char* name;
  config::Configuration configuration;
};

void runAblation(ScenarioContext& ctx) {
  // ctx.pool() is reused by every sweep below; wall-clock cells measure
  // the threaded harness, so ms/run scales with --threads.
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

  // -------------------------------------------------- (a) engine choice
  {
    Table table({"workload", "engine", "reps", "mean T (low reps)", "wall ms/run"});
    for (const auto& w : workloads) {
      for (const auto kind : {core::SimOptions::EngineKind::Naive,
                              core::SimOptions::EngineKind::Jump,
                              core::SimOptions::EngineKind::Hybrid}) {
        // The single-engine runs on their bad workloads are the whole point
        // of the ablation, but keep their budgets sane.
        const std::int64_t reps =
            ctx.repsOr(kind == core::SimOptions::EngineKind::Hybrid ? 8 : 3);
        WallTimer wall;
        const auto samples = runner::runReplicationsScalar(
            reps, ctx.seed ^ static_cast<std::uint64_t>(kind == core::SimOptions::EngineKind::Naive),
            [&](std::int64_t, std::uint64_t seed) {
              core::SimOptions o;
              o.engine = kind;
              o.seed = seed;
              return core::balancingTime(w.configuration, o);
            },
            ctx.pool());
        const double ms = wall.millis() / static_cast<double>(reps);
        const char* name = kind == core::SimOptions::EngineKind::Naive   ? "naive"
                           : kind == core::SimOptions::EngineKind::Jump ? "jump"
                                                                        : "hybrid";
        table.row()
            .cell(w.name)
            .cell(name)
            .cell(reps)
            .cell(stats::summarize(samples).mean)
            .cell(ms, 4);
      }
    }
    ctx.emitTimingTable(table,
                        "[ablation-a] same E[T] per workload across engines (exactness); "
                        "wall-clock shows where each engine wins");
  }

  // ----------------------------------------- (b) hybrid threshold sweep
  {
    Table table({"workload", "threshold", "mean T (low reps)", "wall ms/run"});
    for (const auto& w : workloads) {
      for (const std::int64_t threshold : {8, 32, 96, 512, 4096}) {
        const std::int64_t reps = ctx.repsOr(6);
        WallTimer wall;
        const auto samples = runner::runReplicationsScalar(
            reps, ctx.seed ^ static_cast<std::uint64_t>(threshold),
            [&](std::int64_t, std::uint64_t seed) {
              core::SimOptions o;
              o.engine = core::SimOptions::EngineKind::Hybrid;
              o.levelThreshold = threshold;
              o.seed = seed;
              return core::balancingTime(w.configuration, o);
            },
            ctx.pool());
        table.row()
            .cell(w.name)
            .cell(threshold)
            .cell(stats::summarize(samples).mean)
            .cell(wall.millis() / static_cast<double>(reps), 4);
      }
    }
    ctx.emitTimingTable(table,
                        "[ablation-b] hybrid switch threshold (#distinct loads); the default "
                        "96 should be near the flat bottom for every workload");
  }

  // ------------------------------------------------- (c) gap accounting
  {
    Table table({"gap", "reps", "E[T]", "mean activations", "mean moves"});
    const auto init = config::allInOne(ctx.sized(256), 8 * ctx.sized(256));
    for (const int gap : {1, 2}) {
      const std::int64_t reps = ctx.repsOr(50);
      const auto result = runner::runReplications(
          reps, ctx.seed ^ static_cast<std::uint64_t>(gap), 3,
          [&](std::int64_t, std::uint64_t seed) {
            core::SimOptions o;
            o.engine = core::SimOptions::EngineKind::Naive;
            o.gap = gap;
            o.seed = seed;
            const auto r = core::balance(init, o);
            return std::vector<double>{r.time, static_cast<double>(r.activations),
                                       static_cast<double>(r.moves)};
          },
          ctx.pool());
      table.row()
          .cell(gap)
          .cell(reps)
          .cell(result.summary(0).mean)
          .cell(result.summary(1).mean, 5)
          .cell(result.summary(2).mean, 5);
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
