// e15_trajectory -- ensemble trajectories: E[disc(t)] and E[overloaded(t)].
//
// The figure-style companion to the phase tables (E5-E7): the mean
// discrepancy trajectory from the worst case shows the three regimes the
// analysis predicts -- an exponential crash during Phase 1 (each ball's
// first activations), a fast mop-up to the logarithmic band, and the long
// Exp(n/avg)-paced endgame -- and the overloaded-ball curve shows Lemma
// 15's overload decay.
//
// Parameters: n (bins, default 1024), ratio (m/n, default 8), dt (grid
// step, default 0.5), horizon (default 24).
#include <string>
#include <vector>

#include "config/generators.hpp"
#include "core/rls.hpp"
#include "scenario/builtin/builtin.hpp"
#include "sim/ensemble.hpp"
#include "sim/probes.hpp"

namespace rlslb::scenario::builtin {

namespace {

void runTrajectory(ScenarioContext& ctx) {
  const std::int64_t n = ctx.params.getInt("n", ctx.sized(1024, 2));
  const std::int64_t m = ballsFor("e15_trajectory", ctx.params.getInt("ratio", 8), n);
  const std::int64_t reps = ctx.repsOr(40);
  const double dt = ctx.params.getDouble("dt", 0.5);
  const double horizon = ctx.params.getDouble("horizon", 24.0);
  checkGrid("e15_trajectory", horizon, dt);

  const auto ensemble = sim::accumulateEnsemble(
      dt, horizon, reps, ctx.seed,
      [&](std::int64_t, std::uint64_t seed) {
        sim::TrajectoryRecorder recorder(dt / 4.0);
        core::SimOptions o;
        o.engine = core::SimOptions::EngineKind::Hybrid;
        o.seed = seed;
        process::RunLimits limits;
        limits.maxTime = horizon + 1.0;
        core::balance(config::allInOne(n, m), o, process::Target::perfect(), limits, &recorder);
        return recorder.points();
      },
      ctx.pool());

  Table table({"t", "E[disc]", "E[log(1+disc)]", "E[overloaded]", "disc/avg"});
  const double avg = static_cast<double>(m) / static_cast<double>(n);
  for (std::size_t g = 0; g < ensemble.gridSize(); ++g) {
    table.row()
        .cell(ensemble.timeAt(g), 4)
        .cell(ensemble.meanDiscrepancy(g), 5)
        .cell(ensemble.meanLogDiscrepancy(g), 4)
        .cell(ensemble.meanOverloaded(g), 5)
        .cell(ensemble.meanDiscrepancy(g) / avg, 4);
  }
  ctx.emitTable(table,
                "[E15] ensemble means over " + std::to_string(reps) +
                    " runs, all-in-one start, n=" + std::to_string(n) +
                    ", m=" + std::to_string(m) +
                    " (log column linear in t during Phase 1 = exponential decay)");
}

}  // namespace

void registerTrajectory(ScenarioRegistry& r) {
  r.add({"e15_trajectory", "ensemble mean trajectories of disc(t) and overloaded(t)",
         "Section 6 (figure-style companion)", runTrajectory,
         {{"n", "int", "1024 (scaled, even)", "bins", {.intMin = 1, .intMax = kMaxBins}},
          {"ratio", "int", "8", "balls per bin (m = ratio * n; ratio * n must fit int64)",
           {.intMin = 0}},
          {"dt", "double", "0.5", "trajectory sampling interval",
           {.min = 0.0, .minExclusive = true}},
          {"horizon", "double", "24", "trajectory length in time units",
           {.min = 0.0, .finite = true}}}});
}

}  // namespace rlslb::scenario::builtin
