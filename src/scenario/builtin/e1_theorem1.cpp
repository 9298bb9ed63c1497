// e1_theorem1 -- Theorem 1 upper bound: E[T] = O(ln n + n^2/m).
//
// Sweeps n and m/n from the all-in-one worst-case start, measures the mean
// time to perfect balance, and fits  E[T] ~ a*ln(n) + b*n^2/m + c.  The
// theorem (with its matching lower bounds) predicts a good linear fit with
// positive a and b and a roughly constant normalized column
// T / (ln n + n^2/m); the previous best bound [11] would instead need an
// extra ln(n) factor on the n^2/m term ((ln n)^2 + ln(n)*n^2/m), which
// would show up as the normalized column *growing* with n in the m = n
// rows. Paper-vs-measured notes live in docs/EXPERIMENTS.md (E1).
#include <cmath>
#include <cstddef>
#include <vector>

#include "config/generators.hpp"
#include "core/rls.hpp"
#include "runner/replication.hpp"
#include "scenario/builtin/builtin.hpp"
#include "stats/regression.hpp"
#include "stats/summary.hpp"

namespace rlslb::scenario::builtin {

namespace {

void runTheorem1(ScenarioContext& ctx) {
  const std::vector<std::int64_t> ns = {ctx.sized(256), ctx.sized(512), ctx.sized(1024),
                                        ctx.sized(2048), ctx.sized(4096)};
  const std::vector<std::int64_t> ratios = {1, 8, 64};
  const std::int64_t reps = ctx.repsOr(30);

  // Every (n, m/n) cell runs in one replication plan, so no cell waits at a
  // barrier for another's stragglers. A replication costs about m = n *
  // ratio activations, so the cells are declared from the largest ratio
  // and n down; the table reads them back by index, in (n, ratio) order.
  std::vector<runner::ReplicationCell> plan;
  std::vector<std::vector<std::size_t>> cell(ns.size(), std::vector<std::size_t>(ratios.size()));
  for (std::size_t r = ratios.size(); r-- > 0;) {
    for (std::size_t i = ns.size(); i-- > 0;) {
      const std::int64_t n = ns[i];
      const std::int64_t m = n * ratios[r];
      cell[i][r] = plan.size();
      plan.push_back({reps, ctx.seed ^ static_cast<std::uint64_t>(n * 131 + ratios[r]), 1,
                      [n, m](std::int64_t, std::uint64_t seed) {
                        core::SimOptions o;
                        o.engine = core::SimOptions::EngineKind::Hybrid;
                        o.seed = seed;
                        return std::vector<double>{
                            core::balancingTime(config::allInOne(n, m), o)};
                      }});
    }
  }
  const auto results = runner::runReplications(plan, ctx.pool());

  Table table({"n", "m/n", "reps", "E[T] (mean)", "ci95", "p99", "ln n", "n^2/m",
               "T/(ln n + n^2/m)"});
  std::vector<std::vector<double>> fitRows;
  std::vector<double> fitY;

  for (std::size_t i = 0; i < ns.size(); ++i) {
    for (std::size_t r = 0; r < ratios.size(); ++r) {
      const std::int64_t n = ns[i];
      const std::int64_t m = n * ratios[r];
      const auto s = results[cell[i][r]].summary(0);
      const double lnN = std::log(static_cast<double>(n));
      const double n2m = static_cast<double>(n) * static_cast<double>(n) / static_cast<double>(m);
      table.row()
          .cell(n)
          .cell(ratios[r])
          .cell(reps)
          .cell(s.mean)
          .cell(s.ci95Half)
          .cell(s.p99)
          .cell(lnN, 3)
          .cell(n2m, 4)
          .cell(s.mean / (lnN + n2m), 3);
      fitRows.push_back({lnN, n2m, 1.0});
      fitY.push_back(s.mean);
    }
  }
  ctx.emitTable(table, "[E1] time to perfect balance from the all-in-one worst case");

  // Zero-intercept fit: both coefficients must come out positive and O(1).
  const auto fit = stats::olsFit(fitRows, fitY);
  if (fit.ok) {
    Table ft({"model", "a (ln n)", "b (n^2/m)", "c", "R^2"});
    ft.row()
        .cell("E[T] ~ a*ln n + b*n^2/m + c")
        .cell(fit.coefficients[0], 4)
        .cell(fit.coefficients[1], 4)
        .cell(fit.coefficients[2], 4)
        .cell(fit.r2, 5);
    ctx.emitTable(ft, "[E1] joint OLS fit (b must be positive and O(1))");
  }

  // The discriminating test against the pre-paper bound O((ln n)^2 +
  // ln(n)*n^2/m) [11]: on the endgame-dominated rows (m = n), regress
  // log T on log(n^2/m). Tightness predicts slope ~ 1; an extra ln n
  // factor would push the slope visibly above 1 (log(n*ln n)/log(n) at
  // these sizes is ~ 1.25).
  {
    std::vector<std::vector<double>> rows;
    std::vector<double> y;
    for (std::size_t i = 0; i < fitRows.size(); ++i) {
      const double n2m = fitRows[i][1];
      if (n2m >= 64.0) {  // endgame-dominated cells
        rows.push_back({std::log(n2m), 1.0});
        y.push_back(std::log(fitY[i]));
      }
    }
    const auto slopeFit = stats::olsFit(rows, y);
    if (slopeFit.ok) {
      Table st({"regime", "cells", "log-log slope", "R^2", "tight iff"});
      st.row()
          .cell("n^2/m >= 64")
          .cell(static_cast<std::int64_t>(rows.size()))
          .cell(slopeFit.coefficients[0], 4)
          .cell(slopeFit.r2, 4)
          .cell("slope ~ 1.0 (log-factor gap would inflate it)");
      ctx.emitTable(st, "[E1] tightness check vs the pre-paper bound of [11]");
    }
  }

  ctx.note("shape check: normalized column should be O(1) across all rows;");
  ctx.note("a log-factor gap (the pre-paper bound) would make m=n rows grow with n.\n");
}

}  // namespace

void registerTheorem1(ScenarioRegistry& r) {
  r.add({"e1_theorem1",
         "Theorem 1: E[T] = O(ln n + n^2/m) (tight) -- headline fit from the worst case",
         "Theorem 1; Section 5", runTheorem1});
}

}  // namespace rlslb::scenario::builtin
