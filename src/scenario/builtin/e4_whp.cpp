// e4_whp -- the with-high-probability bound: w.h.p. T = O(ln n + ln(n)*n^2/m).
//
// Measures the full distribution of T (quantiles and bootstrap CIs on p99)
// across n, normalizing by the w.h.p. budget B(n) = ln n * (1 + n^2/m).
// Theorem 1 predicts the normalized quantile columns stay bounded (in fact
// shrink modestly) as n grows, and the tail beyond the budget decays like
// n^{-Omega(1)} (Lemmas 6/7: each budget-sized epoch independently succeeds
// with constant probability).
#include <cmath>
#include <cstddef>
#include <iterator>
#include <vector>

#include "config/generators.hpp"
#include "core/rls.hpp"
#include "rng/xoshiro256pp.hpp"
#include "runner/replication.hpp"
#include "scenario/builtin/builtin.hpp"
#include "stats/bootstrap.hpp"
#include "stats/summary.hpp"
#include "util/format.hpp"

namespace rlslb::scenario::builtin {

namespace {

void runWhp(ScenarioContext& ctx) {
  const std::int64_t ns[] = {ctx.sized(128), ctx.sized(512), ctx.sized(2048)};
  const std::int64_t ratios[] = {4, 32};
  const std::int64_t reps = ctx.repsOr(400);

  // Every cell runs in one replication plan, so no cell waits at a barrier
  // for another's stragglers. A replication costs about m = n * ratio
  // activations, so the cells are declared from the largest ratio and n
  // down; the table reads them back by index, in (n, ratio) order.
  std::vector<runner::ReplicationCell> plan;
  std::size_t cell[std::size(ns)][std::size(ratios)] = {};
  for (std::size_t r = std::size(ratios); r-- > 0;) {
    for (std::size_t i = std::size(ns); i-- > 0;) {
      const std::int64_t n = ns[i];
      const std::int64_t m = n * ratios[r];
      cell[i][r] = plan.size();
      plan.push_back({reps, ctx.seed ^ static_cast<std::uint64_t>(n * 7 + ratios[r]), 1,
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

  Table table({"n", "m/n", "reps", "mean", "p50", "p90", "p99", "p99 ci95", "max",
               "B = ln n*(1+n^2/m)", "p99/B", "P(T > B)"});
  for (std::size_t i = 0; i < std::size(ns); ++i) {
    for (std::size_t r = 0; r < std::size(ratios); ++r) {
      const std::int64_t n = ns[i];
      const std::int64_t m = n * ratios[r];
      const std::vector<double>& samples = results[cell[i][r]].samples[0];
      const auto s = stats::summarize(samples);
      const double lnN = std::log(static_cast<double>(n));
      const double budget =
          lnN * (1.0 + static_cast<double>(n) * static_cast<double>(n) / static_cast<double>(m));
      rng::Xoshiro256pp bootEng(ctx.seed + 17);
      const auto p99Ci = stats::bootstrapCi(
          samples, [](const std::vector<double>& v) { return stats::quantile(v, 0.99); }, 300,
          0.95, bootEng);
      std::int64_t exceed = 0;
      for (double t : samples) exceed += t > budget;
      table.row()
          .cell(n)
          .cell(ratios[r])
          .cell(reps)
          .cell(s.mean)
          .cell(s.median)
          .cell(s.p90)
          .cell(s.p99)
          .cell(formatCi(p99Ci.lo, p99Ci.hi))
          .cell(s.max)
          .cell(budget, 4)
          .cell(s.p99 / budget, 3)
          .cell(static_cast<double>(exceed) / static_cast<double>(reps), 3);
    }
  }
  ctx.emitTable(table,
                "[E4] tail of the balancing time from the all-in-one start "
                "(p99/B bounded, exceedance probability small and shrinking in n)");
}

}  // namespace

void registerWhp(ScenarioRegistry& r) {
  r.add({"e4_whp", "Theorem 1 w.h.p. bound: tail of T vs ln(n)*(1 + n^2/m)",
         "Theorem 1; Lemmas 6, 7", runWhp});
}

}  // namespace rlslb::scenario::builtin
