// e2_lowerbound -- E2/E3/E9: the matching lower bounds and the m <= n regime.
//
// E2 (Omega(ln n)): from the all-in-one start at least m - ceil(m/n) balls
//     must be activated; the expected time for that alone is
//     H_m - H_avg ~ ln(n). Measured activations and times are compared to
//     both exact quantities.
// E3 (Omega(n^2/m)): the two-point configuration needs exactly
//     Exp((avg+1)/n) time: measured means must sit ON n/(avg+1), and for
//     small systems the exact absorbing-chain value is printed next to it.
// E9 (Lemma 8, m <= n): expected time O(n); the harness reports T/n.
#include <cmath>
#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

#include "config/generators.hpp"
#include "core/rls.hpp"
#include "exact/rls_chain.hpp"
#include "runner/replication.hpp"
#include "scenario/builtin/builtin.hpp"
#include "stats/summary.hpp"
#include "util/format.hpp"

namespace rlslb::scenario::builtin {

namespace {

double harmonic(std::int64_t k) {
  // Exact for small k, asymptotic expansion beyond.
  if (k <= 0) return 0.0;
  if (k < 1000) {
    double h = 0.0;
    for (std::int64_t i = 1; i <= k; ++i) h += 1.0 / static_cast<double>(i);
    return h;
  }
  const double kd = static_cast<double>(k);
  return std::log(kd) + 0.5772156649015329 + 1.0 / (2.0 * kd) - 1.0 / (12.0 * kd * kd);
}

void runLowerbound(ScenarioContext& ctx) {
  // The three tables' cells run as one replication plan, so no cell waits
  // at a barrier for another's stragglers. Cells are claimed in declaration
  // order: E2's naive runs (m = n^2 balls, largest n first) are the longest,
  // then E9 and E3 (jump runs of microseconds); the tables read their cells
  // back by index.
  std::vector<runner::ReplicationCell> plan;

  // E2: m = n^2 makes the n^2/m endgame O(1) so the ln n floor is visible.
  const std::int64_t nsE2[] = {ctx.sized(64), ctx.sized(128), ctx.sized(256)};
  const std::int64_t repsE2 = ctx.repsOr(25);
  std::size_t cellE2[std::size(nsE2)] = {};
  for (std::size_t i = std::size(nsE2); i-- > 0;) {
    const std::int64_t n = nsE2[i];
    cellE2[i] = plan.size();
    plan.push_back({repsE2, ctx.seed ^ static_cast<std::uint64_t>(n), 2,
                    [n](std::int64_t, std::uint64_t seed) {
                      core::SimOptions o;
                      o.engine = core::SimOptions::EngineKind::Naive;  // counts activations
                      o.seed = seed;
                      const auto r = core::balance(config::allInOne(n, n * n), o);
                      return std::vector<double>{r.time, static_cast<double>(r.moves)};
                    }});
  }

  // E9: m <= n, hybrid.
  struct CellE9 {
    std::int64_t n, m;
  };
  std::vector<CellE9> cellsE9;
  for (const std::int64_t n : {ctx.sized(256), ctx.sized(1024), ctx.sized(4096)}) {
    for (const std::int64_t m : {n / 2, n}) cellsE9.push_back({n, m});
  }
  const std::int64_t repsE9 = ctx.repsOr(50);
  const std::size_t firstE9 = plan.size();
  for (const CellE9 c : cellsE9) {
    plan.push_back({repsE9, ctx.seed ^ static_cast<std::uint64_t>(c.n * 31 + c.m), 1,
                    [c](std::int64_t, std::uint64_t seed) {
                      core::SimOptions o;
                      o.engine = core::SimOptions::EngineKind::Hybrid;
                      o.seed = seed;
                      return std::vector<double>{
                          core::balancingTime(config::allInOne(c.n, c.m), o)};
                    }});
  }

  // E3: the two-point configuration. The first cell is small enough for
  // the absorbing-chain solver, so the closed form, the chain, and the
  // simulation triangulate.
  struct CellE3 {
    std::int64_t n, avg;
  };
  const CellE3 cellsE3[] = {CellE3{8, 2},           CellE3{ctx.sized(64), 2},
                            CellE3{ctx.sized(256), 2}, CellE3{ctx.sized(1024), 2},
                            CellE3{ctx.sized(256), 8}, CellE3{ctx.sized(256), 32}};
  const std::int64_t repsE3 = ctx.repsOr(400);
  const std::size_t firstE3 = plan.size();
  for (const CellE3 c : cellsE3) {
    plan.push_back({repsE3, ctx.seed ^ static_cast<std::uint64_t>(c.n * 977 + c.avg), 1,
                    [c](std::int64_t, std::uint64_t seed) {
                      core::SimOptions o;
                      o.engine = core::SimOptions::EngineKind::Jump;
                      o.seed = seed;
                      return std::vector<double>{
                          core::balancingTime(config::twoPoint(c.n, c.n * c.avg), o)};
                    }});
  }

  const auto results = runner::runReplications(plan, ctx.pool());

  // ------------------------------------------------------------------ E2
  {
    Table table({"n", "m", "reps", "E[T]", "ci95", "H_m - H_avg", "T ratio", "mean moves",
                 "m - ceil(avg)"});
    for (std::size_t i = 0; i < std::size(nsE2); ++i) {
      const std::int64_t n = nsE2[i];
      const std::int64_t m = n * n;
      const auto t = results[cellE2[i]].summary(0);
      const auto moves = results[cellE2[i]].summary(1);
      const double bound = harmonic(m) - harmonic((m + n - 1) / n);
      table.row()
          .cell(n)
          .cell(m)
          .cell(repsE2)
          .cell(t.mean)
          .cell(t.ci95Half)
          .cell(bound, 4)
          .cell(t.mean / bound, 3)
          .cell(moves.mean, 5)
          .cell(m - (m + n - 1) / n);
    }
    ctx.emitTable(table,
                  "[E2] Omega(ln n) lower bound: all-in-one start "
                  "(ratio >= 1 required; moves >= m - ceil(avg) structurally)");
  }

  // ------------------------------------------------------------------ E3
  {
    Table table({"n", "avg", "reps", "E[T]", "ci95", "exact n/(avg+1)", "chain exact",
                 "rel err"});
    for (std::size_t i = 0; i < std::size(cellsE3); ++i) {
      const CellE3 c = cellsE3[i];
      const std::int64_t m = c.n * c.avg;
      const auto s = results[firstE3 + i].summary(0);
      const double exactVal = static_cast<double>(c.n) / static_cast<double>(c.avg + 1);
      std::string chainCol = "-";
      if (m <= 20) {
        exact::RlsChain chain(c.n, m);
        chainCol = formatSig(chain.expectedTimeFrom(config::twoPoint(c.n, m)), 5);
      }
      table.row()
          .cell(c.n)
          .cell(c.avg)
          .cell(repsE3)
          .cell(s.mean)
          .cell(s.ci95Half)
          .cell(exactVal, 5)
          .cell(chainCol)
          .cell(std::fabs(s.mean - exactVal) / exactVal, 2);
    }
    ctx.emitTable(table,
                  "[E3] Omega(n^2/m) lower bound: two-point configuration "
                  "(E[T] = n/(avg+1) EXACTLY; measured must sit on it)");
  }

  // ------------------------------------------------------------------ E9
  {
    Table table({"n", "m", "reps", "E[T]", "ci95", "T/n", "Lemma 8 bound/n"});
    for (std::size_t i = 0; i < cellsE9.size(); ++i) {
      const CellE9 c = cellsE9[i];
      const auto s = results[firstE9 + i].summary(0);
      // Lemma 8's explicit bound: sum_{r=2..m} n / (r(r-1)) = n*(1 - 1/m).
      const double lemmaBound = static_cast<double>(c.n) *
                                (1.0 - 1.0 / static_cast<double>(c.m));
      table.row()
          .cell(c.n)
          .cell(c.m)
          .cell(repsE9)
          .cell(s.mean)
          .cell(s.ci95Half)
          .cell(s.mean / static_cast<double>(c.n), 4)
          .cell(lemmaBound / static_cast<double>(c.n), 4);
    }
    ctx.emitTable(table,
                  "[E9] Lemma 8 (m <= n): E[T] = O(n); measured T/n must stay below "
                  "the lemma's constant");
  }
}

}  // namespace

void registerLowerbound(ScenarioRegistry& r) {
  r.add({"e2_lowerbound",
         "Theorem 1 lower bounds: Omega(ln n) and Omega(n^2/m); Lemma 8 (m <= n)",
         "Theorem 1; Lemmas 8, 18, 19", runLowerbound});
}

}  // namespace rlslb::scenario::builtin
