// e5_phases -- E5/E6/E7: the three analysis phases of Section 6.
//
// Phase 1 (Lemmas 10-13): any start -> O(ln n)-balanced in O(ln n) time.
// Phase 2 (Lemmas 14-16): O(ln n)-balanced -> 1-balanced in O(n/avg).
// Phase 3 (Lemma 17):     1-balanced -> perfect in O(n/avg).
//
// One PhaseTracker splits each worst-case trajectory at disc thresholds
// {avg/2, 8 ln n, 1, perfect}; the table reports each phase's duration
// normalized by its lemma's prediction. Two sub-experiments check the
// finer structure: the Lemma 13 doubling trick (disc x -> 2 sqrt(x ln n)
// within time ln((avg+x)/(avg-x))) and the Lemma 15 overload decay (the
// number of overloaded balls falls from Theta(n ln n) to n within
// O((ln n)^2 / avg) time).
#include <cmath>
#include <cstddef>
#include <iterator>
#include <vector>

#include "config/generators.hpp"
#include "core/rls.hpp"
#include "runner/replication.hpp"
#include "scenario/builtin/builtin.hpp"
#include "sim/probes.hpp"
#include "stats/summary.hpp"

namespace rlslb::scenario::builtin {

namespace {

void runPhases(ScenarioContext& ctx) {
  // The three tables' cells run as one replication plan, so no cell waits
  // at a barrier for another's stragglers. Cells are claimed in declaration
  // order, longest first: the E5-E7 cells from the largest m down, then the
  // Lemma 13 shrink steps from the widest start, then the Lemma 15 decay
  // from the largest n; the tables read their cells back by index.
  std::vector<runner::ReplicationCell> plan;

  // E5+E7: phase durations from all-in-one.
  struct PhaseCell {
    std::int64_t n, avg;
  };
  const PhaseCell phaseCells[] = {PhaseCell{ctx.sized(256, 2), 8}, PhaseCell{ctx.sized(1024, 2), 8},
                                  PhaseCell{ctx.sized(4096, 2), 8},
                                  PhaseCell{ctx.sized(1024, 2), 64}};
  const std::int64_t repsPhases = ctx.repsOr(25);
  std::size_t phaseCell[std::size(phaseCells)] = {};
  for (std::size_t i = std::size(phaseCells); i-- > 0;) {
    const std::int64_t n = phaseCells[i].n;
    const std::int64_t m = n * phaseCells[i].avg;
    const double lnN = std::log(static_cast<double>(n));
    const auto logBand = static_cast<std::int64_t>(std::ceil(8.0 * lnN));
    phaseCell[i] = plan.size();
    plan.push_back({repsPhases, ctx.seed ^ static_cast<std::uint64_t>(n * 5 + phaseCells[i].avg), 4,
                    [n, m, logBand](std::int64_t, std::uint64_t seed) {
                      sim::PhaseTracker tracker({logBand, 1});
                      core::SimOptions o;
                      o.engine = core::SimOptions::EngineKind::Hybrid;
                      o.seed = seed;
                      const auto r = core::balance(config::allInOne(n, m), o,
                                                   process::Target::perfect(), {}, &tracker);
                      const double t1 = tracker.hitTime(0);
                      const double t2 = tracker.hitTime(1);
                      return std::vector<double>{t1, t2 - t1, r.time - t2, r.time};
                    }});
  }

  // Lemma 13: one shrink step from half-half starts.
  const std::int64_t nShrink = ctx.sized(1024, 2);
  const std::int64_t avgShrink = 256;  // avg > 16 ln n: the "large avg" regime
  const double lnShrink = std::log(static_cast<double>(nShrink));
  const std::int64_t xs[] = {avgShrink / 2, avgShrink / 4, avgShrink / 8};
  const std::int64_t repsShrink = ctx.repsOr(20);
  const std::size_t firstShrink = plan.size();
  for (const std::int64_t x : xs) {
    const auto target =
        static_cast<std::int64_t>(std::ceil(2.0 * std::sqrt(static_cast<double>(x) * lnShrink)));
    plan.push_back({repsShrink, ctx.seed ^ static_cast<std::uint64_t>(x), 1,
                    [n = nShrink, m = nShrink * avgShrink, x, target,
                     lnN = lnShrink](std::int64_t, std::uint64_t seed) {
                      sim::PhaseTracker tracker({target});
                      core::SimOptions o;
                      o.engine = core::SimOptions::EngineKind::Hybrid;
                      o.seed = seed;
                      process::RunLimits limits;
                      limits.maxTime = 50.0 * lnN;  // safety; Lemma 13 needs far less
                      core::balance(config::halfHalf(n, m, x), o,
                                    process::Target::xBalanced(target), limits, &tracker);
                      return std::vector<double>{tracker.hitTime(0)};
                    }});
  }

  // Lemma 15: overloaded-ball decay.
  const std::int64_t nsDecay[] = {ctx.sized(1024, 2), ctx.sized(4096, 2)};
  const std::int64_t avgDecay = 32;
  const std::int64_t repsDecay = ctx.repsOr(20);
  std::size_t decayCell[std::size(nsDecay)] = {};
  for (std::size_t i = std::size(nsDecay); i-- > 0;) {
    const std::int64_t n = nsDecay[i];
    const auto x = static_cast<std::int64_t>(std::ceil(std::log(static_cast<double>(n))));
    decayCell[i] = plan.size();
    plan.push_back({repsDecay, ctx.seed ^ static_cast<std::uint64_t>(n * 13), 1,
                    [n, m = n * avgDecay, x](std::int64_t, std::uint64_t seed) {
                      // halfHalf(x): overloaded balls = x*n/2 > n; wait until <= n.
                      core::SimOptions o;
                      o.engine = core::SimOptions::EngineKind::Jump;
                      o.seed = seed;
                      auto engine = core::makeEngine(config::halfHalf(n, m, x), o);
                      while (engine->state().overloadedBalls > n) {
                        if (!engine->advance()) break;
                      }
                      return std::vector<double>{engine->now().value};
                    }});
  }

  const auto results = runner::runReplications(plan, ctx.pool());

  // --------------------------------------------------------- E5+E6+E7
  {
    Table table({"n", "avg", "reps", "phase1", "/ln n", "phase2", "/(n/avg)", "phase3",
                 "/(n/avg)", "total"});
    for (std::size_t i = 0; i < std::size(phaseCells); ++i) {
      const PhaseCell c = phaseCells[i];
      const double lnN = std::log(static_cast<double>(c.n));
      const runner::ReplicationResult& result = results[phaseCell[i]];
      const auto p1 = result.summary(0);
      const auto p2 = result.summary(1);
      const auto p3 = result.summary(2);
      const auto total = result.summary(3);
      const double nOverAvg = static_cast<double>(c.n) / static_cast<double>(c.avg);
      table.row()
          .cell(c.n)
          .cell(c.avg)
          .cell(repsPhases)
          .cell(p1.mean)
          .cell(p1.mean / lnN, 3)
          .cell(p2.mean)
          .cell(p2.mean / nOverAvg, 3)
          .cell(p3.mean)
          .cell(p3.mean / nOverAvg, 3)
          .cell(total.mean);
    }
    ctx.emitTable(table,
                  "[E5-E7] phase durations from all-in-one; normalized columns must "
                  "stay O(1) as n grows (phase thresholds: 8 ln n, 1, perfect)");
  }

  // ------------------------------------------------------ Lemma 13 shrink
  {
    Table table({"n", "avg", "x", "target 2*sqrt(x ln n)", "reps", "mean t_x",
                 "ln((avg+x)/(avg-x))", "ratio"});
    for (std::size_t i = 0; i < std::size(xs); ++i) {
      const std::int64_t x = xs[i];
      const auto target =
          static_cast<std::int64_t>(std::ceil(2.0 * std::sqrt(static_cast<double>(x) * lnShrink)));
      const auto s = results[firstShrink + i].summary(0);
      const double predicted = std::log(static_cast<double>(avgShrink + x)) -
                               std::log(static_cast<double>(avgShrink - x));
      table.row()
          .cell(nShrink)
          .cell(avgShrink)
          .cell(x)
          .cell(target)
          .cell(repsShrink)
          .cell(s.mean)
          .cell(predicted, 4)
          .cell(s.mean / predicted, 3);
    }
    ctx.emitTable(table,
                  "[E5/Lemma 13] one shrink step: from disc x to 2 sqrt(x ln n) within "
                  "~ln((avg+x)/(avg-x)) (ratio should be O(1), typically < 1: the lemma "
                  "waits for every ball's activation window)");
  }

  // ------------------------------------------------------ Lemma 15 decay
  {
    Table table({"n", "avg", "start disc", "reps", "t: overload n*disc -> n", "(ln n)^2/avg",
                 "ratio"});
    for (std::size_t i = 0; i < std::size(nsDecay); ++i) {
      const std::int64_t n = nsDecay[i];
      const double lnN = std::log(static_cast<double>(n));
      const auto x = static_cast<std::int64_t>(std::ceil(lnN));
      const auto s = results[decayCell[i]].summary(0);
      const double predicted = lnN * lnN / static_cast<double>(avgDecay);
      table.row()
          .cell(n)
          .cell(avgDecay)
          .cell(x)
          .cell(repsDecay)
          .cell(s.mean)
          .cell(predicted, 4)
          .cell(s.mean / predicted, 3);
    }
    ctx.emitTable(table, "[E6/Lemma 15] overloaded-ball decay to n within O((ln n)^2/avg)");
  }
}

}  // namespace

void registerPhases(ScenarioRegistry& r) {
  r.add({"e5_phases", "Section 6 phase decomposition (Lemmas 10-17)",
         "Section 6; Lemmas 10-17", runPhases});
}

}  // namespace rlslb::scenario::builtin
