// e8_dml -- the Destructive Majorization Lemma (Lemma 2), empirically.
//
// Runs RLS under destructive-move adversaries of increasing aggressiveness
// and checks the two faces of the lemma:
//  (a) convergence-time dominance for adversaries tied to protocol moves
//      (reversal with probability p: E[T_adv] is nondecreasing in p);
//  (b) fixed-horizon discrepancy dominance for free-running adversaries
//      (random-pair / min-to-max injections), where convergence itself may
//      be destroyed -- exactly why the lemma is phrased as stochastic
//      dominance of disc(t), not as a time bound.
#include <cstddef>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "config/generators.hpp"
#include "core/dml.hpp"
#include "core/rls.hpp"
#include "process/process.hpp"
#include "runner/replication.hpp"
#include "scenario/builtin/builtin.hpp"
#include "stats/summary.hpp"
#include "util/format.hpp"

namespace rlslb::scenario::builtin {

namespace {

void runDml(ScenarioContext& ctx) {
  const std::int64_t n = ctx.params.getInt("n", ctx.sized(64));
  const std::int64_t m = 8 * n;
  const auto init = config::allInOne(n, m);

  // Both sections run as one replication plan, so no cell waits at a
  // barrier for another's stragglers. Cells are claimed in declaration
  // order: the reversal ladder from its most aggressive (slowest) rung
  // down, then the fixed-horizon rows; the tables read their cells back by
  // index.
  std::vector<runner::ReplicationCell> plan;

  // (a) reversal ladder.
  const double ps[] = {0.0, 0.1, 0.25, 0.5, 0.7};
  const std::int64_t repsA = ctx.repsOr(60);
  std::size_t cellA[std::size(ps)] = {};
  for (std::size_t i = std::size(ps); i-- > 0;) {
    const double p = ps[i];
    cellA[i] = plan.size();
    plan.push_back({repsA, ctx.seed ^ static_cast<std::uint64_t>(p * 1000), 1,
                    [init, p](std::int64_t, std::uint64_t seed) {
                      core::ReverseLastMoveAdversary adv(p);
                      core::AdversarialRls rls(init, seed, adv);
                      return std::vector<double>{
                          process::run(rls, process::Target::perfect()).time};
                    }});
  }

  // (b) fixed-horizon dominance: plain RLS, then one cell per adversary row.
  process::RunLimits limits;
  limits.maxTime = 8.0;
  const std::int64_t repsB = ctx.repsOr(80);
  const std::size_t plainCell = plan.size();
  plan.push_back({repsB, ctx.seed ^ 0x111, 1, [init, limits](std::int64_t, std::uint64_t seed) {
                    core::SimOptions o;
                    o.engine = core::SimOptions::EngineKind::Naive;
                    o.seed = seed;
                    return std::vector<double>{
                        core::balance(init, o, process::Target::perfect(), limits)
                            .finalState.discrepancy()};
                  }});
  struct Row {
    const char* name;
    std::unique_ptr<core::DestructiveAdversary> (*make)();
  };
  const Row rows[] = {
      {"random-pair x1/event",
       [] {
         return std::unique_ptr<core::DestructiveAdversary>(new core::RandomPairAdversary(1));
       }},
      {"min-to-max p=0.05",
       [] {
         return std::unique_ptr<core::DestructiveAdversary>(new core::MinToMaxAdversary(0.05));
       }},
      {"min-to-max p=0.2",
       [] {
         return std::unique_ptr<core::DestructiveAdversary>(new core::MinToMaxAdversary(0.2));
       }},
  };
  const std::size_t firstRow = plan.size();
  for (const Row& row : rows) {
    plan.push_back({repsB, ctx.seed ^ 0x222, 1,
                    [init, limits, make = row.make](std::int64_t, std::uint64_t seed) {
                      auto adv = make();
                      core::AdversarialRls rls(init, seed, *adv);
                      return std::vector<double>{
                          process::run(rls, process::Target::perfect(), limits)
                              .finalState.discrepancy()};
                    }});
  }

  const auto results = runner::runReplications(plan, ctx.pool());

  // ------------------------------------------------- (a) reversal ladder
  {
    Table table({"adversary", "reps", "E[T]", "ci95", "slowdown vs plain"});
    const double plainMean = results[cellA[0]].summary(0).mean;  // p = 0
    for (std::size_t i = 0; i < std::size(ps); ++i) {
      const auto s = results[cellA[i]].summary(0);
      table.row()
          .cell("reverse-last p=" + formatSig(ps[i], 2))
          .cell(repsA)
          .cell(s.mean)
          .cell(s.ci95Half)
          .cell(s.mean / plainMean, 3);
    }
    ctx.emitTable(table,
                  "[E8a] reversal adversary: E[T] nondecreasing in reversal probability "
                  "(p=0 row is plain RLS)");
  }

  // --------------------------------------- (b) fixed-horizon dominance
  {
    Table table({"adversary", "reps", "mean disc(T=8)", "ci95", "vs plain"});
    const auto plain = results[plainCell].summary(0);
    table.row().cell("none (plain RLS)").cell(repsB).cell(plain.mean).cell(plain.ci95Half).cell(
        "1");
    for (std::size_t i = 0; i < std::size(rows); ++i) {
      const auto s = results[firstRow + i].summary(0);
      table.row().cell(rows[i].name).cell(repsB).cell(s.mean).cell(s.ci95Half).cell(
          s.mean / plain.mean, 3);
    }
    ctx.emitTable(table,
                  "[E8b] discrepancy at fixed horizon t=8: every adversary row must "
                  "dominate the plain row (Lemma 2's stochastic dominance)");
  }
}

}  // namespace

void registerDml(ScenarioRegistry& r) {
  r.add({"e8_dml", "Lemma 2 (DML): destructive moves never speed up RLS",
         "Lemma 2; Section 4", runDml,
         {{"n", "int", "64 (scaled)", "bins", {.intMin = 1, .intMax = kMaxBins}}}});
}

}  // namespace rlslb::scenario::builtin
