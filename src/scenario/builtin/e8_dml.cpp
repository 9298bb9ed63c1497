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
#include <memory>
#include <string>
#include <vector>

#include "config/generators.hpp"
#include "core/dml.hpp"
#include "core/rls.hpp"
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

  // ------------------------------------------------- (a) reversal ladder
  {
    Table table({"adversary", "reps", "E[T]", "ci95", "slowdown vs plain"});
    double plainMean = 0.0;
    for (const double p : {0.0, 0.1, 0.25, 0.5, 0.7}) {
      const std::int64_t reps = ctx.repsOr(60);
      const auto samples = runner::runReplicationsScalar(
          reps, ctx.seed ^ static_cast<std::uint64_t>(p * 1000),
          [&](std::int64_t, std::uint64_t seed) {
            core::ReverseLastMoveAdversary adv(p);
            return core::runWithAdversary(init, seed, adv, sim::Target::perfect()).time;
          }, ctx.pool());
      const auto s = stats::summarize(samples);
      if (p == 0.0) plainMean = s.mean;
      table.row()
          .cell("reverse-last p=" + formatSig(p, 2))
          .cell(reps)
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
    const double horizon = 8.0;
    sim::RunLimits limits;
    limits.maxTime = horizon;
    Table table({"adversary", "reps", "mean disc(T=8)", "ci95", "vs plain"});

    const std::int64_t reps = ctx.repsOr(80);
    const auto runPlain = [&](std::int64_t, std::uint64_t seed) {
      core::SimOptions o;
      o.engine = core::SimOptions::EngineKind::Naive;
      o.seed = seed;
      return core::balance(init, o, sim::Target::perfect(), limits).finalState.discrepancy();
    };
    const auto plain = stats::summarize(
        runner::runReplicationsScalar(reps, ctx.seed ^ 0x111, runPlain, ctx.pool()));
    table.row().cell("none (plain RLS)").cell(reps).cell(plain.mean).cell(plain.ci95Half).cell(
        "1");

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
    for (const auto& row : rows) {
      const auto samples = runner::runReplicationsScalar(
          reps, ctx.seed ^ 0x222, [&](std::int64_t, std::uint64_t seed) {
            auto adv = row.make();
            return core::runWithAdversary(init, seed, *adv, sim::Target::perfect(), limits)
                .finalState.discrepancy();
          }, ctx.pool());
      const auto s = stats::summarize(samples);
      table.row().cell(row.name).cell(reps).cell(s.mean).cell(s.ci95Half).cell(
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
