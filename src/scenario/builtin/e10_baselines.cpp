// e10_baselines -- the related-work baselines of Section 2, quantitatively.
//
// (A) RLS vs the strict-inequality variant of [Goldberg'04, Ganesh+'12]:
//     the paper remarks the balancing times coincide exactly; the table
//     reports both means and a Mann-Whitney p-value (must NOT separate).
// (B) Local search from a two-choice start: RLS activations to perfect
//     balance vs CRS [9] pair-draws to local stability. Section 2: RLS
//     needs O(n^2) activations, CRS n^{O(1)} draws with a larger exponent.
// (C) Synchronous protocols from the worst case: rounds to reach a
//     logarithmic band for selfish rerouting [4], EDM global-average [10],
//     and threshold [1], next to RLS's continuous time (one time unit ~ one
//     round of m expected activations). Shows the knowledge/synchrony
//     trade-off the paper discusses.
// (D) Self-stabilizing repeated balls-into-bins [2] at m = n.
#include <cmath>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/generators.hpp"
#include "core/rls.hpp"
#include "process/registry.hpp"
#include "rng/xoshiro256pp.hpp"
#include "runner/replication.hpp"
#include "scenario/builtin/builtin.hpp"
#include "stats/summary.hpp"
#include "stats/tests.hpp"
#include "util/parse.hpp"

namespace rlslb::scenario::builtin {

namespace {

/// A synchronous baseline of section (C): table label and registry kind.
struct SyncRow {
  const char* name;
  const char* kind;
};

/// Section (C)'s roster, filtered by `process=` (a comma list of kinds;
/// empty keeps all three). Unknown kinds are a usage error.
std::vector<SyncRow> syncRoster(const std::string& filter) {
  const SyncRow all[] = {
      {"selfish [4]", "selfish"},
      {"EDM global-avg [10]", "edm"},
      {"threshold T=avg [1]", "threshold"},
  };
  if (filter.empty()) return {std::begin(all), std::end(all)};
  std::vector<SyncRow> rows;
  for (const std::string& kind : util::splitEntries("process", filter, ',')) {
    bool known = false;
    for (const SyncRow& row : all) {
      if (kind == row.kind) {
        rows.push_back(row);
        known = true;
      }
    }
    if (!known) {
      throw std::invalid_argument("e10_baselines: process= must name synchronous kinds from "
                                  "selfish|edm|threshold (comma-separated), got '" +
                                  kind + "'");
    }
  }
  return rows;
}

void runBaselines(ScenarioContext& ctx) {
  // Baseline protocols are constructed through the process registry (one
  // construction path for every dynamic); register before the parallel
  // replication sweeps so the registry is read-only under the pool.
  process::registerBuiltinProcesses();

  // `process=` filters the synchronous roster of section (C), e.g.
  //   rlslb run e10_baselines process=threshold
  const std::vector<SyncRow> syncRows = syncRoster(ctx.params.getString("process", ""));

  // All four sections run as one replication plan, so no section waits for
  // another's stragglers. Cells are claimed in declaration order: the
  // synchronous protocols of (C), whose replications are the longest, go
  // first; the tables below read their cells back by index, in table order.
  std::vector<runner::ReplicationCell> plan;

  // ----------------------------------- (C) synchronous baselines, declared
  const std::int64_t nC = ctx.sized(128);
  const auto band = static_cast<std::int64_t>(std::ceil(2.0 * std::log(static_cast<double>(nC))));
  const std::int64_t repsC = ctx.repsOr(15);
  const std::int64_t ratios[] = {16, 256};
  const std::size_t firstC = plan.size();  // per ratio: one cell per row, then RLS
  for (const std::int64_t ratio : ratios) {
    const std::int64_t m = nC * ratio;
    for (const SyncRow& row : syncRows) {
      plan.push_back({repsC, ctx.seed ^ static_cast<std::uint64_t>(ratio * 31), 2,
                      [kind = row.kind, nC, m, band](std::int64_t, std::uint64_t seed) {
                        auto proto = process::makeProcess(kind, config::allInOne(nC, m), seed);
                        process::RunLimits protoLimits;
                        protoLimits.maxEvents = 2000;
                        const auto r =
                            process::run(*proto, process::Target::xBalanced(band), protoLimits);
                        const double rounds = r.reachedTarget ? r.clock.value : -1.0;
                        return std::vector<double>{rounds, r.finalState.discrepancy()};
                      }});
    }
    // RLS reference: continuous time to the same band.
    plan.push_back({repsC, ctx.seed ^ static_cast<std::uint64_t>(ratio), 1,
                    [nC, m, band](std::int64_t, std::uint64_t seed) {
                      core::SimOptions o;
                      o.engine = core::SimOptions::EngineKind::Hybrid;
                      o.seed = seed;
                      return std::vector<double>{core::balancingTime(
                          config::allInOne(nC, m), o, process::Target::xBalanced(band))};
                    }});
  }

  // -------------------------------------------- (A) strict variant, declared
  const std::int64_t nA[] = {ctx.sized(64), ctx.sized(256)};
  const std::int64_t repsA = ctx.repsOr(300);
  const std::size_t firstA = plan.size();  // per n: gap 1, then gap 2
  for (const std::int64_t n : nA) {
    for (const int gap : {1, 2}) {
      const std::uint64_t salt = gap == 1 ? 0 : 0xabc;
      plan.push_back({repsA, ctx.seed ^ static_cast<std::uint64_t>(n) ^ salt, 1,
                      [n, gap](std::int64_t, std::uint64_t seed) {
                        core::SimOptions o;
                        o.engine = core::SimOptions::EngineKind::Naive;
                        o.seed = seed;
                        o.gap = gap;
                        return std::vector<double>{
                            core::balancingTime(config::allInOne(n, 8 * n), o)};
                      }});
    }
  }

  // ---------------------------------------------- (B) CRS vs RLS, declared
  const std::int64_t nB[] = {16, 32, 64, 128};
  const std::int64_t repsB = ctx.repsOr(15);
  const std::size_t firstB = plan.size();
  for (const std::int64_t n : nB) {
    const std::int64_t m = 4 * n;
    plan.push_back({repsB, ctx.seed ^ static_cast<std::uint64_t>(n * 999), 4,
                    [n, m](std::int64_t, std::uint64_t seed) {
                      rng::Xoshiro256pp initEng(seed);
                      const auto start = config::greedyD(n, m, 2, initEng);
                      core::SimOptions o;
                      o.engine = core::SimOptions::EngineKind::Naive;
                      o.seed = seed ^ 0x5555;
                      const auto r = core::balance(start, o);

                      // CRS through the registry (uses only the (n, m) shape; its
                      // candidate pairs and Greedy[2] placement are seed-derived).
                      auto crs = process::makeProcess("crs", config::allInOne(n, m),
                                                      seed ^ 0x9999);
                      process::RunLimits crsLimits;
                      crsLimits.maxEvents = 200'000'000;
                      const auto cr =
                          process::run(*crs, process::Target::equilibrium(), crsLimits);
                      const double draws = cr.reachedTarget ? cr.clock.value : -1.0;
                      return std::vector<double>{static_cast<double>(r.activations), r.time,
                                                 draws, cr.finalState.discrepancy()};
                    }});
  }

  // ------------------------------- (D) repeated balls-into-bins, declared
  const std::int64_t nD[] = {ctx.sized(256), ctx.sized(1024)};
  const std::int64_t repsD = ctx.repsOr(10);
  const std::size_t firstD = plan.size();
  for (const std::int64_t n : nD) {
    plan.push_back({repsD, ctx.seed ^ static_cast<std::uint64_t>(n * 77), 2,
                    [n](std::int64_t, std::uint64_t seed) {
                      auto p = process::makeProcess("repeated", config::allInOne(n, n), seed);
                      for (std::int64_t r = 0; r < 3 * n; ++r) p->advance();  // drain + stabilize
                      double maxSum = 0.0;
                      const int samplesPerRun = 50;
                      for (int s = 0; s < samplesPerRun; ++s) {
                        for (int r = 0; r < 4; ++r) p->advance();
                        maxSum += static_cast<double>(p->state().maxLoad);  // O(1) via the tracker
                      }
                      core::SimOptions o;
                      o.engine = core::SimOptions::EngineKind::Hybrid;
                      o.seed = seed ^ 0x777;
                      const auto rls = core::balance(config::allInOne(n, n), o);
                      return std::vector<double>{maxSum / samplesPerRun,
                                                 static_cast<double>(rls.finalState.maxLoad)};
                    }});
  }

  const auto results = runner::runReplications(plan, ctx.pool());

  // ------------------------------------------------ (A) strict variant
  {
    Table table({"n", "m", "reps", "E[T] gap=1", "E[T] gap=2", "MWU p-value", "verdict"});
    std::size_t cell = firstA;
    for (const std::int64_t n : nA) {
      const std::vector<double>& t1 = results[cell++].samples[0];
      const std::vector<double>& t2 = results[cell++].samples[0];
      const auto mwu = stats::mannWhitneyU(t1, t2);
      table.row()
          .cell(n)
          .cell(8 * n)
          .cell(repsA)
          .cell(stats::summarize(t1).mean)
          .cell(stats::summarize(t2).mean)
          .cell(mwu.pValue, 3)
          .cell(mwu.pValue > 0.01 ? "indistinguishable" : "SEPARATED (unexpected)");
    }
    ctx.emitTable(table,
                  "[E10-A] RLS (>=) vs strict variant (>): identical balancing-time "
                  "distribution (Section 3 remark)");
  }

  // ----------------------------------------------------- (B) CRS vs RLS
  {
    Table table({"n", "m", "reps", "RLS activations", "RLS time", "CRS pair-draws",
                 "CRS final disc", "draws/activations"});
    std::size_t cell = firstB;
    for (const std::int64_t n : nB) {
      const runner::ReplicationResult& result = results[cell++];
      const auto act = result.summary(0);
      const auto time = result.summary(1);
      const auto draws = result.summary(2);
      const auto disc = result.summary(3);
      table.row()
          .cell(n)
          .cell(4 * n)
          .cell(repsB)
          .cell(act.mean, 5)
          .cell(time.mean)
          .cell(draws.mean, 5)
          .cell(disc.mean, 3)
          .cell(draws.mean / act.mean, 3);
    }
    ctx.emitTable(table,
                  "[E10-B] from a two-choice placement: RLS to perfect balance vs CRS "
                  "to local stability (the ratio grows with n: CRS pays a larger "
                  "polynomial exponent, Section 2)");
  }

  // ------------------------------------------- (C) synchronous baselines
  {
    Table table({"protocol", "n", "m", "reps", "rounds to 2ln(n)-band", "final disc",
                 "RLS time to same band"});
    std::size_t cell = firstC;
    for (const std::int64_t ratio : ratios) {
      const double rlsTime = results[cell + syncRows.size()].summary(0).mean;
      for (const SyncRow& row : syncRows) {
        const runner::ReplicationResult& result = results[cell++];
        table.row()
            .cell(row.name)
            .cell(nC)
            .cell(nC * ratio)
            .cell(repsC)
            .cell(result.summary(0).mean, 4)
            .cell(result.summary(1).mean, 3)
            .cell(rlsTime, 4);
      }
      ++cell;  // the RLS reference
    }
    ctx.emitTable(
        table,
        "[E10-C] synchronous baselines from the worst case (rounds = -1 means the band "
        "was not reached: the protocol stalls in a wider stationary band). One RLS time "
        "unit ~ one synchronous round (m expected activations).");
  }

  // ---------------------------- (D) self-stabilizing repeated b-i-b [2]
  {
    Table table({"n (= m)", "reps", "stationary max load", "3 ln n / ln ln n", "RLS final max"});
    std::size_t cell = firstD;
    for (const std::int64_t n : nD) {
      const runner::ReplicationResult& result = results[cell++];
      const double lnN = std::log(static_cast<double>(n));
      table.row()
          .cell(n)
          .cell(repsD)
          .cell(result.summary(0).mean, 4)
          .cell(3.0 * lnN / std::log(lnN), 4)
          .cell(result.summary(1).mean, 3);
    }
    ctx.emitTable(table,
                  "[E10-D] self-stabilizing repeated balls-into-bins [2] at m = n: it "
                  "churns forever in an O(log n / log log n)-max-load band, while RLS "
                  "terminates at max load 1");
  }
}

}  // namespace

void registerBaselines(ScenarioRegistry& r) {
  r.add({"e10_baselines",
         "Section 2 baselines: strict-RLS, CRS [9], selfish [4], EDM [10], threshold [1]",
         "Section 2", runBaselines,
         {{"process", "string", "(all three)",
           "filter section (C)'s synchronous roster: comma list of selfish|edm|threshold"}}});
}

}  // namespace rlslb::scenario::builtin
