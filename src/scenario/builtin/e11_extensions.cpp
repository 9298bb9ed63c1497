// e11_extensions -- Section 7 extensions one and two: bin speeds and
// weighted balls.
//
// Speeds: bins with integer speeds; RLS with the strict-improvement rule
// converges to a Nash equilibrium whose per-speed loads track m*s_i/sum(s).
// The table reports time to equilibrium and the final weighted discrepancy
// across speed skews.
//
// Weights: balls with integer weights; equilibrium spread is bounded by the
// maximum weight. The table sweeps weight distributions and reports time to
// equilibrium, final spread, and the max-weight bound.
#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "config/generators.hpp"
#include "ext/speed_rls.hpp"
#include "ext/weighted_rls.hpp"
#include "process/process.hpp"
#include "rng/distributions.hpp"
#include "runner/replication.hpp"
#include "scenario/builtin/builtin.hpp"
#include "stats/summary.hpp"

namespace rlslb::scenario::builtin {

namespace {

void runExtensions(ScenarioContext& ctx) {
  const std::int64_t n = ctx.params.getInt("n", ctx.sized(128));

  // Both sections run as one replication plan, so no cell waits at a
  // barrier for another's stragglers. Cells are claimed in declaration
  // order; the speed cells, whose runs are the longest, come first, and the
  // tables read their cells back by index.
  std::vector<runner::ReplicationCell> plan;

  // speeds
  const std::int64_t mSpeeds = 16 * n;
  struct Skew {
    const char* name;
    std::function<std::int64_t(std::int64_t)> speedOf;
  };
  const Skew skews[] = {
      {"uniform s=1", [](std::int64_t) -> std::int64_t { return 1; }},
      {"half 1 / half 2", [n](std::int64_t i) -> std::int64_t { return i < n / 2 ? 1 : 2; }},
      {"1:2:4 thirds",
       [n](std::int64_t i) -> std::int64_t { return i < n / 3 ? 1 : (i < 2 * n / 3 ? 2 : 4); }},
      {"one fast (s=8)", [n](std::int64_t i) -> std::int64_t { return i == n - 1 ? 8 : 1; }},
  };
  const std::int64_t repsSpeeds = ctx.repsOr(15);
  const std::size_t firstSpeed = plan.size();
  for (const auto& skew : skews) {
    std::vector<std::int64_t> speeds(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) speeds[static_cast<std::size_t>(i)] = skew.speedOf(i);
    plan.push_back({repsSpeeds, ctx.seed ^ stableHash(skew.name), 3,
                    [n, m = mSpeeds, speeds](std::int64_t, std::uint64_t seed) {
                      ext::SpeedRlsEngine engine(config::allInOne(n, m), speeds, seed);
                      const auto r = process::run(engine, process::Target::equilibrium(),
                                                  {.maxEvents = 500'000'000});
                      return std::vector<double>{r.time, engine.weightedDiscrepancy(),
                                                 static_cast<double>(r.moves)};
                    }});
  }

  // weights
  struct Dist {
    const char* name;
    std::function<std::vector<std::int64_t>(rng::Xoshiro256pp&)> weights;
    std::int64_t count;
  };
  const std::int64_t unitCount = 16 * n;
  const Dist dists[] = {
      {"unit (w=1)",
       [unitCount](rng::Xoshiro256pp&) {
         return std::vector<std::int64_t>(static_cast<std::size_t>(unitCount), 1);
       },
       unitCount},
      {"uniform 1..8",
       [unitCount](rng::Xoshiro256pp& eng) {
         std::vector<std::int64_t> w(static_cast<std::size_t>(unitCount / 4));
         for (auto& x : w) x = 1 + static_cast<std::int64_t>(rng::uniformIndex(eng, 8));
         return w;
       },
       unitCount / 4},
      {"bimodal 1 / 16",
       [unitCount](rng::Xoshiro256pp& eng) {
         std::vector<std::int64_t> w(static_cast<std::size_t>(unitCount / 4));
         for (auto& x : w) x = rng::bernoulli(eng, 0.1) ? 16 : 1;
         return w;
       },
       unitCount / 4},
  };
  const std::int64_t repsWeights = ctx.repsOr(15);
  const std::size_t firstDist = plan.size();
  for (const auto& dist : dists) {
    plan.push_back({repsWeights, ctx.seed ^ stableHash(dist.name), 3,
                    [n, makeWeights = dist.weights](std::int64_t, std::uint64_t seed) {
                      rng::Xoshiro256pp weng(seed ^ 0xfeed);
                      auto weights = makeWeights(weng);
                      std::int64_t maxW = 0;
                      for (auto w : weights) maxW = std::max(maxW, w);
                      std::vector<std::uint32_t> start(weights.size(), 0);  // all on bin 0
                      ext::WeightedRlsEngine engine(n, std::move(weights), std::move(start), seed);
                      const auto r = process::run(engine, process::Target::equilibrium(),
                                                  {.maxEvents = 500'000'000});
                      return std::vector<double>{r.time,
                                                 static_cast<double>(engine.weightedSpread()),
                                                 static_cast<double>(maxW)};
                    }});
  }

  const auto results = runner::runReplications(plan, ctx.pool());

  // --------------------------------------------------------------- speeds
  {
    Table table({"speeds", "reps", "E[time to Nash]", "ci95", "final wdisc", "moves"});
    for (std::size_t i = 0; i < std::size(skews); ++i) {
      const runner::ReplicationResult& result = results[firstSpeed + i];
      const auto t = result.summary(0);
      const auto wd = result.summary(1);
      const auto mv = result.summary(2);
      table.row()
          .cell(skews[i].name)
          .cell(repsSpeeds)
          .cell(t.mean)
          .cell(t.ci95Half)
          .cell(wd.mean, 3)
          .cell(mv.mean, 5);
    }
    ctx.emitTable(table,
                  "[E11-speeds] all-in-one start, n=" + std::to_string(n) +
                      ", m=16n: time to Nash equilibrium under speed skew (weighted disc "
                      "settles below ~1/s_min)");
  }

  // -------------------------------------------------------------- weights
  {
    Table table({"weights", "balls", "reps", "E[time to Nash]", "ci95", "final spread",
                 "max weight"});
    for (std::size_t i = 0; i < std::size(dists); ++i) {
      const runner::ReplicationResult& result = results[firstDist + i];
      const auto t = result.summary(0);
      const auto spread = result.summary(1);
      const auto maxW = result.summary(2);
      table.row()
          .cell(dists[i].name)
          .cell(dists[i].count)
          .cell(repsWeights)
          .cell(t.mean)
          .cell(t.ci95Half)
          .cell(spread.mean, 3)
          .cell(maxW.mean, 3);
    }
    ctx.emitTable(table,
                  "[E11-weights] all-on-one-bin start, n=" + std::to_string(n) +
                      ": time to Nash and final spread (bounded by the max weight, mirroring "
                      "the unit-weight perfect-balance guarantee)");
  }
}

}  // namespace

void registerExtensions(ScenarioRegistry& r) {
  r.add({"e11_extensions", "Section 7 extensions: bin speeds and weighted balls",
         "Section 7", runExtensions,
         {{"n", "int", "128 (scaled)", "bins (both sections)",
           {.intMin = 1, .intMax = kMaxBins}}}});
}

}  // namespace rlslb::scenario::builtin
