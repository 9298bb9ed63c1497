// micro_substrate -- substrate micro-costs, recorded into the JSON results.
//
// The registry-native companion to bench_engines (which needs Google
// Benchmark and is therefore not always built): a fixed-budget loop timer
// over the data-structure hot paths the engines are built on, so every
// `rlslb all --out=...` run leaves per-op costs in the results file next
// to the experiment wall-clocks CI tracks.
//
// The headline pair is Fenwick total() cached vs the root-prefix-sum
// recompute it replaced: the naive engine's weighted draw consumes the
// tree total every activation, and caching turns that O(log n) walk into
// a load (see ds/fenwick.hpp).
//
// Parameters: n (tree size, default 100000 -- deliberately not a power of
// two: prefixSum(n) touches one node per set bit of n, so a power-of-two
// size would collapse the recompute walk to a single read and understate
// the win), ops (per-measurement loop count, default 2e6, scaled by
// --scale), jump_levels (distinct loads kept in play for the jump-step
// rows, default 512, where the two backends cost about the same; the
// index pulls ahead as it grows).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ds/fenwick.hpp"
#include "ds/load_multiset.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256pp.hpp"
#include "scenario/builtin/builtin.hpp"
#include "sim/jump_engine.hpp"
#include "util/timer.hpp"

namespace rlslb::scenario::builtin {

namespace {

void runMicroSubstrate(ScenarioContext& ctx) {
  const auto n = static_cast<std::size_t>(ctx.params.getInt("n", 100000));
  // At least 16 at any scale, so every row, the jump rows' ops / 16
  // included, times at least one operation (a row of none prints inf).
  const auto ops = std::max<std::int64_t>(
      16, static_cast<std::int64_t>(
              static_cast<double>(ctx.params.getInt("ops", 2'000'000)) * ctx.scale));

  Table table({"operation", "n", "ops", "ns/op"});
  const auto measure = [&](const char* name, std::int64_t count, auto&& body) {
    WallTimer wall;
    body(count);
    const double ns = wall.seconds() * 1e9 / static_cast<double>(count);
    table.row().cell(name).cell(n).cell(count).cell(ns, 4);
  };

  ds::Fenwick<std::int64_t> tree(std::vector<std::int64_t>(n, 4));
  rng::Xoshiro256pp eng(ctx.seed);
  volatile std::int64_t sinkValue = 0;  // defeat dead-code elimination

  measure("fenwick add (+1/-1 pair)", ops, [&](std::int64_t count) {
    std::size_t i = 0;
    for (std::int64_t k = 0; k < count; ++k) {
      tree.add(i, 1);
      tree.add(i, -1);
      i = static_cast<std::size_t>(rng::uniformIndex(eng, n));
    }
  });

  measure("fenwick weighted sample", ops, [&](std::int64_t count) {
    const std::int64_t total = tree.total();
    for (std::int64_t k = 0; k < count; ++k) {
      const auto ticket =
          static_cast<std::int64_t>(rng::uniformIndex(eng, static_cast<std::uint64_t>(total)));
      sinkValue = sinkValue + static_cast<std::int64_t>(tree.upperBound(ticket));
    }
  });

  measure("fenwick total (cached)", ops, [&](std::int64_t count) {
    for (std::int64_t k = 0; k < count; ++k) sinkValue = sinkValue + tree.total();
  });

  measure("fenwick total (root prefix-sum recompute)", ops, [&](std::int64_t count) {
    for (std::int64_t k = 0; k < count; ++k) sinkValue = sinkValue + tree.prefixSum(n);
  });

  measure("multiset ball move (64 levels)", ops / 4, [&](std::int64_t count) {
    const auto fresh = [] {
      std::vector<std::int64_t> loads;
      for (std::int64_t i = 0; i < 64; ++i) loads.push_back(100 + i);
      return ds::LoadMultiset::fromLoads(loads);
    };
    auto ms = fresh();
    for (std::int64_t k = 0; k < count; ++k) {
      if (ms.maxLoad() - ms.minLoad() < 2) ms = fresh();
      ms.applyBallMove(ms.maxLoad(), ms.minLoad());
    }
  });

  // Jump-engine step cost on its two backends: the incremental level
  // index, O(log D) per event, and the scan path, which keeps each level's
  // weight but walks the levels to draw the source and the destination. A
  // staircase start keeps L = jump_levels distinct loads in play, the
  // regime where the walks cost most; the engine is re-created whenever
  // the chain absorbs.
  const auto jumpLevels = ctx.params.getInt("jump_levels", 512);
  const auto staircase = [jumpLevels] {
    std::vector<std::int64_t> loads;
    for (std::int64_t i = 0; i < jumpLevels; ++i) loads.push_back(i);
    return ds::LoadMultiset::fromLoads(loads);
  };
  const auto measureJump = [&](const char* label, bool useIndex) {
    measure(label, ops / 16, [&](std::int64_t count) {
      std::uint64_t seed = ctx.seed;
      // Both rows pay one identical engine construction (the ctor builds
      // the index for this config either way) per refresh, amortized over
      // jump_levels steps; disableLevelIndex before the first step is
      // O(1) (the multiset is still fresh), so the refresh overhead
      // cancels out of the row comparison.
      const auto fresh = [&] {
        auto engine = std::make_unique<sim::JumpEngine>(staircase(), ++seed);
        if (useIndex) {
          engine->enableLevelIndex();
        } else {
          engine->disableLevelIndex();
        }
        return engine;
      };
      auto engine = fresh();
      std::int64_t sinceFresh = 0;
      for (std::int64_t k = 0; k < count; ++k) {
        // Refresh every ~jump_levels steps (and on absorption) so the
        // level count stays near its initial value: the measurement targets
        // the many-levels regime where the scan's walks are longest.
        if (++sinceFresh >= jumpLevels || !engine->advance()) {
          engine = fresh();
          sinceFresh = 0;
        }
      }
    });
  };
  measureJump("jump step (incremental level index, O(log D))", true);
  measureJump("jump step (level scan, kept weights, O(L))", false);

  ctx.emitTimingTable(table,
                      "[micro] substrate per-op costs (wall-clock; the cached-total row "
                      "must be a small constant, the recompute row ~log n loads, and the "
                      "indexed jump step must beat the level scan at high level counts: "
                      "jump_levels=2048)");
}

}  // namespace

void registerMicroSubstrate(ScenarioRegistry& r) {
  r.add({"micro_substrate",
         "substrate micro-costs: Fenwick add/sample/total (cached vs recompute), multiset move",
         "engineering baseline (E13 companion)", runMicroSubstrate,
         {{"n", "int", "100000", "Fenwick size", {.intMin = 1}},
          // Bounded so that ops * scale converts back to int64 exactly.
          {"ops", "int", "2e6 (scaled)", "operations per micro row",
           {.intMin = 1, .intMax = std::int64_t{1} << 52}},
          {"jump_levels", "int", "512", "distinct levels for the jump-engine rows",
           {.intMin = 1}}}});
}

}  // namespace rlslb::scenario::builtin
