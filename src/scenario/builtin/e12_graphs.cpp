// e12_graphs -- Section 7, third future direction: RLS on network topologies.
//
// A ball samples a uniform *neighbor* of its bin. The harness measures the
// time to perfect balance across topologies at fixed n and m/n, next to the
// (lazy-walk) spectral gap for the regular ones -- echoing the tau_mix-type
// dependence [6] proves for threshold protocols on graphs -- and sweeps n
// on the two extremes (cycle vs complete) to expose the scaling split.
//
// Two exact samplers of the same chain run the cells. The sparse regular
// topologies (cycle, torus, hypercube, random regular) run on
// graph::GraphJumpEngine, which pays only for accepted moves (4-15% of
// the activations at these sizes). K_n runs on graph::GraphRlsEngine,
// which simulates every activation and is at least as fast there: the
// rejection-free engine pays O(n log n) per move on a degree-(n-1) graph.
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "config/generators.hpp"
#include "graph/graph_engine.hpp"
#include "graph/graph_jump_engine.hpp"
#include "graph/topology.hpp"
#include "process/process.hpp"
#include "runner/replication.hpp"
#include "scenario/builtin/builtin.hpp"
#include "stats/summary.hpp"

namespace rlslb::scenario::builtin {

namespace {

/// One replication: time to perfect balance on `topo` from all-in-one.
/// Sparse regular topologies run the rejection-free engine; K_n keeps the
/// per-activation one.
runner::ReplicationFn timeToBalance(const graph::Topology& topo, std::int64_t n,
                                    std::int64_t m) {
  return [&topo, n, m](std::int64_t, std::uint64_t seed) {
    const auto balance = [](process::Process& engine) {
      return std::vector<double>{process::run(engine, process::Target::perfect(),
                                              {.maxTime = 1e9, .maxEvents = 2'000'000'000})
                                     .time};
    };
    if (topo.isRegular() && !topo.isComplete()) {
      graph::GraphJumpEngine engine(config::allInOne(n, m), topo, seed);
      return balance(engine);
    }
    graph::GraphRlsEngine engine(config::allInOne(n, m), topo, seed);
    return balance(engine);
  };
}

void runGraphs(ScenarioContext& ctx) {
  // Topologies and spectral gaps are built on the calling thread; both
  // tables' replications then run as one plan. Cells are claimed in
  // declaration order, so the slowest-mixing topologies go first (the
  // n = 256 cycle's replications are the longest of the scenario), and the
  // tables read their cells back by index.

  // ----------------------------------------- topology comparison, fixed n
  const std::int64_t n = 256;  // fixed: hypercube and torus need shapes
  const std::int64_t m = 4 * n;
  rng::Xoshiro256pp topoEng(ctx.seed);
  struct Entry {
    std::string name;
    graph::Topology topo;
    double gap = 0.0;
    std::size_t cell = 0;  // plan index of its replications
  };
  std::vector<Entry> entries;
  entries.push_back({"complete", graph::Topology::complete(n)});
  entries.push_back({"hypercube d=8", graph::Topology::hypercube(8)});
  entries.push_back({"random 4-regular", graph::Topology::randomRegular(n, 4, topoEng)});
  entries.push_back({"torus 16x16", graph::Topology::torus(16, 16)});
  entries.push_back({"cycle", graph::Topology::cycle(n)});
  for (Entry& e : entries) {
    rng::Xoshiro256pp gapEng(ctx.seed + 1);
    e.gap = e.topo.spectralGapRegular(4000, gapEng);
  }
  const std::int64_t topoReps = ctx.repsOr(10);

  // ---------------------------------------------- scaling: cycle vs K_n
  const std::int64_t scalingNs[] = {32, 64, 128};
  const std::int64_t scalingReps = ctx.repsOr(8);
  std::vector<graph::Topology> cycles;
  std::vector<graph::Topology> completes;
  for (const std::int64_t sn : scalingNs) {
    cycles.push_back(graph::Topology::cycle(sn));
    completes.push_back(graph::Topology::complete(sn));
  }

  // Declared slowest first: the topology cells from the cycle back to the
  // complete graph, then the scaling cells from the largest n down.
  std::vector<runner::ReplicationCell> plan;
  for (std::size_t i = entries.size(); i-- > 0;) {
    Entry& e = entries[i];
    e.cell = plan.size();
    plan.push_back({topoReps, ctx.seed ^ stableHash(e.name), 1, timeToBalance(e.topo, n, m)});
  }
  std::size_t scalingCell[std::size(scalingNs)] = {};  // the cycle's; K_n's follows it
  for (std::size_t i = std::size(scalingNs); i-- > 0;) {
    const std::int64_t sn = scalingNs[i];
    scalingCell[i] = plan.size();
    plan.push_back({scalingReps, ctx.seed ^ static_cast<std::uint64_t>(sn), 1,
                    timeToBalance(cycles[i], sn, 4 * sn)});
    plan.push_back({scalingReps, ctx.seed ^ static_cast<std::uint64_t>(sn * 3), 1,
                    timeToBalance(completes[i], sn, 4 * sn)});
  }
  const auto results = runner::runReplications(plan, ctx.pool());
  const auto summaryOf = [&](std::size_t cell) {
    return stats::summarize(results[cell].samples[0]);
  };

  {
    Table table({"topology", "degree", "diameter", "spectral gap", "reps", "E[T]", "ci95",
                 "T * gap", "slowdown vs complete"});
    double completeMean = 0.0;
    for (const Entry& e : entries) {
      const auto s = summaryOf(e.cell);
      if (e.name == "complete") completeMean = s.mean;
      table.row()
          .cell(e.name)
          .cell(e.topo.degree(0))
          .cell(e.topo.diameter())
          .cell(e.gap, 4)
          .cell(topoReps)
          .cell(s.mean)
          .cell(s.ci95Half)
          .cell(s.mean * e.gap, 3)
          .cell(s.mean / completeMean, 3);
    }
    ctx.emitTable(table,
                  "[E12] time to perfect balance, all-in-one start, n=256, m=4n "
                  "(ordering must follow mixing: complete < hypercube ~ expander < "
                  "torus < cycle)");
  }

  {
    Table table({"n", "cycle E[T]", "cycle T/n^2", "complete E[T]", "complete T/(ln n + n/4)"});
    for (std::size_t i = 0; i < std::size(scalingNs); ++i) {
      const std::int64_t sn = scalingNs[i];
      const double ct = summaryOf(scalingCell[i]).mean;
      const double kt = summaryOf(scalingCell[i] + 1).mean;
      table.row()
          .cell(sn)
          .cell(ct)
          .cell(ct / (static_cast<double>(sn) * static_cast<double>(sn)), 4)
          .cell(kt)
          .cell(kt / (std::log(static_cast<double>(sn)) + static_cast<double>(sn) / 4.0), 4);
    }
    ctx.emitTable(table,
                  "[E12] scaling split: the cycle pays ~n^2 (diffusive) while the "
                  "complete graph stays ~ln n + n^2/m");
  }
}

}  // namespace

void registerGraphs(ScenarioRegistry& r) {
  r.add({"e12_graphs", "Section 7 extension: RLS on cycle/torus/hypercube/expander",
         "Section 7", runGraphs});
}

}  // namespace rlslb::scenario::builtin
