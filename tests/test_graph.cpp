// Tests for src/graph: topology constructors, neighbor sampling, spectral
// gap, and RLS on graphs (Section 7 extension).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>

#include "config/generators.hpp"
#include "config/metrics.hpp"
#include "graph/graph_engine.hpp"
#include "graph/graph_jump_engine.hpp"
#include "graph/topology.hpp"
#include "process/process.hpp"
#include "rng/splitmix64.hpp"
#include "sim/naive_engine.hpp"
#include "stats/running_stat.hpp"
#include "stats/tests.hpp"

#ifndef M_PI
#define M_PI 3.14159265358979323846
#endif

namespace rlslb::graph {
namespace {

TEST(Topology, CompleteImplicit) {
  const auto g = Topology::complete(10);
  EXPECT_EQ(g.numVertices(), 10);
  EXPECT_EQ(g.numEdges(), 45);
  EXPECT_EQ(g.degree(3), 9);
  EXPECT_TRUE(g.isComplete());
  EXPECT_TRUE(g.isConnected());
  EXPECT_TRUE(g.isRegular());
}

TEST(Topology, CompleteNeighborEnumeration) {
  const auto g = Topology::complete(5);
  std::set<std::int64_t> nbrs;
  for (std::int64_t k = 0; k < g.degree(2); ++k) nbrs.insert(g.neighbor(2, k));
  EXPECT_EQ(nbrs, (std::set<std::int64_t>{0, 1, 3, 4}));
}

TEST(Topology, CycleStructure) {
  const auto g = Topology::cycle(6);
  EXPECT_EQ(g.numEdges(), 6);
  EXPECT_TRUE(g.isRegular());
  EXPECT_EQ(g.degree(0), 2);
  std::set<std::int64_t> nbrs = {g.neighbor(0, 0), g.neighbor(0, 1)};
  EXPECT_EQ(nbrs, (std::set<std::int64_t>{1, 5}));
  EXPECT_TRUE(g.isConnected());
}

TEST(Topology, NeighborsSpanMatchesNeighbor) {
  const auto g = Topology::torus(4, 5);
  for (std::int64_t v = 0; v < g.numVertices(); ++v) {
    const auto row = g.neighbors(v);
    ASSERT_EQ(static_cast<std::int64_t>(row.size()), g.degree(v));
    for (std::int64_t k = 0; k < g.degree(v); ++k) {
      EXPECT_EQ(row[static_cast<std::size_t>(k)], g.neighbor(v, k));
    }
  }
}

TEST(Topology, PathEndpoints) {
  const auto g = Topology::path(5);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(4), 1);
  EXPECT_EQ(g.degree(2), 2);
  EXPECT_FALSE(g.isRegular());
  EXPECT_TRUE(g.isConnected());
}

TEST(Topology, TorusIsFourRegular) {
  const auto g = Topology::torus(4, 5);
  EXPECT_EQ(g.numVertices(), 20);
  EXPECT_TRUE(g.isRegular());
  EXPECT_EQ(g.degree(7), 4);
  EXPECT_EQ(g.numEdges(), 40);
  EXPECT_TRUE(g.isConnected());
}

TEST(Topology, HypercubeStructure) {
  const auto g = Topology::hypercube(4);
  EXPECT_EQ(g.numVertices(), 16);
  EXPECT_TRUE(g.isRegular());
  EXPECT_EQ(g.degree(0), 4);
  EXPECT_EQ(g.numEdges(), 32);
  EXPECT_TRUE(g.isConnected());
  // Neighbors differ in exactly one bit.
  for (std::int64_t k = 0; k < 4; ++k) {
    const std::int64_t u = g.neighbor(5, k);
    const std::int64_t diff = u ^ 5;
    EXPECT_EQ(diff & (diff - 1), 0);
  }
}

TEST(Topology, StarHub) {
  const auto g = Topology::star(8);
  EXPECT_EQ(g.degree(0), 7);
  for (std::int64_t v = 1; v < 8; ++v) EXPECT_EQ(g.degree(v), 1);
  EXPECT_TRUE(g.isConnected());
  EXPECT_FALSE(g.isRegular());
}

TEST(Topology, CompleteBipartite) {
  const auto g = Topology::completeBipartite(3, 4);
  EXPECT_EQ(g.numVertices(), 7);
  EXPECT_EQ(g.numEdges(), 12);
  EXPECT_EQ(g.degree(0), 4);
  EXPECT_EQ(g.degree(5), 3);
  EXPECT_TRUE(g.isConnected());
}

TEST(Topology, RandomRegularIsSimpleAndRegular) {
  rng::Xoshiro256pp eng(1);
  const auto g = Topology::randomRegular(30, 4, eng);
  EXPECT_TRUE(g.isRegular());
  EXPECT_EQ(g.degree(0), 4);
  EXPECT_EQ(g.numEdges(), 60);
  // Simple: no vertex lists a neighbor twice (fromEdges dedups, so degree
  // would drop below 4 if the model produced duplicates).
  for (std::int64_t v = 0; v < 30; ++v) {
    std::set<std::int64_t> nbrs;
    for (std::int64_t k = 0; k < g.degree(v); ++k) {
      const auto u = g.neighbor(v, k);
      EXPECT_NE(u, v);
      EXPECT_TRUE(nbrs.insert(u).second);
    }
  }
}

TEST(Topology, ErdosRenyiEdgeCountConcentration) {
  rng::Xoshiro256pp eng(2);
  const std::int64_t n = 200;
  const double p = 0.1;
  stats::RunningStat rs;
  for (int rep = 0; rep < 30; ++rep) {
    rs.add(static_cast<double>(Topology::erdosRenyi(n, p, eng).numEdges()));
  }
  const double expected = p * static_cast<double>(n * (n - 1) / 2);
  EXPECT_NEAR(rs.mean(), expected, 0.05 * expected);
}

TEST(Topology, ErdosRenyiExtremes) {
  rng::Xoshiro256pp eng(3);
  EXPECT_EQ(Topology::erdosRenyi(20, 0.0, eng).numEdges(), 0);
  EXPECT_EQ(Topology::erdosRenyi(20, 1.0, eng).numEdges(), 190);
}

TEST(Topology, FromEdgesDedupsAndDropsSelfLoops) {
  const auto g = Topology::fromEdges(4, {{0, 1}, {1, 0}, {2, 2}, {1, 2}});
  EXPECT_EQ(g.numEdges(), 2);
  EXPECT_EQ(g.degree(2), 1);
}

TEST(Topology, SampleNeighborUniform) {
  rng::Xoshiro256pp eng(4);
  const auto g = Topology::cycle(5);
  std::vector<std::int64_t> counts(5, 0);
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) ++counts[static_cast<std::size_t>(g.sampleNeighbor(0, eng))];
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[2], 0);
  EXPECT_EQ(counts[3], 0);
  const std::vector<std::int64_t> obs = {counts[1], counts[4]};
  const std::vector<double> expected(2, kDraws / 2.0);
  EXPECT_GT(stats::chiSquareGof(obs, expected).pValue, 1e-4);
}

TEST(Topology, SampleNeighborCompleteExcludesSelf) {
  rng::Xoshiro256pp eng(5);
  const auto g = Topology::complete(6);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(g.sampleNeighbor(3, eng), 3);
}

TEST(Topology, DisconnectedDetected) {
  const auto g = Topology::fromEdges(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(g.isConnected());
}

TEST(Topology, DiameterClosedForms) {
  EXPECT_EQ(Topology::complete(10).diameter(), 1);
  EXPECT_EQ(Topology::cycle(10).diameter(), 5);
  EXPECT_EQ(Topology::cycle(11).diameter(), 5);
  EXPECT_EQ(Topology::path(7).diameter(), 6);
  EXPECT_EQ(Topology::hypercube(5).diameter(), 5);
  EXPECT_EQ(Topology::star(9).diameter(), 2);
  EXPECT_EQ(Topology::torus(4, 6).diameter(), 2 + 3);
  EXPECT_EQ(Topology::completeBipartite(3, 4).diameter(), 2);
}

TEST(Topology, DiameterDisconnectedIsMinusOne) {
  const auto g = Topology::fromEdges(4, {{0, 1}, {2, 3}});
  EXPECT_EQ(g.diameter(), -1);
}

TEST(SpectralGap, OrderingMatchesMixing) {
  // Complete graph mixes best, hypercube next, cycle worst.
  rng::Xoshiro256pp eng(6);
  const auto cyc = Topology::cycle(64);
  const auto hyp = Topology::hypercube(6);
  const double gCyc = cyc.spectralGapRegular(3000, eng);
  const double gHyp = hyp.spectralGapRegular(3000, eng);
  EXPECT_GT(gHyp, gCyc);
  EXPECT_GT(gCyc, 0.0);
}

TEST(SpectralGap, CycleMatchesClosedForm) {
  // Lazy-walk second eigenvalue of C_n: (1 + cos(2 pi / n)) / 2.
  rng::Xoshiro256pp eng(7);
  const std::int64_t n = 32;
  const auto g = Topology::cycle(n);
  const double expected = 1.0 - (1.0 + std::cos(2.0 * M_PI / static_cast<double>(n))) / 2.0;
  EXPECT_NEAR(g.spectralGapRegular(20000, eng), expected, 0.002);
}

TEST(SpectralGap, CompleteGraphClosedFormMatchesPowerIteration) {
  // K_n takes the closed form n/(2(n-1)); the same graph built edge by edge
  // is not flagged complete, so it runs the power iteration.
  for (const std::int64_t n : {4, 16, 64}) {
    std::vector<std::pair<std::int64_t, std::int64_t>> edges;
    for (std::int64_t a = 0; a < n; ++a) {
      for (std::int64_t b = a + 1; b < n; ++b) edges.emplace_back(a, b);
    }
    const auto explicitKn = Topology::fromEdges(n, edges);
    ASSERT_FALSE(explicitKn.isComplete());
    rng::Xoshiro256pp iterEng(8);
    const double iterated = explicitKn.spectralGapRegular(200, iterEng);

    const auto kn = Topology::complete(n);
    rng::Xoshiro256pp closedEng(8);
    const double closed = kn.spectralGapRegular(200, closedEng);
    EXPECT_NEAR(closed, iterated, 1e-12) << "n = " << n;
    EXPECT_DOUBLE_EQ(closed, static_cast<double>(n) / (2.0 * static_cast<double>(n - 1)));
    // The closed form draws nothing from the engine.
    rng::Xoshiro256pp fresh(8);
    EXPECT_EQ(closedEng(), fresh()) << "n = " << n;
  }
  rng::Xoshiro256pp eng(9);
  EXPECT_EQ(Topology::complete(2).spectralGapRegular(10, eng), 1.0);
}

// -------------------------------------------------------------- RLS on G

TEST(GraphRls, CompleteGraphMatchesClassicRlsDistribution) {
  // On K_n the graph protocol samples a uniform *other* bin; the classic
  // protocol samples uniform including self (a no-op). The configuration
  // chains are identical up to activation thinning, so balancing *times*
  // differ only by the n/(n-1) clock factor -- negligible at n=16; compare
  // distributions with a tolerant KS test.
  const auto init = config::allInOne(16, 64);
  const auto topo = Topology::complete(16);
  std::vector<double> graphTimes;
  std::vector<double> classicTimes;
  for (int rep = 0; rep < 600; ++rep) {
    GraphRlsEngine ge(init, topo, rng::streamSeed(30, rep));
    graphTimes.push_back(process::run(ge, process::Target::perfect()).time);
    sim::NaiveEngine ne(init, rng::streamSeed(31, rep));
    classicTimes.push_back(process::run(ne, process::Target::perfect()).time);
  }
  // The graph protocol never wastes an activation on a self-sample, so it
  // runs faster by exactly n/(n-1); rescale to compare.
  for (auto& t : graphTimes) t *= 16.0 / 15.0;
  EXPECT_GT(stats::ksTwoSample(graphTimes, classicTimes).pValue, 1e-4);
}

TEST(GraphRls, InvariantsOnCycle) {
  const auto topo = Topology::cycle(12);
  GraphRlsEngine engine(config::allInOne(12, 60), topo, 8);
  std::int64_t lastMax = engine.state().maxLoad;
  std::int64_t lastMin = engine.state().minLoad;
  for (int i = 0; i < 20000; ++i) {
    engine.advance();
    EXPECT_LE(engine.state().maxLoad, lastMax);
    EXPECT_GE(engine.state().minLoad, lastMin);
    lastMax = engine.state().maxLoad;
    lastMin = engine.state().minLoad;
  }
  std::int64_t total = 0;
  for (auto v : engine.loads()) total += v;
  EXPECT_EQ(total, 60);
}

TEST(GraphRls, ReachesPerfectBalanceOnConnectedGraphs) {
  for (int which = 0; which < 4; ++which) {
    rng::Xoshiro256pp topoEng(static_cast<std::uint64_t>(40 + which));
    const Topology topo = [&]() -> Topology {
      switch (which) {
        case 0:
          return Topology::cycle(16);
        case 1:
          return Topology::torus(4, 4);
        case 2:
          return Topology::hypercube(4);
        default:
          return Topology::randomRegular(16, 3, topoEng);
      }
    }();
    GraphRlsEngine engine(config::allInOne(16, 80), topo, 50 + which);
    const auto r = process::run(engine, process::Target::perfect(),
                                 {.maxTime = 1e9, .maxEvents = 50'000'000});
    EXPECT_TRUE(r.reachedTarget) << "topology " << which;
  }
}

TEST(GraphRls, CycleSlowerThanComplete) {
  const auto init = config::allInOne(32, 160);
  stats::RunningStat cycleT;
  stats::RunningStat completeT;
  const auto cyc = Topology::cycle(32);
  const auto kn = Topology::complete(32);
  for (int rep = 0; rep < 60; ++rep) {
    GraphRlsEngine a(init, cyc, rng::streamSeed(60, rep));
    cycleT.add(process::run(a, process::Target::perfect()).time);
    GraphRlsEngine b(init, kn, rng::streamSeed(61, rep));
    completeT.add(process::run(b, process::Target::perfect()).time);
  }
  EXPECT_GT(cycleT.mean(), completeT.mean());
}

TEST(GraphRls, StarBalances) {
  // The star's hub is a bottleneck but m <= n settles into {0,1} loads.
  const auto topo = Topology::star(16);
  GraphRlsEngine engine(config::allInOne(16, 10), topo, 70);
  const auto r = process::run(engine, process::Target::perfect(),
                               {.maxTime = 1e9, .maxEvents = 10'000'000});
  EXPECT_TRUE(r.reachedTarget);
  EXPECT_LE(engine.state().maxLoad, 1);
}

// Property sweep: every topology keeps the RLS monotonicity invariants and
// conserves mass after every step; connected ones reach perfect balance.
// The rejection-free engine runs the regular members (not K_n, whose edges
// are implicit) and recounts its bookkeeping after every step.
enum class GraphEngineKind { PerActivation, RejectionFree };

void PrintTo(GraphEngineKind kind, std::ostream* os) {
  *os << (kind == GraphEngineKind::PerActivation ? "GraphRlsEngine" : "GraphJumpEngine");
}

class TopologyInvariants
    : public ::testing::TestWithParam<std::tuple<GraphEngineKind, int>> {
 public:
  static Topology make(int which) {
    rng::Xoshiro256pp eng(static_cast<std::uint64_t>(which) + 900);
    switch (which) {
      case 0:
        return Topology::complete(20);
      case 1:
        return Topology::cycle(20);
      case 2:
        return Topology::path(20);
      case 3:
        return Topology::torus(4, 5);
      case 4:
        return Topology::hypercube(4) /* n=16 */;
      case 5:
        return Topology::star(20);
      case 6:
        return Topology::completeBipartite(10, 10);
      default:
        return Topology::randomRegular(20, 3, eng);
    }
  }
};

template <typename EngineT>
void expectInvariantsUntilBalanced(EngineT& engine, std::int64_t m, const std::string& name) {
  std::int64_t lastMax = engine.state().maxLoad;
  std::int64_t lastMin = engine.state().minLoad;
  std::int64_t steps = 0;
  while (!engine.state().perfectlyBalanced() && steps < 30'000'000) {
    ASSERT_TRUE(engine.advance()) << name << ": absorbed before perfect balance";
    ++steps;
    ASSERT_LE(engine.state().maxLoad, lastMax) << name;
    ASSERT_GE(engine.state().minLoad, lastMin) << name;
    lastMax = engine.state().maxLoad;
    lastMin = engine.state().minLoad;
    ASSERT_EQ(std::accumulate(engine.loads().begin(), engine.loads().end(), std::int64_t{0}), m)
        << name;
    if constexpr (std::is_same_v<EngineT, GraphJumpEngine>) {
      ASSERT_TRUE(engine.validate()) << name << " after step " << steps;
    }
  }
  EXPECT_TRUE(engine.state().perfectlyBalanced()) << name;
}

TEST_P(TopologyInvariants, RlsInvariantsAndConvergence) {
  const auto [kind, which] = GetParam();
  const Topology topo = make(which);
  const std::int64_t n = topo.numVertices();
  const std::int64_t m = 5 * n;
  const auto seed = 777 + static_cast<std::uint64_t>(which);
  if (kind == GraphEngineKind::PerActivation) {
    GraphRlsEngine engine(config::allInOne(n, m), topo, seed);
    expectInvariantsUntilBalanced(engine, m, topo.name());
  } else {
    GraphJumpEngine engine(config::allInOne(n, m), topo, seed);
    ASSERT_TRUE(engine.validate());
    expectInvariantsUntilBalanced(engine, m, topo.name());
  }
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, TopologyInvariants,
                         ::testing::Combine(::testing::Values(GraphEngineKind::PerActivation),
                                            ::testing::Range(0, 8)));
INSTANTIATE_TEST_SUITE_P(RegularTopologiesRejectionFree, TopologyInvariants,
                         ::testing::Combine(::testing::Values(GraphEngineKind::RejectionFree),
                                            ::testing::Values(1, 3, 4, 6, 7)));

TEST(GraphRls, ActivationAccounting) {
  const auto topo = Topology::torus(3, 3);
  GraphRlsEngine engine(config::allInOne(9, 27), topo, 71);
  for (int i = 0; i < 500; ++i) engine.advance();
  EXPECT_EQ(engine.activations(), 500);
  EXPECT_LE(engine.moves(), engine.activations());
}

TEST(GraphJump, MovesCountStepsAndActivationsAreNotSimulated) {
  const auto topo = Topology::torus(3, 3);
  GraphJumpEngine engine(config::allInOne(9, 28), topo, 72);
  std::int64_t accepted = 0;
  for (int i = 0; i < 500 && engine.advance(); ++i) ++accepted;
  EXPECT_GT(accepted, 0);
  EXPECT_EQ(engine.moves(), accepted);
  EXPECT_EQ(engine.activations(), -1);
  EXPECT_GT(engine.time(), 0.0);
}

TEST(GraphJump, AbsorbedWhenNoMoveIsAccepting) {
  // Every bin at the same load: no edge accepts, so the chain is absorbed
  // at once and the clock does not move.
  const auto topo = Topology::cycle(8);
  GraphJumpEngine engine(config::balanced(8, 24), topo, 73);
  EXPECT_FALSE(engine.advance());
  EXPECT_EQ(engine.moves(), 0);
  EXPECT_EQ(engine.time(), 0.0);
}

}  // namespace
}  // namespace rlslb::graph
