// Cross-engine equivalence matrix: the three engines must sample the same
// balancing-time distribution from every initial shape. Parameterized over
// workload scenarios; each scenario compares naive vs jump by
// Mann-Whitney + KS and (where the state space is tiny) anchors all three
// engines on the exact chain expectation.
//
// Also contains the API-misuse death tests (failure injection): the
// library aborts loudly on contract violations instead of corrupting
// simulations.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "config/generators.hpp"
#include "core/rls.hpp"
#include "ds/fenwick.hpp"
#include "ds/load_multiset.hpp"
#include "exact/rls_chain.hpp"
#include "graph/graph_engine.hpp"
#include "graph/graph_jump_engine.hpp"
#include "graph/topology.hpp"
#include "process/process.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/naive_engine.hpp"
#include "stats/running_stat.hpp"
#include "stats/tests.hpp"

namespace rlslb {
namespace {

struct Scenario {
  std::string name;
  std::int64_t n;
  std::int64_t m;
  std::function<config::Configuration()> make;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  out.push_back({"allinone_8x40", 8, 40, [] { return config::allInOne(8, 40); }});
  out.push_back({"allinone_16x16", 16, 16, [] { return config::allInOne(16, 16); }});
  out.push_back({"twopoint_12x36", 12, 36, [] { return config::twoPoint(12, 36); }});
  out.push_back({"halfhalf_10x60", 10, 60, [] { return config::halfHalf(10, 60, 3); }});
  out.push_back({"staircase_12x48", 12, 48, [] { return config::staircase(12, 48); }});
  out.push_back({"plusminus_8x48", 8, 48, [] { return config::plusMinusOne(8, 48, 3); }});
  out.push_back({"random_9x45", 9, 45, [] {
                   rng::Xoshiro256pp eng(505);
                   return config::uniformRandom(9, 45, eng);
                 }});
  out.push_back({"powerlaw_10x50", 10, 50, [] { return config::powerLaw(10, 50, 1.0); }});
  return out;
}

class EngineEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EngineEquivalence, NaiveAndJumpSameDistribution) {
  const Scenario sc = scenarios()[static_cast<std::size_t>(GetParam())];
  const auto init = sc.make();
  constexpr int kReps = 700;
  std::vector<double> naive;
  std::vector<double> jump;
  naive.reserve(kReps);
  jump.reserve(kReps);
  for (int rep = 0; rep < kReps; ++rep) {
    core::SimOptions o;
    o.engine = core::SimOptions::EngineKind::Naive;
    o.seed = rng::streamSeed(0xabc0 + static_cast<std::uint64_t>(GetParam()), rep);
    naive.push_back(core::balancingTime(init, o));
    o.engine = core::SimOptions::EngineKind::Jump;
    o.seed = rng::streamSeed(0xdef0 + static_cast<std::uint64_t>(GetParam()), rep);
    jump.push_back(core::balancingTime(init, o));
  }
  EXPECT_GT(stats::mannWhitneyU(naive, jump).pValue, 1e-4) << sc.name;
  EXPECT_GT(stats::ksTwoSample(naive, jump).pValue, 1e-4) << sc.name;
}

TEST_P(EngineEquivalence, HybridTracksJumpMean) {
  const Scenario sc = scenarios()[static_cast<std::size_t>(GetParam())];
  const auto init = sc.make();
  constexpr int kReps = 700;
  stats::RunningStat hybrid;
  stats::RunningStat jump;
  for (int rep = 0; rep < kReps; ++rep) {
    core::SimOptions o;
    o.engine = core::SimOptions::EngineKind::Hybrid;
    o.seed = rng::streamSeed(0x1110 + static_cast<std::uint64_t>(GetParam()), rep);
    hybrid.add(core::balancingTime(init, o));
    o.engine = core::SimOptions::EngineKind::Jump;
    o.seed = rng::streamSeed(0x2220 + static_cast<std::uint64_t>(GetParam()), rep);
    jump.add(core::balancingTime(init, o));
  }
  const double pooledSem = std::sqrt(hybrid.sem() * hybrid.sem() + jump.sem() * jump.sem());
  EXPECT_NEAR(hybrid.mean(), jump.mean(), 5.0 * pooledSem) << sc.name;
}

INSTANTIATE_TEST_SUITE_P(Workloads, EngineEquivalence, ::testing::Range(0, 8),
                         [](const ::testing::TestParamInfo<int>& paramInfo) {
                           return scenarios()[static_cast<std::size_t>(paramInfo.param)].name;
                         });

TEST(EngineEquivalence, AllEnginesAnchoredOnExactChain) {
  // Tiny asymmetric state with a known exact expectation; every engine must
  // agree with it (this triangulates the pairwise tests above).
  const config::Configuration init({5, 4, 2, 1, 0});  // n=5, m=12
  exact::RlsChain chain(5, 12);
  const double expected = chain.expectedTimeFrom(init);
  for (auto kind : {core::SimOptions::EngineKind::Naive, core::SimOptions::EngineKind::Jump,
                    core::SimOptions::EngineKind::Hybrid}) {
    stats::RunningStat rs;
    for (int rep = 0; rep < 3000; ++rep) {
      core::SimOptions o;
      o.engine = kind;
      o.seed = rng::streamSeed(0x3330 + static_cast<std::uint64_t>(kind), rep);
      rs.add(core::balancingTime(init, o));
    }
    EXPECT_NEAR(rs.mean(), expected, 5.0 * rs.sem()) << static_cast<int>(kind);
  }
}

// The rejection-free graph engine samples GraphRlsEngine's chain at the
// granularity of accepted moves, so hitting times must agree in
// distribution. gap = 2 can stop short of perfect balance (every edge
// within 1); on K_{8,8} (diameter 2) its stable states have spread <= 2, so
// disc <= 2 is a target both engines reach.
TEST(GraphEngineEquivalence, RejectionFreeMatchesPerActivationHittingTimes) {
  rng::Xoshiro256pp topoEng(0x9e11);
  const struct {
    const char* name;
    graph::Topology topo;
    int gap;
    process::Target target;
  } cases[] = {
      {"cycle16", graph::Topology::cycle(16), 1, process::Target::perfect()},
      {"torus4x4", graph::Topology::torus(4, 4), 1, process::Target::perfect()},
      {"hypercube4", graph::Topology::hypercube(4), 1, process::Target::perfect()},
      {"random3reg16", graph::Topology::randomRegular(16, 3, topoEng), 1,
       process::Target::perfect()},
      {"bipartite8x8_gap2", graph::Topology::completeBipartite(8, 8), 2,
       process::Target::xBalanced(2)},
  };
  constexpr int kReps = 1000;
  for (std::size_t c = 0; c < std::size(cases); ++c) {
    const auto& tc = cases[c];
    const auto init = config::allInOne(tc.topo.numVertices(), 4 * tc.topo.numVertices());
    std::vector<double> perActivation;
    std::vector<double> rejectionFree;
    for (int rep = 0; rep < kReps; ++rep) {
      graph::GraphRlsEngine a(init, tc.topo, rng::streamSeed(0x5150 + c, rep), tc.gap);
      const auto ra = process::run(a, tc.target);
      graph::GraphJumpEngine b(init, tc.topo, rng::streamSeed(0x6160 + c, rep), tc.gap);
      const auto rb = process::run(b, tc.target);
      ASSERT_TRUE(ra.reachedTarget && rb.reachedTarget) << tc.name;
      perActivation.push_back(ra.time);
      rejectionFree.push_back(rb.time);
    }
    EXPECT_GT(stats::mannWhitneyU(perActivation, rejectionFree).pValue, 1e-4) << tc.name;
    EXPECT_GT(stats::ksTwoSample(perActivation, rejectionFree).pValue, 1e-4) << tc.name;
  }
}

// ----------------------------------------------------- failure injection

using EquivalenceDeathTest = ::testing::Test;

TEST(EquivalenceDeathTest, FenwickRejectsOutOfRangeTicket) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ds::Fenwick<std::int64_t> f(std::vector<std::int64_t>{1, 2});
  EXPECT_DEATH((void)f.upperBound(3), "upperBound target");
}

TEST(EquivalenceDeathTest, FenwickRejectsOutOfRangeAdd) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ds::Fenwick<std::int64_t> f(4);
  EXPECT_DEATH(f.add(4, 1), "assertion");
}

TEST(EquivalenceDeathTest, TwoPointRequiresDivisibility) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH((void)config::twoPoint(4, 9), "n | m");
}

TEST(EquivalenceDeathTest, HalfHalfRequiresXBelowAvg) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH((void)config::halfHalf(4, 8, 5), "0 <= x <= avg");
}

TEST(EquivalenceDeathTest, LoadMultisetRejectsNeutralMove) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto ms = ds::LoadMultiset::fromLoads({3, 2});
  EXPECT_DEATH(ms.applyBallMove(3, 2), "multiset-changing");
}

TEST(EquivalenceDeathTest, LoadMultisetRejectsMissingLevel) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto ms = ds::LoadMultiset::fromLoads({5, 1});
  EXPECT_DEATH(ms.shiftBin(4, -1), "no bin at this level");
}

TEST(EquivalenceDeathTest, NegativeLoadRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(config::Configuration({1, -1}), "negative load");
}

TEST(EquivalenceDeathTest, ForcedMoveFromEmptyBinRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::NaiveEngine engine(config::allInOne(4, 4), 1);
  EXPECT_DEATH(engine.applyForcedMove(1, 2), "empty bin");
}

}  // namespace
}  // namespace rlslb
