// End-to-end integration tests: the workflows the examples and benches are
// built from, checked at reduced scale so the whole pipeline stays covered
// by ctest.
#include <gtest/gtest.h>

#include <cmath>

#include "config/generators.hpp"
#include "core/dml.hpp"
#include "core/rls.hpp"
#include "exact/rls_chain.hpp"
#include "process/process.hpp"
#include "runner/replication.hpp"
#include "sim/probes.hpp"
#include "stats/regression.hpp"
#include "stats/summary.hpp"
#include "util/table.hpp"

namespace rlslb {
namespace {

TEST(Integration, Theorem1ShapePilot) {
  // Miniature of bench_theorem1: mean balancing time from the all-in-one
  // worst case should grow like a*ln n + b*n^2/m with a decent fit.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (std::int64_t n : {16, 32, 64, 128}) {
    for (std::int64_t ratio : {2, 8}) {
      const std::int64_t m = n * ratio;
      const auto samples = runner::runReplicationsScalar(
          40, static_cast<std::uint64_t>(n * 1000 + ratio),
          [&](std::int64_t, std::uint64_t seed) {
            core::SimOptions o;
            o.engine = core::SimOptions::EngineKind::Hybrid;
            o.seed = seed;
            return core::balancingTime(config::allInOne(n, m), o);
          },
          1);
      const auto s = stats::summarize(samples);
      rows.push_back({std::log(static_cast<double>(n)),
                      static_cast<double>(n) * static_cast<double>(n) / static_cast<double>(m),
                      1.0});
      y.push_back(s.mean);
    }
  }
  const auto fit = stats::olsFit(rows, y);
  ASSERT_TRUE(fit.ok);
  EXPECT_GT(fit.r2, 0.9);
  EXPECT_GT(fit.coefficients[0], 0.0);  // ln n coefficient positive
}

TEST(Integration, LowerBoundLnN) {
  // E2: activations needed from all-in-one exceed m - ceil(avg), so time
  // exceeds roughly H_m - H_avg = Omega(ln n). Check at two sizes.
  for (std::int64_t n : {64, 256}) {
    const std::int64_t m = 4 * n;
    const auto samples = runner::runReplicationsScalar(
        30, static_cast<std::uint64_t>(n),
        [&](std::int64_t, std::uint64_t seed) {
          core::SimOptions o;
          o.seed = seed;
          return core::balancingTime(config::allInOne(n, m), o);
        },
        1);
    const auto s = stats::summarize(samples);
    // H_m - H_avg ~ ln(m/avg) = ln(n).
    EXPECT_GT(s.mean, 0.5 * std::log(static_cast<double>(n)));
  }
}

TEST(Integration, LowerBoundTwoPointScaling) {
  // E3: two-point E[T] = n/(avg+1); doubling n doubles the time.
  const std::int64_t avg = 4;
  std::vector<double> means;
  for (std::int64_t n : {32, 64}) {
    const auto samples = runner::runReplicationsScalar(
        600, static_cast<std::uint64_t>(n * 7),
        [&](std::int64_t, std::uint64_t seed) {
          core::SimOptions o;
          o.engine = core::SimOptions::EngineKind::Jump;
          o.seed = seed;
          return core::balancingTime(config::twoPoint(n, n * avg), o);
        },
        1);
    means.push_back(stats::summarize(samples).mean);
  }
  EXPECT_NEAR(means[1] / means[0], 2.0, 0.35);
  EXPECT_NEAR(means[0], 32.0 / 5.0, 1.0);
}

TEST(Integration, PhaseDecomposition) {
  // E5-E7 pilot: phases split a single trajectory; Phase-1 time is small
  // relative to the endgame for small avg.
  const std::int64_t n = 256;
  const std::int64_t m = 4 * n;
  const auto logN = static_cast<std::int64_t>(std::ceil(std::log(static_cast<double>(n))));
  sim::PhaseTracker tracker({8 * logN, 1});
  core::SimOptions o;
  o.engine = core::SimOptions::EngineKind::Hybrid;
  o.seed = 1234;
  const auto r =
      core::balance(config::allInOne(n, m), o, process::Target::perfect(), {}, &tracker);
  ASSERT_TRUE(r.reachedTarget);
  EXPECT_LE(tracker.hitTime(0), tracker.hitTime(1));
  EXPECT_LE(tracker.hitTime(1), r.time);
}

TEST(Integration, WhpTailPilot) {
  // E4 pilot: the p99 of T stays within a moderate multiple of the mean
  // (w.h.p. bound has an extra ln n factor; this is a sanity ceiling).
  const auto samples = runner::runReplicationsScalar(
      300, 99,
      [](std::int64_t, std::uint64_t seed) {
        core::SimOptions o;
        o.engine = core::SimOptions::EngineKind::Jump;
        o.seed = seed;
        return core::balancingTime(config::allInOne(64, 256), o);
      },
      1);
  const auto s = stats::summarize(samples);
  EXPECT_LT(s.p99, 6.0 * s.mean);
}

TEST(Integration, DmlBenchPilot) {
  // E8 pilot: adversarial mean time dominates plain at matched seeds.
  const auto init = config::allInOne(8, 40);
  double plainSum = 0;
  double advSum = 0;
  for (int rep = 0; rep < 200; ++rep) {
    const auto seed = rng::streamSeed(5, rep);
    core::SimOptions o;
    o.engine = core::SimOptions::EngineKind::Naive;
    o.seed = seed;
    plainSum += core::balancingTime(init, o);
    core::ReverseLastMoveAdversary adv(0.25);
    core::AdversarialRls rls(init, seed, adv);
    advSum += process::run(rls, process::Target::perfect()).time;
  }
  EXPECT_GT(advSum, plainSum);
}

TEST(Integration, ExactChainAgreesAtScaleOfTests) {
  // Re-derive a row of the E3 table exactly.
  exact::RlsChain chain(6, 24);
  EXPECT_NEAR(chain.expectedTimeFrom(config::twoPoint(6, 24)), 6.0 / 5.0, 1e-9);
}

TEST(Integration, TablePipeline) {
  // The bench table pipeline: summarize -> Table -> CSV round trip.
  Table t({"n", "mean", "ci95"});
  const std::vector<double> sample = {1.0, 2.0, 3.0, 4.0};
  const auto s = stats::summarize(sample);
  t.row().cell(std::int64_t{8}).cell(s.mean).cell(s.ci95Half);
  EXPECT_EQ(t.numRows(), 1u);
  EXPECT_NE(t.toCsv().find("2.5"), std::string::npos);
}

}  // namespace
}  // namespace rlslb
