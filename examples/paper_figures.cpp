// ASCII reproductions of the paper's three illustrative figures, driven by
// the real library machinery (not hand-drawn data).
//
//  Figure 1: for a sample configuration, which moves are RLS moves, which
//            are destructive, and which are both (neutral).
//  Figure 2: one step of the Lemma 2 coupling -- the two close
//            configurations, the activated ball, the shared destination
//            rank, and the resulting configurations (run live through
//            core::DmlCoupling).
//  Figure 3: the Lemma 13 reshaping -- an arbitrary x-balanced
//            configuration destructively reshaped to the half/half form,
//            with the ignored move classes annotated.
//  Figure 4: the ensemble mean discrepancy trajectory E[disc(t)] from the
//            worst case (the E15 curve), replications fanned out on the
//            thread pool -- pass --threads=<t> (0 = hardware).
//
//   $ ./example_paper_figures [--threads=0]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/generators.hpp"
#include "core/coupling.hpp"
#include "core/rls.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256pp.hpp"
#include "runner/thread_pool.hpp"
#include "sim/ensemble.hpp"
#include "sim/probes.hpp"
#include "util/params.hpp"

namespace {

using namespace rlslb;

void drawBars(const std::vector<std::int64_t>& loads, const std::string& indent) {
  const std::int64_t maxLoad = *std::max_element(loads.begin(), loads.end());
  for (std::int64_t level = maxLoad; level >= 1; --level) {
    std::printf("%s%2lld |", indent.c_str(), static_cast<long long>(level));
    for (std::int64_t v : loads) std::printf("%s", v >= level ? " #" : "  ");
    std::printf("\n");
  }
  std::printf("%s   +", indent.c_str());
  for (std::size_t i = 0; i < loads.size(); ++i) std::printf("--");
  std::printf("\n%s    ", indent.c_str());
  for (std::size_t i = 0; i < loads.size(); ++i) std::printf("%2zu", i % 10);
  std::printf("  (bin)\n");
}

void figure1() {
  std::printf("Figure 1: RLS moves vs destructive moves\n");
  std::printf("========================================\n");
  const std::vector<std::int64_t> loads = {5, 4, 4, 3, 2, 2, 1};
  drawBars(loads, "  ");
  std::printf("\n  move i->j is an RLS move     iff load(i) >= load(j) + 1\n");
  std::printf("  move i->j is destructive     iff load(i) <= load(j) + 1\n");
  std::printf("  both (neutral)               iff load(i) == load(j) + 1\n\n");
  std::printf("  from bin 0 (load 5): ");
  for (std::size_t j = 1; j < loads.size(); ++j) {
    const bool rls = loads[0] >= loads[j] + 1;
    const bool destructive = loads[0] <= loads[j] + 1;
    std::printf("->%zu:%s ", j, rls && destructive ? "both" : (rls ? "RLS" : "dest"));
  }
  std::printf("\n  from bin 5 (load 2): ");
  for (std::size_t j = 0; j < loads.size(); ++j) {
    if (j == 5) continue;
    const bool rls = loads[5] >= loads[j] + 1;
    const bool destructive = loads[5] <= loads[j] + 1;
    std::printf("->%zu:%s ", j, rls && destructive ? "both" : (rls ? "RLS" : "dest"));
  }
  std::printf("\n\n");
}

void figure2() {
  std::printf("Figure 2: the Lemma 2 coupling, one live step\n");
  std::printf("=============================================\n");
  core::DmlCoupling coupling(config::Configuration({4, 3, 3, 2, 2, 1}), 2024);
  coupling.injectDestructiveMove(3, 0);  // a destructive move creates l'
  std::printf("  l  (process P(k)):      ");
  for (auto v : coupling.base()) std::printf("%lld ", static_cast<long long>(v));
  std::printf("\n  l' (process P(k+1)):    ");
  for (auto v : coupling.adversarial()) std::printf("%lld ", static_cast<long long>(v));
  std::printf("\n  close: %s   disc(l) <= disc(l'): %s\n", coupling.isClose() ? "yes" : "NO",
              coupling.discDominated() ? "yes" : "NO");

  std::printf("\n  coupled steps (same ball, same destination rank in both):\n");
  for (int step = 1; step <= 8; ++step) {
    coupling.stepCoupled();
    std::printf("  step %d:  l = ", step);
    for (auto v : coupling.base()) std::printf("%lld ", static_cast<long long>(v));
    std::printf("  l' = ");
    for (auto v : coupling.adversarial()) std::printf("%lld ", static_cast<long long>(v));
    std::printf("  close=%s dom=%s\n", coupling.isClose() ? "y" : "N",
                coupling.discDominated() ? "y" : "N");
  }
  std::printf("\n  the invariant (close=y, dom=y on every line) is Lemma 2's induction.\n\n");
}

void figure3() {
  std::printf("Figure 3: the Lemma 13 reshaping\n");
  std::printf("================================\n");
  rng::Xoshiro256pp eng(99);
  const std::int64_t n = 16;
  const std::int64_t avg = 6;
  const std::int64_t x = 2;
  // An arbitrary x-balanced configuration...
  std::vector<std::int64_t> loads(static_cast<std::size_t>(n), avg);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    loads[i] += static_cast<std::int64_t>(rng::uniformIndex(eng, 2 * x + 1)) - x;
  }
  // ... mass-corrected to exactly n*avg:
  std::int64_t excess = 0;
  for (auto v : loads) excess += v - avg;
  for (std::size_t i = 0; excess != 0; i = (i + 1) % loads.size()) {
    if (excess > 0 && loads[i] > avg - x) {
      --loads[i];
      --excess;
    } else if (excess < 0 && loads[i] < avg + x) {
      ++loads[i];
      ++excess;
    }
  }
  std::printf("  an arbitrary %lld-balanced configuration (avg = %lld):\n",
              static_cast<long long>(x), static_cast<long long>(avg));
  drawBars(loads, "  ");

  const auto reshaped = config::halfHalf(n, n * avg, x);
  std::printf("\n  after the destructive reshaping (all destructive moves, so Lemma 2\n");
  std::printf("  says analyzing this shape upper-bounds the original):\n");
  drawBars(reshaped.loads(), "  ");
  std::printf("\n  during [0, t]: ignore light-bin activations, ignore heavy-to-heavy\n");
  std::printf("  moves, force heavy-to-light moves -- each simplification is justified\n");
  std::printf("  by reversing it with destructive moves (Lemma 2).\n\n");
}

void figure4(int threads) {
  std::printf("Figure 4: the mean discrepancy trajectory (E15 curve)\n");
  std::printf("=====================================================\n");
  const std::int64_t n = 256;
  const std::int64_t m = 8 * n;
  const std::int64_t reps = 48;
  const double dt = 1.0;
  const double horizon = 16.0;

  runner::ThreadPool pool(threads);
  const auto ensemble = sim::accumulateEnsemble(
      dt, horizon, reps, /*baseSeed=*/20170529,
      [&](std::int64_t, std::uint64_t seed) {
        sim::TrajectoryRecorder recorder(dt / 4.0);
        core::SimOptions o;
        o.seed = seed;
        process::RunLimits limits;
        limits.maxTime = horizon + 1.0;
        core::balance(config::allInOne(n, m), o, process::Target::perfect(), limits, &recorder);
        return recorder.points();
      },
      pool);

  // Log-scale bars: the Phase 1 exponential crash shows as a linear ramp.
  const double top = std::log1p(ensemble.meanDiscrepancy(0));
  std::printf("  n=%lld m=8n, %lld replications on %d thread(s); bar = log(1+E[disc])\n\n",
              static_cast<long long>(n), static_cast<long long>(reps), pool.size());
  for (std::size_t g = 0; g < ensemble.gridSize(); ++g) {
    const double value = ensemble.meanDiscrepancy(g);
    const int bar = static_cast<int>(std::round(std::log1p(value) / top * 48.0));
    std::printf("  t=%5.1f |%-48.*s| E[disc] = %.3f\n", ensemble.timeAt(g), bar,
                "################################################", value);
  }
  std::printf("\n  the ramp's three regimes are the paper's Phase 1/2/3 decomposition;\n");
  std::printf("  identical output for any --threads (the streamSeed contract).\n\n");
}

}  // namespace

// A usage error (an unknown flag, a malformed value, a value out of range)
// throws std::invalid_argument: a message and exit 2.
int main(int argc, char** argv) {
  int threads = 0;
  try {
    const rlslb::util::Params args(argc, argv);
    rlslb::util::checkParams(args,
                             {{"threads", "int", "0", "replication threads (0 = hardware)",
                               {.intMin = 0, .intMax = rlslb::runner::kMaxThreads}}},
                             "");
    threads = static_cast<int>(args.getInt("threads", 0));
    args.rejectUnused();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  figure1();
  figure2();
  figure3();
  figure4(threads);
  return 0;
}
