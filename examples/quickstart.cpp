// Quickstart: the smallest complete rlslb program.
//
// Builds the paper's worst-case configuration (all m balls in one bin),
// runs Randomized Local Search to perfect balance with the default hybrid
// engine, and prints the headline quantities next to Theorem 1's
// prediction.
//
//   $ ./example_quickstart [--n=1024] [--m=8192] [--seed=1]
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "config/generators.hpp"
#include "core/rls.hpp"
#include "sim/probes.hpp"
#include "util/params.hpp"

namespace {

int runQuickstart(int argc, char** argv) {
  using namespace rlslb;
  const util::Params args(argc, argv);
  util::checkParams(args,
                    {{"n", "int", "1024", "bins", {.intMin = 1}},
                     {"m", "int", "8n", "balls", {.intMin = 0}},
                     {"seed", "int", "1", "seed"}},
                    "");
  const std::int64_t n = args.getInt("n", 1024);
  const std::int64_t m = args.getInt("m", 8 * n);
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  args.rejectUnused();

  // 1. An initial configuration: every ball in bin 0 (the worst case).
  const config::Configuration initial = config::allInOne(n, m);

  // 2. Simulation options: the hybrid engine is the right default; see
  //    core::SimOptions for the naive (ground-truth) and jump variants.
  core::SimOptions options;
  options.seed = seed;

  // 3. Run to perfect balance (discrepancy < 1), recording the trajectory.
  sim::TrajectoryRecorder trajectory(/*timeStep=*/1.0);
  const process::RunResult result =
      core::balance(initial, options, process::Target::perfect(), {}, &trajectory);

  const double lnN = std::log(static_cast<double>(n));
  const double n2m = static_cast<double>(n) * static_cast<double>(n) / static_cast<double>(m);
  std::printf("n = %lld bins, m = %lld balls, start: all balls in bin 0\n",
              static_cast<long long>(n), static_cast<long long>(m));
  std::printf("reached perfect balance at t = %.3f  (%lld ball moves)\n", result.time,
              static_cast<long long>(result.moves));
  std::printf("Theorem 1 scale ln(n) + n^2/m = %.3f   ->  T / scale = %.3f\n", lnN + n2m,
              result.time / (lnN + n2m));

  std::printf("\ndiscrepancy trajectory (1 time-unit grid):\n");
  std::printf("%8s  %12s  %10s\n", "time", "discrepancy", "overloaded");
  for (const auto& p : trajectory.points()) {
    std::printf("%8.2f  %12.2f  %10lld\n", p.time, p.discrepancy,
                static_cast<long long>(p.overloadedBalls));
    if (trajectory.points().size() > 20 && p.time > 15.0) {
      std::printf("     ... (%zu more points)\n", trajectory.points().size());
      break;
    }
  }
  return 0;
}

}  // namespace

// A usage error (an unknown flag, a malformed value, a value out of range)
// throws std::invalid_argument: a message and exit 2.
int main(int argc, char** argv) {
  try {
    return runQuickstart(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
