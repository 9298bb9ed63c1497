// Task migration on a heterogeneous multicore -- Section 7's first future
// direction (bins with speeds) in its natural application.
//
// Cores (bins) have speeds; tasks (balls) experience load = tasks-on-core /
// core-speed (a completion-rate proxy). Each task occasionally probes a
// random core and migrates iff that strictly improves its experienced
// load. The demo runs a big.LITTLE-style machine (a few fast cores, many
// slow ones), prints the Nash allocation, and compares it against the
// proportional-share ideal m * s_i / sum(s).
//
//   $ ./example_hetero_scheduler [--big=4] [--little=12] [--tasks=640]
//                                [--big_speed=4] [--seed=5]
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "config/generators.hpp"
#include "ext/speed_rls.hpp"
#include "process/process.hpp"
#include "util/params.hpp"

namespace {

int runHeteroScheduler(int argc, char** argv) {
  using namespace rlslb;
  const util::Params args(argc, argv);
  util::checkParams(args,
                    {{"big", "int", "4", "fast cores", {.intMin = 0}},
                     {"little", "int", "12", "slow (speed 1) cores", {.intMin = 1}},
                     {"tasks", "int", "640", "tasks", {.intMin = 0}},
                     {"big_speed", "int", "4", "speed of a fast core", {.intMin = 1}},
                     {"seed", "int", "5", "seed"}},
                    "");
  const std::int64_t big = args.getInt("big", 4);
  const std::int64_t little = args.getInt("little", 12);
  const std::int64_t tasks = args.getInt("tasks", 640);
  const std::int64_t bigSpeed = args.getInt("big_speed", 4);
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 5));
  args.rejectUnused();

  const std::int64_t cores = big + little;
  std::vector<std::int64_t> speeds(static_cast<std::size_t>(cores), 1);
  for (std::int64_t i = 0; i < big; ++i) speeds[static_cast<std::size_t>(i)] = bigSpeed;
  std::int64_t speedSum = 0;
  for (auto s : speeds) speedSum += s;

  std::printf("heterogeneous scheduler: %lld big cores (speed %lld) + %lld little cores, "
              "%lld tasks\n",
              static_cast<long long>(big), static_cast<long long>(bigSpeed),
              static_cast<long long>(little), static_cast<long long>(tasks));
  std::printf("start: every task on little core %lld (worst case)\n\n",
              static_cast<long long>(cores - 1));

  ext::SpeedRlsEngine engine(config::allInOne(cores, tasks), speeds, seed);
  const auto run = process::run(engine, process::Target::equilibrium(),
                                {.maxEvents = 500'000'000});

  std::printf("reached Nash equilibrium: %s  (t = %.2f, %lld migrations, %lld probes)\n",
              run.reachedTarget ? "yes" : "no", run.time,
              static_cast<long long>(run.moves), static_cast<long long>(run.activations));

  std::printf("\n%6s  %6s  %6s  %14s  %12s\n", "core", "speed", "tasks", "ideal m*s/sum(s)",
              "load (t/s)");
  for (std::int64_t i = 0; i < cores; ++i) {
    const double ideal = static_cast<double>(tasks) * static_cast<double>(speeds[static_cast<std::size_t>(i)]) /
                         static_cast<double>(speedSum);
    std::printf("%6lld  %6lld  %6lld  %14.1f  %12.2f\n", static_cast<long long>(i),
                static_cast<long long>(speeds[static_cast<std::size_t>(i)]),
                static_cast<long long>(engine.loads()[static_cast<std::size_t>(i)]), ideal,
                static_cast<double>(engine.loads()[static_cast<std::size_t>(i)]) /
                    static_cast<double>(speeds[static_cast<std::size_t>(i)]));
    if (i == big + 2 && cores > big + 5) {
      std::printf("   ... (%lld more little cores)\n", static_cast<long long>(cores - i - 2));
      i = cores - 2;
    }
  }
  std::printf("\nweighted discrepancy at equilibrium: %.3f (every core within one task of "
              "proportional share)\n",
              engine.weightedDiscrepancy());
  return 0;
}

}  // namespace

// A usage error (an unknown flag, a malformed value, a value out of range)
// throws std::invalid_argument: a message and exit 2.
int main(int argc, char** argv) {
  try {
    return runHeteroScheduler(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
