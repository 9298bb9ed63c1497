// rlslb command-line simulator: the library as a standalone tool.
//
// Composes every public knob: initial shape, engine, protocol gap, stopping
// target, trajectory output and replication statistics. Examples:
//
//   # 50 replications of the worst case on all cores, summary statistics
//   ./build/examples/simulate --n=4096 --m=32768 --init=allinone --reps=50 --threads=0
//
//   # one trajectory on a CSV grid, strict protocol, jump engine
//   ./build/examples/simulate --n=1024 --m=8192 --init=staircase --engine=jump --trajectory=0.5 --csv
//
//   # stop at an 8-balanced configuration instead of perfect balance
//   ./build/examples/simulate --n=1024 --m=8192 --target=8
#include <cstdio>
#include <stdexcept>
#include <string>

#include "config/generators.hpp"
#include "core/predictors.hpp"
#include "core/rls.hpp"
#include "runner/replication.hpp"
#include "sim/probes.hpp"
#include "stats/summary.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace rlslb;

namespace {

config::Configuration makeInit(const std::string& name, std::int64_t n, std::int64_t m,
                               std::uint64_t seed) {
  if (name == "allinone") return config::allInOne(n, m);
  if (name == "balanced") return config::balanced(n, m);
  if (name == "twopoint") return config::twoPoint(n, m);
  if (name == "halfhalf") return config::halfHalf(n, m, m / n / 2);
  if (name == "staircase") return config::staircase(n, m);
  if (name == "random") {
    rng::Xoshiro256pp eng(seed);
    return config::uniformRandom(n, m, eng);
  }
  if (name == "greedy2") {
    rng::Xoshiro256pp eng(seed);
    return config::greedyD(n, m, 2, eng);
  }
  std::fprintf(stderr,
               "unknown --init=%s (allinone|balanced|twopoint|halfhalf|staircase|random|greedy2)\n",
               name.c_str());
  std::exit(2);
}

core::SimOptions::EngineKind parseEngine(const std::string& name) {
  if (name == "naive") return core::SimOptions::EngineKind::Naive;
  if (name == "jump") return core::SimOptions::EngineKind::Jump;
  if (name == "hybrid") return core::SimOptions::EngineKind::Hybrid;
  std::fprintf(stderr, "unknown --engine=%s (naive|jump|hybrid)\n", name.c_str());
  std::exit(2);
}

int runSimulate(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::int64_t n = args.getInt("n", 1024);
  const std::int64_t m = args.getInt("m", 8 * n);
  const std::string initName = args.getString("init", "allinone");
  const std::string engineName = args.getString("engine", "hybrid");
  const std::int64_t reps = args.getInt("reps", 1);
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  const std::int64_t targetX = args.getInt("target", 0);  // 0 = perfect balance
  const double trajectoryStep = args.getDouble("trajectory", 0.0);
  const bool csv = args.getBool("csv", false);
  const int gap = static_cast<int>(args.getInt("gap", 1));
  const int threads = args.getThreads(0);
  if (reps < 1) throw std::invalid_argument("--reps=" + std::to_string(reps) + " must be >= 1");
  for (const auto& k : args.unusedKeys()) {
    std::fprintf(stderr, "unknown flag --%s\n", k.c_str());
    return 2;
  }

  core::SimOptions options;
  options.engine = parseEngine(engineName);
  options.gap = gap;
  const sim::Target target =
      targetX == 0 ? sim::Target::perfect() : sim::Target::xBalanced(targetX);

  std::printf("rlslb simulate: n=%lld m=%lld init=%s engine=%s gap=%d target=%s reps=%lld\n",
              static_cast<long long>(n), static_cast<long long>(m), initName.c_str(),
              engineName.c_str(), gap,
              targetX == 0 ? "perfect" : ("disc<=" + std::to_string(targetX)).c_str(),
              static_cast<long long>(reps));
  std::printf("Theorem 1 scale ln(n)+n^2/m = %.4g\n\n", core::theorem1Scale(n, m));

  if (reps == 1) {
    const auto init = makeInit(initName, n, m, seed);
    sim::TrajectoryRecorder recorder(trajectoryStep > 0 ? trajectoryStep : 1.0);
    options.seed = seed;
    const auto r = core::balance(init, options, target, {}, &recorder);
    std::printf("T = %.6g   moves = %lld   activations = %lld   reached = %s\n", r.time,
                static_cast<long long>(r.moves), static_cast<long long>(r.activations),
                r.reachedTarget ? "yes" : "no");
    if (trajectoryStep > 0) {
      Table t({"time", "disc", "maxload", "minload", "overloaded"});
      for (const auto& p : recorder.points()) {
        t.row().cell(p.time, 6).cell(p.discrepancy, 4).cell(p.maxLoad).cell(p.minLoad).cell(
            p.overloadedBalls);
      }
      std::printf("\n%s", csv ? t.toCsv().c_str() : t.toString().c_str());
    }
    return 0;
  }

  const auto samples = runner::runReplicationsScalar(
      reps, seed,
      [&](std::int64_t rep, std::uint64_t repSeed) {
        const auto init = makeInit(initName, n, m, rng::streamSeed(repSeed, 0x9e37));
        core::SimOptions o = options;
        o.seed = repSeed;
        (void)rep;
        return core::balancingTime(init, o, target);
      },
      threads);
  const auto s = stats::summarize(samples);
  Table t({"reps", "mean", "ci95", "stddev", "min", "p50", "p90", "p99", "max"});
  t.row()
      .cell(s.count)
      .cell(s.mean)
      .cell(s.ci95Half)
      .cell(s.stddev)
      .cell(s.min)
      .cell(s.median)
      .cell(s.p90)
      .cell(s.p99)
      .cell(s.max);
  std::printf("%s", csv ? t.toCsv().c_str() : t.toString().c_str());
  std::printf("\nmean T / theorem-1 scale = %.4g\n", s.mean / core::theorem1Scale(n, m));
  return 0;
}

}  // namespace

// A bad flag (a malformed value, --threads or --reps out of range) throws
// std::invalid_argument: a usage error, exit 2.
int main(int argc, char** argv) {
  try {
    return runSimulate(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
