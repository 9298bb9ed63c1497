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
#include <climits>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "config/generators.hpp"
#include "core/predictors.hpp"
#include "core/rls.hpp"
#include "runner/replication.hpp"
#include "sim/probes.hpp"
#include "stats/summary.hpp"
#include "util/assert.hpp"
#include "util/params.hpp"
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
  RLSLB_ASSERT(name == "greedy2");  // the choices are checked up front
  rng::Xoshiro256pp eng(seed);
  return config::greedyD(n, m, 2, eng);
}

core::SimOptions::EngineKind parseEngine(const std::string& name) {
  if (name == "naive") return core::SimOptions::EngineKind::Naive;
  if (name == "jump") return core::SimOptions::EngineKind::Jump;
  RLSLB_ASSERT(name == "hybrid");
  return core::SimOptions::EngineKind::Hybrid;
}

int runSimulate(int argc, char** argv) {
  const util::Params args(argc, argv);
  util::checkParams(
      args,
      {{"n", "int", "1024", "bins", {.intMin = 2}},
       {"m", "int", "8n", "balls", {.intMin = 1}},
       {"init", "string", "allinone", "initial shape",
        {.choices = "allinone|balanced|twopoint|halfhalf|staircase|random|greedy2"}},
       {"engine", "string", "hybrid", "simulator", {.choices = "naive|jump|hybrid"}},
       {"reps", "int", "1", "replications", {.intMin = 1}},
       {"seed", "int", "1", "seed"},
       {"target", "int", "0", "stop at discrepancy <= target (0 = perfect)", {.intMin = 0}},
       {"trajectory", "double", "0", "trajectory grid step (0 = off)",
        {.min = 0.0, .finite = true}},
       {"csv", "bool", "0", "CSV tables"},
       {"gap", "int", "1", "move iff load(src) >= load(dst) + gap",
        {.intMin = 1, .intMax = INT_MAX}},
       {"threads", "int", "0", "replication threads (0 = hardware)",
        {.intMin = 0, .intMax = runner::kMaxThreads}}},
      "");
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
  const int threads = static_cast<int>(args.getInt("threads", 0));
  args.rejectUnused();
  // Shapes that read n and m together.
  if ((initName == "twopoint" || initName == "halfhalf") && m % n != 0) {
    throw std::invalid_argument("--init=" + initName + " needs --n to divide --m");
  }
  if (initName == "halfhalf" && n % 2 != 0) {
    throw std::invalid_argument("--init=halfhalf needs an even --n");
  }

  core::SimOptions options;
  options.engine = parseEngine(engineName);
  options.gap = gap;
  const process::Target target =
      targetX == 0 ? process::Target::perfect() : process::Target::xBalanced(targetX);

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

// A usage error (an unknown flag, a malformed value, a value out of range)
// throws std::invalid_argument: a message and exit 2.
int main(int argc, char** argv) {
  try {
    return runSimulate(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
