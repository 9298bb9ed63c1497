// process_compare -- run ANY registered dynamic on ANY start to ANY target,
// side by side. The scenario-layer face of the process registry: what used
// to need a hand-wired harness per (dynamic x workload) pair is one line:
//
//   rlslb run process_compare process=all
//   rlslb run process_compare process=rls,threshold,selfish start=staircase
//   rlslb run process_compare process=graph_rls topology=cycle n=128
//   rlslb run process_compare process=open lambda=3.2 mu=0.2 target=time horizon=200
//
// Process-specific knobs (gap, threshold, p, topology, speeds, weights,
// lambda, mu, d, degree, level_threshold) are forwarded to makeProcess by
// each kind's declared spec, which also checks their domains; `rlslb
// describe <kind>` (or `rlslb describe process_compare`) lists them.
//
// Targets: `auto` picks per capability -- Nash equilibrium / local
// stability where the dynamic has one (crs, speed_rls, weighted_rls), a
// fixed time horizon for open systems, the 2 ln n band for synchronous
// rounds (the e10 convention: a fixed-threshold protocol never reaches
// perfect balance), perfect balance for the RLS engines. Explicit targets
// override for every selected kind: target=perfect|x|band|equilibrium|time.
//
// The unified Clock makes the "E[at stop]" column comparable across
// families: continuous time, synchronous rounds and sequential steps all
// measure "one unit ~ m expected activations" up to each family's
// granularity (see process/process.hpp).
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/generators.hpp"
#include "obs/probe.hpp"
#include "process/registry.hpp"
#include "process/replicate.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256pp.hpp"
#include "scenario/builtin/builtin.hpp"
#include "scenario/harness.hpp"
#include "stats/summary.hpp"
#include "util/assert.hpp"
#include "util/parse.hpp"

namespace rlslb::scenario::builtin {

namespace {

/// The largest time horizon: its int64 cast labels the target column.
constexpr double kMaxHorizon = 1e18;

config::Configuration makeStart(const std::string& start, std::int64_t n, std::int64_t m,
                                std::uint64_t seed) {
  if (start == "allinone") return config::allInOne(n, m);
  if (start == "balanced") return config::balanced(n, m);
  if (start == "staircase") return config::staircase(n, m);
  if (start == "powerlaw") return config::powerLaw(n, m, 1.2);
  rng::Xoshiro256pp eng(rng::streamSeed(seed, stableHash("start:" + start)));
  if (start == "random") return config::uniformRandom(n, m, eng);
  RLSLB_ASSERT(start == "greedy2");
  return config::greedyD(n, m, 2, eng);
}

void runProcessCompare(ScenarioContext& ctx) {
  process::registerBuiltinProcesses();
  const process::ProcessRegistry& registry = process::ProcessRegistry::global();

  const std::int64_t n = ctx.params.getInt("n", ctx.sized(64, 2));
  const std::int64_t m = ballsFor("process_compare", ctx.params.getInt("ratio", 8), n);
  const std::string startName = ctx.params.getString("start", "allinone");
  const std::string targetName = ctx.params.getString("target", "auto");
  const std::int64_t x = ctx.params.getInt("x", 0);
  const double horizon = ctx.params.getDouble("horizon", 50.0);
  const std::int64_t budget = ctx.params.getInt("budget", 50'000'000);
  const std::int64_t reps = ctx.repsOr(10);
  const bool conformance = ctx.params.getBool("conformance", ctx.conformanceDefault);
  const bool instrument =
      ctx.params.getBool("probe", false) || ctx.trace != nullptr || conformance;

  std::vector<std::string> kinds =
      util::splitEntries("process", ctx.params.getString("process", "rls"), ',');
  if (kinds.size() == 1 && kinds[0] == "all") {
    kinds.clear();
    for (const process::ProcessSpec* s : registry.list()) kinds.push_back(s->kind);
  }

  const config::Configuration start = makeStart(startName, n, m, ctx.seed);

  // Conformance: one roster serves every kind's instrumented replication;
  // beginRun() below separates the sub-runs (monotone-step invariants
  // reset, anomalies tagged with the run index).
  if (conformance) obs::installProcessMonitors(ctx.monitors, n, m);
  const auto band =
      static_cast<std::int64_t>(std::ceil(2.0 * std::log(static_cast<double>(n))));

  Table table({"process", "family", "clock", "target", "reps", "E[at stop]", "ci95",
               "E[events]", "E[moves]", "final disc", "reached"});
  for (const std::string& kind : kinds) {
    const process::ProcessSpec* spec = registry.find(kind);
    if (spec == nullptr) {
      // Route through make() for the roster-listing error message.
      (void)registry.make(kind, start, ctx.seed);
      continue;  // unreachable: make() throws on unknown kinds
    }
    const util::Params params = forwardProcessParams(*spec, ctx.params);

    // Probe instance: capabilities + clock kind drive the auto target. One
    // extra construction per kind, next to the `reps` constructions
    // runReplicated performs below -- negligible, and it keeps capability
    // truth in the dynamics instead of duplicating it on the spec.
    const auto probe = registry.make(kind, start, ctx.seed, params);
    const process::Capabilities& caps = probe->capabilities();
    const bool rounds = probe->now().kind == process::Clock::Kind::Rounds;

    process::Target target = process::Target::perfect();
    process::RunLimits limits;
    limits.maxEvents = budget;
    std::string targetLabel;
    const std::string resolved =
        targetName != "auto"
            ? targetName
            : (caps.equilibrium ? "equilibrium"
                                : (caps.openSystem ? "time" : (rounds && x == 0 ? "band" : "x")));
    if (resolved == "perfect" || (resolved == "x" && x == 0)) {
      target = process::Target::perfect();
      targetLabel = "perfect";
    } else if (resolved == "x") {
      target = process::Target::xBalanced(x);
      targetLabel = "disc<=" + std::to_string(x);
    } else if (resolved == "band") {
      target = process::Target::xBalanced(band);
      targetLabel = "disc<=" + std::to_string(band) + " (2ln n)";
    } else if (resolved == "equilibrium") {
      if (!caps.equilibrium) {
        throw std::invalid_argument("process_compare: target=equilibrium needs a kind with an "
                                    "equilibrium notion (" + kind + " has none)");
      }
      target = process::Target::equilibrium();
      targetLabel = "equilibrium";
    } else if (resolved == "time") {
      target = process::Target::none();
      limits.maxTime = horizon;
      targetLabel = "t=" + std::to_string(static_cast<std::int64_t>(horizon));
    }
    // Synchronous rounds burn one O(m) sweep per event; keep their budget
    // at the e10 scale rather than the continuous-event scale.
    if (rounds) limits.maxEvents = std::min<std::int64_t>(limits.maxEvents, 100'000);

    const auto runs = process::runReplicated(
        kind, start, params, target, limits, reps,
        ctx.seed ^ stableHash("process_compare:" + kind), ctx.pool(), registry);

    // Telemetry: probe=1 (or a driver-wide --trace-out) runs ONE extra
    // instrumented replication per kind through obs::ProcessProbe, so the
    // gated comparison reps above never pay the sampling cost. Exports
    // process.<kind>.{events,samples,gap,overloaded_balls,moves,clock} and,
    // when tracing, trajectory counter lanes for Perfetto.
    if (instrument) {
      const auto traced =
          registry.make(kind, start, ctx.seed ^ stableHash("probe:" + kind), params);
      obs::ProcessProbe::Options probeOptions;
      probeOptions.prefix = "process." + kind;
      if (conformance) {
        ctx.monitors.beginRun();
        probeOptions.monitors = &ctx.monitors;
      }
      obs::ProcessProbe telemetry(&ctx.metrics, ctx.trace, probeOptions);
      (void)process::run(*traced, target, limits, &telemetry);
      telemetry.finish(*traced);
    }

    std::vector<double> at(runs.size());
    std::vector<double> events(runs.size());
    std::vector<double> moves(runs.size());
    std::vector<double> disc(runs.size());
    double reachedCount = 0.0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      at[i] = runs[i].time;
      events[i] = static_cast<double>(runs[i].events);
      moves[i] = static_cast<double>(runs[i].moves);
      disc[i] = runs[i].finalState.discrepancy();
      if (runs[i].reachedTarget) reachedCount += 1.0;
    }
    const auto atS = stats::summarize(at);
    Table& row = table.row();
    row.cell(kind)
        .cell(spec->family)
        .cell(probe->now().unit())
        .cell(targetLabel)
        .cell(reps)
        .cell(atS.mean, 5)
        .cell(atS.ci95Half)
        .cell(stats::summarize(events).mean, 5)
        .cell(stats::summarize(moves).mean, 5)
        .cell(stats::summarize(disc).mean, 3);
    // Target::none() is never "reached"; a horizon run that completed is
    // not a failure, so don't print a misleading 0.
    if (target.kind == process::Target::Kind::None) {
      row.cell("n/a");
    } else {
      row.cell(reachedCount / static_cast<double>(runs.size()), 2);
    }
  }
  ctx.emitTable(table, "[process_compare] every dynamic through process::run, start=" +
                           startName + ", n=" + std::to_string(n) +
                           ", m=" + std::to_string(m) +
                           " (clock units per family: continuous time ~ rounds ~ m "
                           "expected activations; CRS uses only the (n, m) shape)");
}

}  // namespace

void registerProcessCompare(ScenarioRegistry& r) {
  r.add({"process_compare",
         "any registered dynamic on any start to any target via the process registry",
         "Section 2 baselines; Section 7 extensions; Ganesh et al. [11]", runProcessCompare,
         {{"process", "string", "rls",
           "comma list of process kinds, or 'all' (see `rlslb describe <kind>`)"},
          {"n", "int", "64 (scaled)", "bins", {.intMin = 1, .intMax = kMaxBins}},
          {"ratio", "int", "8", "balls per bin (m = ratio * n; ratio * n must fit int64)",
           {.intMin = 0}},
          {"start", "string", "allinone", "initial shape",
           {.choices = "allinone|balanced|random|greedy2|staircase|powerlaw"}},
          {"target", "string", "auto",
           "auto: equilibrium / horizon / 2ln-n band / perfect by capability",
           {.choices = "auto|perfect|x|band|equilibrium|time"}},
          {"x", "int", "0", "x for target=x (0 = perfect balance)", {.intMin = 0}},
          {"horizon", "double", "50", "time horizon for target=time",
           {.min = 0.0, .max = kMaxHorizon}},
          {"budget", "int", "5e7", "event budget per replication (rounds capped at 1e5)",
           {.intMin = 1}},
          {"probe", "bool", "0",
           "1 = run one extra instrumented replication per kind (process.* metrics; "
           "implied by --trace-out)"},
          {"conformance", "bool", "0 (run default)",
           "attach the conformance monitor roster to the instrumented replication "
           "(implies probe=1)"}},
         /*forwardsProcessParams=*/true});
}

}  // namespace rlslb::scenario::builtin
