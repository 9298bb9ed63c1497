// serve_* -- the online serving subsystem scenarios.
//
// Each scenario streams one workload trace (workload/generators.hpp)
// through the incremental OnlineAllocator under the epoch event loop
// (serve/event_loop.hpp) and reports:
//   - a deterministic gap trajectory (checkpoint epochs) and a summary
//     table with migration counts and the balance gap against the paper's
//     closed-system floor (gap 1 for unit weights; the heaviest ball for
//     weighted traffic) -- byte-identical for a fixed seed across runs and
//     thread counts;
//   - a timing table plus a "throughput" JSONL record: units/sec of the
//     decide+apply loop, the activations among those units, and the
//     scenario's wall time split into fill (trace generation), loop,
//     observe and the unattributed rest. CI gates events_per_sec via
//     scripts/compare_results.py next to the wall-clock trajectory.
//
// A unit is an arrival, a departure or an RLS activation (a clock ring the
// trace record carries); `events` counts units, and a run serves exactly
// that many unless a replayed trace ends first.
//
// Shared params: n (bins), events (units to serve), d (arrival choices),
// epoch (units per snapshot), lambda (arrivals/bin/time), mu (departure
// rate), resample (RLS clock rate), weight (background ball weight),
// record=FILE (tee the trace out; JSONL/CSV/binary by extension),
// trace=FILE (replay a recorded trace instead of generating; format by
// extension), trace_out=FILE (write a Chrome/Perfetto trace of the loop's
// phases). Kind-specific params are listed at each builder. Unusable user
// input (an out-of-range param, a bad spec, an unreadable or inconsistent
// trace, an unwritable output) throws std::invalid_argument, which the
// driver reports with exit code 2.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/monitor.hpp"
#include "obs/trace.hpp"
#include "rng/splitmix64.hpp"
#include "scenario/builtin/builtin.hpp"
#include "serve/event_loop.hpp"
#include "serve/online_allocator.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"
#include "workload/compose.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

namespace rlslb::scenario::builtin {

namespace {

/// The int32 ceiling of bin indices, live slots and ball weights: with
/// weights and live counts below it, an int64 load sum cannot overflow.
constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();

/// Integer param `name`, rejected outside [min, max] before any arithmetic,
/// narrowing or allocation uses it (epoch= divides, n= and d= size draws,
/// d= is narrowed to int, n= to the allocators' int32 bin indices,
/// weight= feeds the allocator's 1 <= w <= INT32_MAX contract).
std::int64_t intParam(ScenarioContext& ctx, const char* name, std::int64_t fallback,
                      std::int64_t min,
                      std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
  const std::int64_t value = ctx.params.getInt(name, fallback);
  if (value < min || value > max) {
    std::string message = name;
    if (max == std::numeric_limits<std::int64_t>::max()) {
      message.append("= must be >= ").append(std::to_string(min));
    } else {
      message.append("= must be in [").append(std::to_string(min)).append(", ");
      message.append(std::to_string(max)).append("]");
    }
    message.append(" (got ").append(std::to_string(value)).append(")");
    throw std::invalid_argument(message);
  }
  return value;
}

/// Rate param `name` (lambda=, mu=, resample=), rejected when negative or
/// NaN.
double rateParam(ScenarioContext& ctx, const char* name, double fallback) {
  const double value = ctx.params.getDouble(name, fallback);
  if (!(value >= 0.0)) {
    std::string message = name;
    message.append("= must be >= 0 (got ").append(report::formatJsonNumber(value));
    message.append(")");
    throw std::invalid_argument(message);
  }
  return value;
}

workload::OpenTraceOptions baseTraceOptions(ScenarioContext& ctx, std::int64_t bins,
                                            std::int64_t events) {
  workload::OpenTraceOptions o;
  o.bins = bins;
  o.arrivalRatePerBin = rateParam(ctx, "lambda", 1.0);
  o.departureRate = rateParam(ctx, "mu", 0.125);
  o.resampleRate = rateParam(ctx, "resample", 1.0);
  o.ballWeight = intParam(ctx, "weight", 1, 1, kInt32Max);
  // Every record is at least one unit, so `events` records always hold the
  // unit budget.
  o.maxEvents = events;
  return o;
}

/// A standalone trace shape's params, checked against the compose parser's
/// range table: the one table both use.
void checkShape(const std::string& kind, const char* params,
                const workload::ComposeFactor& factor) {
  if (const char* problem = workload::checkComposeFactor(factor)) {
    throw std::invalid_argument("serve_" + kind + " " + params + ": " + problem);
  }
}

std::unique_ptr<workload::OpenTrace> buildTrace(ScenarioContext& ctx, const std::string& kind,
                                                std::int64_t bins, std::int64_t events,
                                                std::uint64_t seed) {
  using Factor = workload::ComposeFactor;
  const workload::OpenTraceOptions base = baseTraceOptions(ctx, bins, events);
  if (kind == "poisson") {
    return std::make_unique<workload::PoissonTrace>(base, seed);
  }
  if (kind == "bursty") {
    workload::BurstyTraceOptions o;
    o.base = base;
    o.burstRateFactor = ctx.params.getDouble("burst_factor", 8.0);
    o.calmToBurstRate = ctx.params.getDouble("calm_to_burst", 0.05);
    o.burstToCalmRate = ctx.params.getDouble("burst_to_calm", 0.5);
    checkShape(kind, "burst_factor=, calm_to_burst=, burst_to_calm=",
               {Factor::Kind::kBursty, o.burstRateFactor, o.calmToBurstRate,
                o.burstToCalmRate});
    return std::make_unique<workload::BurstyTrace>(o, seed);
  }
  if (kind == "diurnal") {
    workload::DiurnalTraceOptions o;
    o.base = base;
    o.amplitude = ctx.params.getDouble("amplitude", 0.8);
    o.period = ctx.params.getDouble("period", 64.0);
    checkShape(kind, "amplitude=, period=",
               {Factor::Kind::kDiurnal, o.amplitude, o.period, 0.0});
    return std::make_unique<workload::DiurnalTrace>(o, seed);
  }
  if (kind == "composed") {
    const std::string spec = ctx.params.getString(
        "spec", "diurnal(0.8,64)*bursty(8,0.05,0.5)+hotspot(16,32,8)");
    workload::ComposeSpec parsed;
    std::string error;
    if (!workload::parseComposeSpec(spec, &parsed, &error)) {
      throw std::invalid_argument("serve_composed: spec= does not parse (" + error +
                                  "); see `rlslb traces` for the algebra");
    }
    return std::make_unique<workload::ComposedTrace>(base, std::move(parsed), seed);
  }
  RLSLB_ASSERT(kind == "adversarial");
  workload::HotspotTraceOptions o;
  o.base = base;
  o.burstPeriod = ctx.params.getDouble("burst_period", 16.0);
  o.burstSize = ctx.params.getInt("burst_size", 32);
  o.hotWeight = ctx.params.getInt("hot_weight", 8);
  checkShape(kind, "burst_period=, burst_size=, hot_weight=",
             {Factor::Kind::kHotspot, o.burstPeriod, static_cast<double>(o.burstSize),
              static_cast<double>(o.hotWeight)});
  return std::make_unique<workload::HotspotTrace>(o, seed);
}

void runServe(ScenarioContext& ctx, const std::string& kind) {
  const WallTimer wall;  // the whole scenario: the throughput record's wall_s
  const std::int64_t n = intParam(ctx, "n", ctx.sized(256), 1, kInt32Max);
  const bool eventsGiven = ctx.params.has("events");
  std::int64_t events = intParam(ctx, "events", ctx.sized(6'000'000), 1);
  serve::AllocatorOptions allocOptions;
  allocOptions.bins = n;
  allocOptions.arrivalChoices =
      static_cast<int>(intParam(ctx, "d", 2, 1, serve::kMaxArrivalChoices));
  allocOptions.invertAcceptance = ctx.params.getBool("invert", false);
  const bool conformance = ctx.params.getBool("conformance", ctx.conformanceDefault);
  serve::LoopOptions loopOptions;
  loopOptions.epochEvents = intParam(ctx, "epoch", 1024, 1);
  loopOptions.seed = ctx.seed;
  const std::string replayPath = ctx.params.getString("trace", "");
  const std::string recordPath = ctx.params.getString("record", "");
  if (!replayPath.empty() && !recordPath.empty()) {
    throw std::invalid_argument(
        "trace= (replay) and record= (tee the generated trace) are mutually exclusive; "
        "a replayed trace is already on disk");
  }

  // Telemetry: the loop exports its counters/phase timings into the run's
  // registry; runOne emits the merged snapshot as a "metrics" record.
  loopOptions.metrics = &ctx.metrics;
  // Tracing: the driver-wide --trace-out writer if attached, or a
  // scenario-local one when the trace_out= param asks for a per-run file.
  const std::string traceOutPath = ctx.params.getString("trace_out", "");
  obs::TraceWriter localTrace;
  loopOptions.trace = ctx.trace;
  if (!traceOutPath.empty()) {
    if (obs::kTracingCompiledIn) {
      loopOptions.trace = &localTrace;
    } else {
      ctx.note("trace_out=" + traceOutPath +
               " ignored: tracing is compiled out (build with -DRLSLB_TRACING=ON)");
    }
  }

  // Trace source: generated (optionally tee'd to a file), or replayed.
  const std::uint64_t traceSeed = rng::streamSeed(ctx.seed, stableHash("trace:" + kind));
  std::unique_ptr<workload::TraceGenerator> generated;
  std::ifstream replayIn;
  std::ofstream recordOut;
  std::unique_ptr<workload::TraceGenerator> source;
  if (!replayPath.empty()) {
    // The epoch/checkpoint/warmup math below needs the units the replay
    // serves: events= when given, but no more than the file holds. The
    // counting pass also rejects a trace that breaks the stream's
    // invariants, before any serving. The format (JSONL / CSV / binary)
    // follows the file extension.
    const workload::TraceFormat replayFormat = workload::traceFormatFromPath(replayPath);
    {
      std::ifstream count(replayPath, std::ios::binary);
      if (!count.is_open()) {
        throw std::invalid_argument("cannot open trace= replay file " + replayPath);
      }
      const std::int64_t units = workload::countTraceEvents(count, replayFormat);
      if (units < 1) {
        throw std::invalid_argument("trace= replay file " + replayPath + " holds no events");
      }
      events = eventsGiven ? std::min(events, units) : units;
    }
    replayIn.open(replayPath, std::ios::binary);
    if (!replayIn.is_open()) {
      throw std::invalid_argument("cannot open trace= replay file " + replayPath);
    }
    source = workload::makeTraceReader(replayIn, replayFormat);
  } else {
    std::unique_ptr<workload::OpenTrace> trace = buildTrace(ctx, kind, n, events, traceSeed);
    if (!trace->ratesFinite()) {
      throw std::invalid_argument("serve_" + kind +
                                  ": the total clock rate overflows; lower lambda=, mu= or "
                                  "resample= (or the shape's rate factor)");
    }
    generated = std::move(trace);
    if (!recordPath.empty()) {
      recordOut.open(recordPath, std::ios::binary);
      if (!recordOut.is_open()) {
        throw std::invalid_argument("cannot write record= output file " + recordPath);
      }
      source = std::make_unique<workload::RecordingTrace>(
          *generated, recordOut, workload::traceFormatFromPath(recordPath));
    } else {
      source = std::move(generated);
    }
  }

  // Epoch observation: a handful of trajectory checkpoints plus post-warmup
  // gap statistics and the per-epoch wall-clock distribution. Computed
  // before the loop so the conformance warmup can be sized from it.
  loopOptions.unitBudget = events;
  const std::int64_t totalEpochs =
      (events + loopOptions.epochEvents - 1) / loopOptions.epochEvents;

  // Conformance: the default serve roster (load conservation, the paper's
  // gap envelope, latency drift) rides the epoch boundary when
  // conformance=1 (or --conformance= made it the run default).
  if (conformance) {
    obs::ServeConformanceParams cp;
    cp.n = n;
    const double mu = rateParam(ctx, "mu", 0.125);
    cp.expectedBalls =
        mu > 0.0 ? static_cast<std::int64_t>(rateParam(ctx, "lambda", 1.0) *
                                             static_cast<double>(n) / mu)
                 : 0;
    cp.d = allocOptions.arrivalChoices;
    cp.totalEpochs = totalEpochs;
    obs::installServeMonitors(ctx.monitors, cp);
    ctx.monitors.beginRun();
    loopOptions.monitors = &ctx.monitors;
  }

  serve::OnlineAllocator allocator(allocOptions);
  serve::EpochLoop loop(allocator, loopOptions);

  const std::int64_t checkpointEvery = std::max<std::int64_t>(1, totalEpochs / 8);
  const std::int64_t warmupEpochs = totalEpochs / 4;
  Table trajectory({"epoch", "trace time", "live balls", "total load", "gap", "migrations"});
  double gapSum = 0.0;
  std::int64_t gapEpochs = 0;
  std::int64_t maxGap = 0;
  std::vector<double> epochNs;
  const serve::RunResult runResult =
      loop.run(*source, [&](const serve::EpochStats& s) {
    if (s.epoch % checkpointEvery == 0 || s.epoch + 1 == totalEpochs) {
      trajectory.row()
          .cell(s.epoch)
          .cell(s.traceTime, 5)
          .cell(s.liveBalls)
          .cell(s.totalLoad)
          .cell(s.gap())
          .cell(s.migrations);
    }
    if (s.epoch >= warmupEpochs) {
      gapSum += static_cast<double>(s.gap());
      ++gapEpochs;
      if (s.gap() > maxGap) maxGap = s.gap();
    }
    if (s.events > 0) {
      epochNs.push_back(s.wallSeconds * 1e9 / static_cast<double>(s.events));
    }
      });
  const auto& c = allocator.counters();

  if (loopOptions.trace == &localTrace) {
    if (!localTrace.writeFile(traceOutPath)) {
      throw std::invalid_argument("cannot write trace_out= file " + traceOutPath);
    }
    ctx.note("[trace] " + std::to_string(localTrace.eventCount()) + " events -> " +
             traceOutPath + "  (load in ui.perfetto.dev or chrome://tracing)");
  }

  ctx.emitTable(trajectory, "[serve] " + kind + " gap trajectory, n=" + std::to_string(n) +
                                " (checkpoint epochs; gap = max - min bin load)");

  const double meanGap = gapEpochs > 0 ? gapSum / static_cast<double>(gapEpochs) : 0.0;
  const std::int64_t bound = std::max<std::int64_t>(1, allocator.maxWeightSeen());
  // Final balance through the closed-system vocabulary (the same
  // sim::BalanceState view process::Process::state() exposes).
  const sim::BalanceState finalBalance = allocator.balanceState();
  Table summary({"events", "arrivals", "departures", "resamples", "migrations",
                 "migr/resample", "mean gap", "max gap", "final disc", "closed bound",
                 "gap/bound"});
  summary.row()
      .cell(c.events)
      .cell(c.arrivals)
      .cell(c.departures)
      .cell(c.resamples)
      .cell(c.migrations)
      .cell(c.resamples > 0
                ? static_cast<double>(c.migrations) / static_cast<double>(c.resamples)
                : 0.0,
            3)
      .cell(meanGap, 4)
      .cell(maxGap)
      .cell(finalBalance.discrepancy(), 3)
      .cell(bound)
      .cell(meanGap / static_cast<double>(bound), 3);
  ctx.emitTable(summary,
                "[serve] " + kind +
                    " summary (post-warmup gap vs the paper's closed-system balance floor)");

  // Wall-clock view: loop throughput and the per-event cost distribution.
  std::sort(epochNs.begin(), epochNs.end());
  const double meanNs = [&] {
    double total = 0.0;
    for (const double v : epochNs) total += v;
    return epochNs.empty() ? 0.0 : total / static_cast<double>(epochNs.size());
  }();
  const double p99Ns =
      epochNs.empty() ? 0.0
                      : epochNs[static_cast<std::size_t>(
                            static_cast<double>(epochNs.size() - 1) * 0.99)];
  const double eventsPerSec =
      runResult.wallSeconds > 0.0
          ? static_cast<double>(runResult.events) / runResult.wallSeconds
          : 0.0;
  Table timing({"events", "activations", "epochs", "loop wall s", "events/sec",
                "mean ns/event", "p99 ns/event (epoch)"});
  timing.row()
      .cell(runResult.events)
      .cell(runResult.activations)
      .cell(runResult.epochs)
      .cell(runResult.wallSeconds, 4)
      .cell(eventsPerSec, 6)
      .cell(meanNs, 4)
      .cell(p99Ns, 4);
  ctx.emitTimingTable(timing, "[serve] " + kind +
                                  " loop throughput (decide+apply wall-clock; trace "
                                  "generation excluded; events = arrivals + departures + "
                                  "activations)");
  if (ctx.sink != nullptr) {
    report::Json record = report::Json::object();
    record.set("events", runResult.events);
    record.set("activations", runResult.activations);
    record.set("events_per_sec", eventsPerSec);
    setWallSplit(&record, wall.seconds(), runResult.fillSeconds, runResult.wallSeconds,
                 runResult.observeSeconds);
    ctx.sink->writeThroughput(ctx.activeScenario, record);
  }
}

}  // namespace

void setWallSplit(report::Json* record, double wallSeconds, double fillSeconds,
                  double loopSeconds, double observeSeconds) {
  record->set("wall_s", wallSeconds);
  record->set("fill_s", fillSeconds);
  record->set("loop_s", loopSeconds);
  record->set("observe_s", observeSeconds);
  record->set("unattributed_s", wallSeconds - fillSeconds - loopSeconds - observeSeconds);
}

void registerServe(ScenarioRegistry& r) {
  const std::vector<process::ParamSpec> shared = {
      {"n", "int", "256 (scaled)", "bins"},
      {"events", "int", "6e6 (scaled)",
       "units to serve: arrivals, departures and RLS activations (a replay: at most "
       "the file's)"},
      {"d", "int", "2", "arrival choices (snapshot-least-loaded of d bins)"},
      {"epoch", "int", "1024", "units per load snapshot"},
      {"lambda", "double", "1.0", "arrivals per bin per time unit"},
      {"mu", "double", "0.125", "per-ball departure rate"},
      {"resample", "double", "1.0", "per-ball RLS clock rate"},
      {"weight", "int", "1", "background ball weight"},
      {"conformance", "bool", "0 (run default)",
       "attach the conformance monitor roster at epoch boundaries"},
      {"invert", "bool", "0",
       "TEST HOOK: invert the allocator's acceptance rule (drives the gap up; "
       "pairs with conformance=1 to demo anomaly detection)"},
      {"record", "string", "(off)",
       "tee the generated trace to this file (.jsonl/.csv/.bin by extension)"},
      {"trace", "string", "(off)",
       "replay a recorded trace instead of generating (.jsonl/.csv/.bin by extension)"},
      {"trace_out", "string", "(off)",
       "write a Chrome/Perfetto trace of this run's phases to FILE"},
  };
  const auto add = [&](const std::string& kind, const std::string& what,
                       std::vector<process::ParamSpec> extra) {
    std::vector<process::ParamSpec> params = shared;
    params.insert(params.end(), extra.begin(), extra.end());
    r.add({"serve_" + kind,
           "online serving: " + what + " trace through the incremental RLS allocator",
           "open-system serving (Ganesh et al. [11]; Section 7 outlook)",
           [kind](ScenarioContext& ctx) { runServe(ctx, kind); }, std::move(params)});
  };
  add("poisson", "constant-rate Poisson arrivals/departures", {});
  add("bursty", "2-state MMPP calm/burst",
      {{"burst_factor", "double", "8.0", "burst-state rate multiplier"},
       {"calm_to_burst", "double", "0.05", "calm -> burst switching rate"},
       {"burst_to_calm", "double", "0.5", "burst -> calm switching rate"}});
  add("diurnal", "sinusoid-modulated (day/night) arrivals",
      {{"amplitude", "double", "0.8", "rate modulation depth (0..1)"},
       {"period", "double", "64.0", "day length in time units"}});
  add("adversarial", "synchronized heavy hot-spot bursts",
      {{"burst_period", "double", "16.0", "time between synchronized bursts"},
       {"burst_size", "int", "32", "balls per burst"},
       {"hot_weight", "int", "8", "weight of each burst ball"}});
  add("composed", "composable trace algebra (sum/modulate/overlay of factors)",
      {{"spec", "string", "diurnal(0.8,64)*bursty(8,0.05,0.5)+hotspot(16,32,8)",
        "trace algebra spec; factors/combinators listed by `rlslb traces`"}});
}

}  // namespace rlslb::scenario::builtin
