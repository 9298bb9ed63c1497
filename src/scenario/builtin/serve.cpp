// serve_* -- the online serving subsystem scenarios.
//
// Each scenario streams one workload trace (workload/generators.hpp)
// through the incremental OnlineAllocator under the sharded event loop
// (serve/event_loop.hpp) and reports:
//   - a deterministic gap trajectory (checkpoint epochs) and a summary
//     table with migration counts and the balance gap against the paper's
//     closed-system floor (gap 1 for unit weights; the heaviest ball for
//     weighted traffic) -- byte-identical for a fixed seed across runs,
//     thread counts, and shard counts;
//   - a timing table plus a "throughput" JSONL record (events/sec of the
//     decision+apply+repair loop), which CI gates via
//     scripts/compare_results.py next to the wall-clock trajectory.
//
// Shared params: n (bins), events (trace length), d (arrival choices),
// shards, epoch (events per snapshot), repair (repair moves per epoch),
// lambda (arrivals/bin/time), mu (departure rate), resample (RLS clock
// rate), weight (background ball weight), record=FILE (tee the trace out;
// JSONL/CSV/binary by extension), trace=FILE (replay a recorded trace
// instead of generating; format by extension), trace_out=FILE (write a
// Chrome/Perfetto trace of the loop's phases). Kind-specific params are
// listed at each builder.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/monitor.hpp"
#include "obs/trace.hpp"
#include "rng/splitmix64.hpp"
#include "scenario/builtin/builtin.hpp"
#include "util/assert.hpp"
#include "serve/event_loop.hpp"
#include "serve/online_allocator.hpp"
#include "workload/compose.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

namespace rlslb::scenario::builtin {

namespace {

workload::OpenTraceOptions baseTraceOptions(ScenarioContext& ctx, std::int64_t bins,
                                            std::int64_t events) {
  workload::OpenTraceOptions o;
  o.bins = bins;
  o.arrivalRatePerBin = ctx.params.getDouble("lambda", 1.0);
  o.departureRate = ctx.params.getDouble("mu", 0.125);
  o.resampleRate = ctx.params.getDouble("resample", 1.0);
  o.ballWeight = ctx.params.getInt("weight", 1);
  o.maxEvents = events;
  return o;
}

std::unique_ptr<workload::TraceGenerator> buildTrace(ScenarioContext& ctx,
                                                     const std::string& kind,
                                                     std::int64_t bins, std::int64_t events,
                                                     std::uint64_t seed) {
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
    return std::make_unique<workload::BurstyTrace>(o, seed);
  }
  if (kind == "diurnal") {
    workload::DiurnalTraceOptions o;
    o.base = base;
    o.amplitude = ctx.params.getDouble("amplitude", 0.8);
    o.period = ctx.params.getDouble("period", 64.0);
    return std::make_unique<workload::DiurnalTrace>(o, seed);
  }
  if (kind == "composed") {
    const std::string spec = ctx.params.getString(
        "spec", "diurnal(0.8,64)*bursty(8,0.05,0.5)+hotspot(16,32,8)");
    workload::ComposeSpec parsed;
    std::string error;
    const bool ok = workload::parseComposeSpec(spec, &parsed, &error);
    if (!ok) std::fprintf(stderr, "serve_composed: bad spec= (%s)\n", error.c_str());
    RLSLB_ASSERT_MSG(ok, "spec= does not parse; see rlslb traces for the algebra");
    return std::make_unique<workload::ComposedTrace>(base, std::move(parsed), seed);
  }
  RLSLB_ASSERT(kind == "adversarial");
  workload::HotspotTraceOptions o;
  o.base = base;
  o.burstPeriod = ctx.params.getDouble("burst_period", 16.0);
  o.burstSize = ctx.params.getInt("burst_size", 32);
  o.hotWeight = ctx.params.getInt("hot_weight", 8);
  return std::make_unique<workload::HotspotTrace>(o, seed);
}

/// epoch= param (events per load snapshot), rejected below 1 before any
/// epoch arithmetic divides by it.
std::int64_t epochParam(ScenarioContext& ctx) {
  const std::int64_t epoch = ctx.params.getInt("epoch", 1024);
  if (epoch < 1) {
    std::string message = "epoch= must be >= 1 (got ";
    message.append(std::to_string(epoch)).append(")");
    throw std::invalid_argument(message);
  }
  return epoch;
}

/// partitioned= param -> ApplyMode: "auto" (default; partitioned when the
/// pool has workers and shards > 1), "0"/"seq" (fused sequential apply),
/// "1"/"part" (force the partitioned path).
serve::ApplyMode parseApplyMode(const std::string& value) {
  if (value == "auto") return serve::ApplyMode::kAuto;
  if (value == "0" || value == "seq") return serve::ApplyMode::kSequential;
  if (value == "1" || value == "part") return serve::ApplyMode::kPartitioned;
  RLSLB_ASSERT_MSG(false, "partitioned= must be auto, 0/seq, or 1/part");
  return serve::ApplyMode::kAuto;
}

void runServe(ScenarioContext& ctx, const std::string& kind) {
  const std::int64_t n = ctx.params.getInt("n", ctx.sized(256));
  std::int64_t events = ctx.params.getInt("events", ctx.sized(6'000'000));
  serve::AllocatorOptions allocOptions;
  allocOptions.bins = n;
  allocOptions.arrivalChoices = static_cast<int>(ctx.params.getInt("d", 2));
  allocOptions.invertAcceptance = ctx.params.getBool("invert", false);
  const bool conformance = ctx.params.getBool("conformance", ctx.conformanceDefault);
  serve::LoopOptions loopOptions;
  loopOptions.shards = static_cast<int>(ctx.params.getInt("shards", 8));
  loopOptions.epochEvents = epochParam(ctx);
  loopOptions.repairMovesPerEpoch = static_cast<int>(ctx.params.getInt("repair", 4));
  loopOptions.seed = ctx.seed;
  loopOptions.applyMode = parseApplyMode(ctx.params.getString("partitioned", "auto"));
  const std::string replayPath = ctx.params.getString("trace", "");
  const std::string recordPath = ctx.params.getString("record", "");

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

  // Trace source: generated (optionally tee'd to JSONL), or replayed.
  const std::uint64_t traceSeed = rng::streamSeed(ctx.seed, stableHash("trace:" + kind));
  std::unique_ptr<workload::TraceGenerator> generated;
  std::ifstream replayIn;
  std::ofstream recordOut;
  std::unique_ptr<workload::TraceGenerator> source;
  RLSLB_ASSERT_MSG(replayPath.empty() || recordPath.empty(),
                   "trace= (replay) and record= (tee the generated trace) are mutually "
                   "exclusive; a replayed trace is already on disk");
  if (!replayPath.empty()) {
    // The epoch/checkpoint/warmup math below needs the true trace length,
    // which for a replay is the file, not the `events` param. The format
    // (JSONL / CSV / binary) follows the file extension.
    const workload::TraceFormat replayFormat = workload::traceFormatFromPath(replayPath);
    {
      std::ifstream count(replayPath, std::ios::binary);
      RLSLB_ASSERT_MSG(count.is_open(), "cannot open trace= replay file");
      events = workload::countTraceEvents(count, replayFormat);
      RLSLB_ASSERT_MSG(events > 0, "trace= replay file holds no events");
    }
    replayIn.open(replayPath, std::ios::binary);
    RLSLB_ASSERT_MSG(replayIn.is_open(), "cannot open trace= replay file");
    source = workload::makeTraceReader(replayIn, replayFormat);
  } else {
    generated = buildTrace(ctx, kind, n, events, traceSeed);
    if (!recordPath.empty()) {
      recordOut.open(recordPath, std::ios::binary);
      RLSLB_ASSERT_MSG(recordOut.is_open(), "cannot open record= output file");
      source = std::make_unique<workload::RecordingTrace>(
          *generated, recordOut, workload::traceFormatFromPath(recordPath));
    } else {
      source = std::move(generated);
    }
  }

  // Epoch observation: a handful of trajectory checkpoints plus post-warmup
  // gap statistics and the per-epoch wall-clock distribution. Computed
  // before the loop so the conformance warmup can be sized from it.
  const std::int64_t totalEpochs =
      (events + loopOptions.epochEvents - 1) / loopOptions.epochEvents;

  // Conformance: the default serve roster (load conservation, the paper's
  // gap envelope, latency drift) rides the epoch boundary when
  // conformance=1 (or --conformance= made it the run default).
  if (conformance) {
    obs::ServeConformanceParams cp;
    cp.n = n;
    const double mu = ctx.params.getDouble("mu", 0.125);
    cp.expectedBalls =
        mu > 0.0 ? static_cast<std::int64_t>(ctx.params.getDouble("lambda", 1.0) *
                                             static_cast<double>(n) / mu)
                 : 0;
    cp.d = allocOptions.arrivalChoices;
    cp.totalEpochs = totalEpochs;
    obs::installServeMonitors(ctx.monitors, cp);
    ctx.monitors.beginRun();
    loopOptions.monitors = &ctx.monitors;
  }

  serve::OnlineAllocator allocator(allocOptions);
  serve::ShardedEventLoop loop(allocator, loopOptions, ctx.pool());

  const std::int64_t checkpointEvery = std::max<std::int64_t>(1, totalEpochs / 8);
  const std::int64_t warmupEpochs = totalEpochs / 4;
  Table trajectory({"epoch", "trace time", "live balls", "total load", "gap", "migrations"});
  double gapSum = 0.0;
  std::int64_t gapEpochs = 0;
  std::int64_t maxGap = 0;
  std::vector<double> epochNs;
  const serve::ShardedEventLoop::RunResult runResult =
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
    RLSLB_ASSERT_MSG(localTrace.writeFile(traceOutPath), "cannot write trace_out= file");
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
                 "migr/resample", "repairs", "mean gap", "max gap", "final disc",
                 "closed bound", "gap/bound"});
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
      .cell(c.repairMigrations)
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
  Table timing({"events", "epochs", "loop wall s", "events/sec", "mean ns/event",
                "p99 ns/event (epoch)", "apply", "queued ops", "cross-shard ops"});
  timing.row()
      .cell(runResult.events)
      .cell(runResult.epochs)
      .cell(runResult.wallSeconds, 4)
      .cell(eventsPerSec, 6)
      .cell(meanNs, 4)
      .cell(p99Ns, 4)
      .cell(loop.usesPartitionedApply() ? "partitioned" : "fused")
      .cell(runResult.queue.queuedOps)
      .cell(runResult.queue.crossShardOps);
  ctx.emitTimingTable(timing, "[serve] " + kind +
                                  " loop throughput (decision+apply+repair wall-clock; "
                                  "trace generation excluded)");
  if (ctx.sink != nullptr) {
    ctx.sink->writeThroughput(ctx.activeScenario, runResult.events, eventsPerSec);
  }
}

std::vector<int> parseIntList(const std::string& csv, const char* what) {
  std::vector<int> values;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string token =
        csv.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    RLSLB_ASSERT_MSG(!token.empty(), "empty entry in a comma-separated list param");
    const int v = static_cast<int>(std::stoll(token));
    RLSLB_ASSERT_MSG(v >= 1, what);
    values.push_back(v);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  RLSLB_ASSERT_MSG(!values.empty(), what);
  return values;
}

/// serve_scaling: one Poisson trace served repeatedly under every
/// (threads, shards) combination of the sweep lists, each row on its own
/// ThreadPool. Every row must finish in the byte-identical final state
/// (asserted), so the only thing the sweep varies is wall-clock: per-row
/// events/sec goes out as a "throughput" record named
/// <scenario>/s<shards>t<threads>, which scripts/compare_results.py gates
/// both against the committed baseline and *within the run* (for each
/// multi-thread row group, the best multi-shard rate must hold against the
/// single-shard rate).
void runServeScaling(ScenarioContext& ctx) {
  const std::int64_t n = ctx.params.getInt("n", ctx.sized(256));
  const std::int64_t events = ctx.params.getInt("events", ctx.sized(2'000'000));
  serve::AllocatorOptions allocOptions;
  allocOptions.bins = n;
  allocOptions.arrivalChoices = static_cast<int>(ctx.params.getInt("d", 2));
  const std::int64_t epochEvents = epochParam(ctx);
  const auto repair = static_cast<int>(ctx.params.getInt("repair", 4));
  const std::vector<int> threadList =
      parseIntList(ctx.params.getString("thread_list", "1,2,4"), "thread_list entries must be >= 1");
  const std::vector<int> shardList =
      parseIntList(ctx.params.getString("shard_list", "1,2,4,8"), "shard_list entries must be >= 1");
  // Thread counts beyond the machine are skipped, not measured: an
  // oversubscribed pool only measures scheduler churn, and the within-run
  // scaling gate in scripts/compare_results.py would gate on that noise.
  const int hardware = runner::ThreadPool::resolveThreadCount(0);
  std::vector<int> skippedThreads;
  const std::uint64_t traceSeed = rng::streamSeed(ctx.seed, stableHash("trace:scaling"));

  Table scaling({"threads", "shards", "apply", "loop wall s", "events/sec",
                 "queued ops", "cross-shard ops", "speedup vs s=1"});
  std::vector<std::int64_t> refLoads;
  std::int64_t finalGap = 0;
  std::int64_t finalLive = 0;
  std::int64_t finalTotal = 0;
  std::int64_t finalMigrations = 0;
  for (const int threads : threadList) {
    if (threads > hardware) {
      skippedThreads.push_back(threads);
      continue;
    }
    runner::ThreadPool pool(threads);
    double singleShardEps = 0.0;
    for (const int shards : shardList) {
      const workload::OpenTraceOptions base = baseTraceOptions(ctx, n, events);
      workload::PoissonTrace trace(base, traceSeed);
      serve::OnlineAllocator allocator(allocOptions);
      serve::LoopOptions loopOptions;
      loopOptions.shards = shards;
      loopOptions.epochEvents = epochEvents;
      loopOptions.repairMovesPerEpoch = repair;
      loopOptions.seed = ctx.seed;
      loopOptions.applyMode =
          shards > 1 ? serve::ApplyMode::kPartitioned : serve::ApplyMode::kSequential;
      serve::ShardedEventLoop loop(allocator, loopOptions, pool);
      const serve::ShardedEventLoop::RunResult runResult = loop.run(trace);

      // The sweep is execution-only: every row must land in the same state.
      if (refLoads.empty()) {
        refLoads = allocator.loads();
        finalGap = allocator.gap();
        finalLive = allocator.liveBalls();
        finalTotal = allocator.totalLoad();
        finalMigrations =
            allocator.counters().migrations + allocator.counters().repairMigrations;
      } else {
        RLSLB_ASSERT_MSG(allocator.loads() == refLoads,
                         "serve_scaling rows diverged: the partitioned apply broke the "
                         "shard/thread invariance contract");
      }

      const double eventsPerSec =
          runResult.wallSeconds > 0.0
              ? static_cast<double>(runResult.events) / runResult.wallSeconds
              : 0.0;
      if (shards == 1) singleShardEps = eventsPerSec;
      scaling.row()
          .cell(threads)
          .cell(shards)
          .cell(shards > 1 ? "partitioned" : "fused")
          .cell(runResult.wallSeconds, 4)
          .cell(eventsPerSec, 6)
          .cell(runResult.queue.queuedOps)
          .cell(runResult.queue.crossShardOps)
          .cell(singleShardEps > 0.0 ? eventsPerSec / singleShardEps : 0.0, 3);
      if (ctx.sink != nullptr) {
        // append chain, not operator+: GCC 12 -Wrestrict false positive
        // (bug 105329) on chained string concatenation under -O3.
        std::string rowName = ctx.activeScenario;
        rowName.append("/s").append(std::to_string(shards));
        rowName.append("t").append(std::to_string(threads));
        ctx.sink->writeThroughput(rowName, runResult.events, eventsPerSec);
      }
    }
  }
  std::string title =
      "[serve] shard-scaling sweep (same trace + seed per row; final "
      "states asserted byte-identical)";
  if (!skippedThreads.empty()) {
    title.append("; skipped thread counts beyond this machine's ");
    title.append(std::to_string(hardware)).append(" cores:");
    for (const int t : skippedThreads) {
      title.push_back(' ');
      title.append(std::to_string(t));
    }
  }
  ctx.emitTimingTable(scaling, title);

  Table summary({"events", "final gap", "live balls", "total load", "migrations"});
  summary.row()
      .cell(events)
      .cell(finalGap)
      .cell(finalLive)
      .cell(finalTotal)
      .cell(finalMigrations);
  ctx.emitTable(summary,
                "[serve] scaling sweep semantic outcome (identical for every row)");
}

}  // namespace

void registerServe(ScenarioRegistry& r) {
  const std::vector<process::ParamSpec> shared = {
      {"n", "int", "256 (scaled)", "bins"},
      {"events", "int", "6e6 (scaled)", "trace length"},
      {"d", "int", "2", "arrival choices (snapshot-least-loaded of d bins)"},
      {"shards", "int", "8", "decision partitions + apply-phase bin-ownership shards"},
      {"epoch", "int", "1024", "events per load snapshot"},
      {"partitioned", "string", "auto", "apply mode: auto, 0/seq (fused), 1/part"},
      {"repair", "int", "4", "cross-shard RLS repair moves per epoch"},
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
  r.add({"serve_scaling",
         "online serving: shard-scaling sweep of the partitioned apply (per-row "
         "throughput records, byte-identical final states)",
         "partitioned-apply execution study (shards/threads as pure perf knobs)",
         runServeScaling,
         {{"n", "int", "256 (scaled)", "bins"},
          {"events", "int", "2e6 (scaled)", "trace length per sweep row"},
          {"d", "int", "2", "arrival choices"},
          {"epoch", "int", "1024", "events per load snapshot"},
          {"repair", "int", "4", "cross-shard RLS repair moves per epoch"},
          {"lambda", "double", "1.0", "arrivals per bin per time unit"},
          {"mu", "double", "0.125", "per-ball departure rate"},
          {"resample", "double", "1.0", "per-ball RLS clock rate"},
          {"weight", "int", "1", "background ball weight"},
          {"thread_list", "string", "1,2,4", "pool sizes to sweep (csv)"},
          {"shard_list", "string", "1,2,4,8", "ownership shard counts to sweep (csv)"}}});
}

}  // namespace rlslb::scenario::builtin
