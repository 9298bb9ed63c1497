// serve_capacity -- the cluster-scale capacity-planning frontier sweep.
//
// Sweeps the serving subsystem across n (bins) x load factor (lambda/mu)
// x trace shape (workload/compose.hpp specs) under a memory budget and
// reports, per cell:
//   - a deterministic sweep table (final/mean/max gap, arrivals,
//     migrations, ok/skipped status) -- byte-identical for a fixed seed;
//   - a timing table and one {"type":"frontier"} JSONL record with the
//     wall-clock and memory measurements: events (units: arrivals,
//     departures and RLS activations) and activations, events/sec, p99
//     ns/event, resident state bytes, bytes per ball, peak RSS, and the
//     cell's wall time split into fill, loop, observe and the unattributed
//     rest (scripts/perf_report.py renders the frontier heatmap from these);
//   - cells whose predicted state would blow the budget_mb gate are
//     skipped deterministically (CompactAllocator::estimateBytes), with a
//     "skipped" row and a frontier record carrying the estimate.
//
// Every cell runs serve::CompactAllocator under serve::EpochLoop.
//
// Params: n_list (csv bins sweep), load_list (csv lambda/mu sweep; mu =
// lambda/L with lambda fixed at 1), traces (';'-separated compose specs),
// epb (units per expected ball, scaled), epoch, d, resample, budget_mb,
// conformance. A spec with a non-unit hotspot weight is priced with the
// allocator's 2 B per ball weight array.
#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/memory.hpp"
#include "obs/monitor.hpp"
#include "rng/splitmix64.hpp"
#include "scenario/builtin/builtin.hpp"
#include "serve/compact_allocator.hpp"
#include "serve/event_loop.hpp"
#include "util/parse.hpp"
#include "util/timer.hpp"
#include "workload/compose.hpp"
#include "workload/generators.hpp"

namespace rlslb::scenario::builtin {

namespace {

/// The int32 ceiling of bin indices and live slots.
constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();

struct CellResult {
  std::int64_t events = 0;
  std::int64_t activations = 0;
  std::int64_t epochs = 0;
  double wallSeconds = 0.0;
  std::int64_t arrivals = 0;
  std::int64_t migrations = 0;
  std::int64_t finalGap = 0;
  double meanGap = 0.0;
  std::int64_t maxGap = 0;
  double p99Ns = 0.0;
  std::int64_t stateBytes = 0;
  std::int64_t liveBalls = 0;
};

void runCapacity(ScenarioContext& ctx) {
  const std::vector<std::string> nTokens =
      util::splitEntries("n_list", ctx.params.getString("n_list", "1000000"), ',');
  const std::vector<std::string> loadTokens =
      util::splitEntries("load_list", ctx.params.getString("load_list", "8"), ',');
  const std::vector<std::string> traceSpecs =
      util::splitEntries("traces", ctx.params.getString("traces", "poisson"), ';');
  const std::int64_t epb = ctx.params.getInt("epb", ctx.sized(4));
  const std::int64_t epochEvents = ctx.params.getInt("epoch", 1024);
  const auto d = static_cast<int>(ctx.params.getInt("d", 2));
  const double resample = ctx.params.getDouble("resample", 1.0);
  const std::int64_t budgetMb = ctx.params.getInt("budget_mb", 2048);
  const std::int64_t budgetBytes = budgetMb << 20;
  const bool conformance = ctx.params.getBool("conformance", ctx.conformanceDefault);

  std::vector<std::int64_t> nList;
  for (const std::string& t : nTokens) {
    const std::int64_t n = util::parseInt64(t, "n_list");
    if (n < 1 || n > kInt32Max) {
      throw std::invalid_argument("serve_capacity: n_list entries must be in [1, " +
                                  std::to_string(kInt32Max) + "] (got " + t + ")");
    }
    nList.push_back(n);
  }
  std::vector<double> loadList;
  for (const std::string& t : loadTokens) {
    const double load = util::parseDouble(t, "load_list");
    if (!(load > 0.0)) {
      throw std::invalid_argument("serve_capacity: load_list entries must be > 0 (got " + t +
                                  ")");
    }
    loadList.push_back(load);
  }
  std::vector<workload::ComposeSpec> specs;
  for (const std::string& t : traceSpecs) {
    workload::ComposeSpec spec;
    std::string error;
    if (!workload::parseComposeSpec(t, &spec, &error)) {
      throw std::invalid_argument("serve_capacity: traces= entry " + t + " does not parse (" +
                                  error + "); see `rlslb traces`");
    }
    specs.push_back(std::move(spec));
  }

  // Conformance monitors bind to one (n, expected balls, epochs) shape at
  // install time, so they attach only when the sweep holds n and load
  // fixed (the CI smoke configuration); trace shape may still vary.
  const bool monitorable = nList.size() == 1 && loadList.size() == 1;
  if (conformance && !monitorable) {
    ctx.note("conformance monitors attach only to single-(n,load) capacity sweeps; "
             "disabled for this sweep");
  }
  const bool useMonitors = conformance && monitorable;
  // A cell's expected live balls and its units, checked before any integer
  // arithmetic: the live count must fit the int32 live slots, and the units
  // must fit int64 with headroom.
  const auto cellUnits = [epb](std::int64_t n, double load) {
    const std::string cell = "serve_capacity: cell n=" + std::to_string(n) +
                             " load=" + report::formatJsonNumber(load);
    const double live = load * static_cast<double>(n);
    if (!(live <= static_cast<double>(kInt32Max))) {
      throw std::invalid_argument(cell + " expects more than " + std::to_string(kInt32Max) +
                                  " live balls");
    }
    const auto expectedLive = static_cast<std::int64_t>(live);
    if (expectedLive < 1) throw std::invalid_argument(cell + " has no events; raise epb or load");
    if (epb > (std::numeric_limits<std::int64_t>::max() / 16) / expectedLive) {
      throw std::invalid_argument(cell + ": epb=" + std::to_string(epb) +
                                  " x expected live balls overflows the unit count");
    }
    return std::pair<std::int64_t, std::int64_t>{expectedLive, epb * expectedLive};
  };
  if (useMonitors) {
    obs::ServeConformanceParams cp;
    cp.n = nList.front();
    const auto [expectedLive, cellEvents] = cellUnits(nList.front(), loadList.front());
    cp.expectedBalls = expectedLive;
    cp.d = d;
    cp.totalEpochs = (cellEvents + epochEvents - 1) / epochEvents;
    obs::installServeMonitors(ctx.monitors, cp);
  }

  Table sweep({"n", "load", "trace", "events", "arrivals", "migrations", "final gap",
               "mean gap", "max gap", "status"});
  Table timing({"n", "load", "trace", "events", "activations", "loop wall s", "events/sec",
                "p99 ns/event", "state MB", "bytes/ball", "peak RSS MB"});

  for (const std::int64_t n : nList) {
    for (const double load : loadList) {
      for (const workload::ComposeSpec& spec : specs) {
        const WallTimer cellWall;  // the frontier record's wall_s
        const std::string traceName = spec.canonical();
        const auto [expectedLive, events] = cellUnits(n, load);
        const double mu = 1.0 / load;
        // The state is sized by the peak live count, which the budget gate
        // prices at the expected live count.
        bool weighted = false;
        for (const std::vector<workload::ComposeFactor>& term : spec.terms) {
          for (const workload::ComposeFactor& f : term) {
            weighted |= f.kind == workload::ComposeFactor::Kind::kHotspot && f.c != 1.0;
          }
        }
        const std::int64_t estimate =
            serve::CompactAllocator::estimateBytes(n, expectedLive, weighted);
        const std::string loadText = report::formatJsonNumber(load);

        report::Json cell = report::Json::object();
        cell.set("n", n);
        cell.set("load_factor", load);
        cell.set("trace", traceName);

        if (budgetMb > 0 && estimate > budgetBytes) {
          sweep.row().cell(n).cell(loadText).cell(traceName).cell(events).cell(0).cell(0)
              .cell(0).cell(0.0, 4).cell(0).cell("skipped");
          cell.set("skipped", true);
          cell.set("estimated_bytes", estimate);
          cell.set("budget_bytes", budgetBytes);
          if (ctx.sink != nullptr) ctx.sink->writeFrontier(ctx.activeScenario, cell);
          ctx.note("[capacity] skipped n=" + std::to_string(n) + " load=" + loadText +
                   " trace=" + traceName + ": estimated " +
                   std::to_string(estimate / (1024 * 1024)) + " MB > budget " +
                   std::to_string(budgetMb) + " MB");
          continue;
        }

        // Cell seed from the sweep coordinates only.
        const std::uint64_t cellSeed = rng::streamSeed(
            ctx.seed, stableHash("capacity:" + std::to_string(n) + ":" + loadText +
                                 ":" + traceName));
        const std::uint64_t traceSeed = rng::streamSeed(cellSeed, stableHash("trace"));
        workload::OpenTraceOptions base;
        base.bins = n;
        base.arrivalRatePerBin = 1.0;
        base.departureRate = mu;
        base.resampleRate = resample;
        base.ballWeight = 1;
        base.maxEvents = events;  // records; each is at least one unit
        workload::ComposedTrace trace(base, spec, traceSeed);
        if (!trace.ratesFinite()) {
          throw std::invalid_argument("serve_capacity: trace " + traceName + " at load=" +
                                      loadText + ": the total clock rate overflows");
        }

        const std::int64_t totalEpochs = (events + epochEvents - 1) / epochEvents;
        const std::int64_t warmupEpochs = totalEpochs / 4;
        if (useMonitors) ctx.monitors.beginRun();
        obs::MonitorSet* const monitors = useMonitors ? &ctx.monitors : nullptr;

        CellResult r;
        double gapSum = 0.0;
        std::int64_t gapEpochs = 0;
        std::vector<double> epochNs;
        const auto onEpoch = [&](const serve::EpochStats& s) {
          if (s.epoch >= warmupEpochs) {
            gapSum += static_cast<double>(s.gap());
            ++gapEpochs;
            if (s.gap() > r.maxGap) r.maxGap = s.gap();
          }
          if (s.events > 0) {
            epochNs.push_back(s.wallSeconds * 1e9 / static_cast<double>(s.events));
          }
        };

        serve::AllocatorOptions opt;
        opt.bins = n;
        opt.arrivalChoices = d;
        serve::CompactAllocator allocator(opt);
        serve::LoopOptions loopOptions;
        loopOptions.epochEvents = epochEvents;
        loopOptions.unitBudget = events;
        loopOptions.seed = cellSeed;
        loopOptions.metrics = &ctx.metrics;
        loopOptions.trace = ctx.trace;
        loopOptions.monitors = monitors;
        serve::EpochLoop loop(allocator, loopOptions);
        const serve::RunResult run = loop.run(trace, onEpoch);
        r.events = run.events;
        r.activations = run.activations;
        r.epochs = run.epochs;
        r.wallSeconds = run.wallSeconds;
        r.arrivals = allocator.counters().arrivals;
        r.migrations = allocator.counters().migrations;
        r.finalGap = allocator.gap();
        r.stateBytes = allocator.residentBytes();
        r.liveBalls = allocator.liveBalls();
        r.meanGap = gapEpochs > 0 ? gapSum / static_cast<double>(gapEpochs) : 0.0;
        std::sort(epochNs.begin(), epochNs.end());
        r.p99Ns = epochNs.empty()
                      ? 0.0
                      : epochNs[static_cast<std::size_t>(
                            static_cast<double>(epochNs.size() - 1) * 0.99)];
        const double eventsPerSec =
            r.wallSeconds > 0.0 ? static_cast<double>(r.events) / r.wallSeconds : 0.0;
        const double bytesPerBall =
            r.liveBalls > 0
                ? static_cast<double>(r.stateBytes) / static_cast<double>(r.liveBalls)
                : 0.0;
        const std::int64_t peakRss = obs::peakRssBytes();

        sweep.row().cell(n).cell(loadText).cell(traceName).cell(r.events)
            .cell(r.arrivals).cell(r.migrations).cell(r.finalGap).cell(r.meanGap, 4)
            .cell(r.maxGap).cell("ok");
        timing.row().cell(n).cell(loadText).cell(traceName).cell(r.events)
            .cell(r.activations).cell(r.wallSeconds, 4)
            .cell(eventsPerSec, 6).cell(r.p99Ns, 4)
            .cell(static_cast<double>(r.stateBytes) / (1024.0 * 1024.0), 2)
            .cell(bytesPerBall, 2)
            .cell(static_cast<double>(peakRss) / (1024.0 * 1024.0), 2);

        cell.set("events", r.events);
        cell.set("activations", r.activations);
        cell.set("epochs", r.epochs);
        cell.set("arrivals", r.arrivals);
        cell.set("live_balls", r.liveBalls);
        cell.set("final_gap", r.finalGap);
        cell.set("mean_gap", r.meanGap);
        cell.set("max_gap", r.maxGap);
        cell.set("events_per_sec", eventsPerSec);
        cell.set("p99_ns_event", r.p99Ns);
        cell.set("state_bytes", r.stateBytes);
        cell.set("bytes_per_ball", bytesPerBall);
        cell.set("peak_rss_bytes", peakRss);
        setWallSplit(&cell, cellWall.seconds(), run.fillSeconds, run.wallSeconds,
                     run.observeSeconds);
        if (ctx.sink != nullptr) ctx.sink->writeFrontier(ctx.activeScenario, cell);
      }
    }
  }

  ctx.emitTable(sweep, "[capacity] frontier sweep (deterministic gap/counter view; "
                       "skipped = over budget_mb)");
  ctx.emitTimingTable(timing, "[capacity] frontier wall-clock and memory "
                              "(events/sec, p99 ns/event, resident state, bytes/ball)");
}

}  // namespace

void registerServeCapacity(ScenarioRegistry& r) {
  r.add({"serve_capacity",
         "capacity planning: n x load x trace frontier sweep of the compact serving "
         "backend under a memory budget",
         "cluster-scale capacity frontier (Section 7 outlook)",
         runCapacity,
         {{"n_list", "string", "1000000", "bins sweep (csv)"},
          {"load_list", "string", "8", "load factors lambda/mu to sweep (csv)"},
          {"traces", "string", "poisson",
           "';'-separated compose specs (workload algebra; see `rlslb traces`)"},
          {"epb", "int", "4 (scaled)",
           "units (arrivals, departures, RLS activations) per expected ball: cell length",
           {.intMin = 1}},
          {"epoch", "int", "1024", "units per load snapshot", {.intMin = 1}},
          {"d", "int", "2", "arrival choices",
           {.intMin = 1, .intMax = serve::kMaxArrivalChoices}},
          {"resample", "double", "1.0", "per-ball RLS clock rate", {.min = 0.0}},
          // Bounded so that the MB -> bytes shift cannot overflow.
          {"budget_mb", "int", "2048",
           "skip cells whose predicted state exceeds this many MB (0 = no gate)",
           {.intMin = 0, .intMax = std::numeric_limits<std::int64_t>::max() >> 20}},
          {"conformance", "bool", "0 (run default)",
           "attach the serve monitor roster (single-(n,load) sweeps only)"}}});
}

}  // namespace rlslb::scenario::builtin
