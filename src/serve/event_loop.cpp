#include "serve/event_loop.hpp"

#include <algorithm>
#include <vector>

#include "obs/memory.hpp"
#include "rng/splitmix64.hpp"
#include "util/assert.hpp"

namespace rlslb::serve {

namespace {
// Stream salt of the loop's decision streams, derived from LoopOptions.seed
// via rng::streamSeed; epoch k draws from streamSeed(decisionSeed, k).
constexpr std::uint64_t kDecisionStreamSalt = 0x64656373ULL;  // "decs"

// Records the batch reserves up front, so a steady-state epoch never grows
// it; a longer epoch grows it once, amortized.
constexpr std::int64_t kBatchReserveCap = std::int64_t{1} << 16;

// Microseconds -> integer nanoseconds for the serve.phase.*_ns counters.
std::int64_t spanNs(double beginUs, double endUs) {
  const double ns = (endUs - beginUs) * 1e3;
  return ns > 0.0 ? static_cast<std::int64_t>(ns) : 0;
}
}  // namespace

EpochLoop::EpochLoop(CompactAllocator& allocator, const LoopOptions& options)
    : allocator_(&allocator), options_(options) {
  RLSLB_ASSERT_MSG(options_.epochEvents >= 1, "LoopOptions.epochEvents must be >= 1");
  RLSLB_ASSERT_MSG(options_.unitBudget >= 0, "LoopOptions.unitBudget must be >= 0");
}

void EpochLoop::registerMetrics() {
  // Registration is the telemetry layer's only allocating step; doing it
  // once per loop (not once per run) keeps re-runs of a reused loop
  // allocation-free end to end (tests/test_obs.cpp pins this).
  obs::MetricsRegistry& m = *options_.metrics;
  ids_.events = m.counter("serve.events");
  ids_.epochs = m.counter("serve.epochs");
  ids_.arrivals = m.counter("serve.arrivals");
  ids_.departures = m.counter("serve.departures");
  ids_.resamples = m.counter("serve.resamples");
  ids_.migrations = m.counter("serve.migrations");
  ids_.rejectedMoves = m.counter("serve.rejected_moves");
  ids_.fillNs = m.counter("serve.phase.fill_ns");
  ids_.decideNs = m.counter("serve.phase.decide_ns");
  ids_.applyNs = m.counter("serve.phase.apply_ns");
  ids_.gap = m.gauge("serve.gap");
  ids_.liveBalls = m.gauge("serve.live_balls");
  ids_.totalLoad = m.gauge("serve.total_load");
  // Capacity-planning gauges: allocator state bytes (capacity-based
  // accounting), bytes per live ball, and the process peak RSS, sampled at
  // every epoch boundary (outside the timed region).
  ids_.memStateBytes = m.gauge("serve.mem.state_bytes");
  ids_.memBytesPerBall = m.gauge("serve.mem.bytes_per_ball");
  ids_.memPeakRss = m.gauge("serve.mem.peak_rss_bytes");
  ids_.epochGap = m.histogram("serve.epoch_gap", {0, 1, 2, 4, 8, 16, 32, 64, 128});
  ids_.epochNs = m.sketch("serve.epoch_ns");
  metricsRegistered_ = true;
}

RunResult EpochLoop::run(workload::TraceGenerator& trace,
                         const std::function<void(const EpochStats&)>& onEpoch) {
  // Multi-run contract: each run() is self-contained. The decision streams
  // are keyed by the epoch index, which restarts at 0, so a reused loop
  // draws what a fresh loop would on the same trace (allocator state, by
  // design, carries over).
  const std::uint64_t decisionSeed = rng::streamSeed(options_.seed, kDecisionStreamSalt);

  // Telemetry: all export happens at epoch boundaries (slab writes plus a
  // few clock samples inside the timed region when instrumented); the
  // per-unit hot path never touches the registry or the writer.
  obs::MetricsRegistry* const metrics = options_.metrics;
  obs::TraceWriter* const traceOut = options_.trace;
  obs::MonitorSet* const monitors = options_.monitors;
  const bool instrumented = metrics != nullptr || traceOut != nullptr;
  ServeCounters prevCounters;
  if (metrics != nullptr) {
    if (!metricsRegistered_) registerMetrics();
    prevCounters = allocator_->counters();
  }

  RunResult result;
  // Epoch-scoped storage is reused across epochs: after the first epoch a
  // steady-state epoch performs no heap allocation (pinned by
  // tests/test_serve_hotpath.cpp). The buffers grow but never zero-fill
  // per epoch; depart slots of `decisions` are simply never read.
  std::vector<workload::Event> batch;
  std::vector<Decision> decisions;
  std::vector<std::int32_t> candidates;
  std::vector<RingDraw> ringDraws;
  batch.reserve(static_cast<std::size_t>(std::min(options_.epochEvents, kBatchReserveCap)));
  rng::Xoshiro256pp eng;  // the epoch's decision stream, reseeded per epoch

  // The record the last fill could not finish: its event, and the rings
  // left after the ones that closed that epoch, open the next one.
  workload::Event held;
  bool holding = false;
  std::int64_t budget = options_.unitBudget;  // units left to serve
  double traceTime = 0.0;

  for (std::int64_t epoch = 0;; ++epoch) {
    // Fill: records until the epoch holds epochEvents units. Every run
    // stamps the fill and the observe section (two clock reads each);
    // decide's end is stamped only when instrumented.
    const double tFill0 = obs::nowUs();
    batch.clear();
    const std::int64_t want = std::min(options_.epochEvents, budget);
    std::int64_t units = 0;
    std::int64_t ringCount = 0;  // rings run in this epoch
    while (units < want) {
      if (!holding) {
        if (!trace.next(&held)) break;
        holding = true;
      }
      const std::int64_t room = want - units;
      if (held.rings >= room) {
        // The rings fill the epoch: `room` of them close it, and the
        // record, holding the rest, opens the next one.
        held.rings -= static_cast<std::int32_t>(room);
        ringCount += room;
        units = want;
        break;
      }
      units += std::int64_t{held.rings} + 1;
      ringCount += held.rings;
      batch.push_back(held);
      holding = false;
    }
    const double tEpoch0 = obs::nowUs();
    result.fillSeconds += (tEpoch0 - tFill0) * 1e-6;
    if (units == 0) break;
    budget -= units;

    // Timing contract: these stamps bracket decide + apply only; the fill
    // above and the stats/callback below are outside.
    double tDecide1 = 0.0;
    if (decisions.size() < batch.size()) decisions.resize(batch.size());
    if (ringDraws.size() < static_cast<std::size_t>(ringCount)) {
      ringDraws.resize(static_cast<std::size_t>(ringCount));
    }
    eng.reseed(rng::streamSeed(decisionSeed, static_cast<std::uint64_t>(epoch)));
    allocator_->decideBatch(batch.data(), batch.size(), ringCount, eng, &candidates,
                            ringDraws.data(), decisions.data());
    if (instrumented) tDecide1 = obs::nowUs();

    allocator_->applyBatch(batch.data(), decisions.data(), batch.size(), ringDraws.data(),
                           ringCount);
    const double tApply1 = obs::nowUs();

    const double epochWall = (tApply1 - tEpoch0) * 1e-6;
    result.wallSeconds += epochWall;
    result.events += units;
    result.activations += ringCount;
    ++result.epochs;
    if (!batch.empty()) traceTime = batch.back().time;

    // Everything below is outside the timed region: stats assembly, the
    // telemetry export, and the callback, traced as one "observe" span.
    const bool wantBalance = static_cast<bool>(onEpoch) || metrics != nullptr ||
                             traceOut != nullptr || monitors != nullptr;
    sim::BalanceState balance;
    if (wantBalance) balance = allocator_->balanceState();
    const std::int64_t gap = balance.maxLoad - balance.minLoad;

    if (traceOut != nullptr) {
      traceOut->complete("fill", "phase", tFill0, tEpoch0);
      traceOut->complete("epoch", "epoch", tEpoch0, tApply1);
      traceOut->complete("decide", "phase", tEpoch0, tDecide1);
      traceOut->complete("apply", "phase", tDecide1, tApply1);
      traceOut->counter("serve.gap", "gap", tApply1, static_cast<double>(gap));
    }

    if (metrics != nullptr) {
      metrics->add(ids_.events, units);
      metrics->add(ids_.epochs, 1);
      const ServeCounters& c = allocator_->counters();
      metrics->add(ids_.arrivals, c.arrivals - prevCounters.arrivals);
      metrics->add(ids_.departures, c.departures - prevCounters.departures);
      metrics->add(ids_.resamples, c.resamples - prevCounters.resamples);
      metrics->add(ids_.migrations, c.migrations - prevCounters.migrations);
      metrics->add(ids_.rejectedMoves, c.rejectedMoves - prevCounters.rejectedMoves);
      prevCounters = c;
      metrics->add(ids_.fillNs, spanNs(tFill0, tEpoch0));
      metrics->add(ids_.decideNs, spanNs(tEpoch0, tDecide1));
      metrics->add(ids_.applyNs, spanNs(tDecide1, tApply1));
      metrics->set(ids_.gap, static_cast<double>(gap));
      metrics->set(ids_.liveBalls, static_cast<double>(allocator_->liveBalls()));
      metrics->set(ids_.totalLoad, static_cast<double>(allocator_->totalLoad()));
      const auto stateBytes = static_cast<double>(allocator_->residentBytes());
      const std::int64_t live = allocator_->liveBalls();
      metrics->set(ids_.memStateBytes, stateBytes);
      metrics->set(ids_.memBytesPerBall,
                   live > 0 ? stateBytes / static_cast<double>(live) : 0.0);
      metrics->set(ids_.memPeakRss, static_cast<double>(obs::peakRssBytes()));
      metrics->observe(ids_.epochGap, gap);
      metrics->observeSketch(ids_.epochNs, spanNs(tEpoch0, tApply1));
    }

    if (monitors != nullptr) {
      obs::CheckSample sample;
      sample.origin = obs::CheckSample::Origin::kServeEpoch;
      sample.step = epoch;
      sample.time = traceTime;
      sample.events = units;
      sample.wallSeconds = epochWall;
      sample.gap = gap;
      sample.liveBalls = allocator_->liveBalls();
      sample.totalLoad = allocator_->totalLoad();
      sample.maxWeight = allocator_->maxWeightSeen();
      const ServeCounters& c = allocator_->counters();
      sample.arrivals = c.arrivals;
      sample.departures = c.departures;
      sample.migrations = c.migrations;
      monitors->check(sample);
    }

    if (onEpoch) {
      EpochStats stats;
      stats.epoch = epoch;
      stats.traceTime = traceTime;
      stats.events = units;
      stats.liveBalls = allocator_->liveBalls();
      stats.totalLoad = allocator_->totalLoad();
      stats.balance = balance;
      stats.migrations = allocator_->counters().migrations;
      stats.wallSeconds = epochWall;
      onEpoch(stats);
    }
    const double tObserve1 = obs::nowUs();
    result.observeSeconds += (tObserve1 - tApply1) * 1e-6;
    if (traceOut != nullptr) traceOut->complete("observe", "phase", tApply1, tObserve1);
  }
  return result;
}

}  // namespace rlslb::serve
