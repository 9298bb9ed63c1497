#include "serve/event_loop.hpp"

#include <vector>

#include "obs/memory.hpp"
#include "rng/splitmix64.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace rlslb::serve {

namespace {
// Stream salts for the loop's two rng families, derived from
// LoopOptions.seed via rng::streamSeed.
constexpr std::uint64_t kDecisionStreamSalt = 0x64656373ULL;  // "decs"
constexpr std::uint64_t kRepairStreamSalt = 0x72657061ULL;    // "repa"

// Microseconds -> integer nanoseconds for the serve.phase.*_ns counters.
std::int64_t spanNs(double beginUs, double endUs) {
  const double ns = (endUs - beginUs) * 1e3;
  return ns > 0.0 ? static_cast<std::int64_t>(ns) : 0;
}
}  // namespace

template <typename Allocator>
EpochLoop<Allocator>::EpochLoop(Allocator& allocator, const LoopOptions& options)
    : allocator_(&allocator), options_(options) {
  RLSLB_ASSERT_MSG(options_.epochEvents >= 1, "LoopOptions.epochEvents must be >= 1");
  RLSLB_ASSERT_MSG(options_.repairMovesPerEpoch >= 0,
                   "LoopOptions.repairMovesPerEpoch must be >= 0");
}

template <typename Allocator>
void EpochLoop<Allocator>::registerMetrics() {
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
  ids_.repairAttempts = m.counter("serve.repair_attempts");
  ids_.repairMigrations = m.counter("serve.repair_migrations");
  ids_.fillNs = m.counter("serve.phase.fill_ns");
  ids_.decideNs = m.counter("serve.phase.decide_ns");
  ids_.applyNs = m.counter("serve.phase.apply_ns");
  ids_.repairNs = m.counter("serve.phase.repair_ns");
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

template <typename Allocator>
RunResult EpochLoop<Allocator>::run(workload::TraceGenerator& trace,
                                    const std::function<void(const EpochStats&)>& onEpoch) {
  // Multi-run contract: each run() is self-contained. A reused loop must
  // draw the same decision/repair streams a fresh loop would on the same
  // trace (allocator state, by design, carries over).
  nextOrdinal_ = 0;
  nextEpoch_ = 0;
  const std::uint64_t decisionSeed = rng::streamSeed(options_.seed, kDecisionStreamSalt);
  const std::uint64_t repairSeed = rng::streamSeed(options_.seed, kRepairStreamSalt);

  // Telemetry: all export happens at epoch boundaries (slab writes plus a
  // few clock samples inside the timed region when instrumented); the
  // per-event hot path never touches the registry or the writer.
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
  // tests/test_serve_hotpath.cpp). `decisions` and `candidates` grow but
  // never zero-fill per epoch; depart slots are simply never read.
  std::vector<workload::Event> batch;
  std::vector<Decision> decisions;
  std::vector<std::int32_t> candidates;
  batch.reserve(static_cast<std::size_t>(options_.epochEvents));

  for (;;) {
    // Phase stamps are extra reads of the steady clock, taken only when
    // instrumented; the fill is stamped so trace generation has a name.
    double tFill0 = 0.0;
    if (instrumented) tFill0 = obs::nowUs();
    batch.clear();
    workload::Event event;
    while (static_cast<std::int64_t>(batch.size()) < options_.epochEvents &&
           trace.next(&event)) {
      batch.push_back(event);
    }
    if (batch.empty()) break;

    // Timing contract: the timer brackets decide + apply + repair only;
    // the batch fill above and the stats/callback below are outside.
    WallTimer wall;
    double tEpoch0 = 0.0;
    double tDecide1 = 0.0;
    double tApply1 = 0.0;
    double tRepair1 = 0.0;
    if (instrumented) tEpoch0 = obs::nowUs();
    const std::int64_t baseOrdinal = nextOrdinal_;
    nextOrdinal_ += static_cast<std::int64_t>(batch.size());

    if (decisions.size() < batch.size()) decisions.resize(batch.size());
    allocator_->decideBatch(batch.data(), batch.size(), decisionSeed, baseOrdinal,
                            &candidates, decisions.data());
    if (instrumented) tDecide1 = obs::nowUs();

    allocator_->applyBatch(batch.data(), decisions.data(), batch.size());
    if (instrumented) tApply1 = obs::nowUs();

    rng::Xoshiro256pp repairEng(
        rng::streamSeed(repairSeed, static_cast<std::uint64_t>(nextEpoch_)));
    for (int k = 0; k < options_.repairMovesPerEpoch; ++k) allocator_->repairMove(repairEng);
    if (instrumented) tRepair1 = obs::nowUs();

    const double epochWall = wall.seconds();
    result.wallSeconds += epochWall;
    result.events += static_cast<std::int64_t>(batch.size());
    ++result.epochs;

    // Everything below is outside the timed region: stats assembly, the
    // telemetry export, and the callback, traced as one "observe" span.
    const obs::Span observe(traceOut, "observe");
    const bool wantBalance = static_cast<bool>(onEpoch) || metrics != nullptr ||
                             traceOut != nullptr || monitors != nullptr;
    sim::BalanceState balance;
    if (wantBalance) balance = allocator_->balanceState();
    const std::int64_t gap = balance.maxLoad - balance.minLoad;

    if (traceOut != nullptr) {
      traceOut->complete("fill", "phase", tFill0, tEpoch0);
      traceOut->complete("epoch", "epoch", tEpoch0, tRepair1);
      traceOut->complete("decide", "phase", tEpoch0, tDecide1);
      traceOut->complete("apply", "phase", tDecide1, tApply1);
      traceOut->complete("repair", "phase", tApply1, tRepair1);
      traceOut->counter("serve.gap", "gap", tRepair1, static_cast<double>(gap));
    }

    if (metrics != nullptr) {
      metrics->add(ids_.events, static_cast<std::int64_t>(batch.size()));
      metrics->add(ids_.epochs, 1);
      const ServeCounters& c = allocator_->counters();
      metrics->add(ids_.arrivals, c.arrivals - prevCounters.arrivals);
      metrics->add(ids_.departures, c.departures - prevCounters.departures);
      metrics->add(ids_.resamples, c.resamples - prevCounters.resamples);
      metrics->add(ids_.migrations, c.migrations - prevCounters.migrations);
      metrics->add(ids_.rejectedMoves, c.rejectedMoves - prevCounters.rejectedMoves);
      metrics->add(ids_.repairAttempts, c.repairAttempts - prevCounters.repairAttempts);
      metrics->add(ids_.repairMigrations,
                   c.repairMigrations - prevCounters.repairMigrations);
      prevCounters = c;
      metrics->add(ids_.fillNs, spanNs(tFill0, tEpoch0));
      metrics->add(ids_.decideNs, spanNs(tEpoch0, tDecide1));
      metrics->add(ids_.applyNs, spanNs(tDecide1, tApply1));
      metrics->add(ids_.repairNs, spanNs(tApply1, tRepair1));
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
      metrics->observeSketch(ids_.epochNs, spanNs(tEpoch0, tRepair1));
    }

    if (monitors != nullptr) {
      obs::CheckSample sample;
      sample.origin = obs::CheckSample::Origin::kServeEpoch;
      sample.step = nextEpoch_;
      sample.time = batch.back().time;
      sample.events = static_cast<std::int64_t>(batch.size());
      sample.wallSeconds = epochWall;
      sample.gap = gap;
      sample.liveBalls = allocator_->liveBalls();
      sample.totalLoad = allocator_->totalLoad();
      sample.maxWeight = allocator_->maxWeightSeen();
      const ServeCounters& c = allocator_->counters();
      sample.arrivals = c.arrivals;
      sample.departures = c.departures;
      sample.migrations = c.migrations + c.repairMigrations;
      monitors->check(sample);
    }

    if (onEpoch) {
      EpochStats stats;
      stats.epoch = nextEpoch_;
      stats.traceTime = batch.back().time;
      stats.events = static_cast<std::int64_t>(batch.size());
      stats.liveBalls = allocator_->liveBalls();
      stats.totalLoad = allocator_->totalLoad();
      stats.balance = balance;
      stats.migrations =
          allocator_->counters().migrations + allocator_->counters().repairMigrations;
      stats.wallSeconds = epochWall;
      onEpoch(stats);
    }
    ++nextEpoch_;
  }
  return result;
}

template class EpochLoop<OnlineAllocator>;
template class EpochLoop<CompactAllocator>;

}  // namespace rlslb::serve
