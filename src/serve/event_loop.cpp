#include "serve/event_loop.hpp"

#include <vector>

#include "obs/memory.hpp"
#include "rng/splitmix64.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace rlslb::serve {

namespace {
// Below this many queued ops an epoch drains inline: the parallelFor
// dispatch overhead would dominate the O(log n) materialization work.
constexpr std::int64_t kParallelDrainThreshold = 64;

// Microseconds -> integer nanoseconds for the serve.phase.*_ns counters.
std::int64_t spanNs(double beginUs, double endUs) {
  const double ns = (endUs - beginUs) * 1e3;
  return ns > 0.0 ? static_cast<std::int64_t>(ns) : 0;
}
}  // namespace

ShardedEventLoop::ShardedEventLoop(OnlineAllocator& allocator, const LoopOptions& options,
                                   runner::ThreadPool& pool)
    : allocator_(&allocator), options_(options), pool_(&pool) {
  RLSLB_ASSERT_MSG(options_.shards >= 1, "LoopOptions.shards must be >= 1");
  RLSLB_ASSERT_MSG(options_.epochEvents >= 1, "LoopOptions.epochEvents must be >= 1");
  RLSLB_ASSERT_MSG(options_.repairMovesPerEpoch >= 0,
                   "LoopOptions.repairMovesPerEpoch must be >= 0");
}

bool ShardedEventLoop::usesPartitionedApply() const {
  switch (options_.applyMode) {
    case ApplyMode::kSequential:
      return false;
    case ApplyMode::kPartitioned:
      return true;
    case ApplyMode::kAuto:
      // The partitioned machinery only pays for itself when the drain can
      // actually run concurrently; otherwise keep the fused hot path.
      return pool_->size() > 1 && options_.shards > 1;
  }
  return false;
}

void ShardedEventLoop::registerMetrics() {
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
  ids_.queuedOps = m.counter("serve.queued_ops");
  ids_.crossShardOps = m.counter("serve.cross_shard_ops");
  ids_.flushedBins = m.counter("serve.flushed_bins");
  ids_.drainedOps = m.counter("serve.drained_ops");
  ids_.decideNs = m.counter("serve.phase.decide_ns");
  ids_.resolveNs = m.counter("serve.phase.resolve_ns");
  ids_.drainNs = m.counter("serve.phase.drain_ns");
  ids_.applyNs = m.counter("serve.phase.apply_ns");
  ids_.repairNs = m.counter("serve.phase.repair_ns");
  ids_.flushNs = m.counter("serve.phase.flush_ns");
  ids_.gap = m.gauge("serve.gap");
  ids_.liveBalls = m.gauge("serve.live_balls");
  ids_.totalLoad = m.gauge("serve.total_load");
  ids_.applyShards = m.gauge("serve.apply_shards");
  ids_.queuePeak = m.gauge("serve.queue_peak");
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

ShardedEventLoop::RunResult ShardedEventLoop::run(
    workload::TraceGenerator& trace, const std::function<void(const EpochStats&)>& onEpoch) {
  // Multi-run contract: each run() is self-contained. A reused loop must
  // draw the same decision/repair streams a fresh loop would on the same
  // trace (allocator state, by design, carries over).
  nextOrdinal_ = 0;
  nextEpoch_ = 0;
  const std::uint64_t decisionSeed = rng::streamSeed(options_.seed, kDecisionStreamSalt);
  const std::uint64_t repairSeed = rng::streamSeed(options_.seed, kRepairStreamSalt);
  const auto shards = static_cast<std::size_t>(options_.shards);

  const bool partitioned = usesPartitionedApply();
  // Bin ownership may clamp below options_.shards when bins < shards.
  const int applyShards =
      partitioned ? allocator_->configurePartitions(options_.shards, /*enableRouter=*/true)
                  : allocator_->configurePartitions(1, /*enableRouter=*/false);
  if (partitioned) queues_.reset(applyShards);

  // Decisions only fan out when the pool can actually run shards
  // concurrently; otherwise the hash-bucketing indirection is pure
  // overhead on the hot loop. Either path draws the identical per-event
  // stream streamSeed(decisionSeed, ordinal).
  const bool fanOutDecisions = pool_->size() > 1 && options_.shards > 1;

  // Telemetry: all export happens at epoch boundaries (slab writes plus a
  // few clock samples inside the timed region when instrumented); the
  // per-event hot path never touches the registry or the writer.
  obs::MetricsRegistry* const metrics = options_.metrics;
  obs::TraceWriter* const traceOut = options_.trace;
  obs::MonitorSet* const monitors = options_.monitors;
  const bool instrumented = metrics != nullptr || traceOut != nullptr;
  ServeCounters prevCounters;
  std::int64_t prevFlushedBins = 0;
  if (metrics != nullptr) {
    if (!metricsRegistered_) registerMetrics();
    // Never shrink: another component may own slabs beyond ours.
    if (metrics->shards() < applyShards) metrics->configureShards(applyShards);
    prevCounters = allocator_->counters();
    prevFlushedBins = allocator_->flushedBins();
  }
  // While this run owns a trace, the pool's job spans carry our phase
  // labels; restore whatever the caller had configured afterwards.
  obs::TraceWriter* const prevPoolWriter = pool_->traceWriter();
  const char* const prevPoolLabel = pool_->traceLabel();
  if (traceOut != nullptr) pool_->setTraceWriter(traceOut);

  RunResult result;
  result.queue.applyShards = applyShards;
  // Epoch-scoped storage is reused across epochs: after the first epoch a
  // steady-state epoch performs no heap allocation (pinned by
  // tests/test_serve_hotpath.cpp). `decisions` grows but never zero-fills
  // per epoch; depart slots are simply never read.
  std::vector<workload::Event> batch;
  std::vector<Decision> decisions;
  std::vector<std::vector<std::size_t>> shardEvents(shards);  // batch indices
  batch.reserve(static_cast<std::size_t>(options_.epochEvents));
  // The decision phase reads the live load array: every write to it
  // happens in the apply/repair phases, strictly after the decision
  // barrier, so the bytes it sees are exactly the epoch-start snapshot the
  // loop used to copy.
  const std::vector<std::int64_t>& liveLoads = allocator_->loads();

  // Both parallelFor closures are built ONCE and reused every epoch: a
  // std::function re-wrapped per epoch heap-allocates when the capture
  // list outgrows the small-object buffer, which would break the
  // steady-state zero-allocation contract. Per-epoch state flows through
  // `batch`/`decisions`/`baseOrdinal`, captured by reference.
  std::int64_t baseOrdinal = 0;
  const std::function<void(std::int64_t)> decideShard = [&](std::int64_t shard) {
    rng::Xoshiro256pp eng;  // hoisted: one engine per shard, reseeded per event
    for (const std::size_t i : shardEvents[static_cast<std::size_t>(shard)]) {
      eng.reseed(rng::streamSeed(
          decisionSeed,
          static_cast<std::uint64_t>(baseOrdinal + static_cast<std::int64_t>(i))));
      decisions[i] = allocator_->decide(batch[i], liveLoads, eng);
    }
  };
  const std::function<void(std::int64_t)> drainShard = [&](std::int64_t shard) {
    allocator_->applyShardOps(static_cast<int>(shard), queues_);
    // Owner-exclusive slab write: shard s's drain is the only writer of
    // slab s during the parallel phase (the registry's sharding contract).
    if (metrics != nullptr) {
      metrics->addShard(static_cast<int>(shard), ids_.drainedOps,
                        queues_.pendingFor(static_cast<int>(shard)));
    }
  };

  for (;;) {
    batch.clear();
    workload::Event event;
    while (static_cast<std::int64_t>(batch.size()) < options_.epochEvents &&
           trace.next(&event)) {
      batch.push_back(event);
    }
    if (batch.empty()) break;

    // Timing contract: the timer brackets decision + apply + repair
    // (including the deferred-accounting flush) only; the batch fill above
    // and the stats/callback below are outside. Phase stamps are extra
    // reads of the same steady clock, taken only when instrumented.
    WallTimer wall;
    double tEpoch0 = 0.0;
    double tDecide1 = 0.0;
    double tResolve1 = 0.0;
    double tApply1 = 0.0;
    double tSettle1 = 0.0;
    double tRepair1 = 0.0;
    double tFlush1 = 0.0;
    if (instrumented) tEpoch0 = obs::nowUs();
    baseOrdinal = nextOrdinal_;
    nextOrdinal_ += static_cast<std::int64_t>(batch.size());

    if (decisions.size() < batch.size()) decisions.resize(batch.size());
    if (fanOutDecisions) {
      // Hash-shard by ball id; the partition only distributes work, the
      // decisions do not depend on it (per-event rng streams). Departs use
      // no randomness, so they never enter a bucket at all.
      for (auto& list : shardEvents) list.clear();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].kind == workload::EventKind::kDepart) continue;
        const std::size_t shard =
            static_cast<std::size_t>(
                rng::mix64(static_cast<std::uint64_t>(batch[i].ball))) %
            shards;
        shardEvents[shard].push_back(i);
      }
      if (traceOut != nullptr) pool_->setTraceLabel("decide");
      pool_->parallelFor(static_cast<std::int64_t>(shards), decideShard);
    } else {
      rng::Xoshiro256pp eng;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const workload::Event& e = batch[i];
        if (e.kind == workload::EventKind::kDepart) continue;  // no randomness
        eng.reseed(rng::streamSeed(
            decisionSeed,
            static_cast<std::uint64_t>(baseOrdinal + static_cast<std::int64_t>(i))));
        decisions[i] = allocator_->decide(e, liveLoads, eng);
      }
    }
    if (instrumented) tDecide1 = obs::nowUs();

    // Apply phase in trace order.
    std::int64_t queuedOps = 0;
    std::int64_t crossShardOps = 0;
    std::int64_t queuePeak = 0;
    if (partitioned) {
      // Sequential resolution (trace order, live-load re-validation)...
      queues_.clear();
      allocator_->resolveBatch(batch.data(), decisions.data(), baseOrdinal,
                               batch.size(), queues_);
      queuedOps = queues_.totalPending();
      crossShardOps = queues_.crossPending();
      queuePeak = queues_.peakDepth();
      if (instrumented) tResolve1 = obs::nowUs();
      // ... then every owner materializes its column of the queue matrix.
      if (pool_->size() > 1 && queuedOps >= kParallelDrainThreshold) {
        if (traceOut != nullptr) pool_->setTraceLabel("drain");
        pool_->parallelFor(applyShards, drainShard);
      } else {
        for (int shard = 0; shard < applyShards; ++shard) {
          drainShard(shard);
        }
      }
    } else {
      allocator_->applyBatch(batch.data(), decisions.data(), batch.size());
      if (instrumented) tResolve1 = tDecide1;
    }
    if (instrumented) tApply1 = obs::nowUs();

    // Settle the batch's deferred Fenwick deltas before the first repair
    // draw, so the flush is timed as flush (repairMove()'s own entry flush
    // then only settles the previous repair's move). A no-op after the
    // partitioned drain, which flushes per shard.
    allocator_->flush();
    if (instrumented) tSettle1 = obs::nowUs();

    // Cross-shard repair budget (sequential; mutates arbitrary shards).
    rng::Xoshiro256pp repairEng(
        rng::streamSeed(repairSeed, static_cast<std::uint64_t>(nextEpoch_)));
    for (int k = 0; k < options_.repairMovesPerEpoch; ++k) allocator_->repairMove(repairEng);
    if (instrumented) tRepair1 = obs::nowUs();

    // Settle the repair moves' deltas inside the timed region too — the
    // flush belongs to the epoch's cost, not to whichever observer happens
    // to read a merged view first.
    allocator_->flush();
    if (instrumented) tFlush1 = obs::nowUs();

    const double epochWall = wall.seconds();
    result.wallSeconds += epochWall;
    result.events += static_cast<std::int64_t>(batch.size());
    result.queue.queuedOps += queuedOps;
    result.queue.crossShardOps += crossShardOps;
    if (queuePeak > result.queue.queuePeak) result.queue.queuePeak = queuePeak;
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
      traceOut->complete("epoch", "epoch", tEpoch0, tFlush1);
      traceOut->complete("decide", "phase", tEpoch0, tDecide1);
      if (partitioned) {
        traceOut->complete("resolve", "phase", tDecide1, tResolve1);
        traceOut->complete("drain", "phase", tResolve1, tApply1);
      } else {
        traceOut->complete("apply", "phase", tDecide1, tApply1);
      }
      traceOut->complete("flush", "phase", tApply1, tSettle1);
      traceOut->complete("repair", "phase", tSettle1, tRepair1);
      traceOut->complete("flush", "phase", tRepair1, tFlush1);
      traceOut->counter("serve.gap", "gap", tFlush1, static_cast<double>(gap));
      traceOut->counter("serve.queued_ops", "ops", tFlush1,
                        static_cast<double>(queuedOps));
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
      metrics->add(ids_.queuedOps, queuedOps);
      metrics->add(ids_.crossShardOps, crossShardOps);
      const std::int64_t flushed = allocator_->flushedBins();
      metrics->add(ids_.flushedBins, flushed - prevFlushedBins);
      prevFlushedBins = flushed;
      metrics->add(ids_.decideNs, spanNs(tEpoch0, tDecide1));
      if (partitioned) {
        metrics->add(ids_.resolveNs, spanNs(tDecide1, tResolve1));
        metrics->add(ids_.drainNs, spanNs(tResolve1, tApply1));
      } else {
        metrics->add(ids_.applyNs, spanNs(tDecide1, tApply1));
      }
      metrics->add(ids_.repairNs, spanNs(tSettle1, tRepair1));
      metrics->add(ids_.flushNs, spanNs(tApply1, tSettle1) + spanNs(tRepair1, tFlush1));
      metrics->set(ids_.gap, static_cast<double>(gap));
      metrics->set(ids_.liveBalls, static_cast<double>(allocator_->liveBalls()));
      metrics->set(ids_.totalLoad, static_cast<double>(allocator_->totalLoad()));
      metrics->set(ids_.applyShards, static_cast<double>(applyShards));
      metrics->setMax(ids_.queuePeak, static_cast<double>(queuePeak));
      const auto stateBytes = static_cast<double>(allocator_->residentBytes());
      const std::int64_t live = allocator_->liveBalls();
      metrics->set(ids_.memStateBytes, stateBytes);
      metrics->set(ids_.memBytesPerBall,
                   live > 0 ? stateBytes / static_cast<double>(live) : 0.0);
      metrics->set(ids_.memPeakRss, static_cast<double>(obs::peakRssBytes()));
      metrics->observe(ids_.epochGap, gap);
      metrics->observeSketch(ids_.epochNs, spanNs(tEpoch0, tFlush1));
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
      sample.queuedOps = queuedOps;
      sample.crossShardOps = crossShardOps;
      sample.queuePeak = queuePeak;
      // What the drain consumed: its column sums of the queue matrix
      // (still populated until the next epoch's clear).
      if (partitioned) {
        for (int shard = 0; shard < applyShards; ++shard) {
          sample.drainedOps += queues_.pendingFor(shard);
        }
      }
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
      stats.queue.applyShards = applyShards;
      stats.queue.queuedOps = queuedOps;
      stats.queue.crossShardOps = crossShardOps;
      stats.queue.queuePeak = queuePeak;
      onEpoch(stats);
    }
    ++nextEpoch_;
  }

  if (traceOut != nullptr) {
    pool_->setTraceWriter(prevPoolWriter);
    pool_->setTraceLabel(prevPoolLabel);
  }
  return result;
}

}  // namespace rlslb::serve
