// ShardedEventLoop: the serving subsystem's execution engine.
//
// Events are consumed in fixed-size *epochs* (bulk-synchronous style):
//
//   1. Fill a batch of up to epochEvents events from the trace.
//   2. Decision phase, parallel on runner::ThreadPool: events are
//      hash-sharded by ball id (departs use no randomness and are skipped
//      at bucketing time); each shard walks its events in trace order and
//      computes the random placement/candidate decisions against the
//      *live* load array — the apply phase starts only after the decision
//      barrier, so the bytes read are exactly the epoch-start snapshot the
//      loop used to copy, without the O(bins) copy. Each event draws from
//      its own rng stream streamSeed(decisionSeed, eventOrdinal) via a
//      per-shard engine reseeded per event (byte-identical to per-event
//      construction). With a single worker or a single shard the loop
//      skips the bucketing and walks the batch directly — same streams,
//      no indirection.
//   3. Apply phase. Two executions of the same semantics:
//        Sequential (fused): walk the batch in trace order, re-validating
//        every decision against live loads and mutating in place.
//        Partitioned: a sequential *resolution* sweep over the batch does
//        the live-load re-validation and counter bookkeeping (cheap: flat
//        array + router hash) while deferring the O(log n) structure
//        mutations as Place/Remove ops in per-shard-pair migration queues;
//        then every ownership shard *materializes* its queued ops in
//        parallel — loads, ball slots, ball records — each owner
//        draining its column of the queue matrix in canonical
//        (ordinal, source) order. Per bin the canonical order equals the
//        trace order restricted to that bin, so both executions finish in
//        byte-identical states (pinned by tests/test_serve_partitioned).
//      Either way the allocator defers the O(log n) Fenwick updates per
//      bin, reconciling net deltas once per epoch (shard-parallel on the
//      partitioned drain) — rejected resamples, the steady-state common
//      case, touch no structure at all. The fused path's deltas settle in
//      an allocator flush right after apply, timed as the flush phase.
//   4. Cross-shard rebalance: a fixed budget of RLS repair activations on
//      live state heals whatever imbalance the stale snapshot let through
//      (the bulk-synchronous analogue of the paper's background RLS
//      clocks). A final allocator flush — still inside the epoch timer —
//      settles the repair moves' deltas before observers look.
//
// Determinism: decisions are per-event pure functions of (snapshot,
// ordinal-derived rng), resolution order is the trace order, the per-owner
// drain order is a pure function of queue contents, and the repair stream
// is keyed by epoch index — so the final load vector and every semantic
// counter are byte-identical across thread counts, shard counts, AND apply
// modes; shards are purely an execution-parallelism knob. Epoch length is
// a *semantic* knob (it sets snapshot staleness) and is therefore not an
// invariance axis.
//
// Timing contract (pinned by tests/test_serve_partitioned.cpp):
// EpochStats.wallSeconds covers exactly the epoch's decision phase, apply
// phase (fused apply, or resolve + queue drain), both flushes, and repair
// budget. It excludes trace generation (the batch fill), EpochStats
// assembly, telemetry, and the onEpoch callback (the "observe" span).
// RunResult.wallSeconds is the exact sum of the per-epoch values — no
// extra terms.
#pragma once

#include <cstdint>
#include <functional>

#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/trace.hpp"
#include "runner/thread_pool.hpp"
#include "serve/migration_queue.hpp"
#include "serve/online_allocator.hpp"
#include "sim/engine.hpp"
#include "workload/generators.hpp"

namespace rlslb::serve {

/// Stream salts for the loop's two rng families, derived from
/// LoopOptions.seed via rng::streamSeed. Exported (rather than file-local
/// to event_loop.cpp) so alternative executors of the same dynamic — the
/// capacity loop's compact backend (capacity/capacity_loop.hpp) — can
/// reproduce the decision and repair streams byte-for-byte.
inline constexpr std::uint64_t kDecisionStreamSalt = 0x64656373ULL;  // "decs"
inline constexpr std::uint64_t kRepairStreamSalt = 0x72657061ULL;    // "repa"

/// How the apply phase executes. Semantics are identical in all modes;
/// this only picks the execution strategy.
enum class ApplyMode : std::uint8_t {
  kAuto = 0,        // partitioned iff (pool has workers && shards > 1)
  kSequential = 1,  // always the fused single-threaded apply
  kPartitioned = 2, // always resolve + shard-parallel materialize
};

struct LoopOptions {
  int shards = 8;                   // decision partitions AND bin-ownership shards
  std::int64_t epochEvents = 1024;  // snapshot refresh granularity
  int repairMovesPerEpoch = 4;      // cross-shard repair activations
  std::uint64_t seed = 1;           // decision + repair stream base
  ApplyMode applyMode = ApplyMode::kAuto;
  /// Optional telemetry (see src/obs/). Metrics export happens at epoch
  /// boundaries only (slab writes + a handful of clock reads per epoch);
  /// the per-event hot path is untouched, so the steady-state
  /// zero-allocation and byte-determinism contracts hold with metrics
  /// attached (pinned by tests/test_obs.cpp). The trace writer records
  /// phase spans; attaching it also relabels the pool's job spans per
  /// phase for the duration of run().
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceWriter* trace = nullptr;
  /// Conformance monitors (obs/monitor.hpp): fed one CheckSample per
  /// epoch, outside the timed region, from the sequential section. Like
  /// metrics, attaching a roster preserves the steady-state
  /// zero-allocation and byte-determinism contracts (wall-clock-fed
  /// monitors excepted from the latter; pinned by
  /// tests/test_obs_monitor.cpp).
  obs::MonitorSet* monitors = nullptr;
};

/// Execution observations of the apply phase's queue machinery, shared by
/// EpochStats (per epoch) and RunResult (cumulative; queuePeak is the max
/// over epochs). With LoopOptions.metrics attached the same values are
/// exported under the serve.* counter vocabulary -- this struct is the
/// in-process view, the registry the reporting one.
struct QueueStats {
  int applyShards = 1;             // ownership shards the apply phase ran with
  std::int64_t queuedOps = 0;      // BinOps queued (0 on the fused path)
  std::int64_t crossShardOps = 0;  // queued ops that crossed an ownership boundary
  std::int64_t queuePeak = 0;      // deepest single (from, to) queue
};

/// Per-epoch observation passed to the run() callback. The fields above
/// `wallSeconds` are *semantic* — identical for every (threads, shards,
/// applyMode) execution of the same trace + seed. The fields below are
/// *execution* observations and may differ run to run.
struct EpochStats {
  std::int64_t epoch = 0;       // 0-based epoch index
  double traceTime = 0.0;       // timestamp of the epoch's last event
  std::int64_t events = 0;      // events in this epoch
  std::int64_t liveBalls = 0;
  std::int64_t totalLoad = 0;
  sim::BalanceState balance;    // allocator state in the closed-system vocabulary
  std::int64_t migrations = 0;  // cumulative accepted migrations

  double wallSeconds = 0.0;     // decision+apply+repair wall-clock (see contract)
  QueueStats queue;             // this epoch's queue machinery observations

  /// max - min bin load after the epoch (derived; single source of truth
  /// is `balance`).
  [[nodiscard]] std::int64_t gap() const { return balance.maxLoad - balance.minLoad; }
};

class ShardedEventLoop {
 public:
  ShardedEventLoop(OnlineAllocator& allocator, const LoopOptions& options,
                   runner::ThreadPool& pool);

  struct RunResult {
    std::int64_t events = 0;
    std::int64_t epochs = 0;
    double wallSeconds = 0.0;  // exact sum of per-epoch wallSeconds
    /// Cumulative queue machinery stats (queuePeak = max over epochs).
    QueueStats queue;
  };

  /// Drain the trace. `onEpoch` (may be empty) fires after each epoch.
  /// Each run() is self-contained: event ordinals and the epoch index
  /// reset, so a reused loop draws exactly the streams a freshly
  /// constructed loop would on the same trace. Allocator state carries
  /// over between runs by design (it is the long-lived allocation).
  RunResult run(workload::TraceGenerator& trace,
                const std::function<void(const EpochStats&)>& onEpoch = {});

  /// The apply strategy run() will use (resolves kAuto against the pool).
  [[nodiscard]] bool usesPartitionedApply() const;

 private:
  /// Handles into LoopOptions.metrics, registered on the first run() so a
  /// reused loop's steady-state runs perform no name lookups (and no
  /// string allocations) at all.
  struct MetricIds {
    obs::CounterId events, epochs;
    obs::CounterId arrivals, departures, resamples, migrations, rejectedMoves;
    obs::CounterId repairAttempts, repairMigrations;
    obs::CounterId queuedOps, crossShardOps, flushedBins, drainedOps;
    obs::CounterId decideNs, resolveNs, drainNs, applyNs, repairNs, flushNs;
    obs::GaugeId gap, liveBalls, totalLoad, applyShards, queuePeak;
    obs::GaugeId memStateBytes, memBytesPerBall, memPeakRss;
    obs::HistId epochGap;
    obs::SketchId epochNs;
  };
  void registerMetrics();

  OnlineAllocator* allocator_;
  LoopOptions options_;
  runner::ThreadPool* pool_;
  CrossShardQueues queues_;
  std::int64_t nextOrdinal_ = 0;  // event ordinal (decision streams); reset per run()
  std::int64_t nextEpoch_ = 0;    // repair-stream key; reset per run()
  MetricIds ids_;
  bool metricsRegistered_ = false;
};

}  // namespace rlslb::serve
