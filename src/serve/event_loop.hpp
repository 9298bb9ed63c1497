// EpochLoop: the serving subsystem's execution engine, one class template
// explicitly instantiated in event_loop.cpp for both allocators
// (OnlineAllocator, CompactAllocator); the per-event calls are direct, never
// virtual.
//
// Events are consumed in fixed-size *epochs* (bulk-synchronous style), each
// epoch one sequential pass:
//
//   1. Fill a batch of up to epochEvents events from the trace.
//   2. Decide (serve::decideBatch), two passes over the batch against the
//      allocator's *live* load array. Pass 1, in trace order, draws: each
//      event from its own rng stream streamSeed(decisionSeed,
//      eventOrdinal) through one engine reseeded per event (byte-identical
//      to per-event construction); a resample (or a d = 1 arrival) takes
//      one uniform bin, a d > 1 arrival parks its d candidates in a
//      loop-owned buffer and prefetches their load slots; departs use no
//      randomness and are skipped. Pass 2 gives each parked arrival the
//      least loaded of its candidates (ties keep the earlier draw). Apply
//      starts only after the whole batch is decided, so the bytes read are
//      exactly the epoch-start snapshot, without an O(bins) copy.
//   3. Apply: walk the batch in trace order, re-validating every decision
//      against live loads and mutating in place (the compact allocator
//      prefetches the lines of the events 16 and 8 positions ahead).
//   4. Repair: a fixed budget of RLS repair activations on live state (a
//      uniform live ball, a uniform destination bin, the strict rule) heals
//      whatever imbalance the stale snapshot let through — the
//      bulk-synchronous analogue of the paper's per-ball background clocks.
//
// An RLS event is O(1) work, too little to pay for per-epoch barriers or
// migration queues: a parallel decide fan-out and a shard-partitioned apply
// lost to this sequential pass on every configuration measured (see
// docs/EXPERIMENTS.md), so the loop runs on the calling thread and takes no
// thread pool.
//
// Determinism: decisions are per-event pure functions of (snapshot,
// ordinal-derived rng), apply order is the trace order, and the repair
// stream is keyed by epoch index — so the final load vector and every
// semantic counter are a pure function of (trace, seed, epochEvents,
// repairMovesPerEpoch), and the two allocators agree on every unit-weight
// trace. Epoch length is a *semantic* knob (it sets snapshot staleness).
//
// Timing contract (pinned by tests/test_serve_differential.cpp):
// EpochStats.wallSeconds covers exactly the epoch's decide, apply and
// repair phases. It excludes trace generation (the batch fill), EpochStats
// assembly, telemetry, and the onEpoch callback (the "observe" span).
// RunResult.wallSeconds is the exact sum of the per-epoch values — no extra
// terms. The fill is timed beside the contract, not inside it: when
// instrumented, each epoch records a "fill" phase span and adds to the
// serve.phase.fill_ns counter.
#pragma once

#include <cstdint>
#include <functional>

#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/trace.hpp"
#include "serve/compact_allocator.hpp"
#include "serve/online_allocator.hpp"
#include "sim/engine.hpp"
#include "workload/generators.hpp"

namespace rlslb::serve {

struct LoopOptions {
  std::int64_t epochEvents = 1024;  // snapshot refresh granularity
  int repairMovesPerEpoch = 4;      // RLS repair activations per epoch
  std::uint64_t seed = 1;           // decision + repair stream base
  /// Optional telemetry (see src/obs/). Metrics export happens at epoch
  /// boundaries only (slab writes + a handful of clock reads per epoch);
  /// the per-event hot path is untouched, so the steady-state
  /// zero-allocation and byte-determinism contracts hold with metrics
  /// attached (pinned by tests/test_obs.cpp). The trace writer records
  /// per-epoch spans: fill; epoch; decide, apply, repair; observe.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceWriter* trace = nullptr;
  /// Conformance monitors (obs/monitor.hpp): fed one CheckSample per
  /// epoch, outside the timed region. Like metrics, attaching a roster
  /// preserves the steady-state zero-allocation and byte-determinism
  /// contracts (wall-clock-fed monitors excepted from the latter; pinned
  /// by tests/test_obs_monitor.cpp).
  obs::MonitorSet* monitors = nullptr;
};

/// Per-epoch observation passed to the run() callback. The fields above
/// `wallSeconds` are *semantic* — identical for every run of the same
/// trace + seed. `wallSeconds` is an execution observation and differs run
/// to run.
struct EpochStats {
  std::int64_t epoch = 0;       // 0-based epoch index
  double traceTime = 0.0;       // timestamp of the epoch's last event
  std::int64_t events = 0;      // events in this epoch
  std::int64_t liveBalls = 0;
  std::int64_t totalLoad = 0;
  sim::BalanceState balance;    // allocator state in the closed-system vocabulary
  std::int64_t migrations = 0;  // cumulative accepted migrations

  double wallSeconds = 0.0;     // decide+apply+repair wall-clock (see contract)

  /// max - min bin load after the epoch (derived; single source of truth
  /// is `balance`).
  [[nodiscard]] std::int64_t gap() const { return balance.maxLoad - balance.minLoad; }
};

struct RunResult {
  std::int64_t events = 0;
  std::int64_t epochs = 0;
  double wallSeconds = 0.0;  // exact sum of per-epoch wallSeconds
};

template <typename Allocator>
class EpochLoop {
 public:
  EpochLoop(Allocator& allocator, const LoopOptions& options);

  /// Drain the trace. `onEpoch` (may be empty) fires after each epoch.
  /// Each run() is self-contained: event ordinals and the epoch index
  /// reset, so a reused loop draws exactly the streams a freshly
  /// constructed loop would on the same trace. Allocator state carries
  /// over between runs by design (it is the long-lived allocation).
  RunResult run(workload::TraceGenerator& trace,
                const std::function<void(const EpochStats&)>& onEpoch = {});

 private:
  /// Handles into LoopOptions.metrics, registered on the first run() so a
  /// reused loop's steady-state runs perform no name lookups (and no
  /// string allocations) at all.
  struct MetricIds {
    obs::CounterId events, epochs;
    obs::CounterId arrivals, departures, resamples, migrations, rejectedMoves;
    obs::CounterId repairAttempts, repairMigrations;
    obs::CounterId fillNs, decideNs, applyNs, repairNs;
    obs::GaugeId gap, liveBalls, totalLoad;
    obs::GaugeId memStateBytes, memBytesPerBall, memPeakRss;
    obs::HistId epochGap;
    obs::SketchId epochNs;
  };
  void registerMetrics();

  Allocator* allocator_;
  LoopOptions options_;
  std::int64_t nextOrdinal_ = 0;  // event ordinal (decision streams); reset per run()
  std::int64_t nextEpoch_ = 0;    // repair-stream key; reset per run()
  MetricIds ids_;
  bool metricsRegistered_ = false;
};

extern template class EpochLoop<OnlineAllocator>;
extern template class EpochLoop<CompactAllocator>;

}  // namespace rlslb::serve
