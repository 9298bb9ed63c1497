// EpochLoop: the serving subsystem's execution engine, one class template
// explicitly instantiated in event_loop.cpp for both allocators
// (OnlineAllocator, CompactAllocator); the per-unit calls are direct, never
// virtual.
//
// The unit of work is one arrival, one departure or one RLS activation (a
// clock ring). A trace record is its rings followed by its own event
// (workload/event.hpp), and the loop serves units in fixed-size *epochs*
// (bulk-synchronous style) of exactly epochEvents units, each one
// sequential pass:
//
//   1. Fill: pull records until the epoch holds epochEvents units. A
//      record whose rings straddle the boundary is split: the rings that
//      fit end this epoch, and the record, holding the rest, opens the
//      next. No buffer grows with one record's ring count.
//   2. Decide (serve::decideBatch), two passes against the allocator's
//      *live* load array with one decision stream per epoch,
//      streamSeed(decisionSeed, epoch). Pass 1, in trace order, draws each
//      ring's (live slot, destination bin) pair into a loop-owned buffer,
//      tracking the live count, and each arrival's d candidates (parking
//      them and prefetching their loads for d > 1); departs draw nothing.
//      Pass 2 gives each parked arrival the least loaded candidate (ties
//      keep the earlier draw). Apply starts only after the whole epoch is
//      decided, so arrivals read exactly the epoch-start snapshot, without
//      an O(bins) copy.
//   3. Apply: walk the epoch in trace order. Before each record run its
//      rings: the ball in the drawn live slot, the strict rule on live
//      loads, then the move. Then the record's event, re-validated against
//      live loads. The compact allocator prefetches records and ring draws
//      ahead of use.
//
// At epochEvents = 1 every arrival's d-choice sees every activation before
// it: the loop is then the per-ball-clock open system, unit for unit.
// `unitBudget` stops the loop after exactly that many units (mid-record if
// need be), or at the end of the trace.
//
// An RLS unit is O(1) work, too little to pay for per-epoch barriers or
// migration queues: a parallel decide fan-out and a shard-partitioned apply
// lost to this sequential pass on every configuration measured (see
// docs/EXPERIMENTS.md), so the loop runs on the calling thread and takes no
// thread pool.
//
// Determinism: decisions are pure functions of (snapshot, live count,
// epoch-keyed rng) and apply order is the trace order, so the final load
// vector and every semantic counter are a pure function of (trace, seed,
// epochEvents, unitBudget), and the two allocators agree on every
// unit-weight trace. Epoch length is a *semantic* knob (it sets snapshot
// staleness).
//
// Timing contract (pinned by tests/test_serve_differential.cpp):
// EpochStats.wallSeconds covers exactly the epoch's decide and apply
// phases. RunResult.wallSeconds is the exact sum of the per-epoch values —
// no extra terms. Beside the contract, every run also times the fill (trace
// generation) and the observe section (EpochStats assembly, telemetry, the
// onEpoch callback) with two clock reads per epoch each, into
// RunResult.fillSeconds and RunResult.observeSeconds. When instrumented,
// each epoch records fill, epoch, decide, apply and observe spans and adds
// to the serve.phase.{fill,decide,apply}_ns counters.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/trace.hpp"
#include "serve/compact_allocator.hpp"
#include "serve/online_allocator.hpp"
#include "sim/engine.hpp"
#include "workload/generators.hpp"

namespace rlslb::serve {

struct LoopOptions {
  std::int64_t epochEvents = 1024;  // units per epoch: snapshot refresh granularity
  /// Units to serve before run() returns (the end of the trace also ends
  /// the run).
  std::int64_t unitBudget = std::numeric_limits<std::int64_t>::max();
  std::uint64_t seed = 1;           // decision stream base
  /// Optional telemetry (see src/obs/). Metrics export happens at epoch
  /// boundaries only (slab writes + a handful of clock reads per epoch);
  /// the per-event hot path is untouched, so the steady-state
  /// zero-allocation and byte-determinism contracts hold with metrics
  /// attached (pinned by tests/test_obs.cpp). The trace writer records
  /// per-epoch spans: fill; epoch; decide, apply; observe.
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
  double traceTime = 0.0;       // timestamp of the last record whose event ran
  std::int64_t events = 0;      // units in this epoch (events and activations)
  std::int64_t liveBalls = 0;
  std::int64_t totalLoad = 0;
  sim::BalanceState balance;    // allocator state in the closed-system vocabulary
  std::int64_t migrations = 0;  // cumulative accepted migrations

  double wallSeconds = 0.0;     // decide+apply wall-clock (see contract)

  /// max - min bin load after the epoch (derived; single source of truth
  /// is `balance`).
  [[nodiscard]] std::int64_t gap() const { return balance.maxLoad - balance.minLoad; }
};

struct RunResult {
  std::int64_t events = 0;       // units served
  std::int64_t activations = 0;  // of which RLS activations (clock rings)
  std::int64_t epochs = 0;
  double wallSeconds = 0.0;      // exact sum of per-epoch wallSeconds
  double fillSeconds = 0.0;      // trace generation (the batch fills)
  double observeSeconds = 0.0;   // stats, telemetry and the onEpoch callback
};

template <typename Allocator>
class EpochLoop {
 public:
  EpochLoop(Allocator& allocator, const LoopOptions& options);

  /// Serve the trace until it ends or unitBudget units have run. `onEpoch`
  /// (may be empty) fires after each epoch. Each run() is self-contained:
  /// the epoch index keying the decision streams resets, so a reused loop
  /// draws exactly the streams a freshly constructed loop would on the same
  /// trace. Allocator state carries over between runs by design (it is the
  /// long-lived allocation).
  RunResult run(workload::TraceGenerator& trace,
                const std::function<void(const EpochStats&)>& onEpoch = {});

 private:
  /// Handles into LoopOptions.metrics, registered on the first run() so a
  /// reused loop's steady-state runs perform no name lookups (and no
  /// string allocations) at all.
  struct MetricIds {
    obs::CounterId events, epochs;
    obs::CounterId arrivals, departures, resamples, migrations, rejectedMoves;
    obs::CounterId fillNs, decideNs, applyNs;
    obs::GaugeId gap, liveBalls, totalLoad;
    obs::GaugeId memStateBytes, memBytesPerBall, memPeakRss;
    obs::HistId epochGap;
    obs::SketchId epochNs;
  };
  void registerMetrics();

  Allocator* allocator_;
  LoopOptions options_;
  MetricIds ids_;
  bool metricsRegistered_ = false;
};

extern template class EpochLoop<OnlineAllocator>;
extern template class EpochLoop<CompactAllocator>;

}  // namespace rlslb::serve
