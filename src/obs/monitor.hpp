// Conformance monitors: declarative invariant / bound checks evaluated
// on the live telemetry at epoch (serve) or probe-stride (process)
// boundaries.
//
// The producing layers (serve::EpochLoop, obs::ProcessProbe) fill a
// CheckSample -- a stack POD snapshot of the run's observable state --
// and hand it to a MonitorSet. The set feeds its streaming sketches,
// runs every attached ConformanceMonitor, and collects violations as
// severity-tagged Anomaly records (obs/anomaly.hpp). Everything past
// construction is allocation-free: monitors are preallocated, the
// anomaly log is capacity-bounded, and the sketches write into fixed
// slabs -- so a monitor set can ride the serve loop's steady-state
// contract (tests/test_obs.cpp).
//
// Determinism: monitors that read only simulated state (gap envelope,
// convergence, load conservation) and the gap sketch produce identical
// anomaly sequences and snapshot bytes across runs and thread counts.
// Wall-clock-fed parts (DriftMonitor, the latency sketch) are excluded
// from that contract, mirroring the metrics record's timing carve-out.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/anomaly.hpp"
#include "obs/sketch.hpp"
#include "report/json.hpp"

namespace rlslb::obs {

/// Snapshot of one boundary. Producers fill what they know and leave
/// the rest at the defaults; monitors must tolerate missing fields
/// (e.g. process strides carry no allocator counters).
struct CheckSample {
  enum class Origin : std::uint8_t { kServeEpoch, kProcessStride };
  Origin origin = Origin::kServeEpoch;

  std::int64_t step = 0;      ///< epoch index / event ordinal
  double time = 0.0;          ///< simulated clock
  std::int64_t events = 0;    ///< events in this epoch (serve) or stride
  double wallSeconds = 0.0;   ///< wall time of this epoch (0 = unknown)

  // Balance state.
  std::int64_t gap = 0;
  std::int64_t liveBalls = 0;
  std::int64_t totalLoad = 0;
  std::int64_t maxWeight = 1;  ///< max item weight seen so far (>= 1)

  // Cumulative allocator counters (serve origin).
  std::int64_t arrivals = 0;
  std::int64_t departures = 0;
  std::int64_t migrations = 0;

  // Process-origin context (filled by obs::ProcessProbe).
  std::uint8_t clockKind = 0;   ///< process::Clock::Kind as an int
  bool openPopulation = false;  ///< ball population churns (open system)
};

class ConformanceMonitor {
 public:
  virtual ~ConformanceMonitor() = default;
  /// Static-storage name, used as Anomaly::monitor.
  [[nodiscard]] virtual const char* name() const = 0;
  /// Evaluate one boundary sample; must not allocate.
  virtual void check(const CheckSample& sample, AnomalyLog& log) = 0;
  /// End of run: emit summary anomalies (e.g. "never converged").
  virtual void finish(AnomalyLog& log) { (void)log; }
  /// Start of a (sub-)run: reset per-run state, keep configuration.
  virtual void onRunStart() {}
};

/// The roster a run carries: monitors + the shared sketches + the log.
/// check() is called from sequential sections only (epoch boundaries).
class MonitorSet {
 public:
  MonitorSet() = default;

  void add(std::unique_ptr<ConformanceMonitor> monitor);
  [[nodiscard]] bool empty() const { return monitors_.empty(); }
  [[nodiscard]] std::size_t size() const { return monitors_.size(); }

  /// Reset per-run monitor state and advance the anomaly run tag.
  /// Call before each sub-run when one scenario drives several.
  void beginRun();

  /// Feed one boundary sample: sketches, then every monitor, then the
  /// observer (if any). Allocation-free.
  void check(const CheckSample& sample);
  /// Give every monitor its end-of-run hook. Idempotent per run.
  void finish();

  [[nodiscard]] const AnomalyLog& log() const { return log_; }
  [[nodiscard]] std::int64_t checks() const { return checks_; }
  /// Per-check gap distribution (simulated state: deterministic).
  [[nodiscard]] const QuantileSketch& gapSketch() const { return gapSketch_; }
  /// Per-check wall nanoseconds per event (wall clock: not deterministic).
  [[nodiscard]] const QuantileSketch& latencySketch() const { return latencySketch_; }

  /// Live observer (e.g. the `rlslb watch` renderer), called after the
  /// monitors on every check. Kept across clear().
  using Observer = std::function<void(const CheckSample&, const MonitorSet&)>;
  void setObserver(Observer observer) { observer_ = std::move(observer); }

  /// Drop monitors, log, sketch contents, and counters -- back to an
  /// empty roster (the observer survives).
  void clear();

  /// Summary for the {"type":"conformance"} record: check/anomaly counts
  /// plus both sketch snapshots. Carries wall-derived values, so it is
  /// excluded from the byte-determinism contract (gapSketch().toJson()
  /// and the anomaly list are the deterministic parts).
  [[nodiscard]] report::Json summaryJson() const;

 private:
  std::vector<std::unique_ptr<ConformanceMonitor>> monitors_;
  AnomalyLog log_;
  QuantileSketch gapSketch_;
  QuantileSketch latencySketch_;
  std::int64_t checks_ = 0;
  std::int32_t runTag_ = 0;
  bool finished_ = false;
  Observer observer_;
};

// ----------------------------------------------------------- monitors

/// Gap envelope derived from the paper's bounds: after warmup the gap
/// should stay within maxWeight * (slackAbs + ceil(logFactor * ln n)).
/// Uniform arrivals (d = 1) double the log factor -- without the
/// power-of-d-choices arrival rule the equilibrium gap envelope is the
/// single-choice one.
struct GapEnvelope {
  std::int64_t n = 256;        ///< bins
  std::int64_t expectedBalls = 0;  ///< 0 = unknown (informational)
  int d = 2;                   ///< arrival choices
  std::int64_t warmupSteps = 16;
  double logFactor = 2.0;
  std::int64_t slackAbs = 8;
  int consecutive = 3;         ///< sustained checks before reporting

  [[nodiscard]] std::int64_t bound(std::int64_t maxWeight) const;
};

class GapEnvelopeMonitor final : public ConformanceMonitor {
 public:
  explicit GapEnvelopeMonitor(GapEnvelope envelope) : envelope_(envelope) {}
  [[nodiscard]] const char* name() const override { return "gap_envelope"; }
  void check(const CheckSample& sample, AnomalyLog& log) override;
  void onRunStart() override { streak_ = 0; }

 private:
  GapEnvelope envelope_;
  std::int64_t streak_ = 0;
};

/// Process-side convergence envelope: once the simulated clock passes
/// convergeBy, the gap must be at or below gapBound; finish() escalates
/// to an error if the run ran past the deadline and never got there.
/// The deadline is in round-equivalent units (one unit ~ m expected
/// activations, the paper's convention); sequential Steps clocks are
/// rescaled by m, and open-population samples are skipped entirely (a
/// churning system holds an equilibrium, not a convergence point).
struct ConvergenceEnvelope {
  double convergeBy = 0.0;     ///< clock deadline (0 = derive from n)
  std::int64_t gapBound = 0;   ///< 0 = derive from n
  int consecutive = 3;
};

class ConvergenceMonitor final : public ConformanceMonitor {
 public:
  ConvergenceMonitor(std::int64_t n, std::int64_t m, ConvergenceEnvelope envelope);
  [[nodiscard]] const char* name() const override { return "convergence"; }
  void check(const CheckSample& sample, AnomalyLog& log) override;
  void finish(AnomalyLog& log) override;
  void onRunStart() override;

 private:
  ConvergenceEnvelope envelope_;
  std::int64_t m_ = 0;
  std::int64_t streak_ = 0;
  bool pastDeadline_ = false;
  bool converged_ = false;
  CheckSample last_{};
};

/// Structural invariants every healthy run satisfies exactly: load
/// conservation (serve: live balls == arrivals - departures, total load
/// between live balls and live balls x max weight), monotone
/// clock/step/counters, and non-negative gap. All violations are errors.
class LoadConservationMonitor final : public ConformanceMonitor {
 public:
  [[nodiscard]] const char* name() const override { return "load_conservation"; }
  void check(const CheckSample& sample, AnomalyLog& log) override;
  void onRunStart() override { primed_ = false; }

 private:
  bool primed_ = false;
  CheckSample last_{};
};

/// Wall-clock drift: CUSUM on per-epoch nanoseconds per event, with an
/// EWMA for the error escalation (sustained > factorError x baseline).
/// Only upward drift (slowdowns) is reported -- a run settling faster
/// than its warmup baseline is the normal cache-warming shape, not an
/// anomaly -- and the error severity needs `errorStreak` consecutive
/// elevated checks so a single scheduler hiccup stays a warning.
struct DriftOptions {
  CusumDetector::Options cusum{};
  double ewmaAlpha = 0.2;
  double factorError = 3.0;
  int errorStreak = 3;               ///< elevated checks before kError
  std::int64_t skipChecks = 8;       ///< cold-start checks ignored entirely
  std::int64_t cooldownChecks = 64;  ///< min checks between reports
};

class DriftMonitor final : public ConformanceMonitor {
 public:
  explicit DriftMonitor(DriftOptions options = {})
      : options_(options),
        cusum_(options.cusum),
        ewma_(options.ewmaAlpha),
        sinceReport_(options.cooldownChecks) {}
  [[nodiscard]] const char* name() const override { return "latency_drift"; }
  void check(const CheckSample& sample, AnomalyLog& log) override;
  void onRunStart() override;

 private:
  DriftOptions options_;
  CusumDetector cusum_;
  Ewma ewma_;
  std::int64_t seen_ = 0;
  std::int64_t elevated_ = 0;
  std::int64_t sinceReport_ = 0;
};

// ------------------------------------------------------------ rosters

/// Parameters the default serve roster derives its bounds from.
struct ServeConformanceParams {
  std::int64_t n = 256;            ///< bins
  std::int64_t expectedBalls = 0;  ///< lambda * n / mu, 0 if unknown
  int d = 2;                       ///< arrival choices
  std::int64_t totalEpochs = 0;    ///< for warmup sizing (0 = default)
};

/// LoadConservation + GapEnvelope + Drift.
void installServeMonitors(MonitorSet& set, const ServeConformanceParams& params);

/// LoadConservation + Convergence.
void installProcessMonitors(MonitorSet& set, std::int64_t n, std::int64_t m);

}  // namespace rlslb::obs
