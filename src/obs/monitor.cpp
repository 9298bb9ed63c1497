#include "obs/monitor.hpp"

#include <algorithm>
#include <cmath>

namespace rlslb::obs {

// ----------------------------------------------------------- MonitorSet

void MonitorSet::add(std::unique_ptr<ConformanceMonitor> monitor) {
  RLSLB_ASSERT(monitor != nullptr);
  monitors_.push_back(std::move(monitor));
}

void MonitorSet::beginRun() {
  ++runTag_;
  log_.setRunTag(runTag_);
  finished_ = false;
  for (const auto& monitor : monitors_) monitor->onRunStart();
}

void MonitorSet::check(const CheckSample& sample) {
  ++checks_;
  gapSketch_.observe(sample.gap);
  if (sample.events > 0 && sample.wallSeconds > 0.0) {
    latencySketch_.observe(static_cast<std::int64_t>(
        sample.wallSeconds * 1e9 / static_cast<double>(sample.events)));
  }
  for (const auto& monitor : monitors_) monitor->check(sample, log_);
  if (observer_) observer_(sample, *this);
}

void MonitorSet::finish() {
  if (finished_) return;
  finished_ = true;
  for (const auto& monitor : monitors_) monitor->finish(log_);
}

void MonitorSet::clear() {
  monitors_.clear();
  log_.clear();
  gapSketch_.clear();
  latencySketch_.clear();
  checks_ = 0;
  runTag_ = 0;
  finished_ = false;
}

report::Json MonitorSet::summaryJson() const {
  report::Json anomalies = report::Json::object();
  anomalies.set("info", log_.infos());
  anomalies.set("warn", log_.warnings());
  anomalies.set("error", log_.errors());
  anomalies.set("dropped", log_.dropped());
  report::Json j = report::Json::object();
  j.set("checks", checks_);
  j.set("monitors", static_cast<std::int64_t>(monitors_.size()));
  j.set("anomalies", std::move(anomalies));
  j.set("gap", gapSketch_.toJson());
  j.set("latency_ns_per_event", latencySketch_.toJson());
  return j;
}

// ----------------------------------------------------- GapEnvelopeMonitor

std::int64_t GapEnvelope::bound(std::int64_t maxWeight) const {
  const double logN = std::log(static_cast<double>(std::max<std::int64_t>(n, 2)));
  // Without a power-of-d-choices arrival rule the equilibrium envelope
  // is the single-choice one: twice the log factor.
  const double factor = logFactor * (d <= 1 ? 2.0 : 1.0);
  const std::int64_t envelope =
      slackAbs + static_cast<std::int64_t>(std::ceil(factor * logN));
  return std::max<std::int64_t>(maxWeight, 1) * envelope;
}

void GapEnvelopeMonitor::check(const CheckSample& sample, AnomalyLog& log) {
  if (sample.step < envelope_.warmupSteps) return;
  const std::int64_t bound = envelope_.bound(sample.maxWeight);
  if (sample.gap <= bound) {
    streak_ = 0;
    return;
  }
  ++streak_;
  // Report when the violation has been sustained `consecutive` checks,
  // then re-report every 256 sustained checks so a long divergence is
  // visible without flooding the log.
  const std::int64_t since = streak_ - envelope_.consecutive;
  if (since != 0 && (since < 0 || since % 256 != 0)) return;
  Anomaly anomaly;
  anomaly.monitor = name();
  anomaly.metric = "gap";
  anomaly.severity = sample.gap > 2 * bound ? Severity::kError : Severity::kWarn;
  anomaly.step = sample.step;
  anomaly.time = sample.time;
  anomaly.value = static_cast<double>(sample.gap);
  anomaly.bound = static_cast<double>(bound);
  anomaly.detail = "gap sustained above the predicted envelope";
  log.record(anomaly);
}

// ----------------------------------------------------- ConvergenceMonitor

ConvergenceMonitor::ConvergenceMonitor(std::int64_t n, std::int64_t m,
                                       ConvergenceEnvelope envelope)
    : envelope_(envelope), m_(std::max<std::int64_t>(m, 1)) {
  const double logN = std::log(static_cast<double>(std::max<std::int64_t>(n, 2)));
  if (envelope_.convergeBy <= 0.0) envelope_.convergeBy = 8.0 * (logN + 2.0);
  if (envelope_.gapBound <= 0) {
    envelope_.gapBound = static_cast<std::int64_t>(std::ceil(2.0 * logN)) + 2;
  }
}

void ConvergenceMonitor::check(const CheckSample& sample, AnomalyLog& log) {
  if (sample.openPopulation) return;
  last_ = sample;
  // Sequential Steps clocks tick once per activation; one
  // round-equivalent unit is m expected activations.
  const double deadline =
      envelope_.convergeBy *
      (sample.clockKind == 2 ? static_cast<double>(m_) : 1.0);
  if (sample.gap <= envelope_.gapBound) {
    converged_ = true;
    streak_ = 0;
    return;
  }
  if (sample.time < deadline) return;
  pastDeadline_ = true;
  ++streak_;
  const std::int64_t since = streak_ - envelope_.consecutive;
  if (since != 0 && (since < 0 || since % 256 != 0)) return;
  Anomaly anomaly;
  anomaly.monitor = name();
  anomaly.metric = "gap";
  anomaly.severity =
      sample.gap > 2 * envelope_.gapBound ? Severity::kError : Severity::kWarn;
  anomaly.step = sample.step;
  anomaly.time = sample.time;
  anomaly.value = static_cast<double>(sample.gap);
  anomaly.bound = static_cast<double>(envelope_.gapBound);
  anomaly.detail = "gap still above the convergence envelope past the deadline";
  log.record(anomaly);
}

void ConvergenceMonitor::finish(AnomalyLog& log) {
  if (!pastDeadline_ || converged_) return;
  Anomaly anomaly;
  anomaly.monitor = name();
  anomaly.metric = "gap";
  anomaly.severity = Severity::kError;
  anomaly.step = last_.step;
  anomaly.time = last_.time;
  anomaly.value = static_cast<double>(last_.gap);
  anomaly.bound = static_cast<double>(envelope_.gapBound);
  anomaly.detail = "run ended without ever entering the convergence envelope";
  log.record(anomaly);
}

void ConvergenceMonitor::onRunStart() {
  streak_ = 0;
  pastDeadline_ = false;
  converged_ = false;
  last_ = CheckSample{};
}

// ------------------------------------------------ LoadConservationMonitor

void LoadConservationMonitor::check(const CheckSample& sample, AnomalyLog& log) {
  const auto fail = [&](const char* metric, const char* detail, double value,
                        double bound) {
    Anomaly anomaly;
    anomaly.monitor = name();
    anomaly.metric = metric;
    anomaly.detail = detail;
    anomaly.severity = Severity::kError;
    anomaly.step = sample.step;
    anomaly.time = sample.time;
    anomaly.value = value;
    anomaly.bound = bound;
    log.record(anomaly);
  };

  if (sample.gap < 0) {
    fail("gap", "gap is negative", static_cast<double>(sample.gap), 0.0);
  }
  if (sample.liveBalls < 0) {
    fail("live_balls", "live ball count is negative",
         static_cast<double>(sample.liveBalls), 0.0);
  }
  if (sample.origin == CheckSample::Origin::kServeEpoch) {
    const std::int64_t expected = sample.arrivals - sample.departures;
    if (sample.liveBalls != expected) {
      fail("live_balls", "load conservation broken: live != arrivals - departures",
           static_cast<double>(sample.liveBalls), static_cast<double>(expected));
    }
    if (sample.totalLoad < sample.liveBalls) {
      fail("total_load", "total load below live ball count (weights are >= 1)",
           static_cast<double>(sample.totalLoad),
           static_cast<double>(sample.liveBalls));
    }
    const std::int64_t maxLoad =
        sample.liveBalls * std::max<std::int64_t>(sample.maxWeight, 1);
    if (sample.totalLoad > maxLoad) {
      fail("total_load", "total load above live balls x max weight",
           static_cast<double>(sample.totalLoad), static_cast<double>(maxLoad));
    }
  }
  if (primed_) {
    if (sample.step <= last_.step) {
      fail("step", "step did not advance", static_cast<double>(sample.step),
           static_cast<double>(last_.step));
    }
    if (sample.time + 1e-9 < last_.time) {
      fail("clock", "clock went backwards", sample.time, last_.time);
    }
    if (sample.arrivals < last_.arrivals || sample.departures < last_.departures ||
        sample.migrations < last_.migrations) {
      fail("counters", "cumulative counter decreased", 0.0, 0.0);
    }
  }
  last_ = sample;
  primed_ = true;
}

// ----------------------------------------------------------- DriftMonitor

void DriftMonitor::check(const CheckSample& sample, AnomalyLog& log) {
  if (sample.events <= 0 || sample.wallSeconds <= 0.0) return;
  if (seen_ < options_.skipChecks) {
    ++seen_;  // cold start: caches and the branch predictor still warming
    return;
  }
  const double nsPerEvent =
      sample.wallSeconds * 1e9 / static_cast<double>(sample.events);
  const double smoothed = ewma_.update(nsPerEvent);
  const bool crossed = cusum_.update(nsPerEvent);
  const bool elevatedNow =
      cusum_.baselineFrozen() &&
      smoothed > options_.factorError * cusum_.baselineMean();
  elevated_ = elevatedNow ? elevated_ + 1 : 0;
  ++sinceReport_;
  if (!crossed) return;
  // Downward drift (the run got faster than its baseline) is the normal
  // post-warmup shape; track it in the CUSUM but never report it.
  if (smoothed <= cusum_.baselineMean() || sinceReport_ < options_.cooldownChecks) {
    cusum_.rearm();  // stay quiet, keep watching from the same baseline
    return;
  }
  Anomaly anomaly;
  anomaly.monitor = name();
  anomaly.metric = "ns_per_event";
  anomaly.severity =
      elevated_ >= options_.errorStreak ? Severity::kError : Severity::kWarn;
  anomaly.step = sample.step;
  anomaly.time = sample.time;
  anomaly.value = nsPerEvent;
  anomaly.bound = cusum_.baselineMean();
  anomaly.detail = "wall latency drifted above the run baseline";
  log.record(anomaly);
  sinceReport_ = 0;
  cusum_.rearm();
}

void DriftMonitor::onRunStart() {
  cusum_.reset();
  ewma_.reset();
  seen_ = 0;
  elevated_ = 0;
  sinceReport_ = options_.cooldownChecks;  // first report is never muted
}

// --------------------------------------------------------------- rosters

void installServeMonitors(MonitorSet& set, const ServeConformanceParams& params) {
  set.add(std::make_unique<LoadConservationMonitor>());
  GapEnvelope envelope;
  envelope.n = std::max<std::int64_t>(params.n, 1);
  envelope.expectedBalls = params.expectedBalls;
  envelope.d = params.d;
  if (params.totalEpochs > 0) {
    envelope.warmupSteps = std::max<std::int64_t>(8, params.totalEpochs / 4);
  }
  set.add(std::make_unique<GapEnvelopeMonitor>(envelope));
  set.add(std::make_unique<DriftMonitor>());
}

void installProcessMonitors(MonitorSet& set, std::int64_t n, std::int64_t m) {
  set.add(std::make_unique<LoadConservationMonitor>());
  set.add(std::make_unique<ConvergenceMonitor>(n, m, ConvergenceEnvelope{}));
}

}  // namespace rlslb::obs
