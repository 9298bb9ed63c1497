// Probes: process::run observers that extract experiment data without
// slowing the engines down (each decides per event in O(1) whether to
// record). They read now().value as the time axis.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "process/process.hpp"

namespace rlslb::sim {

/// Records the balance state on a fixed time grid (first event at or after
/// each grid point), plus the initial point at t = 0.
class TrajectoryRecorder final : public process::Probe {
 public:
  struct Point {
    double time = 0.0;
    double discrepancy = 0.0;
    std::int64_t maxLoad = 0;
    std::int64_t minLoad = 0;
    std::int64_t overloadedBalls = 0;
  };

  explicit TrajectoryRecorder(double timeStep);

  void onEvent(const process::Process& process) override;
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }

 private:
  double timeStep_;
  double nextSample_ = 0.0;
  std::vector<Point> points_;
};

/// First-passage times: for each threshold x (descending), the first time the
/// configuration became x-balanced. Used by the Phase 1/2/3 experiments
/// (E5-E7) to split one run into the paper's analysis phases.
class PhaseTracker final : public process::Probe {
 public:
  /// Thresholds must be strictly descending, e.g. {avg/2, 8*ln n, 1, 0}.
  explicit PhaseTracker(std::vector<std::int64_t> thresholds);

  void onEvent(const process::Process& process) override;

  /// Hit time of thresholds[i], or +inf if never reached during the run.
  [[nodiscard]] double hitTime(std::size_t i) const { return hitTimes_[i]; }
  [[nodiscard]] const std::vector<double>& hitTimes() const { return hitTimes_; }
  [[nodiscard]] const std::vector<std::int64_t>& thresholds() const { return thresholds_; }

 private:
  std::vector<std::int64_t> thresholds_;
  std::vector<double> hitTimes_;
  std::size_t nextIdx_ = 0;
};

/// Records (time, overloadedBalls) every `every`-th event; drives the
/// Lemma 15 overload-decay experiment (E6).
class OverloadDecayRecorder final : public process::Probe {
 public:
  struct Point {
    double time;
    std::int64_t overloadedBalls;
  };
  explicit OverloadDecayRecorder(std::int64_t every = 1);
  void onEvent(const process::Process& process) override;
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }

 private:
  std::int64_t every_;
  std::int64_t counter_ = 0;
  std::vector<Point> points_;
};

}  // namespace rlslb::sim
