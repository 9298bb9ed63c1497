#include "sim/probes.hpp"

#include "util/assert.hpp"

namespace rlslb::sim {

TrajectoryRecorder::TrajectoryRecorder(double timeStep) : timeStep_(timeStep) {
  RLSLB_ASSERT(timeStep > 0.0);
}

void TrajectoryRecorder::onEvent(const process::Process& process) {
  const double time = process.now().value;
  if (time < nextSample_ && !points_.empty()) return;
  const BalanceState& s = process.state();
  points_.push_back({time, s.discrepancy(), s.maxLoad, s.minLoad, s.overloadedBalls});
  while (nextSample_ <= time) nextSample_ += timeStep_;
}

PhaseTracker::PhaseTracker(std::vector<std::int64_t> thresholds)
    : thresholds_(std::move(thresholds)),
      hitTimes_(thresholds_.size(), std::numeric_limits<double>::infinity()) {
  for (std::size_t i = 1; i < thresholds_.size(); ++i) {
    RLSLB_ASSERT_MSG(thresholds_[i] < thresholds_[i - 1], "thresholds must descend");
  }
}

void PhaseTracker::onEvent(const process::Process& process) {
  const BalanceState& s = process.state();
  while (nextIdx_ < thresholds_.size() && s.xBalanced(thresholds_[nextIdx_])) {
    hitTimes_[nextIdx_] = process.now().value;
    ++nextIdx_;
  }
}

OverloadDecayRecorder::OverloadDecayRecorder(std::int64_t every) : every_(every) {
  RLSLB_ASSERT(every >= 1);
}

void OverloadDecayRecorder::onEvent(const process::Process& process) {
  if (counter_++ % every_ != 0) return;
  points_.push_back({process.now().value, process.state().overloadedBalls});
}

}  // namespace rlslb::sim
