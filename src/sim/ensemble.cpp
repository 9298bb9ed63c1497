#include "sim/ensemble.hpp"

#include <cmath>

#include "rng/splitmix64.hpp"
#include "util/assert.hpp"

namespace rlslb::sim {

EnsembleAccumulator::EnsembleAccumulator(double dt, double horizon) : dt_(dt) {
  RLSLB_ASSERT(dt > 0.0 && horizon >= 0.0);
  // Callers bound the grid (e15_trajectory: builtin::checkGrid); the cast
  // of a ratio past size_t would be undefined.
  RLSLB_ASSERT(horizon / dt < 0x1p52);
  const auto gridSize = static_cast<std::size_t>(horizon / dt) + 1;
  discSum_.assign(gridSize, 0.0);
  logDiscSum_.assign(gridSize, 0.0);
  overloadedSum_.assign(gridSize, 0.0);
}

void EnsembleAccumulator::addRun(const std::vector<TrajectoryRecorder::Point>& trajectory) {
  RLSLB_ASSERT(!trajectory.empty());
  RLSLB_ASSERT_MSG(trajectory.front().time == 0.0, "trajectory must start at t = 0");
  std::size_t cursor = 0;
  for (std::size_t g = 0; g < discSum_.size(); ++g) {
    const double t = timeAt(g);
    while (cursor + 1 < trajectory.size() && trajectory[cursor + 1].time <= t) ++cursor;
    const auto& p = trajectory[cursor];
    discSum_[g] += p.discrepancy;
    logDiscSum_[g] += std::log1p(p.discrepancy);
    overloadedSum_[g] += static_cast<double>(p.overloadedBalls);
  }
  ++runs_;
}

double EnsembleAccumulator::meanDiscrepancy(std::size_t g) const {
  RLSLB_ASSERT(runs_ > 0 && g < discSum_.size());
  return discSum_[g] / static_cast<double>(runs_);
}

double EnsembleAccumulator::meanLogDiscrepancy(std::size_t g) const {
  RLSLB_ASSERT(runs_ > 0 && g < logDiscSum_.size());
  return logDiscSum_[g] / static_cast<double>(runs_);
}

double EnsembleAccumulator::meanOverloaded(std::size_t g) const {
  RLSLB_ASSERT(runs_ > 0 && g < overloadedSum_.size());
  return overloadedSum_[g] / static_cast<double>(runs_);
}

void EnsembleAccumulator::merge(const EnsembleAccumulator& other) {
  RLSLB_ASSERT_MSG(other.dt_ == dt_ && other.discSum_.size() == discSum_.size(),
                   "can only merge accumulators on the same grid");
  runs_ += other.runs_;
  for (std::size_t g = 0; g < discSum_.size(); ++g) {
    discSum_[g] += other.discSum_[g];
    logDiscSum_[g] += other.logDiscSum_[g];
    overloadedSum_[g] += other.overloadedSum_[g];
  }
}

EnsembleAccumulator accumulateEnsemble(double dt, double horizon, std::int64_t reps,
                                       std::uint64_t baseSeed, const TrajectoryFn& fn,
                                       runner::ThreadPool& pool) {
  RLSLB_ASSERT(reps >= 0);
  // Replications land in their own slot; the fold below runs in replication
  // order on the calling thread, so the floating-point summation order --
  // hence the result, bit for bit -- is independent of the pool size.
  std::vector<std::vector<TrajectoryRecorder::Point>> trajectories(
      static_cast<std::size_t>(reps));
  pool.parallelFor(reps, [&](std::int64_t rep) {
    trajectories[static_cast<std::size_t>(rep)] =
        fn(rep, rng::streamSeed(baseSeed, static_cast<std::uint64_t>(rep)));
  });
  EnsembleAccumulator ensemble(dt, horizon);
  for (const auto& trajectory : trajectories) ensemble.addRun(trajectory);
  return ensemble;
}

}  // namespace rlslb::sim
