#include "ext/speed_rls.hpp"

#include <algorithm>

#include "rng/distributions.hpp"
#include "util/assert.hpp"

namespace rlslb::ext {

SpeedRlsEngine::SpeedRlsEngine(const config::Configuration& initial,
                               std::vector<std::int64_t> speeds, std::uint64_t seed)
    : loads_(initial.loads()),
      speeds_(std::move(speeds)),
      tracker_(loads_),
      ballMass_(initial.loads()),
      eng_(seed),
      balls_(initial.numBalls()) {
  RLSLB_ASSERT(speeds_.size() == loads_.size());
  for (std::int64_t s : speeds_) RLSLB_ASSERT_MSG(s >= 1, "speeds must be positive integers");
}

bool SpeedRlsEngine::step() {
  RLSLB_ASSERT(balls_ >= 1);
  time_ += rng::exponential(eng_, static_cast<double>(balls_));
  ++activations_;

  const auto ticket =
      static_cast<std::int64_t>(rng::uniformIndex(eng_, static_cast<std::uint64_t>(balls_)));
  const std::size_t src = ballMass_.upperBound(ticket);
  const auto dst = static_cast<std::size_t>(
      rng::uniformIndex(eng_, static_cast<std::uint64_t>(loads_.size())));
  if (src == dst) return false;

  // Strict improvement: (l_dst + 1)/s_dst < l_src/s_src, exactly.
  if ((loads_[dst] + 1) * speeds_[src] >= loads_[src] * speeds_[dst]) return false;

  tracker_.onLoadChange(loads_[src], loads_[src] - 1);
  --loads_[src];
  tracker_.onLoadChange(loads_[dst], loads_[dst] + 1);
  ++loads_[dst];
  ballMass_.add(src, -1);
  ballMass_.add(dst, +1);
  ++moves_;
  return true;
}

bool SpeedRlsEngine::isEquilibrium() const {
  // max over non-empty bins of l_i/s_i vs min over bins of (l_j+1)/s_j,
  // compared exactly via cross-multiplication.
  std::size_t worst = SIZE_MAX;  // argmax l_i/s_i among non-empty bins
  for (std::size_t i = 0; i < loads_.size(); ++i) {
    if (loads_[i] == 0) continue;
    if (worst == SIZE_MAX ||
        loads_[i] * speeds_[worst] > loads_[worst] * speeds_[i]) {
      worst = i;
    }
  }
  if (worst == SIZE_MAX) return true;  // no balls
  std::size_t best = 0;  // argmin (l_j+1)/s_j
  for (std::size_t j = 1; j < loads_.size(); ++j) {
    if ((loads_[j] + 1) * speeds_[best] < (loads_[best] + 1) * speeds_[j]) best = j;
  }
  // Equilibrium iff even the most loaded ball cannot improve by moving to
  // the least (post-move) loaded bin.
  return (loads_[best] + 1) * speeds_[worst] >= loads_[worst] * speeds_[best];
}

double SpeedRlsEngine::weightedDiscrepancy() const {
  double lo = 1e300;
  double hi = -1e300;
  for (std::size_t i = 0; i < loads_.size(); ++i) {
    const double x = static_cast<double>(loads_[i]) / static_cast<double>(speeds_[i]);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  return hi - lo;
}

bool SpeedRlsEngine::reached(const process::Target& target) const {
  if (target.kind == process::Target::Kind::Equilibrium) return isEquilibrium();
  return Process::reached(target);
}

std::int64_t SpeedRlsEngine::targetCheckStride(const process::Target& target) const {
  if (target.kind != process::Target::Kind::Equilibrium) return 1;
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(loads_.size()) / 4);
}

}  // namespace rlslb::ext
