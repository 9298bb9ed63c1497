#include "ext/weighted_rls.hpp"

#include <algorithm>

#include "rng/distributions.hpp"
#include "util/assert.hpp"

namespace rlslb::ext {

WeightedRlsEngine::WeightedRlsEngine(std::int64_t numBins, std::vector<std::int64_t> weights,
                                     std::vector<std::uint32_t> startBin, std::uint64_t seed)
    : loads_(static_cast<std::size_t>(numBins), 0),
      weights_(std::move(weights)),
      ballBin_(std::move(startBin)),
      eng_(seed) {
  RLSLB_ASSERT(numBins >= 1);
  RLSLB_ASSERT(weights_.size() == ballBin_.size());
  for (std::size_t b = 0; b < weights_.size(); ++b) {
    RLSLB_ASSERT_MSG(weights_[b] >= 1, "ball weights must be positive integers");
    RLSLB_ASSERT(ballBin_[b] < loads_.size());
    loads_[ballBin_[b]] += weights_[b];
    totalWeight_ += weights_[b];
  }
  tracker_.reset(loads_);
}

bool WeightedRlsEngine::step() {
  const auto m = static_cast<std::uint64_t>(weights_.size());
  RLSLB_ASSERT(m >= 1);
  time_ += rng::exponential(eng_, static_cast<double>(m));
  ++activations_;

  const auto ball = static_cast<std::size_t>(rng::uniformIndex(eng_, m));
  const std::uint32_t src = ballBin_[ball];
  const auto dst =
      static_cast<std::uint32_t>(rng::uniformIndex(eng_, static_cast<std::uint64_t>(loads_.size())));
  if (src == dst) return false;

  const std::int64_t w = weights_[ball];
  // Move iff not worsening: new experienced load l_dst + w <= current l_src.
  if (loads_[dst] + w > loads_[src]) return false;

  tracker_.onLoadChange(loads_[src], loads_[src] - w);
  loads_[src] -= w;
  tracker_.onLoadChange(loads_[dst], loads_[dst] + w);
  loads_[dst] += w;
  ballBin_[ball] = dst;
  ++moves_;
  return true;
}

bool WeightedRlsEngine::isEquilibrium() const {
  const std::int64_t minLoad = *std::min_element(loads_.begin(), loads_.end());
  for (std::size_t b = 0; b < weights_.size(); ++b) {
    // Ball b strictly improves by moving to the min bin iff
    // minLoad + w_b < l_bin(b).
    if (minLoad + weights_[b] < loads_[ballBin_[b]]) return false;
  }
  return true;
}

std::int64_t WeightedRlsEngine::weightedSpread() const {
  const auto [mn, mx] = std::minmax_element(loads_.begin(), loads_.end());
  return *mx - *mn;
}

bool WeightedRlsEngine::reached(const process::Target& target) const {
  if (target.kind == process::Target::Kind::Equilibrium) return isEquilibrium();
  return Process::reached(target);
}

std::int64_t WeightedRlsEngine::targetCheckStride(const process::Target& target) const {
  if (target.kind != process::Target::Kind::Equilibrium) return 1;
  return std::max<std::int64_t>(1, (static_cast<std::int64_t>(loads_.size()) + numBalls()) / 4);
}

}  // namespace rlslb::ext
