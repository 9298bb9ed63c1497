#include "protocols/crs.hpp"

#include <algorithm>

#include "rng/distributions.hpp"
#include "util/assert.hpp"

namespace rlslb::protocols {

CrsProtocol::CrsProtocol(std::int64_t n, std::int64_t m, std::uint64_t seed)
    : n_(n), m_(m), eng_(seed) {
  RLSLB_ASSERT(n >= 2 && m >= 0);
  balls_.resize(static_cast<std::size_t>(m));
  binBalls_.resize(static_cast<std::size_t>(n));
  loads_.assign(static_cast<std::size_t>(n), 0);
  tracker_.reset(loads_);

  for (std::uint32_t b = 0; b < static_cast<std::uint32_t>(m); ++b) {
    const auto c0 = static_cast<std::uint32_t>(rng::uniformIndex(eng_, static_cast<std::uint64_t>(n)));
    auto c1 = static_cast<std::uint32_t>(rng::uniformIndex(eng_, static_cast<std::uint64_t>(n - 1)));
    if (c1 >= c0) ++c1;  // distinct candidates, uniform over ordered pairs
    balls_[b].candidate[0] = c0;
    balls_[b].candidate[1] = c1;
    // Greedy[2] prefix placement: lesser loaded candidate at insertion time.
    const std::uint32_t which = loads_[c1] < loads_[c0] ? 1u : 0u;
    place(b, which);
  }
}

void CrsProtocol::place(std::uint32_t ballId, std::uint32_t whichCandidate) {
  Ball& ball = balls_[ballId];
  ball.at = whichCandidate;
  const std::uint32_t bin = ball.candidate[whichCandidate];
  binBalls_[bin].push_back(ballId);
  tracker_.onLoadChange(loads_[bin], loads_[bin] + 1);
  ++loads_[bin];
}

void CrsProtocol::remove(std::uint32_t ballId) {
  const Ball& ball = balls_[ballId];
  const std::uint32_t bin = ball.candidate[ball.at];
  auto& bucket = binBalls_[bin];
  // Swap-remove; buckets are small (O(average load)).
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    if (bucket[i] == ballId) {
      bucket[i] = bucket.back();
      bucket.pop_back();
      tracker_.onLoadChange(loads_[bin], loads_[bin] - 1);
      --loads_[bin];
      return;
    }
  }
  RLSLB_ASSERT_MSG(false, "ball not found in its bin");
}

bool CrsProtocol::step() {
  ++steps_;
  const auto b1 = static_cast<std::uint32_t>(rng::uniformIndex(eng_, static_cast<std::uint64_t>(n_)));
  const auto b2 = static_cast<std::uint32_t>(rng::uniformIndex(eng_, static_cast<std::uint64_t>(n_)));
  if (b1 == b2) return false;

  // Find a ball in b1 whose other candidate is b2 (uniformly among them, to
  // avoid positional bias in the bucket).
  std::uint32_t found = UINT32_MAX;
  int matches = 0;
  for (const std::uint32_t id : binBalls_[b1]) {
    const Ball& ball = balls_[id];
    if (ball.candidate[1 - ball.at] == b2) {
      ++matches;
      // Reservoir sample of size 1.
      if (rng::uniformIndex(eng_, static_cast<std::uint64_t>(matches)) == 0) found = id;
    }
  }
  if (found == UINT32_MAX) return false;

  // Place into the lesser loaded of {b1, b2}; ties keep it where it is.
  if (loads_[b2] < loads_[b1]) {
    const std::uint32_t otherIdx = 1 - balls_[found].at;
    remove(found);
    place(found, otherIdx);
    ++moves_;
    return true;
  }
  return false;
}

config::Metrics CrsProtocol::metrics() const {
  return config::computeMetrics(loads_);
}

bool CrsProtocol::isLocallyStable() const {
  for (const Ball& ball : balls_) {
    const std::int64_t cur = loads_[ball.candidate[ball.at]];
    const std::int64_t other = loads_[ball.candidate[1 - ball.at]];
    if (other < cur - 1) return false;
  }
  return true;
}

bool CrsProtocol::reached(const process::Target& target) const {
  if (target.kind == process::Target::Kind::Equilibrium) return isLocallyStable();
  return Process::reached(target);
}

std::int64_t CrsProtocol::targetCheckStride(const process::Target& target) const {
  if (target.kind == process::Target::Kind::Equilibrium) return std::max<std::int64_t>(1, n_ / 8);
  return 1;
}

}  // namespace rlslb::protocols
