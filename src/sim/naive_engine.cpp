#include "sim/naive_engine.hpp"

#include <algorithm>

#include "rng/distributions.hpp"
#include "util/assert.hpp"

namespace rlslb::sim {

NaiveEngine::NaiveEngine(const config::Configuration& initial, std::uint64_t seed, int gap)
    : loads_(initial.loads()), ballMass_(initial.loads()), eng_(seed), gap_(gap) {
  RLSLB_ASSERT(gap_ >= 1);
  RLSLB_ASSERT(initial.numBins() >= 1);
  state_.numBins = initial.numBins();
  state_.numBalls = initial.numBalls();
  const std::int64_t ceilAvg = initial.ceilAverage();
  state_.minLoad = loads_.empty() ? 0 : loads_[0];
  state_.maxLoad = state_.minLoad;
  for (std::int64_t v : loads_) {
    ++histogram_[v];
    state_.minLoad = std::min(state_.minLoad, v);
    state_.maxLoad = std::max(state_.maxLoad, v);
    if (v > ceilAvg) state_.overloadedBalls += v - ceilAvg;
  }
}

void NaiveEngine::bookkeepMove(std::size_t src, std::size_t dst) {
  const std::int64_t v = loads_[src];
  const std::int64_t u = loads_[dst];
  RLSLB_ASSERT(v >= 1);

  loads_[src] = v - 1;
  loads_[dst] = u + 1;
  ballMass_.add(src, -1);
  ballMass_.add(dst, +1);

  // Histogram and min/max maintenance. Min can only move when the last
  // min-level bin changes; ditto max. Under protocol moves min never
  // decreases and max never increases; forced (destructive) moves may push
  // either outward, so both directions are handled.
  auto drop = [&](std::int64_t level) {
    auto it = histogram_.find(level);
    RLSLB_ASSERT(it != histogram_.end() && it->second >= 1);
    if (--it->second == 0) histogram_.erase(it);
  };
  drop(v);
  ++histogram_[v - 1];
  drop(u);
  ++histogram_[u + 1];

  if (v - 1 < state_.minLoad) state_.minLoad = v - 1;
  if (u + 1 > state_.maxLoad) state_.maxLoad = u + 1;
  while (histogram_.find(state_.minLoad) == histogram_.end()) ++state_.minLoad;
  while (histogram_.find(state_.maxLoad) == histogram_.end()) --state_.maxLoad;

  const std::int64_t ceilAvg = (state_.numBalls + state_.numBins - 1) / state_.numBins;
  if (v > ceilAvg) --state_.overloadedBalls;
  if (u + 1 > ceilAvg) ++state_.overloadedBalls;

  ++moves_;
}

bool NaiveEngine::advance() {
  if (state_.numBalls == 0) return false;  // no clocks ever ring
  // O(1) absorption check: a move src -> dst needs load(src) >= load(dst) +
  // gap, so once the spread drops below the gap no activation can ever
  // succeed again -- the labeled chain is absorbed even though clocks keep
  // ringing. Without this the strict (gap = 2) variant would simulate
  // failed activations forever whenever it settles at spread 1.
  if (state_.maxLoad - state_.minLoad < gap_) return false;
  return stepActivation();
}

bool NaiveEngine::stepActivation() {
  if (state_.numBalls == 0) return false;  // no clocks ever ring
  time_ += rng::exponential(eng_, static_cast<double>(state_.numBalls));
  ++activations_;

  // Activated ball is uniform among m balls <=> source bin sampled with
  // probability load/m.
  const auto ticket = static_cast<std::int64_t>(
      rng::uniformIndex(eng_, static_cast<std::uint64_t>(state_.numBalls)));
  const std::size_t src = ballMass_.upperBound(ticket);
  const auto dst = static_cast<std::size_t>(
      rng::uniformIndex(eng_, static_cast<std::uint64_t>(state_.numBins)));

  last_.src = src;
  last_.dst = dst;
  if (src != dst && loads_[src] >= loads_[dst] + gap_) {
    bookkeepMove(src, dst);
    last_.moved = true;
  } else {
    last_.moved = false;
  }
  return true;
}

void NaiveEngine::applyForcedMove(std::size_t src, std::size_t dst) {
  RLSLB_ASSERT(src < loads_.size() && dst < loads_.size() && src != dst);
  RLSLB_ASSERT_MSG(loads_[src] >= 1, "forced move from an empty bin");
  bookkeepMove(src, dst);
}

}  // namespace rlslb::sim
