#include "sim/balance_tracker.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rlslb::sim {

void BalanceTracker::reset(const std::vector<std::int64_t>& loads) {
  RLSLB_ASSERT_MSG(!loads.empty(), "BalanceTracker needs at least one bin");
  state_ = BalanceState{};
  state_.numBins = static_cast<std::int64_t>(loads.size());
  std::int64_t minLoad = loads[0];
  std::int64_t maxLoad = loads[0];
  for (const std::int64_t v : loads) {
    RLSLB_ASSERT(v >= 0);
    minLoad = std::min(minLoad, v);
    maxLoad = std::max(maxLoad, v);
    state_.numBalls += v;
  }
  base_ = minLoad;
  counts_.assign(static_cast<std::size_t>(maxLoad - minLoad) + 1, 0);
  for (const std::int64_t v : loads) ++at(v);
  state_.minLoad = minLoad;
  state_.maxLoad = maxLoad;
  ceilAvg_ = (state_.numBalls + state_.numBins - 1) / state_.numBins;
  recomputeOverloaded();
}

void BalanceTracker::resetEmpty(std::int64_t numBins) {
  RLSLB_ASSERT_MSG(numBins >= 1, "BalanceTracker needs at least one bin");
  RLSLB_ASSERT_MSG(numBins <= INT32_MAX, "BalanceTracker counts bins per level in int32");
  state_ = BalanceState{};
  state_.numBins = numBins;
  counts_.assign(1, static_cast<std::int32_t>(numBins));  // every bin at level 0
  base_ = 0;
  ceilAvg_ = 0;
}

void BalanceTracker::reframe(std::int64_t level) {
  // One span of slack on each side (clamped at level 0): the window is
  // left again only after an extreme has moved by a span.
  const std::int64_t lo = std::min(state_.minLoad, level);
  const std::int64_t hi = std::max(state_.maxLoad, level);
  const std::int64_t span = hi - lo + 1;
  const std::int64_t base = std::max<std::int64_t>(0, lo - span);
  std::vector<std::int32_t> counts(static_cast<std::size_t>(hi + span + 1 - base), 0);
  const auto occupied = counts_.begin() + (state_.minLoad - base_);
  std::copy(occupied, occupied + (state_.maxLoad - state_.minLoad + 1),
            counts.begin() + (state_.minLoad - base));
  counts_.swap(counts);
  base_ = base;
}

void BalanceTracker::recomputeOverloaded() {
  // ceil(m/n) >= minLoad, so every level summed here is in the window.
  state_.overloadedBalls = 0;
  for (std::int64_t v = ceilAvg_ + 1; v <= state_.maxLoad; ++v) {
    state_.overloadedBalls += (v - ceilAvg_) * at(v);
  }
}

void BalanceTracker::onLoadChange(std::int64_t from, std::int64_t to) {
  if (from == to) return;
  RLSLB_ASSERT(to >= 0);

  if (!inWindow(to)) reframe(to);
  // Occupy the new level first so the min/max walks below always terminate
  // there at the latest (the walk is thus bounded by |to - from|).
  ++at(to);
  if (to > state_.maxLoad) state_.maxLoad = to;
  if (to < state_.minLoad) state_.minLoad = to;

  RLSLB_ASSERT_MSG(inWindow(from) && at(from) >= 1, "load change from a level no bin occupies");
  if (--at(from) == 0) {
    if (from == state_.maxLoad) {
      while (at(state_.maxLoad) == 0) --state_.maxLoad;
    }
    if (from == state_.minLoad) {
      while (at(state_.minLoad) == 0) ++state_.minLoad;
    }
  }

  state_.numBalls += to - from;
  // ceil(m/n) == ceilAvg_ exactly while m stays in the band
  // ((ceilAvg_ - 1) * n, ceilAvg_ * n]; divide only once m leaves it.
  const std::int64_t m = state_.numBalls;
  const std::int64_t n = state_.numBins;
  if (m <= (ceilAvg_ - 1) * n || m > ceilAvg_ * n) {
    // The overload threshold itself moved (open systems only): re-sum the
    // suffix above the new ceiling.
    ceilAvg_ = (m + n - 1) / n;
    recomputeOverloaded();
    return;
  }
  if (from > ceilAvg_) state_.overloadedBalls -= from - ceilAvg_;
  if (to > ceilAvg_) state_.overloadedBalls += to - ceilAvg_;
}

}  // namespace rlslb::sim
