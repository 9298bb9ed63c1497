#include "sim/balance_tracker.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rlslb::sim {

void BalanceTracker::reset(const std::vector<std::int64_t>& loads) {
  RLSLB_ASSERT_MSG(!loads.empty(), "BalanceTracker needs at least one bin");
  state_ = BalanceState{};
  state_.numBins = static_cast<std::int64_t>(loads.size());
  std::int64_t maxLoad = 0;
  for (const std::int64_t v : loads) {
    RLSLB_ASSERT(v >= 0);
    maxLoad = std::max(maxLoad, v);
    state_.numBalls += v;
  }
  counts_.assign(static_cast<std::size_t>(maxLoad) + 1, 0);
  state_.minLoad = maxLoad;
  state_.maxLoad = 0;
  for (const std::int64_t v : loads) {
    ++counts_[static_cast<std::size_t>(v)];
    state_.minLoad = std::min(state_.minLoad, v);
    state_.maxLoad = std::max(state_.maxLoad, v);
  }
  ceilAvg_ = (state_.numBalls + state_.numBins - 1) / state_.numBins;
  recomputeOverloaded();
}

void BalanceTracker::resetEmpty(std::int64_t numBins) {
  RLSLB_ASSERT_MSG(numBins >= 1, "BalanceTracker needs at least one bin");
  RLSLB_ASSERT_MSG(numBins <= INT32_MAX, "BalanceTracker counts bins per level in int32");
  state_ = BalanceState{};
  state_.numBins = numBins;
  counts_.assign(1, static_cast<std::int32_t>(numBins));  // every bin at level 0
  ceilAvg_ = 0;
}

void BalanceTracker::recomputeOverloaded() {
  state_.overloadedBalls = 0;
  for (std::int64_t v = ceilAvg_ + 1; v <= state_.maxLoad; ++v) {
    state_.overloadedBalls +=
        (v - ceilAvg_) * counts_[static_cast<std::size_t>(v)];
  }
}

void BalanceTracker::onLoadChange(std::int64_t from, std::int64_t to) {
  if (from == to) return;
  RLSLB_ASSERT(to >= 0);

  if (to >= static_cast<std::int64_t>(counts_.size())) {
    counts_.resize(std::max<std::size_t>(static_cast<std::size_t>(to) + 1,
                                         counts_.size() * 2),
                   0);
  }
  // Occupy the new level first so the min/max walks below always terminate
  // there at the latest (the walk is thus bounded by |to - from|).
  ++counts_[static_cast<std::size_t>(to)];
  if (to > state_.maxLoad) state_.maxLoad = to;
  if (to < state_.minLoad) state_.minLoad = to;

  RLSLB_ASSERT_MSG(from >= 0 && from < static_cast<std::int64_t>(counts_.size()) &&
                       counts_[static_cast<std::size_t>(from)] >= 1,
                   "load change from a level no bin occupies");
  if (--counts_[static_cast<std::size_t>(from)] == 0) {
    if (from == state_.maxLoad) {
      while (counts_[static_cast<std::size_t>(state_.maxLoad)] == 0) --state_.maxLoad;
    }
    if (from == state_.minLoad) {
      while (counts_[static_cast<std::size_t>(state_.minLoad)] == 0) ++state_.minLoad;
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
