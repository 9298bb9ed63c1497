// The balance vocabulary every dynamic shares: the O(1)-maintained
// BalanceState view and the RunLimits safety budgets. process/process.hpp
// builds the Process interface and its run loop directly on top of these.
#pragma once

#include <cstdint>
#include <limits>

#include "config/metrics.hpp"

namespace rlslb::sim {

/// O(1)-maintained view of the current balance state.
struct BalanceState {
  std::int64_t numBins = 0;
  std::int64_t numBalls = 0;
  std::int64_t minLoad = 0;
  std::int64_t maxLoad = 0;
  std::int64_t overloadedBalls = 0;  // sum_i max(0, l_i - ceil(m/n))

  [[nodiscard]] bool perfectlyBalanced() const {
    return config::isPerfectlyBalanced(minLoad, maxLoad, numBins, numBalls);
  }
  [[nodiscard]] bool xBalanced(std::int64_t x) const {
    return config::isXBalancedInt(minLoad, maxLoad, numBins, numBalls, x);
  }
  [[nodiscard]] double discrepancy() const {
    return config::discrepancy(minLoad, maxLoad, numBins, numBalls);
  }
  friend bool operator==(const BalanceState&, const BalanceState&) = default;
};

/// Safety budgets so runaway parameter choices fail loudly instead of
/// spinning forever. `maxEvents` counts advance() calls (activations for
/// NaiveEngine, multiset-changing moves for JumpEngine, rounds for the
/// synchronous protocols).
struct RunLimits {
  double maxTime = std::numeric_limits<double>::infinity();
  std::int64_t maxEvents = std::numeric_limits<std::int64_t>::max();
};

}  // namespace rlslb::sim
