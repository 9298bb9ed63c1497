// BalanceTracker: incremental maintenance of a BalanceState over arbitrary
// single-bin load changes.
//
// NaiveEngine maintains its BalanceState with an unordered histogram and a
// min/max walk, which is O(1) amortized but assumes +-1 load deltas and a
// fixed ball count. The other process families violate one or both
// assumptions: WeightedRls changes a bin's load by an arbitrary ball
// weight, and the open system changes the total ball count (so the
// overloaded-ball threshold ceil(m/n) itself moves). This tracker handles
// the general case with a *dense* per-level count array over a window of
// load levels that covers [minLoad, maxLoad]:
//
//   - histogram update: two array increments, O(1);
//   - min/max: the walk from the vacated level stops at the changed bin's
//     new level or the first occupied one, so it is bounded by |delta| --
//     O(1) for unit moves, O(w) for a weight-w move;
//   - overloaded balls (sum_i max(0, l_i - ceil(m/n))): O(1) incremental
//     while the ball count's ceiling is stable; a ceiling move (open
//     systems only) re-sums the suffix above it, O(spread). The ceiling is
//     kept, not recomputed: a change tests m against its band
//     ((ceil - 1) * n, ceil * n] with two multiplies and divides only when
//     m has left it.
//
// The window is re-centred on the occupied span, with one span of slack
// on each side, whenever a load leaves it: an extreme must move a whole
// span before the next O(span) copy, so the copy is amortized, and memory
// is O(spread) rather than O(max load) -- one bin may carry the serving
// allocator's whole live weight (up to 2^31 - 1) at a single level. Every
// tracked family (CRS, the ext engines, the open system, the graph
// engines, the serving allocator) keeps its spread a small multiple of the
// average. The sim engines keep their own bookkeeping.
// Bulk-rewrite dynamics (the synchronous round protocols rewrite Theta(m)
// loads per round) should NOT pay per-move tracking at all; they recompute
// lazily per round instead (see protocols/round_protocol.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/engine.hpp"

namespace rlslb::sim {

class BalanceTracker {
 public:
  BalanceTracker() = default;
  explicit BalanceTracker(const std::vector<std::int64_t>& loads) { reset(loads); }
  /// Zero-start: `numBins` empty bins, without an n-length load vector.
  explicit BalanceTracker(std::int64_t numBins) { resetEmpty(numBins); }

  /// Rebuild from scratch, O(n + spread).
  void reset(const std::vector<std::int64_t>& loads);
  /// Restart at `numBins` empty bins, O(1).
  void resetEmpty(std::int64_t numBins);

  /// Account one bin's load changing from `from` to `to` (any delta; the
  /// total ball count may change). O(|to - from|) plus the ceiling re-sum
  /// above.
  void onLoadChange(std::int64_t from, std::int64_t to);

  [[nodiscard]] const BalanceState& state() const { return state_; }

  /// #bins currently at `level` (0 when absent); differential tests.
  [[nodiscard]] std::int64_t levelCount(std::int64_t level) const {
    if (!inWindow(level)) return 0;
    return counts_[static_cast<std::size_t>(level - base_)];
  }

  /// #bins at each level of [minLoad, maxLoad], lowest level first: a view
  /// into the window for samplers that scan the level counts (the lumped
  /// open system). Valid until the next onLoadChange or reset.
  [[nodiscard]] std::span<const std::int32_t> occupiedCounts() const {
    return {counts_.data() + (state_.minLoad - base_),
            static_cast<std::size_t>(state_.maxLoad - state_.minLoad + 1)};
  }

  /// Heap bytes of the level array (capacity-based).
  [[nodiscard]] std::int64_t heapBytes() const {
    return static_cast<std::int64_t>(counts_.capacity() * sizeof(counts_[0]));
  }

 private:
  std::vector<std::int32_t> counts_;  // level base_ + i -> #bins (dense)
  std::int64_t base_ = 0;             // the level counts_[0] counts, <= minLoad
  BalanceState state_;
  std::int64_t ceilAvg_ = 0;

  [[nodiscard]] bool inWindow(std::int64_t level) const {
    return static_cast<std::uint64_t>(level - base_) < counts_.size();
  }
  std::int32_t& at(std::int64_t level) {
    return counts_[static_cast<std::size_t>(level - base_)];
  }
  /// Move the window to cover [minLoad, maxLoad] and `level`, O(span).
  void reframe(std::int64_t level);
  void recomputeOverloaded();
};

}  // namespace rlslb::sim
