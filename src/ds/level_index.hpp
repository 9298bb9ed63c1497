// LevelIndex: incremental source/destination sampling for the lumped RLS
// chain, for states with many distinct loads in play.
//
// The jump engine needs, per event, (a) the total rate of multiset-changing
// moves, (b) a source level v drawn with probability proportional to
// w(v) = v * cnt(v) * C(v-2), and (c) a destination level u <= v-2 drawn
// proportional to cnt(u), where cnt(x) is the number of bins at load x and
// C(x) = #bins with load <= x. The engine's scan path keeps the w(v) per
// level but still scans the L levels to draw; this index draws and updates
// in O(log D) per ball move, with D = maxLoad - minLoad + 1 of the
// *initial* configuration (closed-system RLS never moves a ball above the
// running max or below the running min, so the load domain is fixed at
// construction).
//
// Structure, over the dense domain [minLoad0, maxLoad0]:
//   - a Fenwick over bin counts: C(x) prefix sums and the u-draw;
//   - a segment tree whose leaves hold B(x) = x*cnt(x) (ball mass per
//     level) and W(x) = x*cnt(x)*C(x-2) (source weight), with a scaled
//     lazy: when cnt(x) changes by d, every level v >= x+2 gains
//     dW(v) = d*B(v), which is one range update "W += d*B" applied lazily
//     from per-node B sums.
// All sums are exact integers (total weight <= m*n, asserted to fit in 62
// bits), so the sampling distribution carries no incremental float drift:
// the indexed jump engine remains an exact sampler of the lumped chain.
#pragma once

#include <cstdint>
#include <vector>

#include "ds/fenwick.hpp"
#include "ds/load_multiset.hpp"

namespace rlslb::ds {

class LevelIndex {
 public:
  /// Build from the initial multiset (O(D + L)). Requires fits(ms).
  explicit LevelIndex(const LoadMultiset& ms);

  /// Domain/overflow guard: callers fall back to the scan when the spread
  /// is huge (dense-domain memory) or m*n would overflow the exact integer
  /// weights.
  [[nodiscard]] static bool fits(const LoadMultiset& ms,
                                 std::int64_t domainCap = kDefaultDomainCap);
  static constexpr std::int64_t kDefaultDomainCap = std::int64_t{1} << 20;

  /// m*n < 2^62: every level weight, their total and every ticket drawn
  /// below it are exact int64 values with room to spare.
  [[nodiscard]] static bool weightsFit(std::int64_t bins, std::int64_t balls) {
    return balls <= 0 || bins <= (kWeightCap - 1) / balls;
  }
  static constexpr std::int64_t kWeightCap = std::int64_t{1} << 62;

  /// Sum over levels of v*cnt(v)*C(v-2): n times the total move rate.
  /// Zero iff the chain is absorbed (spread <= 1).
  [[nodiscard]] std::int64_t totalWeight() const { return sumW_[1]; }

  [[nodiscard]] std::int64_t numBins() const { return counts_.total(); }
  /// #bins with load <= x (0 when x is below the domain).
  [[nodiscard]] std::int64_t countAtMost(std::int64_t load) const;
  [[nodiscard]] std::int64_t countAt(std::int64_t load) const;
  [[nodiscard]] std::int64_t minLoad() const;  // smallest occupied level
  [[nodiscard]] std::int64_t maxLoad() const;  // largest occupied level

  /// Source level v with P(v) = w(v)/totalWeight(); ticket uniform in
  /// [0, totalWeight()). Mutates only lazy bookkeeping.
  [[nodiscard]] std::int64_t sampleSource(std::int64_t ticket);

  /// Destination level u <= vMinus2 with P(u) = cnt(u)/C(vMinus2); ticket
  /// uniform in [0, countAtMost(vMinus2)).
  [[nodiscard]] std::int64_t sampleDest(std::int64_t ticket) const;

  /// Mirror of LoadMultiset::applyBallMove: one ball from a level-v bin to
  /// a level-u bin, u <= v-2. O(log D).
  void applyBallMove(std::int64_t v, std::int64_t u);

  /// Expand the tracked counts back into a multiset (O(D log D); for
  /// hand-offs and consistency checks, not the hot path).
  [[nodiscard]] LoadMultiset toMultiset() const;

 private:
  std::int64_t offset_ = 0;   // load value of domain position 0
  std::size_t domain_ = 0;    // D
  std::size_t leaves_ = 1;    // bit_ceil(D): leaf count of the tree
  Fenwick<std::int64_t> counts_;
  // 1-based segment tree arrays of size 2*leaves_; node i covers a power-
  // of-two span, children 2i / 2i+1. lazy_[i] != 0 means both children
  // still owe sumW += lazy_[i] * sumB (applied on push-down).
  std::vector<std::int64_t> sumW_;
  std::vector<std::int64_t> sumB_;
  std::vector<std::int64_t> lazy_;

  void pushDown(std::size_t node);
  /// cnt(load) += delta, propagating B, the point W term, and the
  /// suffix range "W += delta*B" for levels >= load+2.
  void applyCountDelta(std::int64_t load, std::int64_t delta);
  void pointUpdate(std::size_t node, std::size_t lo, std::size_t hi, std::size_t pos,
                   std::int64_t wAdd, std::int64_t bAdd);
  void rangeAddScaled(std::size_t node, std::size_t lo, std::size_t hi, std::size_t from,
                      std::int64_t lambda);
};

}  // namespace rlslb::ds
