// "Perfectly Balanced Allocation", Czumaj-Riley-Scheideler (RANDOM 2003) --
// reference [9] of the paper, the other *local search* baseline.
//
// Setup: each ball independently picks two distinct candidate bins and is
// initially placed in one of them (here: the lesser loaded at insertion
// time, i.e. a Greedy[2] prefix, the setting for [9]'s headline result).
// One protocol step draws an ordered bin pair (b1, b2) uniformly at random;
// if some ball currently in b1 has b2 as its other candidate, one such ball
// is placed into the lesser loaded of {b1, b2} (ties keep it in b1).
//
// [9] prove an n^O(1) bound on the number of steps to perfect balance (the
// hidden exponent >= 4); the paper's Section 2 contrasts this with RLS's
// O(n^2) activations from the same start, and notes RLS needs no candidate
// restriction. Bench E10 measures both. Balls must be tracked individually
// here (candidates are per-ball state), so memory is O(m + n).
#pragma once

#include <cstdint>
#include <vector>

#include "config/metrics.hpp"
#include "process/process.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/balance_tracker.hpp"

namespace rlslb::protocols {

/// A process::Process whose advance() is one pair draw (never absorbed:
/// neutral swaps can ping-pong forever, mirroring RLS's neutral moves).
///
/// Caveat for a perfect-balance target (also measured by bench_baselines):
/// each ball is confined to its two candidate bins, so perfect balance
/// requires an orientation of the random two-choice multigraph with every
/// bin at exactly ceil/floor(m/n) -- which does not always exist. Target
/// x-balance with x >= 1, or Target::equilibrium() (local stability), when
/// feasibility is not guaranteed.
class CrsProtocol final : public process::Process {
 public:
  /// Creates n bins and m balls with random distinct candidate pairs,
  /// Greedy[2]-placed in candidate order.
  CrsProtocol(std::int64_t n, std::int64_t m, std::uint64_t seed);

  /// One pair-draw step. Returns true if a ball was (re)placed -- note a
  /// "placement" into the bin it already occupies counts as no move.
  bool step();

  bool advance() override {
    step();
    return true;
  }
  [[nodiscard]] process::Clock now() const override {
    return {process::Clock::Kind::Steps, static_cast<double>(steps_)};
  }
  [[nodiscard]] const process::Capabilities& capabilities() const override {
    static constexpr process::Capabilities kCaps{.equilibrium = true};
    return kCaps;
  }
  /// Target::equilibrium() is local stability.
  [[nodiscard]] bool reached(const process::Target& target) const override;
  /// Local stability is an O(m) scan: checked every n/8 steps. Balance
  /// targets are O(1) on the shared state and checked every step.
  [[nodiscard]] std::int64_t targetCheckStride(const process::Target& target) const override;

  [[nodiscard]] std::int64_t numBins() const { return n_; }
  [[nodiscard]] std::int64_t numBalls() const { return m_; }
  [[nodiscard]] std::int64_t steps() const { return steps_; }
  [[nodiscard]] std::int64_t moves() const override { return moves_; }
  [[nodiscard]] const std::vector<std::int64_t>& loads() const { return loads_; }

  [[nodiscard]] config::Metrics metrics() const;

  /// O(1) balance view, maintained incrementally by place()/remove().
  [[nodiscard]] const sim::BalanceState& state() const override { return tracker_.state(); }

  /// Locally stable: no ball has a *strictly improving* switch, i.e. every
  /// ball's other candidate carries load >= load(current) - 1. (Moves into
  /// a bin exactly one lighter are neutral -- they swap loads and can
  /// ping-pong forever, mirroring RLS's neutral moves -- so stability is
  /// defined up to them.) This is CRS's analogue of perfect balance and is
  /// always reachable, unlike disc < 1, because balls are confined to their
  /// candidate pairs.
  [[nodiscard]] bool isLocallyStable() const;

 private:
  struct Ball {
    std::uint32_t candidate[2];
    std::uint32_t at;  // index into candidate[]: which of the two it occupies
  };

  std::int64_t n_;
  std::int64_t m_;
  rng::Xoshiro256pp eng_;
  std::vector<Ball> balls_;
  std::vector<std::vector<std::uint32_t>> binBalls_;  // ball ids per bin
  std::vector<std::int64_t> loads_;
  sim::BalanceTracker tracker_;
  std::int64_t steps_ = 0;
  std::int64_t moves_ = 0;

  void place(std::uint32_t ballId, std::uint32_t whichCandidate);
  void remove(std::uint32_t ballId);
};

}  // namespace rlslb::protocols
