// Section 7, second future direction: weighted balls.
//
// Ball b has integer weight w_b >= 1; a bin's load is the total weight it
// carries and every ball experiences its bin's load. On activation (balls
// still carry unit-rate clocks, so the activated ball is uniform among the
// m balls regardless of weight) the ball samples a uniform bin and migrates
// iff the move does not worsen its experienced load:
// l_j + w_b <= l_i  (with unit weights this is exactly the paper's
// l_i >= l_j + 1 rule).
//
// Ball identity matters here, so the engine keeps an explicit ball -> bin
// map (memory O(m + n)). The natural fixed point is again a Nash
// equilibrium: no ball can *strictly* improve, i.e. for every ball b,
// l_bin(b) <= minLoad + w_b. Bench E11 measures time to equilibrium and the
// final weighted discrepancy across weight distributions.
#pragma once

#include <cstdint>
#include <vector>

#include "process/process.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/balance_tracker.hpp"

namespace rlslb::ext {

/// A process::Process whose advance() is one activation (never absorbed;
/// Target::equilibrium() is the Nash test, checked every (n + m)/4
/// activations).
class WeightedRlsEngine final : public process::Process {
 public:
  /// `weights[b]` is ball b's weight; `startBin[b]` its initial bin.
  WeightedRlsEngine(std::int64_t numBins, std::vector<std::int64_t> weights,
                    std::vector<std::uint32_t> startBin, std::uint64_t seed);

  /// One activation; returns true if the ball moved.
  bool step();

  bool advance() override {
    step();
    return true;
  }
  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] process::Clock now() const override {
    return {process::Clock::Kind::Continuous, time_};
  }
  [[nodiscard]] const process::Capabilities& capabilities() const override {
    static constexpr process::Capabilities kCaps{.equilibrium = true};
    return kCaps;
  }
  [[nodiscard]] bool reached(const process::Target& target) const override;
  [[nodiscard]] std::int64_t targetCheckStride(const process::Target& target) const override;
  [[nodiscard]] std::int64_t activations() const override { return activations_; }
  [[nodiscard]] std::int64_t moves() const override { return moves_; }
  [[nodiscard]] const std::vector<std::int64_t>& loads() const { return loads_; }
  [[nodiscard]] std::int64_t totalWeight() const { return totalWeight_; }
  [[nodiscard]] std::int64_t numBalls() const {
    return static_cast<std::int64_t>(weights_.size());
  }

  /// O(1) balance view in weight units (state().numBalls == totalWeight()).
  [[nodiscard]] const sim::BalanceState& state() const override { return tracker_.state(); }

  /// Exact Nash test (no ball can strictly improve), O(n + m).
  [[nodiscard]] bool isEquilibrium() const;

  /// max load - min load, in weight units.
  [[nodiscard]] std::int64_t weightedSpread() const;

 private:
  std::vector<std::int64_t> loads_;       // total weight per bin
  sim::BalanceTracker tracker_;
  std::vector<std::int64_t> weights_;     // per ball
  std::vector<std::uint32_t> ballBin_;    // per ball
  rng::Xoshiro256pp eng_;
  std::int64_t totalWeight_ = 0;
  double time_ = 0.0;
  std::int64_t activations_ = 0;
  std::int64_t moves_ = 0;
};

}  // namespace rlslb::ext
