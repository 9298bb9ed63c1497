// Section 7, first future direction: bins with speeds.
//
// Bin i has integer speed s_i >= 1 and a ball on it experiences load
// l_i / s_i. On activation a ball samples a uniform random bin and migrates
// iff doing so strictly improves its experienced load:
// (l_j + 1) / s_j < l_i / s_i, evaluated exactly in integers as
// (l_j + 1) * s_i < l_i * s_j.
//
// The natural fixed point is a Nash equilibrium: no ball can strictly
// improve. Equilibrium is detected exactly via the extreme bins:
// max_i over non-empty bins of l_i/s_i <= min_j (l_j + 1)/s_j.
// Bench E11 measures the time to equilibrium across speed skews.
#pragma once

#include <cstdint>
#include <vector>

#include "config/configuration.hpp"
#include "ds/fenwick.hpp"
#include "process/process.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/balance_tracker.hpp"

namespace rlslb::ext {

/// A process::Process whose advance() is one activation (never absorbed;
/// Target::equilibrium() is the Nash test, checked every n/4 activations).
class SpeedRlsEngine final : public process::Process {
 public:
  SpeedRlsEngine(const config::Configuration& initial, std::vector<std::int64_t> speeds,
                 std::uint64_t seed);

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
  [[nodiscard]] const std::vector<std::int64_t>& speeds() const { return speeds_; }

  /// O(1) balance view over the *raw* (unweighted-by-speed) loads.
  [[nodiscard]] const sim::BalanceState& state() const override { return tracker_.state(); }

  /// Exact Nash test, O(n).
  [[nodiscard]] bool isEquilibrium() const;

  /// max_i l_i/s_i - min_i l_i/s_i (reporting only).
  [[nodiscard]] double weightedDiscrepancy() const;

 private:
  std::vector<std::int64_t> loads_;
  std::vector<std::int64_t> speeds_;
  sim::BalanceTracker tracker_;
  ds::Fenwick<std::int64_t> ballMass_;
  rng::Xoshiro256pp eng_;
  std::int64_t balls_;
  double time_ = 0.0;
  std::int64_t activations_ = 0;
  std::int64_t moves_ = 0;
};

}  // namespace rlslb::ext
