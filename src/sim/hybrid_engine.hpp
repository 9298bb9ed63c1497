// HybridEngine: NaiveEngine until the number of distinct load values L is
// small, then hand the multiset to JumpEngine.
//
// Cost model: a naive activation is O(log n) but most activations fail once
// the configuration is nearly balanced (Phases 2-3 waste Theta(n^2)
// activations); a jump event scans the L levels twice (O(1) updates after
// the draw) but is never wasted. L is bounded by min(n, spread + 1) and the
// spread is non-increasing under RLS, so once L falls below the threshold
// the jump engine's per-event cost stays small for the remainder of the
// run. Worst cases on both ends are covered: the
// all-in-one start has L = 2 (jump immediately), the staircase start has
// L = n (stay naive until the levels merge).
//
// Both stages sample the same CTMC exactly, so the hybrid trajectory is
// distributed identically to either engine alone (verified by tests).
#pragma once

#include <cstdint>
#include <memory>

#include "config/configuration.hpp"
#include "sim/jump_engine.hpp"
#include "sim/naive_engine.hpp"

namespace rlslb::sim {

class HybridEngine final : public process::Process {
 public:
  /// `levelThreshold` <= 0 selects the default (96). The switch condition is
  /// re-checked every `checkInterval` events. Throws std::invalid_argument
  /// when m * n >= 2^62, as the jump stage would (JumpEngine).
  HybridEngine(const config::Configuration& initial, std::uint64_t seed,
               std::int64_t levelThreshold = 0, std::int64_t checkInterval = 64);

  bool advance() override;
  [[nodiscard]] double time() const { return jump_ ? jump_->time() : naive_->time(); }
  [[nodiscard]] process::Clock now() const override {
    return {process::Clock::Kind::Continuous, time()};
  }
  [[nodiscard]] std::int64_t moves() const override {
    return jump_ ? jump_->moves() : naive_->moves();
  }
  /// Activations are only meaningful while the naive stage runs; -1 after
  /// the switch.
  [[nodiscard]] std::int64_t activations() const override {
    return jump_ ? -1 : naive_->activations();
  }
  [[nodiscard]] const BalanceState& state() const override {
    return jump_ ? jump_->state() : naive_->state();
  }
  [[nodiscard]] const process::Capabilities& capabilities() const override {
    static constexpr process::Capabilities kCaps{};
    return kCaps;
  }

  [[nodiscard]] bool switched() const { return jump_ != nullptr; }
  [[nodiscard]] double switchTime() const { return switchTime_; }

 private:
  std::unique_ptr<NaiveEngine> naive_;
  std::unique_ptr<JumpEngine> jump_;
  std::uint64_t seed_;
  std::int64_t levelThreshold_;
  std::int64_t checkInterval_;
  std::int64_t sinceCheck_ = 0;
  double switchTime_ = -1.0;

  void maybeSwitch();
};

}  // namespace rlslb::sim
