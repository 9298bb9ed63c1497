// NaiveEngine: the ground-truth simulator. Simulates *every* clock ring of
// the RLS protocol exactly as Section 3 of the paper describes it:
//
//   - activations form a Poisson process of rate m (superposition of the m
//     unit-rate exponential clocks), so inter-activation times are Exp(m);
//   - the activated ball is uniform among the m balls, i.e. the source bin
//     is drawn with probability load/m (balls are identical, so only the
//     bin matters) -- a Fenwick-tree weighted draw;
//   - the destination bin is uniform on [n] (possibly the source itself);
//   - the ball moves iff load(src) >= load(dst) + gap, gap = 1 for the
//     paper's RLS, gap = 2 for the strict variant of [Goldberg'04,
//     Ganesh et al.'12].
//
// Memory is O(n + #distinct loads), independent of m. Each activation costs
// O(log n). Balance metrics are maintained incrementally in O(1) amortized.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "config/configuration.hpp"
#include "ds/fenwick.hpp"
#include "process/process.hpp"
#include "rng/xoshiro256pp.hpp"

namespace rlslb::sim {

class NaiveEngine final : public process::Process {
 public:
  NaiveEngine(const config::Configuration& initial, std::uint64_t seed, int gap = 1);

  /// One activation. Returns false once the chain is absorbed (no balls,
  /// or spread < gap).
  bool advance() override;

  /// Like advance(), but simulates the activation even when the protocol chain
  /// alone is absorbed (spread < gap): the clock rings, time advances, the
  /// (necessarily failing) move is drawn and rejected. Returns false only
  /// when no clock can ever ring (no balls). The DML runner uses this --
  /// its composite process (protocol + adversary reacting to activations)
  /// is not absorbed just because the protocol is, since a destructive
  /// move can push the spread back above the gap.
  bool stepActivation();

  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] process::Clock now() const override {
    return {process::Clock::Kind::Continuous, time_};
  }
  [[nodiscard]] std::int64_t moves() const override { return moves_; }
  [[nodiscard]] std::int64_t activations() const override { return activations_; }
  [[nodiscard]] const BalanceState& state() const override { return state_; }
  [[nodiscard]] const process::Capabilities& capabilities() const override {
    static constexpr process::Capabilities kCaps{};
    return kCaps;
  }

  [[nodiscard]] const std::vector<std::int64_t>& loads() const { return loads_; }
  [[nodiscard]] int gap() const { return gap_; }

  /// Number of distinct load values (O(1); drives the hybrid switch).
  [[nodiscard]] std::size_t numDistinctLoads() const { return histogram_.size(); }

  /// Apply an unconditional ball move (no protocol check), updating all
  /// internal bookkeeping. This is the hook used by the DML adversary
  /// (Lemma 2) to inject destructive moves, and by tests.
  void applyForcedMove(std::size_t src, std::size_t dst);

  /// Detail of the last activation, for probes that care about move structure.
  struct LastEvent {
    bool moved = false;
    std::size_t src = 0;
    std::size_t dst = 0;
  };
  [[nodiscard]] const LastEvent& lastEvent() const { return last_; }

 private:
  std::vector<std::int64_t> loads_;
  ds::Fenwick<std::int64_t> ballMass_;
  std::unordered_map<std::int64_t, std::int64_t> histogram_;  // load -> #bins
  rng::Xoshiro256pp eng_;
  BalanceState state_;
  double time_ = 0.0;
  std::int64_t moves_ = 0;
  std::int64_t activations_ = 0;
  int gap_;
  LastEvent last_;

  void bookkeepMove(std::size_t src, std::size_t dst);
};

}  // namespace rlslb::sim
