// The Destructive Majorization Lemma (Lemma 2) as executable machinery.
//
// A move from bin i to bin j is *destructive* iff load(i) <= load(j) + 1,
// i.e. exactly the reversal of a valid protocol move (Figure 1). Lemma 2
// states that an adversary injecting arbitrarily many destructive moves
// after each protocol event can only slow convergence down (stochastic
// dominance of the discrepancy). The experiment E8 runs RLS under several
// adversary policies and checks the dominance empirically; the coupling
// harness (coupling.hpp) checks the proof's invariant structurally.
#pragma once

#include <cstdint>
#include <memory>

#include "config/configuration.hpp"
#include "process/process.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/naive_engine.hpp"

namespace rlslb::core {

/// Policy injecting destructive moves into a NaiveEngine after each
/// activation. Implementations must only ever apply destructive moves
/// (checked in debug by the runner).
class DestructiveAdversary {
 public:
  virtual ~DestructiveAdversary() = default;
  virtual void afterEvent(sim::NaiveEngine& engine, rng::Xoshiro256pp& eng) = 0;
};

/// With probability p after each *successful* protocol move, bounce one ball
/// straight back (always destructive: the reversal of a valid move).
class ReverseLastMoveAdversary final : public DestructiveAdversary {
 public:
  explicit ReverseLastMoveAdversary(double probability);
  void afterEvent(sim::NaiveEngine& engine, rng::Xoshiro256pp& eng) override;

 private:
  double probability_;
};

/// After each activation, `attempts` times: draw an ordered random bin pair
/// and move one ball from the lower-loaded to the higher-loaded bin
/// (skipping empty sources). Such a move is destructive by definition.
class RandomPairAdversary final : public DestructiveAdversary {
 public:
  explicit RandomPairAdversary(int attempts = 1);
  void afterEvent(sim::NaiveEngine& engine, rng::Xoshiro256pp& eng) override;

 private:
  int attempts_;
};

/// With probability p after each activation, move one ball from a
/// minimum-load bin to a maximum-load bin: the most damaging single
/// destructive move. O(n) scan per injection; intended for small n.
class MinToMaxAdversary final : public DestructiveAdversary {
 public:
  explicit MinToMaxAdversary(double probability);
  void afterEvent(sim::NaiveEngine& engine, rng::Xoshiro256pp& eng) override;

 private:
  double probability_;
};

/// RLS under an adversary, as one process for process::run: advance() is
/// one activation of a NaiveEngine followed by the adversary's reaction.
/// Adversary moves do not advance simulated time (Lemma 2's adversary acts
/// instantaneously between protocol events). The composite is not absorbed
/// just because the protocol chain is: clocks keep ringing on failed
/// activations and a destructive move can push the spread back above the
/// gap, so only a ball-less system stops.
class AdversarialRls final : public process::Process {
 public:
  /// `adversary` must outlive the process.
  AdversarialRls(const config::Configuration& initial, std::uint64_t seed,
                 DestructiveAdversary& adversary, int gap = 1);

  bool advance() override;
  [[nodiscard]] process::Clock now() const override { return engine_.now(); }
  [[nodiscard]] const sim::BalanceState& state() const override { return engine_.state(); }
  [[nodiscard]] const process::Capabilities& capabilities() const override {
    return engine_.capabilities();
  }
  [[nodiscard]] std::int64_t moves() const override { return engine_.moves(); }
  [[nodiscard]] std::int64_t activations() const override { return engine_.activations(); }

 private:
  sim::NaiveEngine engine_;
  DestructiveAdversary& adversary_;
  rng::Xoshiro256pp adversaryEng_;
};

}  // namespace rlslb::core
