// JumpEngine: event-skipping exact simulator of the *lumped* RLS chain.
//
// Balls and bins are identical, so the load multiset is itself a CTMC
// (lumpability). Two further exact reductions make the endgame cheap:
//
//  1. Failed activations leave the configuration unchanged; the multiset
//     process jumps only at successful moves, with inter-jump times
//     Exp(total rate). Phase 2/3 of the paper waste Theta(n^2) activations
//     per useful move; this engine skips all of them.
//  2. Neutral moves (src load = dst load + 1) permute bin labels but fix the
//     multiset: they are self-loops of the lumped chain and carry no
//     information, so they are skipped as well. A corollary (the paper's
//     Section 3 remark): the ">=" protocol and the strict ">" variant induce
//     the *same* lumped chain, hence identical balancing-time distributions.
//
// The remaining transitions move a ball from a level-v bin to a level-u bin
// with u <= v - 2 at rate v * cnt(v) * cnt(u) / n. Two per-event backends
// sample the same distribution:
//   - ds::LevelIndex, O(log D) with D = initial maxLoad - minLoad + 1:
//     incrementally maintained level weights, exact integer sampling;
//   - the O(L) scan over the sparse level list (L = distinct load values),
//     whose tiny constant wins for concentrated states.
// The constructor picks by a cost heuristic (index iff L exceeds ~24 tree
// depths); enableLevelIndex()/disableLevelIndex() force a backend for the
// micro rows and the cross-backend equivalence tests.
// The chain is absorbed exactly when max - min <= 1, i.e. perfect balance.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "config/configuration.hpp"
#include "ds/level_index.hpp"
#include "ds/load_multiset.hpp"
#include "process/process.hpp"
#include "rng/xoshiro256pp.hpp"

namespace rlslb::sim {

class JumpEngine final : public process::Process {
 public:
  JumpEngine(const config::Configuration& initial, std::uint64_t seed);
  JumpEngine(ds::LoadMultiset initial, std::uint64_t seed, double startTime = 0.0,
             std::int64_t startMoves = 0);

  /// One multiset-changing move; false once perfectly balanced (absorbed).
  bool advance() override;
  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] process::Clock now() const override {
    return {process::Clock::Kind::Continuous, time_};
  }
  [[nodiscard]] std::int64_t moves() const override { return moves_; }
  [[nodiscard]] const BalanceState& state() const override { return state_; }
  /// No gap rule: the ">=" and ">" protocols lump to this same chain.
  /// Failed activations are skipped, so none are counted.
  [[nodiscard]] const process::Capabilities& capabilities() const override {
    static constexpr process::Capabilities kCaps{.continuousTime = true};
    return kCaps;
  }

  /// Current lumped state. With the level index active this rebuilds the
  /// multiset on first access after a step (O(D log D)); hand-offs and
  /// tests call it, the hot loop must not.
  [[nodiscard]] const ds::LoadMultiset& multiset() const;

  /// Drop the incremental level index and simulate via the O(L) per-event
  /// scan from here on. For the before/after micro rows (micro_substrate)
  /// and the index-vs-scan equivalence tests; sampling distributions are
  /// identical either way, drawn random streams are not.
  void disableLevelIndex();

  /// Force-build the incremental index regardless of the cost heuristic
  /// (requires ds::LevelIndex::fits on the current state).
  void enableLevelIndex();

  /// True when steps go through ds::LevelIndex (the O(log D) path).
  [[nodiscard]] bool usesLevelIndex() const { return index_ != nullptr; }

  /// Total rate of multiset-changing moves in the current state
  /// (R = (1/n) * sum_{u <= v-2} v*cnt(v)*cnt(u)); 0 iff absorbed.
  [[nodiscard]] double totalRate() const;

 private:
  mutable ds::LoadMultiset ms_;
  mutable bool msFresh_ = true;  // ms_ mirrors the index state
  std::unique_ptr<ds::LevelIndex> index_;
  rng::Xoshiro256pp eng_;
  BalanceState state_;
  double time_;
  std::int64_t moves_;
  std::vector<double> weightScratch_;  // per-level source weights (scan path)

  bool stepIndexed();
  bool stepScan();
  void refreshState();
};

}  // namespace rlslb::sim
