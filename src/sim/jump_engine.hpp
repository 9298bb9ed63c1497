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
//   - a scan over the sparse level list (L = distinct load values), whose
//     tiny constant wins for concentrated states. Each level keeps its exact
//     int64 source weight w(v) = v * cnt(v) * C(v-2) (C(x) = #bins with load
//     <= x) and the engine keeps their total, so an event is two short walks
//     (the source down from the top level, the destination up from the
//     bottom) plus O(1) updates of the <= 6 levels a move touches; only a
//     move that makes a level appear or empty re-sums the weights in O(L).
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
  /// Both constructors throw std::invalid_argument when m * n >= 2^62: the
  /// exact integer level weights sum to at most m * n.
  JumpEngine(const config::Configuration& initial, std::uint64_t seed);
  JumpEngine(ds::LoadMultiset initial, std::uint64_t seed, double startTime = 0.0,
             std::int64_t startMoves = 0);

  /// Throws std::invalid_argument unless ds::LevelIndex::weightsFit(bins,
  /// balls); HybridEngine checks its start with it before running.
  static void requireWeightsFit(std::int64_t bins, std::int64_t balls);

  /// One multiset-changing move; false once perfectly balanced (absorbed).
  bool advance() override;
  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] process::Clock now() const override {
    return {process::Clock::Kind::Continuous, time_};
  }
  [[nodiscard]] std::int64_t moves() const override { return moves_; }
  [[nodiscard]] const BalanceState& state() const override { return state_; }
  [[nodiscard]] const process::Capabilities& capabilities() const override {
    static constexpr process::Capabilities kCaps{};
    return kCaps;
  }

  /// Current lumped state, rebuilt on first access after a step (O(L) on
  /// the scan path, O(D log D) with the level index); hand-offs and tests
  /// call it, the hot loop must not.
  [[nodiscard]] const ds::LoadMultiset& multiset() const;

  /// Drop the incremental level index and simulate via the per-event scan
  /// from here on. For the before/after micro rows (micro_substrate) and
  /// the index-vs-scan equivalence tests; sampling distributions are
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
  // One occupied load value of the scan path.
  struct Level {
    std::int64_t load;
    std::int64_t count;   // bins at this load
    std::int64_t cum;     // bins at or below this load: C(load)
    std::int64_t weight;  // load * count * C(load - 2)
  };

  std::vector<Level> levels_;     // scan path state, ascending by load
  std::int64_t totalWeight_ = 0;  // sum of the levels' weights
  mutable ds::LoadMultiset ms_;   // multiset() cache
  mutable bool msFresh_ = true;   // ms_ mirrors the current state
  std::unique_ptr<ds::LevelIndex> index_;
  rng::Xoshiro256pp eng_;
  BalanceState state_;
  double time_;
  std::int64_t moves_;

  bool stepIndexed();
  bool stepScan();
  void refreshState();
  void loadLevels(const ds::LoadMultiset& ms);
  [[nodiscard]] std::int64_t countBelow(std::size_t i) const;  // C(load_i - 2)
  [[nodiscard]] std::int64_t weightOf(std::size_t i) const;
  void refreshWeight(std::size_t i);
  void resumWeights();
  bool moveBin(std::size_t i, std::int64_t delta);
};

}  // namespace rlslb::sim
