// Frozen lumped jump chain: the test oracle for sim::JumpEngine
// (tests/test_engines.cpp).
//
// This is a test-only copy of the jump engine as it stepped its scan path
// over a ds::LoadMultiset: every event rebuilt all level weights
// w(v) = v * cnt(v) * C(v-2) in one pass, drew the source level from a
// double ticket against their double sum, counted and drew the destination
// by a second scan, and applied the move with LoadMultiset::applyBallMove.
// The LevelIndex path, the cost heuristic that picks between the two, and
// the hybrid hand-off (naive engine until few levels remain) are copied as
// they were, so a run can cross between paths exactly as the engine does.
//
// The production engine's contract is bit-equality with THIS code for one
// seed -- time(), moves(), state() and the multiset after every step, as
// long as m * n < 2^53 -- so do not "fix" or modernize it; it only changes
// if the lumped chain's sampling is deliberately re-specified.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "config/configuration.hpp"
#include "config/metrics.hpp"
#include "ds/level_index.hpp"
#include "ds/load_multiset.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/engine.hpp"
#include "sim/naive_engine.hpp"
#include "util/assert.hpp"

namespace rlslb::sim::reference {

class ScanJumpEngine {
 public:
  ScanJumpEngine(ds::LoadMultiset initial, std::uint64_t seed, double startTime = 0.0,
                 std::int64_t startMoves = 0)
      : ms_(std::move(initial)), eng_(seed), time_(startTime), moves_(startMoves) {
    RLSLB_ASSERT(ms_.numBins() >= 1);
    const auto domain = static_cast<std::uint64_t>(ms_.maxLoad() - ms_.minLoad() + 1);
    const auto treeDepth = static_cast<std::int64_t>(std::bit_width(domain));
    if (ds::LevelIndex::fits(ms_) &&
        static_cast<std::int64_t>(ms_.numLevels()) >= 24 * treeDepth) {
      index_ = std::make_unique<ds::LevelIndex>(ms_);
    }
    const config::Metrics m = config::computeMetrics(ms_);
    state_.numBins = ms_.numBins();
    state_.numBalls = ms_.numBalls();
    state_.minLoad = m.minLoad;
    state_.maxLoad = m.maxLoad;
    state_.overloadedBalls = m.overloadedBalls;
  }

  bool advance() { return index_ ? stepIndexed() : stepScan(); }
  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] std::int64_t moves() const { return moves_; }
  [[nodiscard]] const BalanceState& state() const { return state_; }
  [[nodiscard]] bool usesLevelIndex() const { return index_ != nullptr; }

  [[nodiscard]] const ds::LoadMultiset& multiset() const {
    if (!msFresh_) {
      ms_ = index_->toMultiset();
      msFresh_ = true;
    }
    return ms_;
  }

  void disableLevelIndex() {
    if (!index_) return;
    static_cast<void>(multiset());
    index_.reset();
  }

  void enableLevelIndex() {
    if (index_) return;
    RLSLB_ASSERT(ds::LevelIndex::fits(ms_));
    index_ = std::make_unique<ds::LevelIndex>(ms_);
  }

  [[nodiscard]] double totalRate() const {
    if (index_) {
      return static_cast<double>(index_->totalWeight()) / static_cast<double>(state_.numBins);
    }
    const auto& levels = ms_.levels();
    double total = 0.0;
    std::size_t below = 0;
    std::int64_t cntBelow = 0;
    for (std::size_t vi = 0; vi < levels.size(); ++vi) {
      const std::int64_t v = levels[vi].load;
      while (below < vi && levels[below].load <= v - 2) {
        cntBelow += levels[below].count;
        ++below;
      }
      total += static_cast<double>(v) * static_cast<double>(levels[vi].count) *
               static_cast<double>(cntBelow);
    }
    return total / static_cast<double>(ms_.numBins());
  }

 private:
  mutable ds::LoadMultiset ms_;
  mutable bool msFresh_ = true;
  std::unique_ptr<ds::LevelIndex> index_;
  rng::Xoshiro256pp eng_;
  BalanceState state_;
  double time_;
  std::int64_t moves_;
  std::vector<double> weightScratch_;

  bool stepIndexed() {
    const std::int64_t totalW = index_->totalWeight();
    if (totalW == 0) return false;

    const std::int64_t n = state_.numBins;
    time_ += rng::exponential(eng_, static_cast<double>(totalW) / static_cast<double>(n));

    const auto ticket = static_cast<std::int64_t>(
        rng::uniformIndex(eng_, static_cast<std::uint64_t>(totalW)));
    const std::int64_t v = index_->sampleSource(ticket);

    const std::int64_t eligible = index_->countAtMost(v - 2);
    RLSLB_ASSERT(eligible >= 1);
    const auto destTicket = static_cast<std::int64_t>(
        rng::uniformIndex(eng_, static_cast<std::uint64_t>(eligible)));
    const std::int64_t u = index_->sampleDest(destTicket);

    index_->applyBallMove(v, u);
    msFresh_ = false;
    ++moves_;
    const std::int64_t ceilAvg = (state_.numBalls + n - 1) / n;
    if (v > ceilAvg) --state_.overloadedBalls;
    if (u + 1 > ceilAvg) ++state_.overloadedBalls;
    state_.minLoad = index_->minLoad();
    state_.maxLoad = index_->maxLoad();
    return true;
  }

  bool stepScan() {
    const auto& levels = ms_.levels();
    const std::size_t numLevels = levels.size();

    // One pass: per-source-level weights w_v = v * cnt(v) * #bins(load <= v-2).
    weightScratch_.resize(numLevels);
    double total = 0.0;
    {
      std::size_t below = 0;
      std::int64_t cntBelow = 0;
      for (std::size_t vi = 0; vi < numLevels; ++vi) {
        const std::int64_t v = levels[vi].load;
        while (below < vi && levels[below].load <= v - 2) {
          cntBelow += levels[below].count;
          ++below;
        }
        weightScratch_[vi] = static_cast<double>(v) * static_cast<double>(levels[vi].count) *
                             static_cast<double>(cntBelow);
        total += weightScratch_[vi];
      }
    }
    if (total <= 0.0) return false;  // absorbed: spread <= 1, perfectly balanced

    const double rate = total / static_cast<double>(ms_.numBins());
    time_ += rng::exponential(eng_, rate);

    // Sample source level proportional to weight.
    std::size_t srcLevel = numLevels - 1;
    {
      double ticket = rng::uniformDouble(eng_) * total;
      for (std::size_t vi = 0; vi < numLevels; ++vi) {
        if (weightScratch_[vi] <= 0.0) continue;
        if (ticket < weightScratch_[vi]) {
          srcLevel = vi;
          break;
        }
        ticket -= weightScratch_[vi];
      }
      // Floating-point slack can step past the last positive weight; clamp to
      // the largest eligible level.
      while (weightScratch_[srcLevel] <= 0.0) --srcLevel;
    }
    const std::int64_t v = levels[srcLevel].load;

    // Sample destination level among loads <= v - 2, proportional to count.
    std::int64_t eligible = 0;
    for (std::size_t ui = 0; ui < srcLevel; ++ui) {
      if (levels[ui].load <= v - 2) eligible += levels[ui].count;
    }
    RLSLB_ASSERT(eligible >= 1);
    std::int64_t ticket =
        static_cast<std::int64_t>(rng::uniformIndex(eng_, static_cast<std::uint64_t>(eligible)));
    std::int64_t u = levels[0].load;
    for (std::size_t ui = 0; ui < srcLevel; ++ui) {
      if (levels[ui].load > v - 2) break;
      if (ticket < levels[ui].count) {
        u = levels[ui].load;
        break;
      }
      ticket -= levels[ui].count;
    }

    // Apply and update metrics incrementally.
    ms_.applyBallMove(v, u);
    ++moves_;
    const std::int64_t n = state_.numBins;
    const std::int64_t ceilAvg = (state_.numBalls + n - 1) / n;
    if (v > ceilAvg) --state_.overloadedBalls;
    if (u + 1 > ceilAvg) ++state_.overloadedBalls;
    state_.minLoad = ms_.minLoad();
    state_.maxLoad = ms_.maxLoad();
    return true;
  }
};

/// sim::HybridEngine's hand-off over the frozen jump chain: the naive
/// engine until at most `levelThreshold` distinct loads remain (checked
/// every `checkInterval` events), then the multiset continues on
/// ScanJumpEngine with the same derived seed, clock and move count.
class Hybrid {
 public:
  Hybrid(const config::Configuration& initial, std::uint64_t seed,
         std::int64_t levelThreshold = 96, std::int64_t checkInterval = 64)
      : naive_(std::make_unique<NaiveEngine>(initial, seed)),
        seed_(seed),
        levelThreshold_(levelThreshold),
        checkInterval_(checkInterval) {
    maybeSwitch();
  }

  bool advance() {
    if (jump_) return jump_->advance();
    const bool alive = naive_->advance();
    if (++sinceCheck_ >= checkInterval_) {
      sinceCheck_ = 0;
      maybeSwitch();
    }
    return alive;
  }
  [[nodiscard]] double time() const { return jump_ ? jump_->time() : naive_->time(); }
  [[nodiscard]] std::int64_t moves() const { return jump_ ? jump_->moves() : naive_->moves(); }
  [[nodiscard]] const BalanceState& state() const {
    return jump_ ? jump_->state() : naive_->state();
  }
  [[nodiscard]] bool switched() const { return jump_ != nullptr; }

 private:
  std::unique_ptr<NaiveEngine> naive_;
  std::unique_ptr<ScanJumpEngine> jump_;
  std::uint64_t seed_;
  std::int64_t levelThreshold_;
  std::int64_t checkInterval_;
  std::int64_t sinceCheck_ = 0;

  void maybeSwitch() {
    if (static_cast<std::int64_t>(naive_->numDistinctLoads()) > levelThreshold_) return;
    jump_ = std::make_unique<ScanJumpEngine>(ds::LoadMultiset::fromLoads(naive_->loads()),
                                             rng::streamSeed(seed_, 0x6a756d70ULL),
                                             naive_->time(), naive_->moves());
    naive_.reset();
  }
};

}  // namespace rlslb::sim::reference
