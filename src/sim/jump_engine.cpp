#include "sim/jump_engine.hpp"

#include <bit>

#include "config/metrics.hpp"
#include "rng/distributions.hpp"
#include "util/assert.hpp"

namespace rlslb::sim {

JumpEngine::JumpEngine(const config::Configuration& initial, std::uint64_t seed)
    : JumpEngine(initial.toMultiset(), seed) {}

JumpEngine::JumpEngine(ds::LoadMultiset initial, std::uint64_t seed, double startTime,
                       std::int64_t startMoves)
    : ms_(std::move(initial)), eng_(seed), time_(startTime), moves_(startMoves) {
  RLSLB_ASSERT(ms_.numBins() >= 1);
  // Cost heuristic: the scan is ~a few ns per level, the index ~a couple
  // hundred ns per tree layer (log2 of the load domain), so the index only
  // pays off when many distinct levels stay in play. The concentrated
  // starts of the Theorem-1 experiments (all-in-one: L = 2, domain = m)
  // must keep the scan; wide staircase/uniform starts get the index.
  const auto domain =
      static_cast<std::uint64_t>(ms_.maxLoad() - ms_.minLoad() + 1);
  const auto treeDepth = static_cast<std::int64_t>(std::bit_width(domain));
  if (ds::LevelIndex::fits(ms_) &&
      static_cast<std::int64_t>(ms_.numLevels()) >= 24 * treeDepth) {
    index_ = std::make_unique<ds::LevelIndex>(ms_);
  }
  refreshState();
}

void JumpEngine::refreshState() {
  const config::Metrics m = config::computeMetrics(ms_);
  state_.numBins = ms_.numBins();
  state_.numBalls = ms_.numBalls();
  state_.minLoad = m.minLoad;
  state_.maxLoad = m.maxLoad;
  state_.overloadedBalls = m.overloadedBalls;
}

const ds::LoadMultiset& JumpEngine::multiset() const {
  if (!msFresh_) {
    ms_ = index_->toMultiset();
    msFresh_ = true;
  }
  return ms_;
}

void JumpEngine::disableLevelIndex() {
  if (!index_) return;
  static_cast<void>(multiset());  // materialize ms_ from the index before dropping it
  index_.reset();
}

void JumpEngine::enableLevelIndex() {
  if (index_) return;
  RLSLB_ASSERT_MSG(ds::LevelIndex::fits(ms_),
                   "enableLevelIndex: configuration exceeds the index bounds");
  index_ = std::make_unique<ds::LevelIndex>(ms_);
}

double JumpEngine::totalRate() const {
  if (index_) {
    return static_cast<double>(index_->totalWeight()) / static_cast<double>(state_.numBins);
  }
  const auto& levels = ms_.levels();
  double total = 0.0;
  std::size_t below = 0;       // first level index with load > v - 2
  std::int64_t cntBelow = 0;   // #bins with load <= v - 2
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

bool JumpEngine::advance() { return index_ ? stepIndexed() : stepScan(); }

bool JumpEngine::stepIndexed() {
  const std::int64_t totalW = index_->totalWeight();
  if (totalW == 0) return false;  // absorbed: spread <= 1, perfectly balanced

  const std::int64_t n = state_.numBins;
  time_ += rng::exponential(eng_, static_cast<double>(totalW) / static_cast<double>(n));

  // Source level proportional to v*cnt(v)*C(v-2); the exact integer weights
  // make this a plain uniform-ticket draw.
  const auto ticket = static_cast<std::int64_t>(
      rng::uniformIndex(eng_, static_cast<std::uint64_t>(totalW)));
  const std::int64_t v = index_->sampleSource(ticket);

  // Destination among loads <= v - 2, proportional to count.
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

bool JumpEngine::stepScan() {
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

}  // namespace rlslb::sim
