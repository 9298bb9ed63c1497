#include "sim/jump_engine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "config/metrics.hpp"
#include "rng/distributions.hpp"
#include "util/assert.hpp"

namespace rlslb::sim {

void JumpEngine::requireWeightsFit(std::int64_t bins, std::int64_t balls) {
  if (ds::LevelIndex::weightsFit(bins, balls)) return;
  throw std::invalid_argument("lumped jump chain: n * m = " + std::to_string(bins) + " * " +
                              std::to_string(balls) +
                              " must be below 2^62 (exact integer level weights)");
}

JumpEngine::JumpEngine(const config::Configuration& initial, std::uint64_t seed)
    : JumpEngine(initial.toMultiset(), seed) {}

JumpEngine::JumpEngine(ds::LoadMultiset initial, std::uint64_t seed, double startTime,
                       std::int64_t startMoves)
    : ms_(std::move(initial)), eng_(seed), time_(startTime), moves_(startMoves) {
  RLSLB_ASSERT(ms_.numBins() >= 1);
  requireWeightsFit(ms_.numBins(), ms_.numBalls());
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
  } else {
    loadLevels(ms_);
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

void JumpEngine::loadLevels(const ds::LoadMultiset& ms) {
  levels_.clear();
  levels_.reserve(ms.numLevels());
  for (const ds::LoadMultiset::Level& lv : ms.levels()) {
    levels_.push_back({lv.load, lv.count, 0, 0});
  }
  resumWeights();
}

const ds::LoadMultiset& JumpEngine::multiset() const {
  if (!msFresh_) {
    if (index_) {
      ms_ = index_->toMultiset();
    } else {
      std::vector<ds::LoadMultiset::Level> levels;
      levels.reserve(levels_.size());
      for (const Level& lv : levels_) levels.push_back({lv.load, lv.count});
      ms_ = ds::LoadMultiset::fromLevels(std::move(levels));
    }
    msFresh_ = true;
  }
  return ms_;
}

void JumpEngine::disableLevelIndex() {
  if (!index_) return;
  loadLevels(multiset());  // materialize the index state before dropping it
  index_.reset();
}

void JumpEngine::enableLevelIndex() {
  if (index_) return;
  const ds::LoadMultiset& ms = multiset();
  RLSLB_ASSERT_MSG(ds::LevelIndex::fits(ms),
                   "enableLevelIndex: configuration exceeds the index bounds");
  index_ = std::make_unique<ds::LevelIndex>(ms);
  levels_.clear();
}

double JumpEngine::totalRate() const {
  const std::int64_t total = index_ ? index_->totalWeight() : totalWeight_;
  return static_cast<double>(total) / static_cast<double>(state_.numBins);
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

// C(load - 2) is C(load - 1), the bins below level i, less those of level
// i - 1 when it sits at load - 1.
std::int64_t JumpEngine::countBelow(std::size_t i) const {
  if (i == 0) return 0;
  const Level& prev = levels_[i - 1];
  return prev.load == levels_[i].load - 1 ? prev.cum - prev.count : prev.cum;
}

std::int64_t JumpEngine::weightOf(std::size_t i) const {
  return levels_[i].load * levels_[i].count * countBelow(i);
}

void JumpEngine::refreshWeight(std::size_t i) {
  const std::int64_t w = weightOf(i);
  totalWeight_ += w - levels_[i].weight;
  levels_[i].weight = w;
}

void JumpEngine::resumWeights() {
  std::int64_t cum = 0;
  totalWeight_ = 0;
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    cum += levels_[i].count;
    levels_[i].cum = cum;
    levels_[i].weight = weightOf(i);
    totalWeight_ += levels_[i].weight;
  }
}

// Moves one bin of level i to load + delta (delta = +-1). A level of one
// bin is relabelled in place when no level sits at the target. Returns true
// when a level appeared or emptied: indices past i shifted and cum is stale.
bool JumpEngine::moveBin(std::size_t i, std::int64_t delta) {
  const std::int64_t target = levels_[i].load + delta;
  const std::size_t j = delta > 0 ? i + 1 : i - 1;  // wraps past the end for i = 0
  const bool targetExists = j < levels_.size() && levels_[j].load == target;
  const auto at = [this](std::size_t k) {
    return levels_.begin() + static_cast<std::ptrdiff_t>(k);
  };
  if (levels_[i].count == 1) {
    if (!targetExists) {
      levels_[i].load = target;
      return false;
    }
    ++levels_[j].count;
    levels_.erase(at(i));
    return true;
  }
  --levels_[i].count;
  if (!targetExists) {
    levels_.insert(at(delta > 0 ? i + 1 : i), Level{target, 1, 0, 0});
    return true;
  }
  ++levels_[j].count;
  // One bin crossed the boundary between levels min(i, j) and max(i, j).
  levels_[std::min(i, j)].cum -= delta;
  return false;
}

bool JumpEngine::stepScan() {
  if (totalWeight_ == 0) return false;  // absorbed: spread <= 1, perfectly balanced

  // The weights are exact integers, so while their total is below 2^53 its
  // double equals the double sum of per-level double products, and the rate
  // and the source ticket are bit for bit those of rebuilding every weight
  // in double per event.
  const auto total = static_cast<double>(totalWeight_);
  time_ += rng::exponential(eng_, total / static_cast<double>(state_.numBins));

  // Source level proportional to weight: with P(i) the weight of the levels
  // below i, the level i with P(i) <= ticket < P(i + 1). While the total is
  // below 2^53 every difference ticket - P(i) is exact in double, so this is
  // the level that subtracting the weights from the double ticket in
  // ascending order picks. The walk runs down from the top, where the
  // weight sits, to the first level whose weight and the weight above it
  // reach total - ticket.
  const std::size_t numLevels = levels_.size();
  std::size_t src = numLevels - 1;
  {
    const auto ticket = static_cast<std::int64_t>(rng::uniformDouble(eng_) * total);
    const std::int64_t reach = totalWeight_ - ticket;
    std::int64_t fromSrc = levels_[src].weight;
    while (fromSrc < reach) fromSrc += levels_[--src].weight;
    // A ticket rounded up to the total picks no level; take the largest
    // eligible one.
    while (levels_[src].weight == 0) --src;
  }
  const std::int64_t v = levels_[src].load;

  // Destination among loads <= v - 2, proportional to count: the first
  // level whose running bin count exceeds a ticket below C(v - 2).
  const std::int64_t eligible = countBelow(src);
  RLSLB_ASSERT(eligible >= 1);
  const auto ticket =
      static_cast<std::int64_t>(rng::uniformIndex(eng_, static_cast<std::uint64_t>(eligible)));
  std::size_t dst = 0;
  while (ticket >= levels_[dst].cum) ++dst;
  const std::int64_t u = levels_[dst].load;

  // One bin v -> v - 1, then one bin u -> u + 1; dst < src, so the first
  // move leaves dst's index alone. Only levels src - 1 .. src + 1 and
  // dst .. dst + 2 change their count, load or C(load - 2).
  bool reshaped = moveBin(src, -1);
  reshaped = moveBin(dst, +1) || reshaped;
  if (reshaped) {
    resumWeights();
  } else {
    const std::size_t touched[] = {dst, dst + 1, dst + 2, src - 1, src, src + 1};
    for (const std::size_t i : touched) {
      if (i < numLevels) refreshWeight(i);
    }
  }

  msFresh_ = false;
  ++moves_;
  const std::int64_t n = state_.numBins;
  const std::int64_t ceilAvg = (state_.numBalls + n - 1) / n;
  if (v > ceilAvg) --state_.overloadedBalls;
  if (u + 1 > ceilAvg) ++state_.overloadedBalls;
  state_.minLoad = levels_.front().load;
  state_.maxLoad = levels_.back().load;
  return true;
}

}  // namespace rlslb::sim
