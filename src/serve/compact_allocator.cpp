#include "serve/compact_allocator.hpp"

#include "rng/distributions.hpp"
#include "util/assert.hpp"

namespace rlslb::serve {

CompactAllocator::CompactAllocator(const AllocatorOptions& options)
    : options_(options),
      loads_(static_cast<std::size_t>(options.bins), 0),
      balance_(options.bins) {
  RLSLB_ASSERT_MSG(options_.bins >= 1, "AllocatorOptions.bins must be >= 1");
  RLSLB_ASSERT_MSG(options_.bins <= INT32_MAX,
                   "compact allocator addresses bins with int32");
  RLSLB_ASSERT_MSG(options_.arrivalChoices >= 1 &&
                       options_.arrivalChoices <= kMaxArrivalChoices,
                   "AllocatorOptions.arrivalChoices must be in [1, 64]");
}

void CompactAllocator::changeLoad(std::int32_t bin, std::int32_t delta) {
  const std::int32_t level = loads_[static_cast<std::size_t>(bin)];
  RLSLB_ASSERT(level + delta >= 0);
  loads_[static_cast<std::size_t>(bin)] = level + delta;
  balance_.onLoadChange(level, level + delta);
}

void CompactAllocator::moveBall(std::int32_t* bin, std::int32_t toBin) {
  changeLoad(*bin, -1);
  changeLoad(toBin, 1);
  *bin = toBin;
}

void CompactAllocator::placeBall(std::int64_t ball, std::int32_t bin) {
  RLSLB_ASSERT_MSG(ball >= 0 && ball < INT32_MAX,
                   "compact allocator requires sequential int32-range ball ids");
  if (static_cast<std::size_t>(ball) >= ballBin_.size()) {
    ballBin_.resize(static_cast<std::size_t>(ball) + 1, -1);
    ballSlot_.resize(static_cast<std::size_t>(ball) + 1, 0);
  }
  RLSLB_ASSERT_MSG(ballBin_[static_cast<std::size_t>(ball)] < 0,
                   "arrive event for a ball id that is already live");
  ballBin_[static_cast<std::size_t>(ball)] = bin;
  ballSlot_[static_cast<std::size_t>(ball)] = static_cast<std::int32_t>(live_.size());
  live_.push_back(static_cast<std::int32_t>(ball));
  changeLoad(bin, 1);
}

void CompactAllocator::removeBall(std::int64_t ball) {
  RLSLB_ASSERT(ball >= 0 && static_cast<std::size_t>(ball) < ballBin_.size());
  const std::int32_t bin = ballBin_[static_cast<std::size_t>(ball)];
  RLSLB_ASSERT_MSG(bin >= 0, "depart event for a ball that is not live");
  // Swap-remove from the live array, exactly the dense order.
  const std::int32_t slot = ballSlot_[static_cast<std::size_t>(ball)];
  const std::int32_t moved = live_.back();
  live_[static_cast<std::size_t>(slot)] = moved;
  ballSlot_[static_cast<std::size_t>(moved)] = slot;
  live_.pop_back();
  ballBin_[static_cast<std::size_t>(ball)] = -1;
  changeLoad(bin, -1);
}

namespace {
// applyBatch's prefetch distances, in events: the index entries and the
// decided bin's load are requested kIndexAhead events ahead; the lines those
// index entries point at, kTargetAhead events ahead, by when the index
// entries have usually arrived.
constexpr std::size_t kIndexAhead = 16;
constexpr std::size_t kTargetAhead = 8;
}  // namespace

void CompactAllocator::applyBatch(const workload::Event* events, const Decision* decisions,
                                  std::size_t count) {
  // Same register-accumulated counters as the dense fused hot loop.
  std::int64_t arrivals = 0;
  std::int64_t departures = 0;
  std::int64_t resamples = 0;
  std::int64_t migrations = 0;
  std::int64_t rejected = 0;
  for (std::size_t i = 0; i < count; ++i) {
    // Hints only: they read state but change none, so event i is handled
    // exactly as without them. Every index is bounds-checked before its
    // address is formed (a ball may arrive or depart inside the window).
    // The hints sit inline on purpose: GCC deems a helper that only
    // prefetches side-effect free and deletes the calls.
    if (i + kIndexAhead < count) {
      const workload::Event& ahead = events[i + kIndexAhead];
      const auto ball = static_cast<std::size_t>(ahead.ball);
      if (ahead.kind != workload::EventKind::kArrive && ball < ballBin_.size()) {
        __builtin_prefetch(&ballBin_[ball]);
        if (ahead.kind == workload::EventKind::kDepart) __builtin_prefetch(&ballSlot_[ball]);
      }
      // A negative bin wraps past size().
      const auto bin = static_cast<std::size_t>(decisions[i + kIndexAhead].bin);
      if (ahead.kind != workload::EventKind::kDepart && bin < loads_.size()) {
        __builtin_prefetch(&loads_[bin]);
      }
    }
    if (i + kTargetAhead < count) {
      const workload::Event& ahead = events[i + kTargetAhead];
      const auto ball = static_cast<std::size_t>(ahead.ball);
      if (ahead.kind != workload::EventKind::kArrive && ball < ballBin_.size()) {
        const std::int32_t source = ballBin_[ball];
        if (source >= 0) __builtin_prefetch(&loads_[static_cast<std::size_t>(source)]);
        if (ahead.kind == workload::EventKind::kDepart) {
          const auto slot = static_cast<std::size_t>(ballSlot_[ball]);
          if (slot < live_.size()) __builtin_prefetch(&live_[slot]);
        }
      }
    }
    const workload::Event& event = events[i];
    switch (event.kind) {
      case workload::EventKind::kArrive: {
        const Decision& decision = decisions[i];
        RLSLB_ASSERT(decision.bin >= 0 && decision.bin < options_.bins);
        RLSLB_ASSERT_MSG(event.weight == 1,
                         "CompactAllocator serves unit-weight traffic only (use "
                         "OnlineAllocator for weighted traces)");
        ++arrivals;
        placeBall(event.ball, decision.bin);
        break;
      }
      case workload::EventKind::kDepart:
        ++departures;
        removeBall(event.ball);
        break;
      case workload::EventKind::kResample: {
        const Decision& decision = decisions[i];
        ++resamples;
        RLSLB_ASSERT(decision.bin >= 0 && decision.bin < options_.bins);
        RLSLB_ASSERT(event.ball >= 0 &&
                     static_cast<std::size_t>(event.ball) < ballBin_.size());
        std::int32_t& bin = ballBin_[static_cast<std::size_t>(event.ball)];
        RLSLB_ASSERT_MSG(bin >= 0, "resample event for a ball that is not live");
        if (accepts(loads_, bin, decision.bin, 1, options_.invertAcceptance)) {
          ++migrations;
          moveBall(&bin, decision.bin);
        } else {
          ++rejected;
        }
        break;
      }
    }
  }
  counters_.events += static_cast<std::int64_t>(count);
  counters_.arrivals += arrivals;
  counters_.departures += departures;
  counters_.resamples += resamples;
  counters_.migrations += migrations;
  counters_.rejectedMoves += rejected;
}

bool CompactAllocator::repairMove(rng::Xoshiro256pp& eng) {
  if (live_.empty()) return false;
  ++counters_.repairAttempts;
  const std::int32_t ball = live_[static_cast<std::size_t>(
      rng::uniformIndex(eng, static_cast<std::uint64_t>(live_.size())))];
  const auto dst = static_cast<std::int32_t>(
      rng::uniformIndex(eng, static_cast<std::uint64_t>(loads_.size())));
  std::int32_t& src = ballBin_[static_cast<std::size_t>(ball)];
  if (!accepts(loads_, src, dst, 1, options_.invertAcceptance)) return false;
  ++counters_.repairMigrations;
  moveBall(&src, dst);
  return true;
}

std::vector<std::int64_t> CompactAllocator::loadsCopy() const {
  return {loads_.begin(), loads_.end()};
}

std::int64_t CompactAllocator::residentBytes() const {
  auto vecBytes = [](const auto& v) {
    return static_cast<std::int64_t>(v.capacity() * sizeof(v[0]));
  };
  return vecBytes(loads_) + vecBytes(ballBin_) + vecBytes(ballSlot_) + vecBytes(live_) +
         balance_.heapBytes();
}

std::int64_t CompactAllocator::estimateBytes(std::int64_t bins, std::int64_t ballsEver,
                                             std::int64_t liveBalls) {
  return bins * 4 + ballsEver * 8 + liveBalls * 4;
}

bool CompactAllocator::validate() const {
  std::vector<std::int64_t> counted(loads_.size(), 0);
  for (std::size_t slot = 0; slot < live_.size(); ++slot) {
    const auto ball = static_cast<std::size_t>(live_[slot]);
    if (ball >= ballBin_.size()) return false;
    const std::int32_t bin = ballBin_[ball];
    if (bin < 0 || bin >= static_cast<std::int32_t>(loads_.size())) return false;
    if (ballSlot_[ball] != static_cast<std::int32_t>(slot)) return false;
    ++counted[static_cast<std::size_t>(bin)];
  }
  std::int64_t indexed = 0;
  for (const std::int32_t bin : ballBin_) indexed += bin >= 0 ? 1 : 0;
  if (indexed != liveBalls()) return false;
  for (std::size_t bin = 0; bin < loads_.size(); ++bin) {
    if (counted[bin] != loads_[bin]) return false;
  }
  // The balance tracker's level counts must be the histogram of loads_,
  // and its state what a scan of loads_ computes.
  std::vector<std::int64_t> levels;
  std::int64_t overloaded = 0;
  const auto bins = static_cast<std::int64_t>(loads_.size());
  const std::int64_t ceilAvg = (liveBalls() + bins - 1) / bins;
  for (const std::int32_t v : loads_) {
    if (static_cast<std::size_t>(v) >= levels.size()) {
      levels.resize(static_cast<std::size_t>(v) + 1, 0);
    }
    ++levels[static_cast<std::size_t>(v)];
    if (v > ceilAvg) overloaded += v - ceilAvg;
  }
  const sim::BalanceState& state = balance_.state();
  std::int64_t lowest = 0;
  while (levels[static_cast<std::size_t>(lowest)] == 0) ++lowest;
  if (state.numBins != bins || state.numBalls != liveBalls()) return false;
  if (state.minLoad != lowest) return false;
  if (state.maxLoad != static_cast<std::int64_t>(levels.size()) - 1) return false;
  if (state.overloadedBalls != overloaded) return false;
  for (std::size_t level = 0; level <= levels.size(); ++level) {
    const std::int64_t expected = level < levels.size() ? levels[level] : 0;
    if (balance_.levelCount(static_cast<std::int64_t>(level)) != expected) return false;
  }
  return true;
}

}  // namespace rlslb::serve
