#include "serve/compact_allocator.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "rng/distributions.hpp"

namespace rlslb::serve {

void decideBatch(const workload::Event* events, std::size_t count, std::int64_t ringCount,
                 const std::vector<std::int32_t>& loads, int arrivalChoices, std::int64_t live,
                 rng::Xoshiro256pp& eng, std::vector<std::int32_t>* candidates,
                 RingDraw* rings, Decision* decisions) {
  RLSLB_ASSERT(count <= INT32_MAX);  // records hold event indices as int32
  const auto n = static_cast<std::uint64_t>(loads.size());
  const auto d = static_cast<std::size_t>(arrivalChoices);
  const std::size_t stride = d + 1;
  if (candidates->size() < count * stride) candidates->resize(count * stride);

  auto m = static_cast<std::uint64_t>(live);
  RingDraw* ring = rings;
  const auto drawRings = [&](std::int64_t k) {
    RLSLB_ASSERT_MSG(k == 0 || m > 0, "clock rings while no ball is live");
    for (; k > 0; --k, ++ring) {
      ring->slot = static_cast<std::int32_t>(rng::uniformIndex(eng, m));
      ring->bin = static_cast<std::int32_t>(rng::uniformIndex(eng, n));
    }
  };
  std::int32_t* end = candidates->data();
  for (std::size_t i = 0; i < count; ++i) {
    drawRings(events[i].rings);
    if (events[i].kind == workload::EventKind::kDepart) {
      --m;
      continue;
    }
    ++m;
    if (d == 1) {
      decisions[i].bin = static_cast<std::int32_t>(rng::uniformIndex(eng, n));
      continue;
    }
    *end++ = static_cast<std::int32_t>(i);
    for (std::size_t c = 0; c < d; ++c) {
      const auto bin = static_cast<std::int32_t>(rng::uniformIndex(eng, n));
      __builtin_prefetch(&loads[static_cast<std::size_t>(bin)]);
      *end++ = bin;
    }
  }
  drawRings(ringCount - (ring - rings));

  for (const std::int32_t* rec = candidates->data(); rec != end; rec += stride) {
    std::int32_t best = rec[1];
    for (std::size_t c = 2; c <= d; ++c) {
      if (loads[static_cast<std::size_t>(rec[c])] < loads[static_cast<std::size_t>(best)]) {
        best = rec[c];
      }
    }
    decisions[rec[0]].bin = best;
  }
}

namespace {
// The int32 ceiling of the live weight: every bin load, the tracker's
// per-level counts and the live slots stay in int32 below it.
constexpr std::int64_t kMaxLiveWeight = std::numeric_limits<std::int32_t>::max();

[[noreturn]] [[gnu::cold]] void liveWeightOverflow(std::int64_t live, std::int64_t weight) {
  throw std::invalid_argument(
      "the live weight would pass 2^31 - 1 = " + std::to_string(kMaxLiveWeight) +
      " (an arrival of weight " + std::to_string(weight) + " onto live weight " +
      std::to_string(live) + "); the allocator keeps int32 loads");
}
}  // namespace

CompactAllocator::CompactAllocator(const AllocatorOptions& options)
    : options_(options),
      loads_(static_cast<std::size_t>(options.bins), 0),
      balance_(options.bins) {
  RLSLB_ASSERT_MSG(options_.bins >= 1, "AllocatorOptions.bins must be >= 1");
  RLSLB_ASSERT_MSG(options_.bins <= INT32_MAX, "the allocator addresses bins with int32");
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

void CompactAllocator::moveBall(std::int32_t* bin, std::int32_t toBin, std::int32_t weight) {
  changeLoad(*bin, -weight);
  changeLoad(toBin, weight);
  *bin = toBin;
}

void CompactAllocator::placeBall(std::int64_t slot, std::int64_t weight, std::int32_t bin) {
  RLSLB_ASSERT_MSG(slot == liveBalls(), "an arrival takes the next live slot");
  RLSLB_ASSERT(weight >= 1 && weight <= workload::kMaxBallWeight);
  if (weight > kMaxLiveWeight - totalLoad()) liveWeightOverflow(totalLoad(), weight);
  // The first non-unit weight back-fills 1s; a weighted first arrival
  // leaves the array empty until its own push below.
  if (weight != 1 && !weighted()) slotWeight_.assign(slotBin_.size(), 1);
  if (weight > maxWeightSeen_) maxWeightSeen_ = weight;
  slotBin_.push_back(bin);
  if (weighted()) slotWeight_.push_back(static_cast<std::uint16_t>(weight));
  changeLoad(bin, static_cast<std::int32_t>(weight));
}

void CompactAllocator::removeBall(std::int64_t slot) {
  RLSLB_ASSERT_MSG(slot >= 0 && slot < liveBalls(), "a departure names a live slot");
  // Swap-remove: the last live ball fills the hole and takes over its slot.
  const auto s = static_cast<std::size_t>(slot);
  const std::int32_t bin = slotBin_[s];
  const std::int32_t weight = weightOf(s);
  slotBin_[s] = slotBin_.back();
  slotBin_.pop_back();
  if (weighted()) {
    slotWeight_[s] = slotWeight_.back();
    slotWeight_.pop_back();
  }
  changeLoad(bin, -weight);
}

namespace {
// applyBatch's prefetch distances. Records: a departure's slotBin_ entry
// and an arrival's decided bin's load are requested kIndexAhead records
// ahead; a departure's source load, kTargetAhead records ahead, by when its
// slotBin_ entry has usually arrived. Rings, in ring draws: the slotBin_
// entry and the destination load kRingSlotAhead draws ahead, the source
// load kRingSourceAhead ahead.
constexpr std::size_t kIndexAhead = 16;
constexpr std::size_t kTargetAhead = 8;
constexpr std::ptrdiff_t kRingSlotAhead = 16;
constexpr std::ptrdiff_t kRingSourceAhead = 8;
}  // namespace

void CompactAllocator::applyBatch(const workload::Event* events, const Decision* decisions,
                                  std::size_t count, const RingDraw* rings,
                                  std::int64_t ringCount) {
  // The hot loop. Counters accumulate in locals so they live in registers
  // across the batch instead of bouncing through memory per unit.
  std::int64_t arrivals = 0;
  std::int64_t departures = 0;
  std::int64_t migrations = 0;
  const RingDraw* ring = rings;
  const RingDraw* const ringsEnd = rings + ringCount;
  // One RLS activation per draw: the ball in the drawn live slot samples the
  // drawn bin under the strict rule on *live* loads.
  const auto runRings = [&](std::int64_t k) {
    for (; k > 0; --k, ++ring) {
      // Hints only, as for records below: every index is bounds-checked
      // before its address is formed (departures shrink slotBin_ inside the
      // window).
      const std::ptrdiff_t left = ringsEnd - ring;
      if (left > kRingSlotAhead) {
        const RingDraw& ahead = ring[kRingSlotAhead];
        const auto slot = static_cast<std::size_t>(ahead.slot);
        if (slot < slotBin_.size()) __builtin_prefetch(&slotBin_[slot]);
        const auto bin = static_cast<std::size_t>(ahead.bin);
        if (bin < loads_.size()) __builtin_prefetch(&loads_[bin]);
      }
      if (left > kRingSourceAhead) {
        const auto slot = static_cast<std::size_t>(ring[kRingSourceAhead].slot);
        if (slot < slotBin_.size()) {
          __builtin_prefetch(&loads_[static_cast<std::size_t>(slotBin_[slot])]);
        }
      }
      RLSLB_ASSERT(ring->slot >= 0 && ring->slot < liveBalls());
      RLSLB_ASSERT(ring->bin >= 0 && ring->bin < options_.bins);
      const auto slot = static_cast<std::size_t>(ring->slot);
      std::int32_t& bin = slotBin_[slot];
      const std::int32_t weight = weightOf(slot);
      if (accepts(loads_, bin, ring->bin, weight, options_.invertAcceptance)) {
        ++migrations;
        moveBall(&bin, ring->bin, weight);
      }
    }
  };
  for (std::size_t i = 0; i < count; ++i) {
    // Hints only: they read state but change none, so record i is handled
    // exactly as without them. Every index is bounds-checked before its
    // address is formed (a ball may arrive or depart inside the window).
    // The hints sit inline on purpose: GCC deems a helper that only
    // prefetches side-effect free and deletes the calls.
    if (i + kIndexAhead < count) {
      const workload::Event& ahead = events[i + kIndexAhead];
      if (ahead.kind == workload::EventKind::kDepart) {
        const auto slot = static_cast<std::size_t>(ahead.slot);
        if (slot < slotBin_.size()) __builtin_prefetch(&slotBin_[slot]);
      } else {
        // A negative bin wraps past size().
        const auto bin = static_cast<std::size_t>(decisions[i + kIndexAhead].bin);
        if (bin < loads_.size()) __builtin_prefetch(&loads_[bin]);
      }
    }
    if (i + kTargetAhead < count) {
      const workload::Event& ahead = events[i + kTargetAhead];
      const auto slot = static_cast<std::size_t>(ahead.slot);
      if (ahead.kind == workload::EventKind::kDepart && slot < slotBin_.size()) {
        __builtin_prefetch(&loads_[static_cast<std::size_t>(slotBin_[slot])]);
      }
    }
    const workload::Event& event = events[i];
    runRings(event.rings);
    switch (event.kind) {
      case workload::EventKind::kArrive: {
        const Decision& decision = decisions[i];
        RLSLB_ASSERT(decision.bin >= 0 && decision.bin < options_.bins);
        ++arrivals;
        placeBall(event.slot, event.weight, decision.bin);
        break;
      }
      case workload::EventKind::kDepart:
        ++departures;
        removeBall(event.slot);
        break;
    }
  }
  runRings(ringsEnd - ring);
  RLSLB_ASSERT(ring == ringsEnd);
  const std::int64_t activations = ringCount;
  counters_.events += static_cast<std::int64_t>(count) + activations;
  counters_.arrivals += arrivals;
  counters_.departures += departures;
  counters_.resamples += activations;
  counters_.migrations += migrations;
  counters_.rejectedMoves += activations - migrations;
}

std::int64_t CompactAllocator::residentBytes() const {
  auto vecBytes = [](const auto& v) {
    return static_cast<std::int64_t>(v.capacity() * sizeof(v[0]));
  };
  return vecBytes(loads_) + vecBytes(slotBin_) + vecBytes(slotWeight_) + balance_.heapBytes();
}

std::int64_t CompactAllocator::estimateBytes(std::int64_t bins, std::int64_t peakLive,
                                             bool weighted) {
  return bins * 4 + peakLive * (weighted ? 6 : 4);
}

bool CompactAllocator::validate() const {
  if (slotWeight_.size() != (weighted() ? slotBin_.size() : 0)) return false;
  std::vector<std::int64_t> counted(loads_.size(), 0);
  std::int64_t heaviest = 0;
  for (std::size_t slot = 0; slot < slotBin_.size(); ++slot) {
    const std::int32_t bin = slotBin_[slot];
    if (bin < 0 || bin >= static_cast<std::int32_t>(loads_.size())) return false;
    const std::int32_t weight = weightOf(slot);
    if (weight < 1) return false;
    if (weight > heaviest) heaviest = weight;
    counted[static_cast<std::size_t>(bin)] += weight;
  }
  if (heaviest > maxWeightSeen_) return false;
  std::int64_t total = 0;
  for (std::size_t bin = 0; bin < loads_.size(); ++bin) {
    if (counted[bin] != loads_[bin]) return false;
    total += loads_[bin];
  }
  // The balance tracker's level counts must be the histogram of loads_,
  // and its state what a scan of loads_ computes.
  std::vector<std::int64_t> levels;
  std::int64_t overloaded = 0;
  const auto bins = static_cast<std::int64_t>(loads_.size());
  const std::int64_t ceilAvg = (total + bins - 1) / bins;
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
  if (state.numBins != bins || state.numBalls != total) return false;
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
