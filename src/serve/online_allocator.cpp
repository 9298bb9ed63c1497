#include "serve/online_allocator.hpp"

#include <algorithm>

#include "rng/distributions.hpp"
#include "util/assert.hpp"

namespace rlslb::serve {

OnlineAllocator::OnlineAllocator(const AllocatorOptions& options)
    : options_(options), loads_(static_cast<std::size_t>(options.bins), 0) {
  RLSLB_ASSERT_MSG(options_.bins >= 1, "AllocatorOptions.bins must be >= 1");
  RLSLB_ASSERT_MSG(options_.arrivalChoices >= 1 &&
                       options_.arrivalChoices <= kMaxArrivalChoices,
                   "AllocatorOptions.arrivalChoices must be in [1, 64]");
}

void OnlineAllocator::apply(const workload::Event& event, const Decision& decision) {
  RLSLB_ASSERT(event.rings == 0);
  applyBatch(&event, &decision, 1, nullptr, 0);
}

void OnlineAllocator::applyBatch(const workload::Event* events, const Decision* decisions,
                                 std::size_t count, const RingDraw* rings,
                                 std::int64_t ringCount) {
  // The hot loop. Counters accumulate in locals so they live in registers
  // across the batch instead of bouncing through memory per unit. Depart
  // slots of `decisions` are never read.
  std::int64_t arrivals = 0;
  std::int64_t departures = 0;
  std::int64_t migrations = 0;
  const RingDraw* ring = rings;
  // One RLS activation per draw: the ball in the drawn live slot samples the
  // drawn bin under the strict rule on *live* loads.
  const auto runRings = [&](std::int64_t k) {
    for (; k > 0; --k, ++ring) {
      RLSLB_ASSERT(ring->slot >= 0 && static_cast<std::size_t>(ring->slot) < live_.size());
      RLSLB_ASSERT(ring->bin >= 0 && ring->bin < options_.bins);
      BallRec* rec = balls_.find(live_[static_cast<std::size_t>(ring->slot)]);
      RLSLB_ASSERT(rec != nullptr);
      if (accepts(loads_, rec->bin, ring->bin, rec->weight, options_.invertAcceptance)) {
        ++migrations;
        moveBall(rec, ring->bin);
      }
    }
  };
  for (std::size_t i = 0; i < count; ++i) {
    const workload::Event& event = events[i];
    runRings(event.rings);
    switch (event.kind) {
      case workload::EventKind::kArrive: {
        const Decision& decision = decisions[i];
        RLSLB_ASSERT(decision.bin >= 0 && decision.bin < options_.bins);
        ++arrivals;
        placeBall(event.ball, event.weight, decision.bin);
        break;
      }
      case workload::EventKind::kDepart: {
        ++departures;
        BallRec* it = balls_.find(event.ball);
        RLSLB_ASSERT_MSG(it != nullptr, "depart event for a ball that is not live");
        const BallRec rec = *it;
        balls_.erase(it);
        // Swap-remove from the live array: the last live ball fills the
        // hole and takes over its slot.
        const std::int64_t moved = live_.back();
        live_[static_cast<std::size_t>(rec.slot)] = moved;
        live_.pop_back();
        if (moved != event.ball) balls_.at(moved).slot = rec.slot;
        changeLoad(rec.bin, -rec.weight);
        break;
      }
    }
  }
  runRings(ringCount - (ring - rings));
  RLSLB_ASSERT(ring == rings + ringCount);
  const std::int64_t activations = ringCount;
  counters_.events += static_cast<std::int64_t>(count) + activations;
  counters_.arrivals += arrivals;
  counters_.departures += departures;
  counters_.resamples += activations;
  counters_.migrations += migrations;
  counters_.rejectedMoves += activations - migrations;
}

void OnlineAllocator::changeLoad(std::int32_t bin, std::int64_t delta) {
  const auto b = static_cast<std::size_t>(bin);
  const std::int64_t after = loads_[b] + delta;
  RLSLB_ASSERT(after >= 0);
  loads_[b] = after;
  totalLoad_ += delta;
}

void OnlineAllocator::placeBall(std::int64_t ball, std::int64_t weight, std::int32_t bin) {
  RLSLB_ASSERT(weight >= 1);
  if (weight > maxWeightSeen_) maxWeightSeen_ = weight;
  const auto [it, inserted] =
      balls_.emplace(ball, BallRec{weight, bin, static_cast<std::int32_t>(live_.size())});
  RLSLB_ASSERT_MSG(inserted, "arrive event for a ball id that is already live");
  (void)it;
  live_.push_back(ball);
  changeLoad(bin, weight);
}

void OnlineAllocator::moveBall(BallRec* rec, std::int32_t toBin) {
  changeLoad(rec->bin, -rec->weight);
  changeLoad(toBin, rec->weight);
  rec->bin = toBin;
}

std::int64_t OnlineAllocator::residentBytes() const {
  auto vecBytes = [](const auto& v) {
    return static_cast<std::int64_t>(v.capacity() * sizeof(v[0]));
  };
  return vecBytes(loads_) + vecBytes(live_) + static_cast<std::int64_t>(balls_.heapBytes());
}

std::int64_t OnlineAllocator::minLoad() const { return balanceState().minLoad; }

std::int64_t OnlineAllocator::maxLoad() const { return balanceState().maxLoad; }

sim::BalanceState OnlineAllocator::balanceState() const {
  // One fused O(n) pass replaces a maintained level histogram: the state
  // is read once per epoch (outside the timed hot path), so paying for a
  // scan here is far cheaper than paying per load change there.
  sim::BalanceState state;
  state.numBins = numBins();
  state.numBalls = totalLoad_;  // total carried weight
  const std::int64_t ceilAvg = (state.numBalls + state.numBins - 1) / state.numBins;
  std::int64_t lo = loads_[0];
  std::int64_t hi = loads_[0];
  std::int64_t overloaded = 0;
  for (const std::int64_t v : loads_) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    overloaded += std::max<std::int64_t>(v - ceilAvg, 0);
  }
  state.minLoad = lo;
  state.maxLoad = hi;
  state.overloadedBalls = overloaded;
  return state;
}

bool OnlineAllocator::validate() const {
  std::vector<std::int64_t> counted(loads_.size(), 0);
  for (std::size_t slot = 0; slot < live_.size(); ++slot) {
    const BallRec* it = balls_.find(live_[slot]);
    if (it == nullptr) return false;
    if (it->slot != static_cast<std::int32_t>(slot)) return false;
    if (it->bin < 0 || it->bin >= options_.bins) return false;
    counted[static_cast<std::size_t>(it->bin)] += it->weight;
  }
  if (counted != loads_) return false;
  std::int64_t total = 0;
  for (const std::int64_t v : loads_) total += v;
  if (total != totalLoad_) return false;
  return balls_.size() == live_.size();
}

}  // namespace rlslb::serve
