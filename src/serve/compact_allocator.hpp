// CompactAllocator: the serving allocator's memory-frugal layout for
// cluster-scale capacity planning (n in the tens of millions).
//
// The dense OnlineAllocator (serve/online_allocator.hpp) keeps a FlatMap64
// record per live ball (16-byte value, 24-byte entries at <= 3/4 load) —
// fine at scenario n, costly at n = 1e7..1e8. This layout exploits two
// properties the open-system dynamic guarantees when ball weights are all
// 1:
//
//   - Ball ids are assigned sequentially by the trace generators and never
//     reused, so the ball index is *implicit*: two flat int32 arrays
//     (ballBin_, ballSlot_) indexed by ball id replace the hash map.
//   - Unit weights make a bin's ball count equal its load, so no per-ball
//     weight is stored anywhere.
//
// Net: 4 bytes per bin, 8 bytes per ball ever arrived (the implicit index
// grows with the largest id; ROADMAP tracks recycling ids at ingest) and 4
// bytes per live ball (the live-ball array the repair draw indexes).
//
// Balance observation is incremental: the three load-mutation points
// (placeBall, removeBall, moveBall) feed a sim::BalanceTracker — a dense
// count per load level, O(1) per unit change plus an O(spread) re-sum when
// ceil(m/n) moves — so balanceState()/minLoad()/maxLoad()/gap() are O(1)
// reads. A per-epoch O(n) scan costs more than the whole serving loop at
// n = 1e6; against one fused scan the tracker wins 2.6x end to end there
// and ties at n = 256 (docs/EXPERIMENTS.md, "Balance observation").
//
// Prefetching apply. At cluster scale every event's ballBin_, ballSlot_,
// loads_ and live_ touch is a random read into a multi-megabyte array, but
// applyBatch holds the whole epoch's events and decisions. So before
// handling event i it requests, for event i + 16, the ball's index entries
// (ballBin_, plus ballSlot_ for a depart) and the decided bin's load, and
// for event i + 8, by when those index entries are usually cached, the
// lines they point at: the source bin's load and, for a depart, the live
// slot. A prefetch changes no state and every index is bounds-checked
// before the address is formed, so the result is byte-identical to the
// plain loop whatever the window holds (a ball arriving or departing
// inside it only makes a hint stale). OnlineAllocator prefetches nothing:
// at scenario n its state fits in cache.
//
// Equivalence contract (pinned by tests/test_capacity.cpp): driven by
// serve::EpochLoop over the same unit-weight trace and seed, this layout
// produces byte-identical observable output — loads, gap trajectory, every
// ServeCounters field, the repair stream — to OnlineAllocator. Both call
// the same serve::decideBatch() and serve::accepts(), keep the live-ball
// array in the same order (append on arrival, swap-remove on departure)
// and draw repair as (uniform live ball, uniform destination).
#pragma once

#include <cstdint>
#include <vector>

#include "rng/xoshiro256pp.hpp"
#include "serve/online_allocator.hpp"
#include "sim/balance_tracker.hpp"
#include "workload/event.hpp"

namespace rlslb::serve {

class CompactAllocator {
 public:
  /// Same options as the dense allocator; bins must fit int32.
  explicit CompactAllocator(const AllocatorOptions& options);

  /// serve::decideBatch() against the live int32 load array; draw-for-draw
  /// identical to OnlineAllocator::decideBatch on the same loads.
  void decideBatch(const workload::Event* events, std::size_t count,
                   std::uint64_t decisionSeed, std::int64_t baseOrdinal,
                   std::vector<std::int32_t>* candidates, Decision* decisions) const {
    serve::decideBatch(events, count, loads_, options_.arrivalChoices, decisionSeed,
                       baseOrdinal, candidates, decisions);
  }

  /// Fused apply of a whole batch in trace order; per-event semantics and
  /// counter accounting identical to OnlineAllocator::applyBatch. Every
  /// arrive must carry weight 1 (asserted) — the compact layout has
  /// nowhere to put a weight.
  void applyBatch(const workload::Event* events, const Decision* decisions,
                  std::size_t count);

  /// One RLS repair activation: the dense draw pair (uniform live ball,
  /// uniform destination bin) under the strict rule. Returns whether a
  /// ball moved.
  bool repairMove(rng::Xoshiro256pp& eng);

  [[nodiscard]] std::int64_t numBins() const {
    return static_cast<std::int64_t>(loads_.size());
  }
  [[nodiscard]] std::int64_t liveBalls() const {
    return static_cast<std::int64_t>(live_.size());
  }
  [[nodiscard]] std::int64_t totalLoad() const { return liveBalls(); }  // unit weights
  [[nodiscard]] std::int64_t maxWeightSeen() const { return counters_.arrivals > 0 ? 1 : 0; }
  [[nodiscard]] const ServeCounters& counters() const { return counters_; }
  [[nodiscard]] const std::vector<std::int32_t>& loads32() const { return loads_; }
  /// Widened copy for differential comparison against the dense allocator.
  [[nodiscard]] std::vector<std::int64_t> loadsCopy() const;
  /// Balance observation is O(1): a read of the per-level tracker the
  /// three load-mutation points (place/remove/move) keep current.
  [[nodiscard]] std::int64_t minLoad() const { return balance_.state().minLoad; }
  [[nodiscard]] std::int64_t maxLoad() const { return balance_.state().maxLoad; }
  [[nodiscard]] std::int64_t gap() const { return maxLoad() - minLoad(); }
  /// Same closed-system view the dense balanceState() exposes.
  [[nodiscard]] sim::BalanceState balanceState() const { return balance_.state(); }

  /// Heap bytes of every structure, O(1) from capacities — the number the
  /// frontier records report as state_bytes.
  [[nodiscard]] std::int64_t residentBytes() const;

  /// Predicted residentBytes for a run shape, used by the serve_capacity
  /// memory-budget gate BEFORE allocating anything: 4 B per bin, 8 B per
  /// ball ever arrived, 4 B per live ball.
  [[nodiscard]] static std::int64_t estimateBytes(std::int64_t bins,
                                                  std::int64_t ballsEver,
                                                  std::int64_t liveBalls);

  /// Internal-consistency scan (O(n + balls ever); tests only).
  [[nodiscard]] bool validate() const;

 private:
  void changeLoad(std::int32_t bin, std::int32_t delta);
  void placeBall(std::int64_t ball, std::int32_t bin);
  void removeBall(std::int64_t ball);
  /// Migrate the ball whose ballBin_ entry is `bin` to `toBin`.
  void moveBall(std::int32_t* bin, std::int32_t toBin);

  AllocatorOptions options_;
  std::vector<std::int32_t> loads_;  // live per-bin ball counts
  sim::BalanceTracker balance_;      // per-level counts over loads_
  // The implicit ball index: grows with the largest ball id ever seen
  // (sequential ids make this an amortized append).
  std::vector<std::int32_t> ballBin_;   // -1 = not live
  std::vector<std::int32_t> ballSlot_;  // index in live_
  std::vector<std::int32_t> live_;      // live ball ids, the repair draw's domain
  ServeCounters counters_;
};

}  // namespace rlslb::serve
