// CompactAllocator: the serving subsystem's one allocator, incremental
// ball-to-bin state served unit by unit.
//
// The closed-system engines re-simulate a whole configuration to absorption;
// the serving layer instead maintains one long-lived allocation and serves a
// workload trace unit by unit:
//
//   Arrive    place the ball via a d-choice over a load snapshot (d = 1 is
//             the uniform arrival of Ganesh et al. [11]; d = 2 the
//             power-of-two-choices hybrid of E14c).
//   Depart    remove the ball from its bin.
//   Ring      one RLS activation, run before the record that carries it
//             (workload/event.hpp): every ball has its own clock (arXiv
//             1706.09997, Section 3), so the ball that rang is a uniform
//             *live ball*, which samples a uniform destination bin and
//             migrates iff the strict local-search rule accepts,
//             load(dst) + w < load(src). By the paper's Section 3 remark the
//             strict rule induces the same lumped balance dynamics as ">="
//             while never paying for a neutral migration (migrations are the
//             expensive operation in a serving system). With weighted
//             traffic the activation is ball-uniform, not load-weighted.
//
// State layout, sized for cluster-scale capacity planning (n in the tens of
// millions): records name balls by live slot (workload/event.hpp), so the
// state is per bin and per live slot, with no ball ids:
//
//   - int32 bin loads (the live weight stays below 2^31, checked per
//     arrival);
//   - slotBin_, the int32 bin of each live slot: append on arrival,
//     swap-remove on departure (the last live ball fills the hole), as the
//     trace's live array does;
//   - slotWeight_, the uint16 weight of each live slot, kept the same way
//     from the first non-unit arrival on; unit-weight traffic never
//     touches it.
//
// Net: 4 bytes per bin plus 4 bytes per ball of peak live count, and 2
// more per ball once the traffic is weighted.
//
// Balance observation is incremental: the three load-mutation points
// (placeBall, removeBall, moveBall) feed a sim::BalanceTracker — a dense
// count per load level, O(w) per weight-w change plus an O(spread) re-sum
// when ceil(m/n) moves — so balanceState()/minLoad()/maxLoad()/gap() are
// O(1) reads. A per-epoch O(n) scan costs more than the whole serving loop
// at n = 1e6; against one fused scan the tracker wins 2.6x end to end there
// and ties at n = 256 (docs/EXPERIMENTS.md, "Balance observation"). A
// weight-w move walks O(w) tracker levels, which is why a ball weight stops
// at workload::kMaxBallWeight.
//
// Prefetching apply. At cluster scale every unit's slotBin_ and loads_
// touch is a random read into a multi-megabyte array, but applyBatch holds
// the whole epoch's records, decisions and ring draws. So before handling
// record i it requests, for record i + 16, a departure's slotBin_ entry or
// an arrival's decided bin's load, and for record i + 8, by when that
// entry is usually cached, the departure's source load. Rings run in a
// pipeline of their own, in ring draws: the slot's slotBin_ entry and the
// destination load 16 rings ahead, and the source load 8 ahead. A prefetch
// changes no state and every index is bounds-checked before the address is
// formed, so the result is byte-identical to the plain loop whatever the
// window holds (a ball arriving or departing inside it only makes a hint
// stale). Weights are not prefetched: weighted traffic runs at scenario n.
//
// Units mutate the state sequentially, in trace order, through
// applyBatch(); serve/event_loop.hpp drives the epochs. The frozen oracle
// tests/serve_reference.hpp pins the semantics (tests/
// test_serve_differential.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rng/xoshiro256pp.hpp"
#include "sim/balance_tracker.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "workload/event.hpp"

namespace rlslb::serve {

struct AllocatorOptions {
  std::int64_t bins = 256;  // must fit int32
  int arrivalChoices = 2;   // d: snapshot-least-loaded of d sampled bins, d <= 64
  /// TEST HOOK: invert the local-search acceptance rule, accepting
  /// exactly the activations the strict rule rejects. Exists
  /// so the conformance layer can be exercised against a deliberately
  /// broken dynamic (tests/test_obs_monitor.cpp); never set by shipped
  /// scenarios.
  bool invertAcceptance = false;
};

/// The precomputed random choice for one arrival: the chosen bin. Depart
/// slots of a decision array are unused.
struct Decision {
  std::int32_t bin = -1;
};

/// One clock ring's draws: a slot of the live-ball array (a uniform live
/// ball) and a uniform destination bin.
struct RingDraw {
  std::int32_t slot = 0;
  std::int32_t bin = 0;
};

struct ServeCounters {
  std::int64_t events = 0;         // units served: arrivals + departures + resamples
  std::int64_t arrivals = 0;
  std::int64_t departures = 0;
  std::int64_t resamples = 0;      // RLS activations run (clock rings)
  std::int64_t migrations = 0;     // accepted activations
  std::int64_t rejectedMoves = 0;  // activations whose rule check failed
};

/// The d-choice ceiling. decideBatch() keeps every arrival's d candidates
/// of an epoch in one buffer; the serve scenarios reject larger d= values.
inline constexpr int kMaxArrivalChoices = 64;

/// The decision phase of one epoch. The epoch is `count` records followed
/// by the rings no record of the epoch carries (the head of a record whose
/// event falls in the next epoch): `ringCount` rings in all. `live` is the
/// live-ball count at the epoch start; `eng` is the epoch's one decision
/// stream.
///
/// Pass 1 walks the records in trace order and tracks the live count m. For
/// each record it draws its rings (a live slot in [0, m), then a uniform
/// bin) into `rings`, which holds ringCount draws; then, for an arrival, the
/// least loaded of `arrivalChoices` uniform bins (ties keep the earlier
/// draw). d = 1 writes its draw straight into `decisions`; d > 1 appends a
/// record (the event index, then its d candidates) to `candidates`, which
/// only grows, so a reused one allocates nothing, and prefetches the
/// candidates' load slots. The epoch's remaining rings are drawn last. Pass
/// 2 compares the parked candidates' loads, by then in flight or in cache.
/// No load changes in between, so every arrival reads the epoch-start
/// snapshot. Departures draw nothing, and their decision slots are left
/// untouched.
void decideBatch(const workload::Event* events, std::size_t count, std::int64_t ringCount,
                 const std::vector<std::int32_t>& loads, int arrivalChoices, std::int64_t live,
                 rng::Xoshiro256pp& eng, std::vector<std::int32_t>* candidates,
                 RingDraw* rings, Decision* decisions);

/// The strict local-search rule on live loads: move a weight-`weight` ball
/// from `src` to `dst` iff dst != src and load(dst) + weight < load(src).
/// `invert` is the invertAcceptance test hook; it never accepts dst == src.
/// The ball is live in `src`, so load(dst) + weight stays within the live
/// weight and cannot overflow.
[[nodiscard]] inline bool accepts(const std::vector<std::int32_t>& loads, std::int32_t src,
                                  std::int32_t dst, std::int32_t weight, bool invert) {
  return dst != src && ((loads[static_cast<std::size_t>(dst)] + weight <
                         loads[static_cast<std::size_t>(src)]) != invert);
}

class CompactAllocator {
 public:
  explicit CompactAllocator(const AllocatorOptions& options);

  /// serve::decideBatch() against the live load array and live count. The
  /// event loop decides a whole epoch before applying any of it, so every
  /// arrival of an epoch reads the epoch-start loads.
  void decideBatch(const workload::Event* events, std::size_t count, std::int64_t ringCount,
                   rng::Xoshiro256pp& eng, std::vector<std::int32_t>* candidates,
                   RingDraw* rings, Decision* decisions) const {
    serve::decideBatch(events, count, ringCount, loads_, options_.arrivalChoices,
                       liveBalls(), eng, candidates, rings, decisions);
  }

  /// Serve an epoch in trace order: before each record, run its rings (the
  /// next events[i].rings draws of `rings`: the ball in the drawn slot, the
  /// strict rule on live loads, then the move), then the record's own event
  /// (an arrival takes slot liveBalls(), a departure names a slot below
  /// it; both asserted); after
  /// the last record, the rest of the `ringCount` draws. Counter updates
  /// accumulate in registers across the batch. Depart entries never read
  /// their `decisions` slot, so those slots may hold stale bytes. An
  /// arrival whose weight would lift the live weight past 2^31 - 1 throws
  /// std::invalid_argument.
  void applyBatch(const workload::Event* events, const Decision* decisions, std::size_t count,
                  const RingDraw* rings, std::int64_t ringCount);

  /// Apply one ring-free record against live state.
  void apply(const workload::Event& event, const Decision& decision) {
    RLSLB_ASSERT(event.rings == 0);
    applyBatch(&event, &decision, 1, nullptr, 0);
  }

  [[nodiscard]] std::int64_t numBins() const {
    return static_cast<std::int64_t>(loads_.size());
  }
  [[nodiscard]] const std::vector<std::int32_t>& loads() const { return loads_; }
  [[nodiscard]] std::int64_t liveBalls() const {
    return static_cast<std::int64_t>(slotBin_.size());
  }
  /// Total live weight.
  [[nodiscard]] std::int64_t totalLoad() const { return balance_.state().numBalls; }
  /// Largest single ball weight ever seen: the closed-system balance floor
  /// for weighted traffic (a gap below the heaviest ball is unreachable).
  [[nodiscard]] std::int64_t maxWeightSeen() const { return maxWeightSeen_; }
  [[nodiscard]] const ServeCounters& counters() const { return counters_; }
  /// Balance observation is O(1): a read of the per-level tracker the
  /// three load-mutation points (place/remove/move) keep current.
  [[nodiscard]] std::int64_t minLoad() const { return balance_.state().minLoad; }
  [[nodiscard]] std::int64_t maxLoad() const { return balance_.state().maxLoad; }
  /// max - min bin load: the serving analogue of the discrepancy.
  [[nodiscard]] std::int64_t gap() const { return maxLoad() - minLoad(); }
  /// The live state as the closed-system balance view (sim::BalanceState,
  /// the same vocabulary process::Process::state() speaks): numBalls is the
  /// total live *weight*, so discrepancy()/xBalanced() are in weight units.
  [[nodiscard]] sim::BalanceState balanceState() const { return balance_.state(); }

  /// Heap bytes of every structure, O(1) from capacities — the number the
  /// frontier records and the serve.mem.* gauges report as state_bytes: a
  /// capacity-planning observation, never part of the deterministic
  /// "table" records (vector growth policy is stdlib-dependent).
  [[nodiscard]] std::int64_t residentBytes() const;

  /// Predicted residentBytes for a run shape, used by the serve_capacity
  /// memory-budget gate BEFORE allocating anything: 4 B per bin and 4 B per
  /// ball of peak live count, plus 2 B per ball when weighted.
  [[nodiscard]] static std::int64_t estimateBytes(std::int64_t bins, std::int64_t peakLive,
                                                  bool weighted = false);

  /// Internal-consistency scan (O(n + live); tests only).
  [[nodiscard]] bool validate() const;

 private:
  /// Whether slotWeight_ is kept (not its emptiness: see placeBall).
  [[nodiscard]] bool weighted() const { return maxWeightSeen_ > 1; }
  [[nodiscard]] std::int32_t weightOf(std::size_t slot) const {
    return weighted() ? slotWeight_[slot] : 1;
  }
  void changeLoad(std::int32_t bin, std::int32_t delta);
  void placeBall(std::int64_t slot, std::int64_t weight, std::int32_t bin);
  void removeBall(std::int64_t slot);
  /// Migrate a weight-`weight` ball whose slotBin_ entry is `bin` to
  /// `toBin`.
  void moveBall(std::int32_t* bin, std::int32_t toBin, std::int32_t weight);

  AllocatorOptions options_;
  std::vector<std::int32_t> loads_;         // live per-bin weight
  sim::BalanceTracker balance_;             // per-level counts over loads_
  std::vector<std::int32_t> slotBin_;       // bin per live slot, the ring draw's domain
  std::vector<std::uint16_t> slotWeight_;   // weight per live slot, once weighted()
  ServeCounters counters_;
  std::int64_t maxWeightSeen_ = 0;
};

}  // namespace rlslb::serve
