// OnlineAllocator: incremental ball-to-bin state for the serving subsystem.
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
// State layout: the flat live load array, one FlatMap64 of ball records
// (weight, bin, live slot) and the live-ball array a ring's slot indexes.
// An arrival appends to the live array; a departure swap-removes (the last
// live ball fills the hole and its slot is patched); a migration touches
// only the record's bin and two loads. Units mutate the state sequentially,
// in trace order, through apply()/applyBatch(); serve/event_loop.hpp drives
// the epochs. min/max/overload are a per-epoch observation, answered by one
// fused pass over the load array. Nothing is prefetched: at scenario n the
// state fits in cache.
//
// This is the allocator for weighted traffic and arbitrary ball ids;
// serve/compact_allocator.hpp is its unit-weight, sequential-id twin, and
// both share serve::decideBatch() and serve::accepts() draw for draw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ds/flat_map.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/engine.hpp"
#include "workload/event.hpp"

namespace rlslb::serve {

struct AllocatorOptions {
  std::int64_t bins = 256;
  int arrivalChoices = 2;  // d: snapshot-least-loaded of d sampled bins, d <= 64
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

/// The decision phase of one epoch, shared by both allocators. The epoch is
/// `count` records followed by the rings no record of the epoch carries
/// (the head of a record whose event falls in the next epoch): `ringCount`
/// rings in all. `live` is the live-ball count at the epoch start; `eng` is
/// the epoch's one decision stream.
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
/// untouched. `Load` is the allocator's load element type.
template <typename Load>
void decideBatch(const workload::Event* events, std::size_t count, std::int64_t ringCount,
                 const std::vector<Load>& loads, int arrivalChoices, std::int64_t live,
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

/// The strict local-search rule on live loads, shared by both allocators:
/// move a weight-`weight` ball from `src` to `dst` iff dst != src and
/// load(dst) + weight < load(src). `invert` is the invertAcceptance test
/// hook; it never accepts dst == src.
template <typename Load>
[[nodiscard]] bool accepts(const std::vector<Load>& loads, std::int32_t src, std::int32_t dst,
                           std::int64_t weight, bool invert) {
  return dst != src && ((loads[static_cast<std::size_t>(dst)] + weight <
                         loads[static_cast<std::size_t>(src)]) != invert);
}

class OnlineAllocator {
 public:
  explicit OnlineAllocator(const AllocatorOptions& options);

  /// serve::decideBatch() against the live load array and live count. The
  /// event loop decides a whole epoch before applying any of it, so every
  /// arrival of an epoch reads the epoch-start loads.
  void decideBatch(const workload::Event* events, std::size_t count, std::int64_t ringCount,
                   rng::Xoshiro256pp& eng, std::vector<std::int32_t>* candidates,
                   RingDraw* rings, Decision* decisions) const {
    serve::decideBatch(events, count, ringCount, loads_, options_.arrivalChoices,
                       liveBalls(), eng, candidates, rings, decisions);
  }

  /// Apply one ring-free record against live state.
  void apply(const workload::Event& event, const Decision& decision);

  /// Serve an epoch in trace order: before each record, run its rings (the
  /// next events[i].rings draws of `rings`: ball = live_[slot], the strict
  /// rule on live loads, then the move), then the record's own event; after
  /// the last record, the rest of the `ringCount` draws. Counter updates
  /// accumulate in registers across the batch. Depart entries never read
  /// their `decisions` slot, so those slots may hold stale bytes.
  void applyBatch(const workload::Event* events, const Decision* decisions, std::size_t count,
                  const RingDraw* rings, std::int64_t ringCount);

  [[nodiscard]] std::int64_t numBins() const {
    return static_cast<std::int64_t>(loads_.size());
  }
  [[nodiscard]] const std::vector<std::int64_t>& loads() const { return loads_; }
  [[nodiscard]] std::int64_t totalLoad() const { return totalLoad_; }
  [[nodiscard]] std::int64_t liveBalls() const {
    return static_cast<std::int64_t>(live_.size());
  }
  /// Read off balanceState(): one O(n) scan of the live load array.
  [[nodiscard]] std::int64_t minLoad() const;
  [[nodiscard]] std::int64_t maxLoad() const;
  /// max - min bin load: the serving analogue of the discrepancy.
  [[nodiscard]] std::int64_t gap() const {
    const sim::BalanceState state = balanceState();
    return state.maxLoad - state.minLoad;
  }
  /// The live state as the closed-system balance view (sim::BalanceState,
  /// the same vocabulary process::Process::state() speaks): numBalls is the
  /// total carried *weight*, so discrepancy()/xBalanced() are in weight
  /// units. min, max and the overloaded-ball excess come from one fused
  /// O(n) pass over the live load array.
  [[nodiscard]] sim::BalanceState balanceState() const;
  /// Largest single ball weight ever seen: the closed-system balance floor
  /// for weighted traffic (a gap below the heaviest ball is unreachable).
  [[nodiscard]] std::int64_t maxWeightSeen() const { return maxWeightSeen_; }
  [[nodiscard]] const ServeCounters& counters() const { return counters_; }

  /// Heap bytes currently held by the allocator's state structures
  /// (capacity-based: load array, live-ball array, ball map). O(1);
  /// sampled by the event loop at epoch boundaries for the serve.mem.*
  /// gauges — a capacity-planning observation, never part of the
  /// deterministic "table" records (vector growth policy is
  /// stdlib-dependent).
  [[nodiscard]] std::int64_t residentBytes() const;

  /// Internal-consistency scan across the ball map, the live-ball array
  /// and the load array (O(n + live); tests only).
  [[nodiscard]] bool validate() const;

 private:
  struct BallRec {
    std::int64_t weight = 0;
    std::int32_t bin = 0;
    std::int32_t slot = 0;  // index in live_
  };

  void changeLoad(std::int32_t bin, std::int64_t delta);
  void placeBall(std::int64_t ball, std::int64_t weight, std::int32_t bin);
  void moveBall(BallRec* rec, std::int32_t toBin);

  AllocatorOptions options_;
  std::vector<std::int64_t> loads_;  // live bin loads
  ds::FlatMap64<BallRec> balls_;
  std::vector<std::int64_t> live_;   // live ball ids, the ring draw's domain
  ServeCounters counters_;
  std::int64_t totalLoad_ = 0;
  std::int64_t maxWeightSeen_ = 0;
};

}  // namespace rlslb::serve
