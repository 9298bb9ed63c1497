// OnlineAllocator: incremental ball-to-bin state for the serving subsystem.
//
// The closed-system engines re-simulate a whole configuration to absorption;
// the serving layer instead maintains one long-lived allocation and applies
// the paper's RLS rule *per event* of a workload trace:
//
//   Arrive    place the ball via a d-choice over a load snapshot (d = 1 is
//             the uniform arrival of Ganesh et al. [11]; d = 2 the
//             power-of-two-choices hybrid of E14c).
//   Depart    remove the ball from its bin.
//   Resample  the ball's RLS clock: a uniformly sampled candidate bin, and
//             migration iff the local-search rule accepts — the strict
//             variant load(dst) + w < load(src), which by the paper's
//             Section 3 remark induces the same lumped balance dynamics as
//             ">=" while never paying for a neutral migration (migrations
//             are the expensive operation in a serving system).
//
// Repair (the event loop's per-epoch budget of background RLS clocks) is
// one paper RLS activation: every ball carries its own rate-1 clock
// (arXiv 1706.09997, Section 3), so the next clock to ring belongs to a
// uniform *live ball*, which then samples a uniform destination bin under
// the same strict rule. With weighted traffic this is ball-uniform, not
// load-weighted.
//
// State layout: the flat live load array, one FlatMap64 of ball records
// (weight, bin, live slot) and the live-ball array the repair draw indexes.
// An arrival appends to the live array; a departure swap-removes (the last
// live ball fills the hole and its slot is patched); a migration touches
// only the record's bin and two loads. Events mutate the state
// sequentially, in trace order, through apply()/applyBatch();
// serve/event_loop.hpp drives the epochs. min/max/overload are a per-epoch
// observation, answered by one fused pass over the load array.
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
  /// exactly the resample/repair moves the strict rule rejects. Exists
  /// so the conformance layer can be exercised against a deliberately
  /// broken dynamic (tests/test_obs_monitor.cpp); never set by shipped
  /// scenarios.
  bool invertAcceptance = false;
};

/// The precomputed random choice for one event. Arrive: the chosen bin.
/// Resample: the sampled candidate bin. Depart: unused.
struct Decision {
  std::int32_t bin = -1;
};

struct ServeCounters {
  std::int64_t events = 0;
  std::int64_t arrivals = 0;
  std::int64_t departures = 0;
  std::int64_t resamples = 0;
  std::int64_t migrations = 0;       // accepted resample moves
  std::int64_t rejectedMoves = 0;    // resamples whose rule check failed
  std::int64_t repairAttempts = 0;   // per-epoch repair activations
  std::int64_t repairMigrations = 0; // accepted repair moves
};

/// The d-choice ceiling. decideBatch() keeps every arrival's d candidates
/// of an epoch in one buffer; the serve scenarios reject larger d= values.
inline constexpr int kMaxArrivalChoices = 64;

/// The decision phase of one epoch, shared by both allocators: decisions[i]
/// is a pure function of events[i], the load snapshot and the event's rng
/// stream streamSeed(decisionSeed, baseOrdinal + i). Arrive: the least
/// loaded of `arrivalChoices` uniform bins (ties keep the earlier draw).
/// Resample: one uniform candidate bin. Depart: no draw, and its slot of
/// `decisions` is left untouched.
///
/// Two passes. Pass 1 reseeds one engine per event and draws; for d > 1 it
/// appends one record per arrival to `candidates` (its event index, then
/// its d candidates; the buffer only grows, so a reused one allocates
/// nothing) and prefetches the candidates' load slots. Pass 2 walks the
/// records and compares loads that are by then in flight or in cache. No
/// load changes in between, so the result is the per-event decide's, draw
/// for draw. `Load` is the allocator's load element type.
template <typename Load>
void decideBatch(const workload::Event* events, std::size_t count,
                 const std::vector<Load>& loads, int arrivalChoices,
                 std::uint64_t decisionSeed, std::int64_t baseOrdinal,
                 std::vector<std::int32_t>* candidates, Decision* decisions) {
  RLSLB_ASSERT(count <= INT32_MAX);  // records hold event indices as int32
  const auto n = static_cast<std::uint64_t>(loads.size());
  const auto d = static_cast<std::size_t>(arrivalChoices);
  const std::size_t stride = d + 1;
  if (candidates->size() < count * stride) candidates->resize(count * stride);

  rng::Xoshiro256pp eng;  // hoisted; reseeded per event
  std::int32_t* end = candidates->data();
  for (std::size_t i = 0; i < count; ++i) {
    const workload::EventKind kind = events[i].kind;
    if (kind == workload::EventKind::kDepart) continue;  // no randomness
    eng.reseed(rng::streamSeed(
        decisionSeed, static_cast<std::uint64_t>(baseOrdinal + static_cast<std::int64_t>(i))));
    if (kind == workload::EventKind::kResample || d == 1) {
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

  /// serve::decideBatch() against the live load array. The event loop
  /// decides a whole batch before applying any of it, so every decision of
  /// an epoch reads the epoch-start loads.
  void decideBatch(const workload::Event* events, std::size_t count,
                   std::uint64_t decisionSeed, std::int64_t baseOrdinal,
                   std::vector<std::int32_t>* candidates, Decision* decisions) const {
    serve::decideBatch(events, count, loads_, options_.arrivalChoices, decisionSeed,
                       baseOrdinal, candidates, decisions);
  }

  /// Apply one event against live state, re-validating the decision.
  void apply(const workload::Event& event, const Decision& decision);

  /// apply() for a whole batch in trace order (apply() forwards here with
  /// count 1), with the counter updates accumulated in registers across
  /// the batch. Depart entries never read their `decisions` slot, so those
  /// slots may hold stale bytes.
  void applyBatch(const workload::Event* events, const Decision* decisions,
                  std::size_t count);

  /// One RLS repair activation on live state: a uniform live ball, a
  /// uniform destination bin, and the strict migration rule (two draws).
  /// Returns whether a ball moved; with no live ball it draws nothing,
  /// counts no attempt and returns false.
  bool repairMove(rng::Xoshiro256pp& eng);

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
  std::vector<std::int64_t> live_;   // live ball ids, the repair draw's domain
  ServeCounters counters_;
  std::int64_t totalLoad_ = 0;
  std::int64_t maxWeightSeen_ = 0;
};

}  // namespace rlslb::serve
