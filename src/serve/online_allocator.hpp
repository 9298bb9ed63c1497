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
// State layout: the flat live load array, one Fenwick mass tree over the
// bins (the load-weighted repair pick), one per-bin ball index (slot
// vectors, for the uniform in-bin pick) and one FlatMap64 of ball records
// (bin, weight, slot). Events mutate it sequentially, in trace order,
// through apply()/applyBatch(); serve/event_loop.hpp drives the epochs.
//
// Deferred accounting (the serving hot-path batching): every load change
// updates only the flat `loads_` array (plus totalLoad_ and the eager ball
// slots) and marks the bin dirty. The O(log n) Fenwick update is *deferred*
// to flush(), which reconciles each dirty bin ONCE per epoch from its net
// delta (loads_[bin] - flushedLoad_[bin]) and skips net-zero bins entirely.
// Rejected resamples — the steady-state common case — never touch a
// structure at all. Fenwick node values depend only on final per-bin
// loads, so the flushed state is byte-identical to eager per-event updates.
// There is no maintained level histogram: min/max/overload queries are a
// per-epoch observation, so one fused pass over the (always-current) flat
// load array answers them on demand instead of taxing every load change in
// the hot loop. Consumers of the Fenwick re-synchronize first: the event
// loop flushes after apply, repairMove() flushes at entry (settling only
// the previous repair's move), and the accessors (minLoad/maxLoad/
// balanceState/validate) flush lazily.
#pragma once

#include <cstdint>
#include <vector>

#include "ds/fenwick.hpp"
#include "ds/flat_map.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/engine.hpp"
#include "workload/event.hpp"

namespace rlslb::serve {

struct AllocatorOptions {
  std::int64_t bins = 256;
  int arrivalChoices = 2;  // d: snapshot-least-loaded of d sampled bins
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

class OnlineAllocator {
 public:
  explicit OnlineAllocator(const AllocatorOptions& options);

  /// Pure decision phase: reads only the options — every mutable input is
  /// an argument. Defined inline below so the event loop's per-event rng +
  /// decide sequence fuses into one loop body.
  [[nodiscard]] Decision decide(const workload::Event& event,
                                const std::vector<std::int64_t>& snapshotLoads,
                                rng::Xoshiro256pp& eng) const;

  /// Apply one event against live state, re-validating the decision.
  void apply(const workload::Event& event, const Decision& decision);

  /// apply() for a whole batch in trace order (apply() forwards here with
  /// count 1), with the counter updates accumulated in registers across
  /// the batch. Depart entries never read their `decisions` slot, so those
  /// slots may hold stale bytes.
  void applyBatch(const workload::Event* events, const Decision* decisions,
                  std::size_t count);

  /// Reconcile every deferred load delta into the Fenwick tree (O(dirty
  /// bins); a no-op when clean). The event loop calls this inside its
  /// timed region so the flush cost lands in the epoch it belongs to,
  /// never in an observer.
  void flush();

  /// One RLS repair activation on live state: a load-weighted bin pick
  /// (with unit weights this is exactly "activate a uniform ball"), a
  /// uniform candidate bin, and the strict migration rule. Returns whether
  /// a ball moved. Used by the event loop's per-epoch repair budget.
  bool repairMove(rng::Xoshiro256pp& eng);

  [[nodiscard]] std::int64_t numBins() const {
    return static_cast<std::int64_t>(loads_.size());
  }
  [[nodiscard]] const std::vector<std::int64_t>& loads() const { return loads_; }
  [[nodiscard]] std::int64_t totalLoad() const { return totalLoad_; }
  [[nodiscard]] std::int64_t liveBalls() const { return liveBalls_; }
  /// Read off balanceState(): one O(n) scan of the live load array (these
  /// accessors flush lazily so the Fenwick reconciles too).
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
  /// Dirty bins settled with a net-nonzero delta (the "real work" part of
  /// the deferred flush; net-zero dirty entries are skipped and not
  /// counted). The event loop exports per-epoch deltas as the
  /// serve.flushed_bins counter.
  [[nodiscard]] std::int64_t flushedBins() const { return flushedBins_; }

  /// Heap bytes currently held by the allocator's state structures
  /// (capacity-based: load arrays, Fenwick tree, per-bin ball lists, ball
  /// map). O(bins); sampled by the event loop at epoch boundaries for the
  /// serve.mem.* gauges — a capacity-planning observation, never part of
  /// the deterministic "table" records (vector growth policy is
  /// stdlib-dependent).
  [[nodiscard]] std::int64_t residentBytes() const;

  /// Internal-consistency scan across the ball index, the Fenwick tree and
  /// the load array (O(n + m); tests only).
  [[nodiscard]] bool validate() const;

 private:
  struct BallRec {
    std::int32_t bin = 0;
    std::int64_t weight = 0;
    std::int32_t slot = 0;  // index in binBalls_[bin]
  };

  // Load changes update loads_ and the ball slots; the Fenwick waits for
  // flush().
  void changeLoad(std::int32_t bin, std::int64_t delta);
  void placeBall(std::int64_t ball, std::int64_t weight, std::int32_t bin);
  void moveBall(std::int64_t ball, BallRec* rec, std::int32_t toBin);
  void eraseBall(std::int64_t ball, const BallRec& rec);
  /// O(1) amortized: the mark byte dedups dirty_ entries.
  void markDirty(std::int32_t bin);

  AllocatorOptions options_;
  std::vector<std::int64_t> loads_;        // live bin loads
  std::vector<std::int64_t> flushedLoad_;  // what mass_ holds; lags by dirty_
  ds::Fenwick<std::int64_t> mass_;         // load-weighted repair bin pick
  std::vector<std::vector<std::int64_t>> binBalls_;  // ball ids per bin
  ds::FlatMap64<BallRec> balls_;
  std::vector<std::int32_t> dirty_;        // bins with deferred deltas
  std::vector<std::uint8_t> dirtyMark_;    // one byte per bin: set iff in dirty_
  std::int64_t flushedBins_ = 0;
  ServeCounters counters_;
  std::int64_t totalLoad_ = 0;
  std::int64_t liveBalls_ = 0;
  std::int64_t maxWeightSeen_ = 0;
};

inline Decision OnlineAllocator::decide(const workload::Event& event,
                                        const std::vector<std::int64_t>& snapshotLoads,
                                        rng::Xoshiro256pp& eng) const {
  const auto n = static_cast<std::uint64_t>(snapshotLoads.size());
  Decision d;
  switch (event.kind) {
    case workload::EventKind::kArrive: {
      // d-choice over the snapshot: least loaded of `arrivalChoices`
      // uniform samples (ties keep the first draw, so the choice is a
      // deterministic function of the rng stream).
      auto best = static_cast<std::int32_t>(rng::uniformIndex(eng, n));
      for (int c = 1; c < options_.arrivalChoices; ++c) {
        const auto candidate = static_cast<std::int32_t>(rng::uniformIndex(eng, n));
        if (snapshotLoads[static_cast<std::size_t>(candidate)] <
            snapshotLoads[static_cast<std::size_t>(best)]) {
          best = candidate;
        }
      }
      d.bin = best;
      break;
    }
    case workload::EventKind::kResample:
      d.bin = static_cast<std::int32_t>(rng::uniformIndex(eng, n));
      break;
    case workload::EventKind::kDepart:
      break;
  }
  return d;
}

}  // namespace rlslb::serve
