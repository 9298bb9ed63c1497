// OnlineAllocator: incremental ball-to-bin state for the serving subsystem,
// laid out as shard-owned partitions.
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
// State layout (the partitioned-apply substrate; see serve/event_loop.hpp):
// bins are split into contiguous ranges by a BinPartition, and each range
// owns its own Fenwick mass tree and per-bin ball index. Global views
// (loads(), gap(), balanceState(), the load-weighted repair sample) read
// the flat load array or merge the per-shard structures — and because the
// ranges concatenate in bin order, every merged answer is bit-identical
// to the single-structure layout this replaced. configurePartitions()
// rebalances the layout at any epoch boundary; partitioning is an
// execution-layout knob with zero semantic footprint.
//
// Two ways to consume an event stream, with identical semantics:
//
//   apply(event, decision)       Fused sequential path: resolve + mutate in
//                                one pass against live loads. The
//                                single-shard hot path (~37M events/sec).
//
//   resolve(...) + applyShardOps(...)
//                                Partitioned path: resolve() walks events
//                                in trace order touching only the flat load
//                                array + the ball router (exact live-load
//                                acceptance, every semantic counter), and
//                                emits Place/Remove BinOps into per-shard-
//                                pair queues; applyShardOps(s, queues) then
//                                materializes shard s's ops — Fenwick,
//                                ball slots — in canonical
//                                (ordinal, source) order, safely in
//                                parallel with the other owners because
//                                every touched structure is owned by s.
//                                Per bin, the canonical order equals trace
//                                order restricted to that bin, so the final
//                                state is byte-identical to apply().
//
// Per-event cost is O(log n) either way; the point of the split is that
// resolve() is the *cheap* part (array reads/writes + one hash lookup) and
// the O(log n) Fenwick/slot work runs shard-parallel.
//
// Deferred accounting (the serving hot-path batching): every load change —
// fused apply() or partitioned resolve() — updates only the flat `loads_`
// array (plus totalLoad_ and the eager ball slots) and marks the bin dirty
// in its owner shard. The O(log n) Fenwick update is *deferred* to
// flush()/flushShard(), which reconcile each dirty bin ONCE per epoch from
// its net delta (loads_[bin] - binLoad[local]) and skip net-zero bins
// entirely. Rejected resamples — the steady-state common case — never touch
// a structure at all. Fenwick node values depend only on final per-bin
// loads, so the flushed state is byte-identical to the eager per-event
// updates this replaced. There is no maintained level histogram at all:
// min/max/overload queries are a per-epoch observation, so one fused pass
// over the (always-current) flat load array answers them on demand instead
// of taxing every load change in the hot loop. Consumers of the derived
// structures re-synchronize first: applyShardOps() flushes its shard at the
// end of the drain (so the flush work itself runs shard-parallel), the
// event loop flushes after apply, repairMove() flushes at entry (settling
// only the previous repair's move), and the accessors (minLoad/maxLoad/
// balanceState/validate) flush lazily — they are sequential-only by
// contract, like every other mutation entry point.
#pragma once

#include <cstdint>
#include <vector>

#include "ds/fenwick.hpp"
#include "ds/flat_map.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256pp.hpp"
#include "serve/migration_queue.hpp"
#include "serve/partition.hpp"
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
  std::int64_t repairAttempts = 0;   // cross-shard repair activations
  std::int64_t repairMigrations = 0; // accepted repair moves
};

class OnlineAllocator {
 public:
  explicit OnlineAllocator(const AllocatorOptions& options);

  /// Re-split the bins into `shards` contiguous ownership ranges (clamped
  /// to [1, bins]; returns the actual count). Rebuilds the per-shard
  /// structures and, when `enableRouter`, the ball -> (bin, weight) router
  /// that resolve() needs. O(n + balls); call between epochs, never while
  /// applyShardOps is in flight. Purely an execution-layout change: every
  /// observable (loads, counters, per-bin ball order, repair stream) is
  /// unchanged.
  int configurePartitions(int shards, bool enableRouter);
  [[nodiscard]] int partitions() const { return partition_.numShards(); }
  [[nodiscard]] const BinPartition& partition() const { return partition_; }

  /// Pure decision phase: thread-safe with respect to *this (reads only
  /// the options) — every mutable input is an argument. Defined inline
  /// below so the event loop's per-event rng + decide sequence fuses into
  /// one loop body.
  [[nodiscard]] Decision decide(const workload::Event& event,
                                const std::vector<std::int64_t>& snapshotLoads,
                                rng::Xoshiro256pp& eng) const;

  /// Fused apply: single-threaded, validates against live state. Works for
  /// any partition count (it locates the owner per touched bin).
  void apply(const workload::Event& event, const Decision& decision);

  /// Fused apply for a whole batch in trace order: per-event semantics of
  /// apply() (which forwards here with count 1), with the counter updates
  /// accumulated in registers across the batch. Depart entries never read
  /// their `decisions` slot, so those slots may hold stale bytes.
  void applyBatch(const workload::Event* events, const Decision* decisions,
                  std::size_t count);

  /// Partitioned apply, step 1 (sequential, trace order): resolve the
  /// event against live loads exactly as apply() would — same acceptance
  /// rule, same counters, same final `loads()` — but defer the per-shard
  /// structure mutations as BinOps pushed into `queues`. `ordinal` is the
  /// epoch-local event index (the canonical order key). Requires the
  /// router (configurePartitions with enableRouter = true).
  void resolve(const workload::Event& event, const Decision& decision,
               std::int64_t ordinal, CrossShardQueues& queues);

  /// resolve() for a whole batch in trace order; event i gets ordinal
  /// baseOrdinal + i. Same register-accumulated counters as applyBatch.
  void resolveBatch(const workload::Event* events, const Decision* decisions,
                    std::int64_t baseOrdinal, std::size_t count,
                    CrossShardQueues& queues);

  /// Partitioned apply, step 2: materialize every op destined for `shard`
  /// in canonical order, then flush the shard's deferred load deltas (so
  /// the per-epoch Fenwick reconciliation itself runs
  /// shard-parallel). Touches only shard-owned state, so distinct shards
  /// may run concurrently; the epoch driver must finish all shards (and
  /// only then clear the queues) before any global accessor or the next
  /// resolve() call.
  void applyShardOps(int shard, const CrossShardQueues& queues);

  /// Reconcile every deferred load delta into the per-shard Fenwick trees
  /// and binLoad views (O(dirty bins); a no-op scan when clean).
  /// Sequential only. The event loop calls this inside its timed region so
  /// the flush cost lands in the epoch it belongs to, never in an observer.
  void flush();

  /// One RLS repair activation on live state: a load-weighted bin pick
  /// (with unit weights this is exactly "activate a uniform ball"), a
  /// uniform candidate bin, and the strict migration rule. Returns whether
  /// a ball moved. Used by the event loop's cross-shard rebalance.
  /// Sequential only (mutates arbitrary shards).
  bool repairMove(rng::Xoshiro256pp& eng);

  [[nodiscard]] std::int64_t numBins() const {
    return static_cast<std::int64_t>(loads_.size());
  }
  [[nodiscard]] const std::vector<std::int64_t>& loads() const { return loads_; }
  [[nodiscard]] std::int64_t totalLoad() const { return totalLoad_; }
  [[nodiscard]] std::int64_t liveBalls() const { return liveBalls_; }
  /// Read off balanceState(): one O(n) scan of the live load array (these
  /// accessors flush lazily so the derived structures reconcile too, and
  /// are therefore sequential-only, like every mutation entry point).
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
  /// Dirty bins settled with a net-nonzero delta since the last
  /// configurePartitions (the "real work" part of the deferred flush;
  /// net-zero dirty entries are skipped and not counted). Summed across
  /// shards in shard order -- the event loop exports per-epoch deltas as
  /// the serve.flushed_bins counter.
  [[nodiscard]] std::int64_t flushedBins() const {
    std::int64_t total = 0;
    for (const Shard& s : shards_) total += s.flushedBins;
    return total;
  }

  /// Heap bytes currently held by the allocator's state structures
  /// (capacity-based: load arrays, Fenwick trees, per-bin ball lists, ball
  /// maps, router). O(bins); sampled by the event loop at epoch boundaries
  /// for the serve.mem.* gauges — a capacity-planning observation, never
  /// part of the deterministic "table" records (vector growth policy is
  /// stdlib-dependent).
  [[nodiscard]] std::int64_t residentBytes() const;

  /// Internal-consistency scan across every shard, the global load array,
  /// and the router when enabled (O(n + m); tests only).
  [[nodiscard]] bool validate() const;

 private:
  struct BallRec {
    std::int32_t bin = 0;
    std::int64_t weight = 0;
    std::int32_t slot = 0;  // index in the owner shard's binBalls for `bin`
  };
  /// Lightweight router record: everything resolve() needs to route and
  /// re-validate an event without consulting owner-local state.
  struct RouteRec {
    std::int32_t bin = 0;
    std::int64_t weight = 0;
  };
  /// One ownership range's private state. applyShardOps(s) writes only
  /// shards_[s]; nothing here is shared across owners. `binLoad`, `mass`,
  /// and `levels` lag `loads_` by the bins listed in `dirty` until the next
  /// flushShard() (see the deferred-accounting note at the top).
  struct Shard {
    std::int64_t firstBin = 0;               // == partition_.beginBin(s)
    std::vector<std::int64_t> binLoad;       // flushed view of loads_ range
    ds::Fenwick<std::int64_t> mass{1};       // local range, local indices
    std::vector<std::vector<std::int64_t>> binBalls;   // ball ids per bin
    ds::FlatMap64<BallRec> balls;            // balls in this range
    std::vector<std::int32_t> dirty;         // global bins with deferred deltas
    // Dirty bins whose deferred delta was net-nonzero when settled --
    // kept per shard because flushShard runs owner-parallel and must not
    // touch shared counters; flushedBins() merges in shard order.
    std::int64_t flushedBins = 0;
  };

  [[nodiscard]] Shard& shardOf(std::int32_t bin) {
    // Single-shard fast path: ownerOf costs an integer division, which is
    // measurable on the fused hot loop (~37M events/sec single-thread).
    if (shards_.size() == 1) return shards_[0];
    return shards_[static_cast<std::size_t>(partition_.ownerOf(bin))];
  }

  // Fused-path helpers (sequential; update loads_/slots, defer the rest).
  void changeLoad(Shard& shard, std::int32_t bin, std::int64_t delta);
  void placeBall(std::int64_t ball, std::int64_t weight, std::int32_t bin);
  void moveBall(std::int64_t ball, Shard& srcShard, BallRec* rec, std::int32_t toBin);
  void eraseBall(Shard& shard, std::int64_t ball, const BallRec& rec);

  // Owner-local materialization (applyShardOps; must not touch globals).
  void materializePlace(Shard& shard, const BinOp& op);
  void materializeRemove(Shard& shard, const BinOp& op);

  // Deferred-accounting plumbing. markDirty is O(1) amortized (the mark
  // byte dedups list entries); flushShard writes only shard-owned state
  // plus this shard's slice of dirtyMark_, so owners may flush in parallel.
  void markDirty(Shard& shard, std::int32_t bin);
  void flushShard(Shard& shard);

  AllocatorOptions options_;
  BinPartition partition_;
  std::vector<Shard> shards_;
  std::vector<std::int64_t> loads_;  // global bin loads; resolve()'s working set
  // Ball -> (bin, weight), maintained only when the partitioned path is
  // active (configurePartitions enableRouter): resolve() cannot ask the
  // owner maps because finding the owner requires the bin it is looking up.
  ds::FlatMap64<RouteRec> router_;
  // One byte per bin: set iff the bin sits in its owner's dirty list.
  std::vector<std::uint8_t> dirtyMark_;
  bool routerEnabled_ = false;
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
