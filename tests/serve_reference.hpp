// Frozen serving loop: the differential oracle for
// tests/test_serve_differential.cpp.
//
// This is a test-only copy of the serving allocator and serve::EpochLoop
// in their simplest eager form, one unit at a time: a record is expanded
// into its clock rings and then its own event, each a separate unit; an
// epoch is the next epochEvents units; a decision phase draws every unit of
// the epoch in trace order against an epoch-start snapshot copy, then an
// apply pass in trace order re-validates the strict local-search rule
// against live loads with every structure (level histogram, ball map,
// live-ball list) updated per unit. No batching, no prefetch, no ring
// buffer. The production loop's contract is byte-identity with THIS code —
// final load vector, every semantic counter, and the per-epoch gap
// trajectory — for every (epochEvents, unit budget, trace, seed)
// combination, so do not "fix" or modernize it; it only changes if the
// serving semantics are deliberately re-specified. It is the independent
// check on serve::CompactAllocator, weighted traces included.
//
// Re-specified, deliberately:
//   - an RLS activation draws a uniform live ball (the paper's per-ball
//     clocks) and a uniform destination bin — two draws. The live list is
//     append-on-arrival, swap-remove-on-departure, untouched by migrations;
//   - the clocks are no longer trace events: a record carries its ring
//     count, and each ring is an activation drawn by the loop. One decision
//     stream per epoch, streamSeed(decisionSeed, epoch), replaces the
//     per-event streams and the per-epoch repair budget;
//   - the loop reads a trace in id form (workload::TraceRecord), as a
//     trace file holds it; the differential names a slot-form trace's balls
//     with the trace writer's workload::BallIds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <unordered_map>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256pp.hpp"
#include "serve/compact_allocator.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "workload/event.hpp"
#include "workload/trace_io.hpp"

namespace rlslb::serve::reference {

/// One unit of work: a clock ring, or a record's own event.
struct Unit {
  bool ring = false;
  workload::TraceRecord event;  // the record's event; unused by a ring
};

/// A unit's draws. Ring: a live slot and a destination bin. Arrive: the
/// chosen bin. Depart: nothing.
struct UnitDecision {
  std::int32_t slot = -1;
  std::int32_t bin = -1;
};

/// Frozen per-unit decision: a pure function of the unit, the load snapshot,
/// the live count before the unit and the epoch's rng stream. Ring: a
/// uniform slot in [0, live), then a uniform bin. Arrive: the least loaded
/// of `arrivalChoices` uniform bins (ties keep the first draw). Depart: no
/// draw.
inline UnitDecision decide(const Unit& unit, const std::vector<std::int64_t>& loads,
                           int arrivalChoices, std::int64_t live, rng::Xoshiro256pp& eng) {
  const auto n = static_cast<std::uint64_t>(loads.size());
  UnitDecision d;
  if (unit.ring) {
    RLSLB_ASSERT(live > 0);
    d.slot = static_cast<std::int32_t>(rng::uniformIndex(eng, static_cast<std::uint64_t>(live)));
    d.bin = static_cast<std::int32_t>(rng::uniformIndex(eng, n));
    return d;
  }
  if (unit.event.kind == workload::EventKind::kArrive) {
    auto best = static_cast<std::int32_t>(rng::uniformIndex(eng, n));
    for (int c = 1; c < arrivalChoices; ++c) {
      const auto candidate = static_cast<std::int32_t>(rng::uniformIndex(eng, n));
      if (loads[static_cast<std::size_t>(candidate)] < loads[static_cast<std::size_t>(best)]) {
        best = candidate;
      }
    }
    d.bin = best;
  }
  return d;
}

/// Frozen eager allocator (level histogram + ball map + live-ball
/// list, updated per unit). Reuses the production serve::ServeCounters
/// record.
class ReferenceAllocator {
 public:
  explicit ReferenceAllocator(const AllocatorOptions& options)
      : options_(options), loads_(static_cast<std::size_t>(options.bins), 0) {
    RLSLB_ASSERT(options_.bins >= 1);
    RLSLB_ASSERT(options_.arrivalChoices >= 1);
    levels_[0] = options_.bins;
  }

  [[nodiscard]] UnitDecision decide(const Unit& unit,
                                    const std::vector<std::int64_t>& snapshotLoads,
                                    std::int64_t live, rng::Xoshiro256pp& eng) const {
    return reference::decide(unit, snapshotLoads, options_.arrivalChoices, live, eng);
  }

  void apply(const Unit& unit, const UnitDecision& decision) {
    ++counters_.events;
    if (unit.ring) {
      ++counters_.resamples;
      RLSLB_ASSERT(decision.slot >= 0 &&
                   static_cast<std::size_t>(decision.slot) < live_.size());
      RLSLB_ASSERT(decision.bin >= 0 && decision.bin < options_.bins);
      BallRec& rec = balls_.at(live_[static_cast<std::size_t>(decision.slot)]);
      const std::int32_t src = rec.bin;
      const std::int32_t dst = decision.bin;
      if (dst != src && loads_[static_cast<std::size_t>(dst)] + rec.weight <
                            loads_[static_cast<std::size_t>(src)]) {
        ++counters_.migrations;
        moveBall(rec, dst);
      } else {
        ++counters_.rejectedMoves;
      }
      return;
    }
    const workload::TraceRecord& event = unit.event;
    switch (event.kind) {
      case workload::EventKind::kArrive: {
        RLSLB_ASSERT(decision.bin >= 0 && decision.bin < options_.bins);
        ++counters_.arrivals;
        placeBall(event.ball, event.weight, decision.bin);
        break;
      }
      case workload::EventKind::kDepart: {
        ++counters_.departures;
        const auto it = balls_.find(event.ball);
        RLSLB_ASSERT_MSG(it != balls_.end(), "depart event for a ball that is not live");
        const BallRec rec = it->second;
        balls_.erase(it);
        const std::int64_t moved = live_.back();
        live_[static_cast<std::size_t>(rec.slot)] = moved;
        live_.pop_back();
        if (moved != event.ball) balls_.at(moved).slot = rec.slot;
        changeLoad(rec.bin, -rec.weight);
        break;
      }
    }
  }

  [[nodiscard]] const std::vector<std::int64_t>& loads() const { return loads_; }
  [[nodiscard]] std::int64_t totalLoad() const { return totalLoad_; }
  [[nodiscard]] std::int64_t liveBalls() const {
    return static_cast<std::int64_t>(balls_.size());
  }
  [[nodiscard]] std::int64_t minLoad() const { return levels_.begin()->first; }
  [[nodiscard]] std::int64_t maxLoad() const { return levels_.rbegin()->first; }
  [[nodiscard]] std::int64_t gap() const { return maxLoad() - minLoad(); }
  [[nodiscard]] sim::BalanceState balanceState() const {
    sim::BalanceState state;
    state.numBins = static_cast<std::int64_t>(loads_.size());
    state.numBalls = totalLoad_;
    state.minLoad = minLoad();
    state.maxLoad = maxLoad();
    const std::int64_t ceilAvg =
        (state.numBalls + state.numBins - 1) / state.numBins;
    for (auto it = levels_.upper_bound(ceilAvg); it != levels_.end(); ++it) {
      state.overloadedBalls += (it->first - ceilAvg) * it->second;
    }
    return state;
  }
  [[nodiscard]] std::int64_t maxWeightSeen() const { return maxWeightSeen_; }
  [[nodiscard]] const ServeCounters& counters() const { return counters_; }

 private:
  struct BallRec {
    std::int32_t bin = 0;
    std::int64_t weight = 0;
    std::int32_t slot = 0;  // index in live_
  };

  void changeLoad(std::int32_t bin, std::int64_t delta) {
    const auto i = static_cast<std::size_t>(bin);
    const std::int64_t before = loads_[i];
    const std::int64_t after = before + delta;
    RLSLB_ASSERT(after >= 0);
    loads_[i] = after;
    totalLoad_ += delta;
    const auto it = levels_.find(before);
    if (--(it->second) == 0) levels_.erase(it);
    ++levels_[after];
  }

  void placeBall(std::int64_t ball, std::int64_t weight, std::int32_t bin) {
    RLSLB_ASSERT(weight >= 1);
    if (weight > maxWeightSeen_) maxWeightSeen_ = weight;
    const auto [it, inserted] =
        balls_.emplace(ball, BallRec{bin, weight, static_cast<std::int32_t>(live_.size())});
    RLSLB_ASSERT_MSG(inserted, "arrive event for a ball id that is already live");
    (void)it;
    live_.push_back(ball);
    changeLoad(bin, weight);
  }

  void moveBall(BallRec& rec, std::int32_t toBin) {
    const std::int32_t from = rec.bin;
    rec.bin = toBin;
    changeLoad(from, -rec.weight);
    changeLoad(toBin, rec.weight);
  }

  AllocatorOptions options_;
  std::vector<std::int64_t> loads_;
  std::int64_t totalLoad_ = 0;
  std::map<std::int64_t, std::int64_t> levels_;
  std::unordered_map<std::int64_t, BallRec> balls_;
  std::vector<std::int64_t> live_;  // live ball ids, in ring-draw slot order
  ServeCounters counters_;
  std::int64_t maxWeightSeen_ = 0;
};

/// Per-epoch observation of the reference loop: the semantic fields of the
/// production EpochStats (the differential compares exactly these).
struct ReferenceEpochStats {
  std::int64_t epoch = 0;
  double traceTime = 0.0;
  std::int64_t events = 0;
  std::int64_t liveBalls = 0;
  std::int64_t totalLoad = 0;
  sim::BalanceState balance;
  std::int64_t migrations = 0;

  [[nodiscard]] std::int64_t gap() const { return balance.maxLoad - balance.minLoad; }
};

/// Frozen EpochLoop: epochs of epochEvents units, a sequential decision
/// phase over one epoch-keyed stream, and a sequential trace-order apply.
class ReferenceEventLoop {
 public:
  struct Options {
    std::int64_t epochEvents = 1024;
    std::int64_t unitBudget = std::numeric_limits<std::int64_t>::max();
    std::uint64_t seed = 1;
  };

  ReferenceEventLoop(ReferenceAllocator& allocator, const Options& options)
      : allocator_(&allocator), options_(options) {
    RLSLB_ASSERT(options_.epochEvents >= 1);
    RLSLB_ASSERT(options_.unitBudget >= 0);
  }

  struct RunResult {
    std::int64_t events = 0;
    std::int64_t epochs = 0;
  };

  /// `trace` yields the next record in id form, or false at the end.
  RunResult run(const std::function<bool(workload::TraceRecord*)>& trace,
                const std::function<void(const ReferenceEpochStats&)>& onEpoch = {}) {
    constexpr std::uint64_t kDecisionSalt = 0x64656373ULL;  // "decs"
    const std::uint64_t decisionSeed = rng::streamSeed(options_.seed, kDecisionSalt);

    // Record expansion: a record's rings, one unit each, then its event.
    workload::TraceRecord record;
    std::int64_t ringsLeft = 0;
    bool eventLeft = false;
    const auto nextUnit = [&](Unit* out) {
      if (ringsLeft == 0 && !eventLeft) {
        if (!trace(&record)) return false;
        ringsLeft = record.rings;
        eventLeft = true;
      }
      out->event = record;
      out->ring = ringsLeft > 0;
      if (out->ring) {
        --ringsLeft;
      } else {
        eventLeft = false;
      }
      return true;
    };

    RunResult result;
    std::int64_t budget = options_.unitBudget;
    double traceTime = 0.0;
    std::vector<Unit> units;
    std::vector<UnitDecision> decisions;
    std::vector<std::int64_t> snapshot;
    for (std::int64_t epoch = 0;; ++epoch) {
      units.clear();
      Unit unit;
      while (static_cast<std::int64_t>(units.size()) < std::min(options_.epochEvents, budget) &&
             nextUnit(&unit)) {
        units.push_back(unit);
      }
      if (units.empty()) break;
      budget -= static_cast<std::int64_t>(units.size());

      snapshot = allocator_->loads();
      rng::Xoshiro256pp eng(rng::streamSeed(decisionSeed, static_cast<std::uint64_t>(epoch)));
      decisions.clear();
      std::int64_t live = allocator_->liveBalls();
      for (const Unit& u : units) {
        decisions.push_back(allocator_->decide(u, snapshot, live, eng));
        if (!u.ring) live += u.event.kind == workload::EventKind::kArrive ? 1 : -1;
      }
      for (std::size_t i = 0; i < units.size(); ++i) {
        allocator_->apply(units[i], decisions[i]);
        if (!units[i].ring) traceTime = units[i].event.time;
      }

      result.events += static_cast<std::int64_t>(units.size());
      ++result.epochs;

      if (onEpoch) {
        ReferenceEpochStats stats;
        stats.epoch = epoch;
        stats.traceTime = traceTime;
        stats.events = static_cast<std::int64_t>(units.size());
        stats.liveBalls = allocator_->liveBalls();
        stats.totalLoad = allocator_->totalLoad();
        stats.balance = allocator_->balanceState();
        stats.migrations = allocator_->counters().migrations;
        onEpoch(stats);
      }
    }
    return result;
  }

 private:
  ReferenceAllocator* allocator_;
  Options options_;
};

}  // namespace rlslb::serve::reference
