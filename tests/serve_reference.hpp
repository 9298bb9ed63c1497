// Frozen serving loop: the differential oracle for
// tests/test_serve_differential.cpp.
//
// This is a test-only copy of serve::OnlineAllocator and serve::EpochLoop
// in their simplest eager form: a decision phase against an epoch-start
// snapshot copy, then an apply pass in trace order that re-validates the
// strict local-search rule against live loads with every structure (level
// histogram, ball map, live-ball list) updated per event, then the
// per-epoch repair budget. The production loop's contract is byte-identity
// with THIS code — final load vector, every semantic counter, and the
// per-epoch gap trajectory — for every (epochEvents, trace, seed)
// combination, so do not "fix" or modernize it; it only changes if the
// serving semantics are deliberately re-specified. It is the only
// independent check on weighted traces: serve::CompactAllocator is
// unit-weight only.
//
// Re-specified once, deliberately: repair draws a uniform live ball (the
// paper's per-ball clocks) and a uniform destination bin — two draws —
// where it used to draw a load-weighted bin, a uniform ball in it and a
// destination. The live list is append-on-arrival, swap-remove-on-
// departure, untouched by migrations.
//
// The decision phase is frozen here too, in its per-event form: one event,
// one reseeded stream streamSeed(decisionSeed, ordinal), d draws and the
// least loaded with ties to the earlier draw. Production decides an epoch
// in two passes (serve::decideBatch: draw every candidate and prefetch its
// load, then compare), so the differential checks that batched decide —
// its candidate records, its d = 1 shortcut and its tie rule — against an
// independent implementation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "rng/splitmix64.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256pp.hpp"
#include "runner/thread_pool.hpp"
#include "serve/online_allocator.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"
#include "workload/event.hpp"
#include "workload/generators.hpp"

namespace rlslb::serve::reference {

/// Frozen per-event decision: a pure function of the event, the load
/// snapshot and the event's rng stream. Arrive: the least loaded of
/// `arrivalChoices` uniform bins (ties keep the first draw). Resample: one
/// uniform candidate bin. Depart: no draw.
inline Decision decide(const workload::Event& event, const std::vector<std::int64_t>& loads,
                       int arrivalChoices, rng::Xoshiro256pp& eng) {
  const auto n = static_cast<std::uint64_t>(loads.size());
  Decision d;
  switch (event.kind) {
    case workload::EventKind::kArrive: {
      auto best = static_cast<std::int32_t>(rng::uniformIndex(eng, n));
      for (int c = 1; c < arrivalChoices; ++c) {
        const auto candidate = static_cast<std::int32_t>(rng::uniformIndex(eng, n));
        if (loads[static_cast<std::size_t>(candidate)] <
            loads[static_cast<std::size_t>(best)]) {
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

/// Frozen eager OnlineAllocator (level histogram + ball map + live-ball
/// list, updated per event). Reuses the production serve::Decision and
/// serve::ServeCounters records; decisions come from the frozen decide()
/// above.
class ReferenceAllocator {
 public:
  explicit ReferenceAllocator(const AllocatorOptions& options)
      : options_(options), loads_(static_cast<std::size_t>(options.bins), 0) {
    RLSLB_ASSERT(options_.bins >= 1);
    RLSLB_ASSERT(options_.arrivalChoices >= 1);
    levels_[0] = options_.bins;
  }

  [[nodiscard]] Decision decide(const workload::Event& event,
                                const std::vector<std::int64_t>& snapshotLoads,
                                rng::Xoshiro256pp& eng) const {
    return reference::decide(event, snapshotLoads, options_.arrivalChoices, eng);
  }

  void apply(const workload::Event& event, const Decision& decision) {
    ++counters_.events;
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
      case workload::EventKind::kResample: {
        ++counters_.resamples;
        RLSLB_ASSERT(decision.bin >= 0 && decision.bin < options_.bins);
        const auto it = balls_.find(event.ball);
        RLSLB_ASSERT_MSG(it != balls_.end(), "resample event for a ball that is not live");
        BallRec& rec = it->second;
        const std::int32_t src = rec.bin;
        const std::int32_t dst = decision.bin;
        if (dst != src && loads_[static_cast<std::size_t>(dst)] + rec.weight <
                              loads_[static_cast<std::size_t>(src)]) {
          ++counters_.migrations;
          moveBall(rec, dst);
        } else {
          ++counters_.rejectedMoves;
        }
        break;
      }
    }
  }

  bool repairMove(rng::Xoshiro256pp& eng) {
    if (live_.empty()) return false;
    ++counters_.repairAttempts;
    const std::int64_t ball = live_[static_cast<std::size_t>(
        rng::uniformIndex(eng, static_cast<std::uint64_t>(live_.size())))];
    const auto dst = static_cast<std::int32_t>(
        rng::uniformIndex(eng, static_cast<std::uint64_t>(loads_.size())));
    BallRec& rec = balls_.at(ball);
    if (dst == rec.bin || loads_[static_cast<std::size_t>(dst)] + rec.weight >=
                              loads_[static_cast<std::size_t>(rec.bin)]) {
      return false;
    }
    ++counters_.repairMigrations;
    moveBall(rec, dst);
    return true;
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
  std::vector<std::int64_t> live_;  // live ball ids, in repair-draw order
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

/// Frozen EpochLoop: bulk-synchronous epochs with a hash-sharded decision
/// phase on a pool and a sequential trace-order apply.
class ReferenceEventLoop {
 public:
  struct Options {
    int shards = 8;
    std::int64_t epochEvents = 1024;
    int repairMovesPerEpoch = 4;
    std::uint64_t seed = 1;
  };

  ReferenceEventLoop(ReferenceAllocator& allocator, const Options& options,
                     runner::ThreadPool& pool)
      : allocator_(&allocator), options_(options), pool_(&pool) {
    RLSLB_ASSERT(options_.shards >= 1);
    RLSLB_ASSERT(options_.epochEvents >= 1);
    RLSLB_ASSERT(options_.repairMovesPerEpoch >= 0);
  }

  struct RunResult {
    std::int64_t events = 0;
    std::int64_t epochs = 0;
    double wallSeconds = 0.0;
  };

  RunResult run(workload::TraceGenerator& trace,
                const std::function<void(const ReferenceEpochStats&)>& onEpoch = {}) {
    constexpr std::uint64_t kDecisionSalt = 0x64656373ULL;  // "decs"
    constexpr std::uint64_t kRepairSalt = 0x72657061ULL;    // "repa"
    const std::uint64_t decisionSeed = rng::streamSeed(options_.seed, kDecisionSalt);
    const std::uint64_t repairSeed = rng::streamSeed(options_.seed, kRepairSalt);
    const auto shards = static_cast<std::size_t>(options_.shards);

    RunResult result;
    std::vector<workload::Event> batch;
    std::vector<Decision> decisions;
    std::vector<std::vector<std::size_t>> shardEvents(shards);
    std::vector<std::int64_t> snapshot;
    batch.reserve(static_cast<std::size_t>(options_.epochEvents));

    for (;;) {
      batch.clear();
      workload::Event event;
      while (static_cast<std::int64_t>(batch.size()) < options_.epochEvents &&
             trace.next(&event)) {
        batch.push_back(event);
      }
      if (batch.empty()) break;

      WallTimer wall;
      const std::int64_t baseOrdinal = nextOrdinal_;
      nextOrdinal_ += static_cast<std::int64_t>(batch.size());

      for (auto& list : shardEvents) list.clear();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::size_t shard =
            static_cast<std::size_t>(
                rng::mix64(static_cast<std::uint64_t>(batch[i].ball))) %
            shards;
        shardEvents[shard].push_back(i);
      }

      snapshot = allocator_->loads();
      decisions.assign(batch.size(), Decision{});
      pool_->parallelFor(static_cast<std::int64_t>(shards), [&](std::int64_t shard) {
        for (const std::size_t i : shardEvents[static_cast<std::size_t>(shard)]) {
          const workload::Event& e = batch[i];
          if (e.kind == workload::EventKind::kDepart) continue;
          rng::Xoshiro256pp eng(rng::streamSeed(
              decisionSeed,
              static_cast<std::uint64_t>(baseOrdinal + static_cast<std::int64_t>(i))));
          decisions[i] = allocator_->decide(e, snapshot, eng);
        }
      });

      for (std::size_t i = 0; i < batch.size(); ++i) {
        allocator_->apply(batch[i], decisions[i]);
      }
      rng::Xoshiro256pp repairEng(
          rng::streamSeed(repairSeed, static_cast<std::uint64_t>(nextEpoch_)));
      for (int k = 0; k < options_.repairMovesPerEpoch; ++k) {
        allocator_->repairMove(repairEng);
      }

      const double epochWall = wall.seconds();
      result.wallSeconds += epochWall;
      result.events += static_cast<std::int64_t>(batch.size());
      ++result.epochs;

      if (onEpoch) {
        ReferenceEpochStats stats;
        stats.epoch = nextEpoch_;
        stats.traceTime = batch.back().time;
        stats.events = static_cast<std::int64_t>(batch.size());
        stats.liveBalls = allocator_->liveBalls();
        stats.totalLoad = allocator_->totalLoad();
        stats.balance = allocator_->balanceState();
        stats.migrations =
            allocator_->counters().migrations + allocator_->counters().repairMigrations;
        onEpoch(stats);
      }
      ++nextEpoch_;
    }
    return result;
  }

 private:
  ReferenceAllocator* allocator_;
  Options options_;
  runner::ThreadPool* pool_;
  std::int64_t nextOrdinal_ = 0;
  std::int64_t nextEpoch_ = 0;
};

}  // namespace rlslb::serve::reference
