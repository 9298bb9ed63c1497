#include "serve/online_allocator.hpp"

#include <algorithm>
#include <utility>

#include "rng/distributions.hpp"
#include "util/assert.hpp"

namespace rlslb::serve {

OnlineAllocator::OnlineAllocator(const AllocatorOptions& options)
    : options_(options), loads_(static_cast<std::size_t>(options.bins), 0) {
  RLSLB_ASSERT_MSG(options_.bins >= 1, "AllocatorOptions.bins must be >= 1");
  RLSLB_ASSERT_MSG(options_.arrivalChoices >= 1,
                   "AllocatorOptions.arrivalChoices must be >= 1");
  configurePartitions(1, /*enableRouter=*/false);
}

int OnlineAllocator::configurePartitions(int shards, bool enableRouter) {
  // Reconcile deferred deltas before anything else (including the
  // early-return): the rebuild below drops the per-shard dirty lists, and a
  // dirtyMark_ bit without a matching list entry would make markDirty skip
  // that bin forever.
  flush();
  const BinPartition next(numBins(), shards);
  RLSLB_ASSERT_MSG(enableRouter || next.numShards() == 1,
                   "a multi-shard layout requires the ball router (resolve() and the "
                   "fused apply() both locate balls through it)");
  if (!shards_.empty() && next.numShards() == partition_.numShards() &&
      enableRouter == routerEnabled_) {
    return partition_.numShards();  // layout already in place
  }

  // Collect every live ball record; bins keep their per-bin ball order
  // (moved wholesale below), so slots — and with them the repair pick
  // stream — survive any repartition.
  std::vector<std::pair<std::int64_t, BallRec>> live;
  live.reserve(static_cast<std::size_t>(liveBalls_));
  for (const Shard& shard : shards_) {
    shard.balls.forEach(
        [&](std::int64_t ball, const BallRec& rec) { live.emplace_back(ball, rec); });
  }
  std::vector<std::vector<std::int64_t>> allBinBalls(loads_.size());
  for (Shard& shard : shards_) {
    for (std::size_t local = 0; local < shard.binBalls.size(); ++local) {
      allBinBalls[static_cast<std::size_t>(shard.firstBin) + local] =
          std::move(shard.binBalls[local]);
    }
  }

  partition_ = next;
  const int count = partition_.numShards();
  shards_.assign(static_cast<std::size_t>(count), Shard{});
  for (int s = 0; s < count; ++s) {
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    shard.firstBin = partition_.beginBin(s);
    const auto begin = static_cast<std::size_t>(shard.firstBin);
    const auto end = static_cast<std::size_t>(partition_.endBin(s));
    shard.binLoad.assign(loads_.begin() + static_cast<std::ptrdiff_t>(begin),
                         loads_.begin() + static_cast<std::ptrdiff_t>(end));
    shard.mass = ds::Fenwick<std::int64_t>(shard.binLoad);
    shard.binBalls.assign(end - begin, {});
    for (std::size_t bin = begin; bin < end; ++bin) {
      shard.binBalls[bin - begin] = std::move(allBinBalls[bin]);
    }
  }
  for (const auto& [ball, rec] : live) {
    shardOf(rec.bin).balls.emplace(ball, rec);
  }
  dirtyMark_.assign(loads_.size(), 0);

  routerEnabled_ = enableRouter;
  router_.clear();
  if (routerEnabled_) {
    router_.reserve(live.size());
    for (const auto& [ball, rec] : live) {
      router_.emplace(ball, RouteRec{rec.bin, rec.weight});
    }
  }
  return count;
}

void OnlineAllocator::apply(const workload::Event& event, const Decision& decision) {
  applyBatch(&event, &decision, 1);
}

void OnlineAllocator::applyBatch(const workload::Event* events, const Decision* decisions,
                                 std::size_t count) {
  // The fused hot loop. Counters accumulate in locals so they live in
  // registers across the batch instead of bouncing through memory per
  // event; the logic per event is exactly apply()'s (which forwards here
  // with count 1). Depart slots of `decisions` are never read.
  std::int64_t arrivals = 0;
  std::int64_t departures = 0;
  std::int64_t resamples = 0;
  std::int64_t migrations = 0;
  std::int64_t rejected = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const workload::Event& event = events[i];
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
        Shard* shard;
        if (routerEnabled_) {
          RouteRec* route = router_.find(event.ball);
          RLSLB_ASSERT_MSG(route != nullptr, "depart event for a ball that is not live");
          shard = &shardOf(route->bin);
          router_.erase(route);
        } else {
          shard = &shards_[0];
        }
        BallRec* it = shard->balls.find(event.ball);
        RLSLB_ASSERT_MSG(it != nullptr, "depart event for a ball that is not live");
        const BallRec rec = *it;
        shard->balls.erase(it);
        eraseBall(*shard, event.ball, rec);
        changeLoad(*shard, rec.bin, -rec.weight);
        --liveBalls_;
        break;
      }
      case workload::EventKind::kResample: {
        const Decision& decision = decisions[i];
        ++resamples;
        RLSLB_ASSERT(decision.bin >= 0 && decision.bin < options_.bins);
        Shard* shard;
        if (routerEnabled_) {
          const RouteRec* route = router_.find(event.ball);
          RLSLB_ASSERT_MSG(route != nullptr, "resample event for a ball that is not live");
          shard = &shardOf(route->bin);
        } else {
          shard = &shards_[0];
        }
        BallRec* it = shard->balls.find(event.ball);
        RLSLB_ASSERT_MSG(it != nullptr, "resample event for a ball that is not live");
        const std::int32_t src = it->bin;
        const std::int32_t dst = decision.bin;
        // Strict local-search rule on *live* loads: the sampled candidate
        // came from the epoch snapshot stream, but the acceptance must never
        // worsen balance, so it is re-checked here.
        if (dst != src && ((loads_[static_cast<std::size_t>(dst)] + it->weight <
                            loads_[static_cast<std::size_t>(src)]) !=
                           options_.invertAcceptance)) {
          ++migrations;
          moveBall(event.ball, *shard, it, dst);
        } else {
          ++rejected;
        }
        break;
      }
    }
  }
  counters_.events += static_cast<std::int64_t>(count);
  counters_.arrivals += arrivals;
  counters_.departures += departures;
  counters_.resamples += resamples;
  counters_.migrations += migrations;
  counters_.rejectedMoves += rejected;
}

void OnlineAllocator::resolve(const workload::Event& event, const Decision& decision,
                              std::int64_t ordinal, CrossShardQueues& queues) {
  resolveBatch(&event, &decision, ordinal, 1, queues);
}

void OnlineAllocator::resolveBatch(const workload::Event* events,
                                   const Decision* decisions, std::int64_t baseOrdinal,
                                   std::size_t count, CrossShardQueues& queues) {
  RLSLB_ASSERT_MSG(routerEnabled_,
                   "resolve() needs the ball router; configurePartitions(shards, "
                   "/*enableRouter=*/true) first");
  // The partitioned hot loop: same local-counter treatment as applyBatch;
  // per-event logic is exactly resolve()'s (which forwards here).
  std::int64_t arrivals = 0;
  std::int64_t departures = 0;
  std::int64_t resamples = 0;
  std::int64_t migrations = 0;
  std::int64_t rejected = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const workload::Event& event = events[i];
    const std::int64_t ordinal = baseOrdinal + static_cast<std::int64_t>(i);
    switch (event.kind) {
      case workload::EventKind::kArrive: {
        const Decision& decision = decisions[i];
        RLSLB_ASSERT(decision.bin >= 0 && decision.bin < options_.bins);
        ++arrivals;
        RLSLB_ASSERT(event.weight >= 1);
        if (event.weight > maxWeightSeen_) maxWeightSeen_ = event.weight;
        const bool inserted =
            router_.emplace(event.ball, RouteRec{decision.bin, event.weight}).second;
        RLSLB_ASSERT_MSG(inserted, "arrive event for a ball id that is already live");
        loads_[static_cast<std::size_t>(decision.bin)] += event.weight;
        totalLoad_ += event.weight;
        ++liveBalls_;
        const int owner = partition_.ownerOf(decision.bin);
        markDirty(shards_[static_cast<std::size_t>(owner)], decision.bin);
        queues.push(owner, owner,
                    BinOp{ordinal, event.ball, event.weight, decision.bin,
                          BinOp::Kind::kPlace});
        break;
      }
      case workload::EventKind::kDepart: {
        ++departures;
        RouteRec* route = router_.find(event.ball);
        RLSLB_ASSERT_MSG(route != nullptr, "depart event for a ball that is not live");
        const RouteRec rec = *route;
        router_.erase(route);
        loads_[static_cast<std::size_t>(rec.bin)] -= rec.weight;
        RLSLB_ASSERT(loads_[static_cast<std::size_t>(rec.bin)] >= 0);
        totalLoad_ -= rec.weight;
        --liveBalls_;
        const int owner = partition_.ownerOf(rec.bin);
        markDirty(shards_[static_cast<std::size_t>(owner)], rec.bin);
        queues.push(owner, owner,
                    BinOp{ordinal, event.ball, rec.weight, rec.bin,
                          BinOp::Kind::kRemove});
        break;
      }
      case workload::EventKind::kResample: {
        const Decision& decision = decisions[i];
        ++resamples;
        RLSLB_ASSERT(decision.bin >= 0 && decision.bin < options_.bins);
        RouteRec* route = router_.find(event.ball);
        RLSLB_ASSERT_MSG(route != nullptr, "resample event for a ball that is not live");
        RouteRec& rec = *route;
        const std::int32_t src = rec.bin;
        const std::int32_t dst = decision.bin;
        // Exactly apply()'s live-load acceptance: loads_ has absorbed every
        // earlier event of the epoch, so the partitioned path accepts and
        // rejects the very same moves the fused path would.
        if (dst != src && ((loads_[static_cast<std::size_t>(dst)] + rec.weight <
                            loads_[static_cast<std::size_t>(src)]) !=
                           options_.invertAcceptance)) {
          ++migrations;
          loads_[static_cast<std::size_t>(src)] -= rec.weight;
          loads_[static_cast<std::size_t>(dst)] += rec.weight;
          const int from = partition_.ownerOf(src);
          const int to = partition_.ownerOf(dst);
          markDirty(shards_[static_cast<std::size_t>(from)], src);
          markDirty(shards_[static_cast<std::size_t>(to)], dst);
          // Remove before Place so a same-owner migration replays in the
          // right order out of the (from, from) queue.
          queues.push(from, from,
                      BinOp{ordinal, event.ball, rec.weight, src, BinOp::Kind::kRemove});
          queues.push(from, to,
                      BinOp{ordinal, event.ball, rec.weight, dst, BinOp::Kind::kPlace});
          rec.bin = dst;
        } else {
          ++rejected;
        }
        break;
      }
    }
  }
  counters_.events += static_cast<std::int64_t>(count);
  counters_.arrivals += arrivals;
  counters_.departures += departures;
  counters_.resamples += resamples;
  counters_.migrations += migrations;
  counters_.rejectedMoves += rejected;
}

void OnlineAllocator::applyShardOps(int shard, const CrossShardQueues& queues) {
  RLSLB_ASSERT(shard >= 0 && shard < partition_.numShards());
  Shard& s = shards_[static_cast<std::size_t>(shard)];
  queues.drainTo(shard, [&](const BinOp& op) {
    if (op.kind == BinOp::Kind::kPlace) {
      materializePlace(s, op);
    } else {
      materializeRemove(s, op);
    }
  });
  // Reconcile this shard's deferred deltas here so the per-epoch
  // Fenwick work rides the parallel drain instead of a
  // sequential sweep. Safe concurrently: flushShard writes only s-owned
  // state plus s's slice of dirtyMark_, and reads loads_ (quiescent during
  // the drain).
  flushShard(s);
}

bool OnlineAllocator::repairMove(rng::Xoshiro256pp& eng) {
  const std::int64_t total = totalLoad_;
  if (total == 0) return false;
  // The weighted walk below reads the per-shard Fenwick trees, so any
  // deferred deltas must land first. After one repair's own move, the next
  // call's flush touches at most two bins.
  flush();
  ++counters_.repairAttempts;
  // Load-weighted bin pick, then a uniform ball within the bin: with unit
  // weights this composes to a uniform pick over live balls (the RLS
  // activation); with weights it biases toward heavy bins, which is the
  // direction a repair pass wants anyway. The two-level walk (shard mass
  // prefix, then the owner's local Fenwick) lands on the same bin the old
  // single global Fenwick's upperBound did, because ownership ranges
  // concatenate in bin order.
  auto ticket = static_cast<std::int64_t>(
      rng::uniformIndex(eng, static_cast<std::uint64_t>(total)));
  std::size_t owner = 0;
  while (ticket >= shards_[owner].mass.total()) {
    ticket -= shards_[owner].mass.total();
    ++owner;
    RLSLB_ASSERT(owner < shards_.size());
  }
  Shard& srcShard = shards_[owner];
  const auto src = static_cast<std::int32_t>(
      srcShard.firstBin + static_cast<std::int64_t>(srcShard.mass.upperBound(ticket)));
  auto& srcBalls =
      srcShard.binBalls[static_cast<std::size_t>(src - srcShard.firstBin)];
  RLSLB_ASSERT(!srcBalls.empty());
  const auto pick = static_cast<std::size_t>(
      rng::uniformIndex(eng, static_cast<std::uint64_t>(srcBalls.size())));
  const std::int64_t ball = srcBalls[pick];
  const auto dst = static_cast<std::int32_t>(
      rng::uniformIndex(eng, static_cast<std::uint64_t>(loads_.size())));
  BallRec* it = srcShard.balls.find(ball);
  RLSLB_ASSERT(it != nullptr);
  if (dst == src || ((loads_[static_cast<std::size_t>(dst)] + it->weight <
                      loads_[static_cast<std::size_t>(src)]) ==
                     options_.invertAcceptance)) {
    return false;
  }
  ++counters_.repairMigrations;
  moveBall(ball, srcShard, it, dst);
  return true;
}

void OnlineAllocator::changeLoad(Shard& shard, std::int32_t bin, std::int64_t delta) {
  const auto g = static_cast<std::size_t>(bin);
  const std::int64_t after = loads_[g] + delta;
  RLSLB_ASSERT(after >= 0);
  loads_[g] = after;
  totalLoad_ += delta;
  markDirty(shard, bin);
}

void OnlineAllocator::markDirty(Shard& shard, std::int32_t bin) {
  std::uint8_t& mark = dirtyMark_[static_cast<std::size_t>(bin)];
  if (mark == 0) {
    mark = 1;
    shard.dirty.push_back(bin);
  }
}

void OnlineAllocator::flush() {
  for (Shard& shard : shards_) {
    if (!shard.dirty.empty()) flushShard(shard);
  }
}

void OnlineAllocator::flushShard(Shard& shard) {
  for (const std::int32_t bin : shard.dirty) {
    const auto local = static_cast<std::size_t>(bin - shard.firstBin);
    const std::int64_t after = loads_[static_cast<std::size_t>(bin)];
    const std::int64_t before = shard.binLoad[local];
    dirtyMark_[static_cast<std::size_t>(bin)] = 0;
    if (after == before) continue;  // net-zero over the batch: nothing to do
    shard.binLoad[local] = after;
    shard.mass.add(local, after - before);
    ++shard.flushedBins;
  }
  shard.dirty.clear();
}

void OnlineAllocator::placeBall(std::int64_t ball, std::int64_t weight, std::int32_t bin) {
  RLSLB_ASSERT(weight >= 1);
  if (weight > maxWeightSeen_) maxWeightSeen_ = weight;
  Shard& shard = shardOf(bin);
  auto& slot = shard.binBalls[static_cast<std::size_t>(bin - shard.firstBin)];
  const auto [it, inserted] = shard.balls.emplace(
      ball, BallRec{bin, weight, static_cast<std::int32_t>(slot.size())});
  RLSLB_ASSERT_MSG(inserted, "arrive event for a ball id that is already live");
  (void)it;
  if (routerEnabled_) {
    const bool routed = router_.emplace(ball, RouteRec{bin, weight}).second;
    RLSLB_ASSERT(routed);
  }
  slot.push_back(ball);
  changeLoad(shard, bin, weight);
  ++liveBalls_;
}

void OnlineAllocator::eraseBall(Shard& shard, std::int64_t ball, const BallRec& rec) {
  auto& slot = shard.binBalls[static_cast<std::size_t>(rec.bin - shard.firstBin)];
  RLSLB_ASSERT(slot[static_cast<std::size_t>(rec.slot)] == ball);
  const std::int64_t moved = slot.back();
  slot[static_cast<std::size_t>(rec.slot)] = moved;
  slot.pop_back();
  if (moved != ball) shard.balls.at(moved).slot = rec.slot;
}

void OnlineAllocator::moveBall(std::int64_t ball, Shard& srcShard, BallRec* rec,
                               std::int32_t toBin) {
  const BallRec old = *rec;
  eraseBall(srcShard, ball, old);
  Shard& dstShard = shardOf(toBin);
  auto& dstSlot = dstShard.binBalls[static_cast<std::size_t>(toBin - dstShard.firstBin)];
  const BallRec next{toBin, old.weight, static_cast<std::int32_t>(dstSlot.size())};
  if (&dstShard == &srcShard) {
    *rec = next;
  } else {
    srcShard.balls.erase(rec);
    dstShard.balls.emplace(ball, next);
  }
  dstSlot.push_back(ball);
  changeLoad(srcShard, old.bin, -old.weight);
  changeLoad(dstShard, toBin, old.weight);
  if (routerEnabled_) router_.at(ball).bin = toBin;
}

void OnlineAllocator::materializePlace(Shard& shard, const BinOp& op) {
  auto& slot = shard.binBalls[static_cast<std::size_t>(op.bin - shard.firstBin)];
  const auto [it, inserted] = shard.balls.emplace(
      op.ball, BallRec{op.bin, op.weight, static_cast<std::int32_t>(slot.size())});
  RLSLB_ASSERT_MSG(inserted, "Place op for a ball already present in the owner shard");
  (void)it;
  slot.push_back(op.ball);
  // Load accounting already happened: resolve() moved loads_ and marked the
  // bin dirty; flushShard() settles the structures after the drain.
}

void OnlineAllocator::materializeRemove(Shard& shard, const BinOp& op) {
  BallRec* it = shard.balls.find(op.ball);
  RLSLB_ASSERT_MSG(it != nullptr, "Remove op for a ball the owner never held");
  const BallRec rec = *it;
  RLSLB_ASSERT(rec.bin == op.bin);
  eraseBall(shard, op.ball, rec);
  shard.balls.erase(it);
}

std::int64_t OnlineAllocator::residentBytes() const {
  auto vecBytes = [](const auto& v) {
    return static_cast<std::int64_t>(v.capacity() * sizeof(v[0]));
  };
  std::int64_t bytes = vecBytes(loads_) + vecBytes(dirtyMark_);
  bytes += static_cast<std::int64_t>(router_.heapBytes());
  for (const Shard& shard : shards_) {
    bytes += vecBytes(shard.binLoad) + vecBytes(shard.dirty);
    // Fenwick: n + 1 nodes of the element type.
    bytes += static_cast<std::int64_t>((shard.mass.size() + 1) * sizeof(std::int64_t));
    bytes += static_cast<std::int64_t>(shard.binBalls.capacity() *
                                       sizeof(std::vector<std::int64_t>));
    for (const auto& slot : shard.binBalls) bytes += vecBytes(slot);
    bytes += static_cast<std::int64_t>(shard.balls.heapBytes());
  }
  return bytes;
}

std::int64_t OnlineAllocator::minLoad() const { return balanceState().minLoad; }

std::int64_t OnlineAllocator::maxLoad() const { return balanceState().maxLoad; }

sim::BalanceState OnlineAllocator::balanceState() const {
  // Accessors are sequential-only by contract (see header), so the lazy
  // flush is safe; after the event loop's in-timer flush it is a no-op.
  // One fused O(n) pass replaces a maintained level histogram: the state is
  // read once per epoch (outside the timed hot path), so paying for a scan
  // here is far cheaper than paying per load change there.
  const_cast<OnlineAllocator*>(this)->flush();
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
  const_cast<OnlineAllocator*>(this)->flush();
  std::int64_t total = 0;
  std::int64_t ballCount = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    if (shard.firstBin != partition_.beginBin(static_cast<int>(s))) return false;
    for (std::size_t local = 0; local < shard.binBalls.size(); ++local) {
      const auto bin = static_cast<std::size_t>(shard.firstBin) + local;
      std::int64_t binLoad = 0;
      for (std::size_t i = 0; i < shard.binBalls[local].size(); ++i) {
        const std::int64_t ball = shard.binBalls[local][i];
        const BallRec* it = shard.balls.find(ball);
        if (it == nullptr) return false;
        if (it->bin != static_cast<std::int32_t>(bin)) return false;
        if (it->slot != static_cast<std::int32_t>(i)) return false;
        binLoad += it->weight;
        if (routerEnabled_) {
          const RouteRec* route = router_.find(ball);
          if (route == nullptr) return false;
          if (route->bin != it->bin) return false;
          if (route->weight != it->weight) return false;
        }
      }
      if (binLoad != shard.binLoad[local]) return false;
      if (binLoad != loads_[bin]) return false;
      if (shard.mass.get(local) != binLoad) return false;
      total += binLoad;
    }
    std::int64_t shardMass = 0;
    for (const std::int64_t v : shard.binLoad) shardMass += v;
    if (shard.mass.total() != shardMass) return false;
    ballCount += static_cast<std::int64_t>(shard.balls.size());
  }
  if (total != totalLoad_) return false;
  if (ballCount != liveBalls_) return false;
  if (routerEnabled_ && static_cast<std::int64_t>(router_.size()) != liveBalls_) {
    return false;
  }
  return true;
}

}  // namespace rlslb::serve
