// MetricsRegistry: the telemetry layer's low-overhead counter store.
//
// Design constraints, in order:
//   - The hot path (serve::EpochLoop epochs) must stay
//     allocation-free and byte-deterministic with metrics attached: every
//     mutation is a plain indexed write into a preallocated flat slab --
//     no maps, no strings, no locks. Registration (name -> small integer
//     handle) is the only allocating step and happens at setup / epoch 0,
//     which the steady-state contract explicitly exempts (see
//     tests/test_serve_hotpath.cpp and tests/test_obs.cpp).
//   - Parallel phases write *per-shard*: shard s's slab is owned by
//     whichever thread runs shard s's work, so concurrent adds need no
//     atomics. Merged values are read only at epoch/round boundaries (or
//     at report time) by summing slabs in shard-index order -- a
//     deterministic reduction.
//   - Four instrument kinds cover the repo's needs: monotonic counters
//     (events, migrations, per-phase nanoseconds), gauges
//     (last-observed values: gap, live balls -- written from sequential
//     sections only), fixed-bucket histograms (per-epoch gap
//     distribution; bounds are chosen at registration, out-of-range
//     samples land in explicit underflow/overflow buckets rather than
//     being clamped into the edge buckets), and quantile sketches
//     (obs/sketch.hpp: HDR-style log-bucketed distributions for values
//     with no natural fixed bounds, e.g. per-epoch nanoseconds).
//
// One registry is owned by ScenarioContext and survives for a whole
// driver run; ScenarioRegistry::runOne resets it per scenario and emits
// the merged snapshot as a {"type":"metrics"} JSONL record (see
// report/result_sink.hpp -- the record carries wall-clock-derived values
// and is therefore excluded from the byte-determinism contract).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/sketch.hpp"
#include "report/json.hpp"
#include "util/assert.hpp"

namespace rlslb::obs {

/// Small typed handles; invalid (default) handles make writes a no-op in
/// debug-assert terms -- callers are expected to register first.
struct CounterId {
  std::int32_t index = -1;
  [[nodiscard]] bool valid() const { return index >= 0; }
};
struct GaugeId {
  std::int32_t index = -1;
  [[nodiscard]] bool valid() const { return index >= 0; }
};
struct HistId {
  std::int32_t index = -1;
  [[nodiscard]] bool valid() const { return index >= 0; }
};
struct SketchId {
  std::int32_t index = -1;
  [[nodiscard]] bool valid() const { return index >= 0; }
};

class MetricsRegistry {
 public:
  MetricsRegistry() { configureShards(1); }

  // ------------------------------------------------------- registration
  // Idempotent by name: re-registering returns the existing handle, so a
  // loop that registers at every run() start allocates only on the first.
  // Registration may allocate (slab growth); mutation never does.

  CounterId counter(const std::string& name);
  GaugeId gauge(const std::string& name);
  /// `bounds` must be strictly increasing; value v lands in the first
  /// bucket with v <= bounds[i]. Out-of-range values are counted in
  /// explicit underflow (v < bounds.front()) / overflow (v >
  /// bounds.back()) buckets -- see histUnderflow()/histOverflow() -- so
  /// no sample is silently clamped into an edge bucket. A
  /// re-registration must repeat the same bounds (asserted).
  HistId histogram(const std::string& name, const std::vector<std::int64_t>& bounds);
  /// Log-bucketed quantile sketch (obs/sketch.hpp), merged and rendered
  /// with the rest of the registry snapshot.
  SketchId sketch(const std::string& name);

  /// Size the per-shard slab array (>= 1). Existing shard values are kept
  /// where indices overlap; new shards start at zero. Called by the
  /// parallel layers (e.g. the event loop) with their resolved shard
  /// count before the first parallel write.
  void configureShards(int shards);
  [[nodiscard]] int shards() const { return static_cast<int>(slabs_.size()); }

  // ---------------------------------------------------------- mutation
  // All three are plain array writes. `shard` must be the index of the
  // slab the calling thread owns for the duration of the parallel phase;
  // the sequential sections use the shard-0 convenience forms.

  void addShard(int shard, CounterId id, std::int64_t delta) {
    RLSLB_HEAVY_ASSERT(id.valid() && shard >= 0 && shard < shards());
    slabs_[static_cast<std::size_t>(shard)]
        .counters[static_cast<std::size_t>(id.index)] += delta;
  }
  void add(CounterId id, std::int64_t delta) { addShard(0, id, delta); }

  void observeShard(int shard, HistId id, std::int64_t value) {
    RLSLB_HEAVY_ASSERT(id.valid() && shard >= 0 && shard < shards());
    const HistDef& def = hists_[static_cast<std::size_t>(id.index)];
    // Slab layout per histogram: [underflow][bounds.size() buckets][overflow].
    std::size_t slot = 0;
    if (value >= def.bounds.front()) {
      std::size_t bucket = 0;
      while (bucket < def.bounds.size() && value > def.bounds[bucket]) ++bucket;
      slot = 1 + bucket;  // bucket == size() -> the overflow slot
    }
    slabs_[static_cast<std::size_t>(shard)].histBuckets[def.offset + slot] += 1;
  }
  void observe(HistId id, std::int64_t value) { observeShard(0, id, value); }

  void observeSketchShard(int shard, SketchId id, std::int64_t value) {
    RLSLB_HEAVY_ASSERT(id.valid());
    sketches_[static_cast<std::size_t>(id.index)].observeShard(shard, value);
  }
  void observeSketch(SketchId id, std::int64_t value) {
    observeSketchShard(0, id, value);
  }

  /// Gauges are not sharded: set from sequential sections only.
  void set(GaugeId id, double value) {
    RLSLB_HEAVY_ASSERT(id.valid());
    gauges_[static_cast<std::size_t>(id.index)] = value;
  }
  /// set(max(current, value)) -- for peak-style gauges.
  void setMax(GaugeId id, double value) {
    RLSLB_HEAVY_ASSERT(id.valid());
    double& g = gauges_[static_cast<std::size_t>(id.index)];
    if (value > g) g = value;
  }

  // ------------------------------------------------------ merged reads
  // Sum over slabs in shard-index order: deterministic for integer
  // counters regardless of which threads ran which shards.

  [[nodiscard]] std::int64_t counterValue(CounterId id) const;
  [[nodiscard]] double gaugeValue(GaugeId id) const {
    RLSLB_HEAVY_ASSERT(id.valid());
    return gauges_[static_cast<std::size_t>(id.index)];
  }
  /// Merged in-range bucket counts (bounds.size() entries).
  [[nodiscard]] std::vector<std::int64_t> histCounts(HistId id) const;
  /// Out-of-range sample counts.
  [[nodiscard]] std::int64_t histUnderflow(HistId id) const;
  [[nodiscard]] std::int64_t histOverflow(HistId id) const;
  /// Every sample, in-range or not.
  [[nodiscard]] std::int64_t histTotal(HistId id) const;
  /// Merged sketch view (quantiles, min/max, count).
  [[nodiscard]] const QuantileSketch& sketchView(SketchId id) const {
    RLSLB_ASSERT(id.valid());
    return sketches_[static_cast<std::size_t>(id.index)];
  }

  /// True when nothing has been registered (a scenario that never touched
  /// the registry emits no metrics record).
  [[nodiscard]] bool empty() const {
    return counterNames_.empty() && gaugeNames_.empty() && hists_.empty() &&
           sketchNames_.empty();
  }

  /// Zero every value, keep registrations and shard layout.
  void clear();
  /// Drop registrations and values; back to a fresh single-shard registry.
  void reset();

  /// Merged snapshot: {"counters":{name:value,...},"gauges":{...},
  /// "histograms":{name:{"bounds":[...],"counts":[...],"underflow":U,
  /// "overflow":O,"total":N}},"sketches":{name:{...}}} -- names in
  /// registration order (deterministic for a fixed code path).
  [[nodiscard]] report::Json toJson() const;

 private:
  struct HistDef {
    std::string name;
    std::vector<std::int64_t> bounds;
    std::size_t offset = 0;  // first bucket slot in every slab
  };
  /// One shard's flat value arrays; indices are the handle indices
  /// (counters) / HistDef offsets (histogram buckets).
  struct Slab {
    std::vector<std::int64_t> counters;
    std::vector<std::int64_t> histBuckets;
  };

  void layoutSlabs();

  std::vector<std::string> counterNames_;
  std::vector<std::string> gaugeNames_;
  std::vector<HistDef> hists_;
  std::size_t histSlots_ = 0;  // total bucket slots across histograms
  std::vector<double> gauges_;
  std::vector<Slab> slabs_;
  std::vector<std::string> sketchNames_;
  std::vector<QuantileSketch> sketches_;  // each carries its own shard slabs
};

}  // namespace rlslb::obs
