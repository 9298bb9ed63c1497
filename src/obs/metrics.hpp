// MetricsRegistry: the telemetry layer's low-overhead counter store.
//
// Design constraints, in order:
//   - The hot path (serve::EpochLoop epochs) must stay
//     allocation-free and byte-deterministic with metrics attached: every
//     mutation is a plain indexed write into a preallocated flat array --
//     no maps, no strings, no locks. Registration (name -> small integer
//     handle) is the only allocating step and happens at setup / epoch 0,
//     which the steady-state contract explicitly exempts (see
//     tests/test_serve_hotpath.cpp and tests/test_obs.cpp).
//   - Writers are sequential (the serving loop and the scenario bodies'
//     sequential sections), so the registry keeps one flat array per
//     instrument kind and needs no atomics.
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
  // ------------------------------------------------------- registration
  // Idempotent by name: re-registering returns the existing handle, so a
  // loop that registers at every run() start allocates only on the first.
  // Registration may allocate (array growth); mutation never does.

  CounterId counter(const std::string& name);
  GaugeId gauge(const std::string& name);
  /// `bounds` must be strictly increasing; value v lands in the first
  /// bucket with v <= bounds[i]. Out-of-range values are counted in
  /// explicit underflow (v < bounds.front()) / overflow (v >
  /// bounds.back()) buckets -- see histUnderflow()/histOverflow() -- so
  /// no sample is silently clamped into an edge bucket. A
  /// re-registration must repeat the same bounds (asserted).
  HistId histogram(const std::string& name, const std::vector<std::int64_t>& bounds);
  /// Log-bucketed quantile sketch (obs/sketch.hpp), rendered with the rest
  /// of the registry snapshot.
  SketchId sketch(const std::string& name);

  // ---------------------------------------------------------- mutation
  // Plain array writes.

  void add(CounterId id, std::int64_t delta) {
    RLSLB_HEAVY_ASSERT(id.valid());
    counters_[static_cast<std::size_t>(id.index)] += delta;
  }

  void observe(HistId id, std::int64_t value) {
    RLSLB_HEAVY_ASSERT(id.valid());
    const HistDef& def = hists_[static_cast<std::size_t>(id.index)];
    // Layout per histogram: [underflow][bounds.size() buckets][overflow].
    std::size_t slot = 0;
    if (value >= def.bounds.front()) {
      std::size_t bucket = 0;
      while (bucket < def.bounds.size() && value > def.bounds[bucket]) ++bucket;
      slot = 1 + bucket;  // bucket == size() -> the overflow slot
    }
    histBuckets_[def.offset + slot] += 1;
  }

  void observeSketch(SketchId id, std::int64_t value) {
    RLSLB_HEAVY_ASSERT(id.valid());
    sketches_[static_cast<std::size_t>(id.index)].observe(value);
  }

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

  // -------------------------------------------------------------- reads

  [[nodiscard]] std::int64_t counterValue(CounterId id) const {
    RLSLB_ASSERT(id.valid());
    return counters_[static_cast<std::size_t>(id.index)];
  }
  [[nodiscard]] double gaugeValue(GaugeId id) const {
    RLSLB_HEAVY_ASSERT(id.valid());
    return gauges_[static_cast<std::size_t>(id.index)];
  }
  /// In-range bucket counts (bounds.size() entries).
  [[nodiscard]] std::vector<std::int64_t> histCounts(HistId id) const;
  /// Out-of-range sample counts.
  [[nodiscard]] std::int64_t histUnderflow(HistId id) const;
  [[nodiscard]] std::int64_t histOverflow(HistId id) const;
  /// Every sample, in-range or not.
  [[nodiscard]] std::int64_t histTotal(HistId id) const;
  /// Sketch view (quantiles, min/max, count).
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

  /// Zero every value, keep registrations.
  void clear();
  /// Drop registrations and values; back to a fresh registry.
  void reset();

  /// Snapshot: {"counters":{name:value,...},"gauges":{...},
  /// "histograms":{name:{"bounds":[...],"counts":[...],"underflow":U,
  /// "overflow":O,"total":N}},"sketches":{name:{...}}} -- names in
  /// registration order (deterministic for a fixed code path).
  [[nodiscard]] report::Json toJson() const;

 private:
  struct HistDef {
    std::string name;
    std::vector<std::int64_t> bounds;
    std::size_t offset = 0;  // first slot in histBuckets_
  };

  std::vector<std::string> counterNames_;
  std::vector<std::int64_t> counters_;  // indexed by CounterId
  std::vector<std::string> gaugeNames_;
  std::vector<double> gauges_;  // indexed by GaugeId
  std::vector<HistDef> hists_;
  std::vector<std::int64_t> histBuckets_;  // every histogram's slots, back to back
  std::vector<std::string> sketchNames_;
  std::vector<QuantileSketch> sketches_;
};

}  // namespace rlslb::obs
