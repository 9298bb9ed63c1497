#include "obs/metrics.hpp"

#include <algorithm>

namespace rlslb::obs {

namespace {

/// Linear name lookup: registries hold a few dozen instruments and
/// registration runs at setup time, so a map would be pure overhead.
std::int32_t indexOf(const std::vector<std::string>& names, const std::string& name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<std::int32_t>(i);
  }
  return -1;
}

}  // namespace

CounterId MetricsRegistry::counter(const std::string& name) {
  std::int32_t idx = indexOf(counterNames_, name);
  if (idx < 0) {
    idx = static_cast<std::int32_t>(counterNames_.size());
    counterNames_.push_back(name);
    counters_.push_back(0);
  }
  return CounterId{idx};
}

GaugeId MetricsRegistry::gauge(const std::string& name) {
  std::int32_t idx = indexOf(gaugeNames_, name);
  if (idx < 0) {
    idx = static_cast<std::int32_t>(gaugeNames_.size());
    gaugeNames_.push_back(name);
    gauges_.push_back(0.0);
  }
  return GaugeId{idx};
}

HistId MetricsRegistry::histogram(const std::string& name,
                                  const std::vector<std::int64_t>& bounds) {
  RLSLB_ASSERT_MSG(!bounds.empty(), "histogram needs at least one bucket bound");
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    RLSLB_ASSERT_MSG(bounds[i - 1] < bounds[i],
                     "histogram bounds must be strictly increasing");
  }
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    if (hists_[i].name == name) {
      RLSLB_ASSERT_MSG(hists_[i].bounds == bounds,
                       "histogram re-registered with different bounds");
      return HistId{static_cast<std::int32_t>(i)};
    }
  }
  HistDef def;
  def.name = name;
  def.bounds = bounds;
  def.offset = histBuckets_.size();
  histBuckets_.resize(histBuckets_.size() + bounds.size() + 2, 0);  // + under/overflow
  hists_.push_back(std::move(def));
  return HistId{static_cast<std::int32_t>(hists_.size() - 1)};
}

SketchId MetricsRegistry::sketch(const std::string& name) {
  std::int32_t idx = indexOf(sketchNames_, name);
  if (idx < 0) {
    idx = static_cast<std::int32_t>(sketchNames_.size());
    sketchNames_.push_back(name);
    sketches_.emplace_back();
  }
  return SketchId{idx};
}

std::vector<std::int64_t> MetricsRegistry::histCounts(HistId id) const {
  RLSLB_ASSERT(id.valid());
  const HistDef& def = hists_[static_cast<std::size_t>(id.index)];
  const auto first = histBuckets_.begin() + static_cast<std::ptrdiff_t>(def.offset + 1);
  return {first, first + static_cast<std::ptrdiff_t>(def.bounds.size())};  // skip underflow
}

std::int64_t MetricsRegistry::histUnderflow(HistId id) const {
  RLSLB_ASSERT(id.valid());
  return histBuckets_[hists_[static_cast<std::size_t>(id.index)].offset];
}

std::int64_t MetricsRegistry::histOverflow(HistId id) const {
  RLSLB_ASSERT(id.valid());
  const HistDef& def = hists_[static_cast<std::size_t>(id.index)];
  return histBuckets_[def.offset + def.bounds.size() + 1];
}

std::int64_t MetricsRegistry::histTotal(HistId id) const {
  std::int64_t total = histUnderflow(id) + histOverflow(id);
  for (const std::int64_t c : histCounts(id)) total += c;
  return total;
}

void MetricsRegistry::clear() {
  std::fill(counters_.begin(), counters_.end(), 0);
  std::fill(histBuckets_.begin(), histBuckets_.end(), 0);
  std::fill(gauges_.begin(), gauges_.end(), 0.0);
  for (QuantileSketch& sketch : sketches_) sketch.clear();
}

void MetricsRegistry::reset() {
  counterNames_.clear();
  counters_.clear();
  gaugeNames_.clear();
  gauges_.clear();
  hists_.clear();
  histBuckets_.clear();
  sketchNames_.clear();
  sketches_.clear();
}

report::Json MetricsRegistry::toJson() const {
  report::Json counters = report::Json::object();
  for (std::size_t i = 0; i < counterNames_.size(); ++i) {
    counters.set(counterNames_[i], counterValue(CounterId{static_cast<std::int32_t>(i)}));
  }
  report::Json gauges = report::Json::object();
  for (std::size_t i = 0; i < gaugeNames_.size(); ++i) {
    gauges.set(gaugeNames_[i], gauges_[i]);
  }
  report::Json hists = report::Json::object();
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    const HistDef& def = hists_[i];
    report::Json bounds = report::Json::array();
    for (const std::int64_t b : def.bounds) bounds.push(b);
    const auto id = HistId{static_cast<std::int32_t>(i)};
    report::Json counts = report::Json::array();
    for (const std::int64_t c : histCounts(id)) counts.push(c);
    report::Json h = report::Json::object();
    h.set("bounds", std::move(bounds));
    h.set("counts", std::move(counts));
    h.set("underflow", histUnderflow(id));
    h.set("overflow", histOverflow(id));
    h.set("total", histTotal(id));
    hists.set(def.name, std::move(h));
  }
  report::Json sketches = report::Json::object();
  for (std::size_t i = 0; i < sketchNames_.size(); ++i) {
    sketches.set(sketchNames_[i], sketches_[i].toJson());
  }
  report::Json j = report::Json::object();
  j.set("counters", std::move(counters));
  j.set("gauges", std::move(gauges));
  j.set("histograms", std::move(hists));
  j.set("sketches", std::move(sketches));
  return j;
}

}  // namespace rlslb::obs
