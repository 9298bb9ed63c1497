#include "workload/generators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "util/assert.hpp"

namespace rlslb::workload {

const char* kindName(EventKind kind) {
  switch (kind) {
    case EventKind::kArrive: return "arrive";
    case EventKind::kDepart: return "depart";
  }
  RLSLB_ASSERT_MSG(false, "unknown EventKind");
  return "?";
}

bool kindFromName(std::string_view name, EventKind* out) {
  if (name == "arrive") {
    *out = EventKind::kArrive;
  } else if (name == "depart") {
    *out = EventKind::kDepart;
  } else {
    return false;
  }
  return true;
}

OpenTrace::OpenTrace(const OpenTraceOptions& options, std::uint64_t seed)
    : options_(options), eng_(seed) {
  RLSLB_ASSERT(options_.bins >= 1);
  RLSLB_ASSERT(options_.arrivalRatePerBin >= 0.0);
  RLSLB_ASSERT(options_.departureRate >= 0.0);
  RLSLB_ASSERT(options_.resampleRate >= 0.0);
  RLSLB_ASSERT(options_.ballWeight >= 1);
}

double OpenTrace::arrivalRateAt(double) const { return options_.arrivalRatePerBin; }
double OpenTrace::arrivalRateCeiling() const { return options_.arrivalRatePerBin; }
std::int64_t OpenTrace::arrivalWeight(double) { return options_.ballWeight; }
double OpenTrace::nextBurstAfter(double) const {
  return std::numeric_limits<double>::infinity();
}
void OpenTrace::emitBurst(double) {}

bool OpenTrace::ratesFinite() const {
  const double maxLive = std::numeric_limits<std::int32_t>::max();
  return std::isfinite(arrivalRateCeiling() * static_cast<double>(options_.bins) +
                       (options_.departureRate + options_.resampleRate) * maxLive);
}

void OpenTrace::queueArrival(double t, std::int64_t weight) {
  RLSLB_ASSERT(weight >= 1);
  pending_.push_back({t, EventKind::kArrive, 0, live_++, weight});
}

bool OpenTrace::next(Event* out) {
  if (emitted_ >= options_.maxEvents) return false;
  for (;;) {
    if (!pending_.empty()) {
      *out = pending_.front();
      pending_.pop_front();
      out->rings = rings_;  // rings before a burst ride on its first arrival
      rings_ = 0;
      ++emitted_;
      return true;
    }

    // Superposed exponential clocks: candidate arrivals at the rate
    // ceiling (thinned to the instantaneous rate), departures and RLS
    // clock rings per live ball. All rates are constant between records,
    // so the competing-exponentials draw is exact.
    const double ceiling = arrivalRateCeiling();
    const double arrivalRate = ceiling * static_cast<double>(options_.bins);
    const double balls = static_cast<double>(live_);
    const double recordRate = arrivalRate + options_.departureRate * balls;
    const double total = recordRate + options_.resampleRate * balls;
    const double burstAt = nextBurstAfter(time_);
    if (total <= 0.0) {
      // No running clocks (empty system, no stochastic arrivals): only a
      // scheduled burst can still produce records.
      if (!std::isfinite(burstAt)) return false;  // trace over
      time_ = burstAt;
      emitBurst(burstAt);
      continue;
    }

    // One step per clock that fires: its waiting time is -log(V) / total for
    // a fresh uniform V in (0, 1], and its ticket picks the clock. A ring
    // changes no rate, so a run of steps only multiplies its V's, and the
    // elapsed time is formed once, when a record or a burst ends the run:
    // the burst comes first iff the product falls to exp(-total * wait).
    double burstBar = std::isfinite(burstAt) ? std::exp(-total * (burstAt - time_)) : 0.0;
    double product = 1.0;
    double ticket = 0.0;
    for (;;) {
      product *= rng::uniformDoublePositive(eng_);
      if (product <= burstBar) break;
      ticket = rng::uniformDouble(eng_) * total;
      if (ticket < recordRate) break;
      // A clock ring: the allocator draws the ball, the trace only counts.
      if (rings_ == std::numeric_limits<std::int32_t>::max()) {
        throw std::invalid_argument(
            "more than 2^31 - 1 RLS clock rings between two trace records; the "
            "resample rate is too high for the arrival and departure rates");
      }
      ++rings_;
      if (product < 0x1.0p-900) {
        // Fold the elapsed time in before the product can underflow.
        time_ -= std::log(product) / total;
        product = 1.0;
        if (std::isfinite(burstAt)) burstBar = std::exp(-total * (burstAt - time_));
      }
    }
    if (product <= burstBar) {
      time_ = burstAt;
      emitBurst(burstAt);
      continue;  // burst arrivals queued; popped at the top of the loop
    }
    time_ -= std::log(product) / total;

    // The ticket fell below recordRate: an arrival candidate or a departure,
    // each in proportion to its rate.
    if (ticket < arrivalRate) {
      // Thinning: accept a candidate arrival with prob rate(t)/ceiling.
      if (rng::uniformDouble(eng_) * ceiling <= arrivalRateAt(time_)) {
        const std::int64_t weight = arrivalWeight(time_);
        RLSLB_ASSERT(weight >= 1);
        *out = {time_, EventKind::kArrive, rings_, live_++, weight};
        rings_ = 0;
        ++emitted_;
        return true;
      }
      continue;
    }
    const auto slot = static_cast<std::int64_t>(
        rng::uniformIndex(eng_, static_cast<std::uint64_t>(live_)));
    --live_;
    *out = {time_, EventKind::kDepart, rings_, slot, 0};
    rings_ = 0;
    ++emitted_;
    return true;
  }
}

// ------------------------------------------------------------------ bursty

BurstyTrace::BurstyTrace(const BurstyTraceOptions& options, std::uint64_t seed)
    : OpenTrace(options.base, seed),
      burstOptions_(options),
      modulatorEng_(rng::streamSeed(seed, 0x6d6d7070ULL)) {  // "mmpp"
  RLSLB_ASSERT(burstOptions_.burstRateFactor >= 1.0);
  RLSLB_ASSERT(burstOptions_.calmToBurstRate > 0.0 && burstOptions_.burstToCalmRate > 0.0);
}

bool BurstyTrace::burstingAt(double t) const {
  // Extend the modulator trajectory lazily past t. Switch k goes calm ->
  // burst for even k; the trajectory depends only on the modulator stream,
  // so arrivalRateAt stays a pure function of t.
  while (switchTimes_.empty() || switchTimes_.back() <= t) {
    const bool leavingCalm = switchTimes_.size() % 2 == 0;
    const double rate =
        leavingCalm ? burstOptions_.calmToBurstRate : burstOptions_.burstToCalmRate;
    const double last = switchTimes_.empty() ? 0.0 : switchTimes_.back();
    switchTimes_.push_back(last + rng::exponential(modulatorEng_, rate));
  }
  const auto it = std::upper_bound(switchTimes_.begin(), switchTimes_.end(), t);
  const auto flips = static_cast<std::size_t>(it - switchTimes_.begin());
  return flips % 2 == 1;
}

double BurstyTrace::arrivalRateAt(double t) const {
  const double calm = options_.arrivalRatePerBin;
  return burstingAt(t) ? calm * burstOptions_.burstRateFactor : calm;
}

double BurstyTrace::arrivalRateCeiling() const {
  return options_.arrivalRatePerBin * burstOptions_.burstRateFactor;
}

// ----------------------------------------------------------------- diurnal

DiurnalTrace::DiurnalTrace(const DiurnalTraceOptions& options, std::uint64_t seed)
    : OpenTrace(options.base, seed), diurnalOptions_(options) {
  RLSLB_ASSERT(diurnalOptions_.amplitude >= 0.0 && diurnalOptions_.amplitude < 1.0);
  RLSLB_ASSERT(diurnalOptions_.period > 0.0);
}

double DiurnalTrace::arrivalRateAt(double t) const {
  const double phase = 2.0 * 3.14159265358979323846 * t / diurnalOptions_.period;
  return options_.arrivalRatePerBin * (1.0 + diurnalOptions_.amplitude * std::sin(phase));
}

double DiurnalTrace::arrivalRateCeiling() const {
  return options_.arrivalRatePerBin * (1.0 + diurnalOptions_.amplitude);
}

// ----------------------------------------------------------------- hotspot

HotspotTrace::HotspotTrace(const HotspotTraceOptions& options, std::uint64_t seed)
    : OpenTrace(options.base, seed), hotspotOptions_(options) {
  RLSLB_ASSERT(hotspotOptions_.burstPeriod > 0.0);
  RLSLB_ASSERT(hotspotOptions_.burstSize >= 1);
  RLSLB_ASSERT(hotspotOptions_.hotWeight >= 1);
}

double HotspotTrace::nextBurstAfter(double t) const {
  const double period = hotspotOptions_.burstPeriod;
  double k = std::floor(t / period) + 1.0;
  double next = k * period;
  // Strictly after t: for non-dyadic periods k*period can round back down
  // to exactly t (e.g. period=0.7 at t=2.0999999999999996), which would
  // freeze trace time and re-emit the same burst forever.
  while (next <= t) next = ++k * period;
  return next;
}

void HotspotTrace::emitBurst(double t) {
  for (std::int64_t i = 0; i < hotspotOptions_.burstSize; ++i) {
    queueArrival(t, hotspotOptions_.hotWeight);
  }
}

}  // namespace rlslb::workload
