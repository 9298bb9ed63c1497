#include "dynamic/open_system.hpp"

#include <algorithm>
#include <cmath>

#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "util/assert.hpp"

namespace rlslb::dynamic {

namespace {

/// Salt of the stream behind the neutral-move counts ("neut").
constexpr std::uint64_t kNeutralStream = 0x6e657574ULL;

sim::BalanceTracker startTracker(std::int64_t numBins, const config::Configuration* initial) {
  RLSLB_ASSERT(numBins >= 1);
  if (initial == nullptr) return sim::BalanceTracker(numBins);
  RLSLB_ASSERT(initial->numBins() == numBins);
  return sim::BalanceTracker(initial->loads());
}

}  // namespace

OpenSystem::OpenSystem(std::int64_t numBins, const OpenSystemOptions& options, std::uint64_t seed,
                       const config::Configuration* initial)
    : tracker_(startTracker(numBins, initial)),
      options_(options),
      moveGap_(static_cast<std::size_t>(std::max(options.gap, 2))),
      eng_(seed),
      neutralEng_(rng::streamSeed(seed, kNeutralStream)) {
  RLSLB_ASSERT(options_.arrivalRatePerBin >= 0.0);
  RLSLB_ASSERT(options_.departureRate >= 0.0);
  RLSLB_ASSERT(options_.arrivalChoices >= 1);
  RLSLB_ASSERT(options_.gap >= 1);
}

const OpenSystem::Counters& OpenSystem::counters() const {
  if (neutralMass_ > 0.0) {
    counters_.migrations += rng::poisson(neutralEng_, neutralMass_);
    neutralMass_ = 0.0;
  }
  return counters_;
}

OpenSystem::Rates OpenSystem::rates() const {
  const sim::BalanceState& s = tracker_.state();
  const auto counts = tracker_.occupiedCounts();
  const std::size_t levels = counts.size();
  const auto n = static_cast<double>(s.numBins);
  Rates r;
  r.arrival = options_.arrivalRatePerBin * n;
  r.departure = options_.departureRate * static_cast<double>(s.numBalls);
  // A multiset-changing move drops a ball by at least g levels, so while
  // the spread is below g no move fires: the no-RLS gap of 2^30 never
  // scans. One pass sums v*cnt(v)*C(v - g) and v*cnt(v)*cnt(v - 1).
  if (levels > moveGap_ || options_.gap == 1) {
    double v = static_cast<double>(s.minLoad);
    double below = 0.0;  // C(v - g)
    double previous = 0.0;  // cnt(v - 1)
    double neutral = 0.0;
    for (std::size_t i = 0; i < levels; ++i, v += 1.0) {
      if (i >= moveGap_) below += counts[i - moveGap_];
      const double count = counts[i];
      r.migrationWeight += v * count * below;
      neutral += v * count * previous;
      previous = count;
    }
    if (options_.gap == 1) r.neutral = neutral / n;
  }
  r.total = r.arrival + r.departure + r.migrationWeight / n;
  return r;
}

void OpenSystem::hold(const Rates& r, double dt) {
  time_ += dt;
  neutralMass_ += r.neutral * dt;
}

void OpenSystem::fire(const Rates& r) {
  const auto counts = tracker_.occupiedCounts();
  const std::int64_t lo = tracker_.state().minLoad;
  const std::size_t levels = counts.size();
  // The clauses after || send a rounding of `which` onto the last class to
  // a class with positive rate.
  const double which = rng::uniformDouble(eng_) * r.total;

  if (which < r.arrival || (r.departure <= 0.0 && r.migrationWeight <= 0.0)) {
    // The least loaded of d uniform bins sits above level lo + i with
    // probability (above_i / n)^d, above_i = #bins above lo + i. With q
    // uniform in (0, 1], climb while that tail is >= q, i.e. while
    // above_i >= n * q^(1/d): one inversion for any d.
    const std::int64_t n = numBins();
    const double q = rng::uniformDoublePositive(eng_);
    const double threshold =
        static_cast<double>(n) *
        (options_.arrivalChoices == 1 ? q : std::pow(q, 1.0 / options_.arrivalChoices));
    std::size_t i = 0;
    std::int64_t above = n - counts[0];
    while (i + 1 < levels && static_cast<double>(above) >= threshold) {
      ++i;
      above -= counts[i];
    }
    const std::int64_t v = lo + static_cast<std::int64_t>(i);
    tracker_.onLoadChange(v, v + 1);
    ++counters_.arrivals;
    return;
  }

  if (which < r.arrival + r.departure || r.migrationWeight <= 0.0) {
    // A uniform ball: its bin's level by v * cnt(v).
    auto ticket = static_cast<std::int64_t>(
        rng::uniformIndex(eng_, static_cast<std::uint64_t>(numBalls())));
    std::int64_t v = lo;
    for (std::size_t i = 0;; ++i, ++v) {
      const std::int64_t mass = v * counts[i];
      if (ticket < mass) break;
      ticket -= mass;
    }
    tracker_.onLoadChange(v, v - 1);
    ++counters_.departures;
    return;
  }

  // Source level by v * cnt(v) * C(v - g), as sim::JumpEngine's scan draws
  // it, recomputing the weights that rates() summed.
  std::size_t src = 0;
  {
    double ticket = rng::uniformDouble(eng_) * r.migrationWeight;
    double v = static_cast<double>(lo + static_cast<std::int64_t>(moveGap_));
    double below = 0.0;
    for (std::size_t i = moveGap_; i < levels; ++i, v += 1.0) {
      below += counts[i - moveGap_];
      const double weight = v * counts[i] * below;
      if (weight <= 0.0) continue;
      src = i;  // floating-point slack can step past the last positive weight
      if (ticket < weight) break;
      ticket -= weight;
    }
  }
  RLSLB_ASSERT(src >= moveGap_);
  // Destination level <= v - g by cnt(u).
  const std::size_t top = src - moveGap_;
  std::int64_t eligible = 0;
  for (std::size_t i = 0; i <= top; ++i) eligible += counts[i];
  RLSLB_ASSERT(eligible >= 1);
  auto ticket =
      static_cast<std::int64_t>(rng::uniformIndex(eng_, static_cast<std::uint64_t>(eligible)));
  std::size_t dst = 0;
  while (ticket >= counts[dst]) ticket -= counts[dst++];

  const std::int64_t v = lo + static_cast<std::int64_t>(src);
  const std::int64_t u = lo + static_cast<std::int64_t>(dst);
  tracker_.onLoadChange(v, v - 1);
  tracker_.onLoadChange(u, u + 1);
  ++counters_.migrations;
}

bool OpenSystem::advanceWithin(double horizon) {
  if (time_ >= horizon) return false;
  const Rates r = rates();
  const bool absorbed = r.total <= 0.0;
  const double dt = absorbed ? 0.0 : rng::exponential(eng_, r.total);
  if (absorbed || time_ + dt > horizon) {
    // No change lands by the horizon: discard the jump (the holding time
    // is memoryless) and stop there in the current state. Without a
    // horizon (advance()) an absorbed system keeps its clock.
    if (horizon < kNoHorizon) {
      hold(r, horizon - time_);
      time_ = horizon;
    }
    return false;
  }
  hold(r, dt);
  fire(r);
  return true;
}

std::int64_t OpenSystem::runUntilTime(double time) {
  std::int64_t events = 0;
  while (advanceWithin(time)) ++events;
  return events;
}

}  // namespace rlslb::dynamic
