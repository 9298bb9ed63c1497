// Frozen per-bin open system: the test oracle for the lumped
// dynamic::OpenSystem (tests/test_dynamic.cpp) and for the serving loop's
// long-open cross-check.
//
// This is a test-only copy of the open-system engine as it simulated every
// clock ring: an exact event-driven simulation of the combined CTMC on
// per-bin loads. The three event classes (arrival, departure, migration
// clock) are superposed at total rate lambda*n + (mu+1)*B, B the current
// ball count, and the class is chosen proportionally. Departures and
// migrations pick a uniformly random *ball* (a load-weighted bin via a
// Fenwick tree); a migration moves it to a uniform bin iff
// load(src) >= load(dst) + gap. Every ring is an event, accepted or not.
//
// The production sampler's contract is equality in law with THIS code, on
// the load multiset and the counters (checked by KS/MWU), so do not "fix"
// or modernize it; it only changes if the open-system semantics are
// deliberately re-specified.
#pragma once

#include <cstdint>
#include <vector>

#include "config/configuration.hpp"
#include "ds/fenwick.hpp"
#include "dynamic/open_system.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/balance_tracker.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"

namespace rlslb::dynamic::reference {

class PerBinOpenSystem {
 public:
  PerBinOpenSystem(std::int64_t numBins, const OpenSystemOptions& options, std::uint64_t seed,
                   const config::Configuration* initial = nullptr)
      : loads_(initial != nullptr
                   ? initial->loads()
                   : std::vector<std::int64_t>(static_cast<std::size_t>(numBins), 0)),
        tracker_(loads_),
        ballMass_(loads_),
        options_(options),
        eng_(seed) {
    RLSLB_ASSERT(numBins >= 1);
    RLSLB_ASSERT(initial == nullptr || initial->numBins() == numBins);
    RLSLB_ASSERT(options_.arrivalRatePerBin >= 0.0);
    RLSLB_ASSERT(options_.departureRate >= 0.0);
    RLSLB_ASSERT(options_.arrivalChoices >= 1);
    RLSLB_ASSERT(options_.gap >= 1);
    for (std::int64_t v : loads_) balls_ += v;
  }

  /// Advance one event (arrival, departure, or migration attempt).
  /// Returns false only if the system is empty AND arrivals are disabled.
  bool step() {
    const auto n = static_cast<std::uint64_t>(loads_.size());
    const double arrivalRate = options_.arrivalRatePerBin * static_cast<double>(n);
    const double perBallRate = options_.departureRate + 1.0;  // service + RLS clock
    const double totalRate = arrivalRate + perBallRate * static_cast<double>(balls_);
    if (totalRate <= 0.0) return false;

    time_ += rng::exponential(eng_, totalRate);
    const double which = rng::uniformDouble(eng_) * totalRate;

    if (which < arrivalRate) {
      // Arrival: least loaded of d uniform samples (d = 1 is uniform).
      std::size_t best = static_cast<std::size_t>(rng::uniformIndex(eng_, n));
      for (int k = 1; k < options_.arrivalChoices; ++k) {
        const auto cand = static_cast<std::size_t>(rng::uniformIndex(eng_, n));
        if (loads_[cand] < loads_[best]) best = cand;
      }
      addBall(best);
      ++counters_.arrivals;
      return true;
    }

    // Pick a uniform resident ball (load-weighted bin).
    const auto ticket =
        static_cast<std::int64_t>(rng::uniformIndex(eng_, static_cast<std::uint64_t>(balls_)));
    const std::size_t bin = ballMass_.upperBound(ticket);

    const double departShare = options_.departureRate / perBallRate;
    if (rng::uniformDouble(eng_) < departShare) {
      removeBall(bin);
      ++counters_.departures;
      return true;
    }

    // RLS migration attempt.
    ++counters_.migrationAttempts;
    const auto dst = static_cast<std::size_t>(rng::uniformIndex(eng_, n));
    if (dst != bin && loads_[bin] >= loads_[dst] + options_.gap) {
      removeBall(bin);
      addBall(dst);
      ++counters_.migrations;
    }
    return true;
  }

  /// The historical time loop: step until the clock passes `time`, so the
  /// state returned is the one right after the first event at or past it.
  std::int64_t runUntilTime(double time) {
    std::int64_t events = 0;
    while (time_ < time) {
      if (!step()) break;
      ++events;
    }
    return events;
  }

  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] std::int64_t numBins() const { return static_cast<std::int64_t>(loads_.size()); }
  [[nodiscard]] std::int64_t numBalls() const { return balls_; }
  [[nodiscard]] const std::vector<std::int64_t>& loads() const { return loads_; }
  [[nodiscard]] const sim::BalanceState& state() const { return tracker_.state(); }
  [[nodiscard]] std::int64_t spread() const {
    return tracker_.state().maxLoad - tracker_.state().minLoad;
  }

  struct Counters {
    std::int64_t arrivals = 0;
    std::int64_t departures = 0;
    std::int64_t migrationAttempts = 0;
    std::int64_t migrations = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  std::vector<std::int64_t> loads_;
  sim::BalanceTracker tracker_;
  ds::Fenwick<std::int64_t> ballMass_;
  OpenSystemOptions options_;
  rng::Xoshiro256pp eng_;
  std::int64_t balls_ = 0;
  double time_ = 0.0;
  Counters counters_;

  void addBall(std::size_t bin) {
    tracker_.onLoadChange(loads_[bin], loads_[bin] + 1);
    ++loads_[bin];
    ballMass_.add(bin, +1);
    ++balls_;
  }

  void removeBall(std::size_t bin) {
    RLSLB_ASSERT(loads_[bin] >= 1);
    tracker_.onLoadChange(loads_[bin], loads_[bin] - 1);
    --loads_[bin];
    ballMass_.add(bin, -1);
    --balls_;
  }
};

}  // namespace rlslb::dynamic::reference
