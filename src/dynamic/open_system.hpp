// Open-system RLS: the companion setting of Ganesh-Lilienthal-Manjunath-
// Proutiere-Simatos [11], the work whose closed-system bound the paper
// tightens.
//
// In the open system, balls are not permanent: new balls arrive as a
// Poisson process of rate lambda * n (each arrival lands in a uniformly
// random bin, or the least loaded of d sampled bins), every ball departs at
// rate mu (service), and while resident each ball carries the usual rate-1
// RLS migration clock. The offered load is rho = lambda / mu; the total
// ball count is an M/M/inf birth-death process with mean lambda*n/mu, and
// the interesting question -- studied by [11] -- is how far RLS keeps the
// *spread* below what arrivals alone would cause.
//
// Balls and bins are identical, so the load multiset is a Markov chain of
// its own (the lumping sim::JumpEngine uses for the closed system). This
// class samples that chain exactly, on the level counts cnt(v) kept by
// sim::BalanceTracker, with C(x) = #bins with load <= x and B balls. It
// never simulates a ring that leaves the multiset unchanged. Its three
// event classes:
//
//   - arrival, rate lambda*n: the least loaded of d uniform bins has level
//     >= x with probability (1 - C(x-1)/n)^d; one inversion of that tail
//     draws the level, so any d costs O(L) (L = max - min + 1 levels);
//   - departure, rate mu*B: a level drawn by v*cnt(v);
//   - multiset-changing migration, rate (1/n) sum_v v*cnt(v)*C(v - g) with
//     g = max(gap, 2): source level by v*cnt(v)*C(v - g), destination level
//     <= v - g by cnt(u), as sim::JumpEngine's scan draws them.
//
// Exact in law in two more places:
//   - Neutral moves (gap 1, a ball one level down: rate
//     r_N = (1/n) sum_v v*cnt(v)*cnt(v-1)) are self-loops of the lumped
//     chain. Given the chain's path they are a Poisson process of rate r_N,
//     so the sampler integrates r_N over each holding interval and
//     counters() adds Poisson(integral since the last read) to the
//     migration counter, drawn from a second stream: reading the counters
//     never perturbs the chain's own draws. (A read schedule changes the
//     counter's draws, not its law.)
//   - runUntilTime(t), and process::run with maxTime = t, return the state
//     AT t, absorbed or not: a holding time that would cross t is
//     discarded, which memorylessness makes exact. The state right after
//     the next jump would be length-biased, because the lumped holding rate
//     depends on the spread.
#pragma once

#include <cstdint>
#include <limits>

#include "config/configuration.hpp"
#include "process/process.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/balance_tracker.hpp"

namespace rlslb::dynamic {

struct OpenSystemOptions {
  double arrivalRatePerBin = 0.5;  // lambda: arrivals per bin per time unit
  double departureRate = 1.0;      // mu: per-ball service rate
  int arrivalChoices = 1;          // d: arrival samples d bins, joins least loaded
  int gap = 1;                     // RLS acceptance gap (1 = paper's protocol)
};

class OpenSystem final : public process::Process {
 public:
  OpenSystem(std::int64_t numBins, const OpenSystemOptions& options, std::uint64_t seed,
             const config::Configuration* initial = nullptr);

  /// Advance to the next change of the load multiset (an arrival, a
  /// departure or a multiset-changing migration). Returns false iff none
  /// has positive rate; time() and the state are then unchanged.
  bool advance() override { return advanceWithin(kNoHorizon); }

  /// advance(), unless no change lands by `horizon` (> time()), absorbed
  /// included: then time() stops at a finite `horizon` in the current state
  /// and this returns false.
  bool advanceWithin(double horizon) override;

  /// Advance to exactly `time` (no-op if time() is already there), also
  /// when absorbed; returns the number of multiset changes made. The same
  /// stop as process::run with maxTime = `time`.
  std::int64_t runUntilTime(double time);

  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] process::Clock now() const override {
    return {process::Clock::Kind::Continuous, time_};
  }
  [[nodiscard]] const process::Capabilities& capabilities() const override {
    static constexpr process::Capabilities kCaps{.openSystem = true};
    return kCaps;
  }
  /// Accepted migrations, neutral ones included (reads counters()).
  [[nodiscard]] std::int64_t moves() const override { return counters().migrations; }
  [[nodiscard]] std::int64_t numBins() const { return tracker_.state().numBins; }
  [[nodiscard]] std::int64_t numBalls() const { return tracker_.state().numBalls; }
  /// #bins with load `level`.
  [[nodiscard]] std::int64_t levelCount(std::int64_t level) const {
    return tracker_.levelCount(level);
  }

  /// O(1) balance view; numBalls tracks the live population.
  [[nodiscard]] const sim::BalanceState& state() const override { return tracker_.state(); }

  [[nodiscard]] std::int64_t maxLoad() const { return tracker_.state().maxLoad; }
  [[nodiscard]] std::int64_t minLoad() const { return tracker_.state().minLoad; }
  /// max - min; the open-system analogue of the discrepancy (the average
  /// itself fluctuates with the ball count).
  [[nodiscard]] std::int64_t spread() const { return maxLoad() - minLoad(); }

  struct Counters {
    std::int64_t arrivals = 0;
    std::int64_t departures = 0;
    std::int64_t migrations = 0;  // accepted moves, neutral ones included
  };
  /// Draws the neutral moves accrued since the last read (see above).
  [[nodiscard]] const Counters& counters() const;

 private:
  static constexpr double kNoHorizon = std::numeric_limits<double>::infinity();

  /// The current state's event rates.
  struct Rates {
    double arrival = 0.0;
    double departure = 0.0;
    double migrationWeight = 0.0;  // sum_v v*cnt(v)*C(v - g); the rate is this / n
    double neutral = 0.0;          // r_N
    double total = 0.0;
  };

  sim::BalanceTracker tracker_;
  OpenSystemOptions options_;
  std::size_t moveGap_;  // g = max(gap, 2): the smallest multiset-changing drop
  rng::Xoshiro256pp eng_;
  double time_ = 0.0;

  mutable rng::Xoshiro256pp neutralEng_;
  mutable double neutralMass_ = 0.0;  // integral of r_N since the last counters() read
  mutable Counters counters_;

  [[nodiscard]] Rates rates() const;
  /// Hold for `dt` in the current state (accrues the neutral moves).
  void hold(const Rates& r, double dt);
  void fire(const Rates& r);
};

}  // namespace rlslb::dynamic
