// Composable workload trace generators for the online serving subsystem.
//
// Every generator is an exact event-driven sampler of an open system in the
// Ganesh et al. [11] style: balls arrive as a (possibly modulated) Poisson
// process of rate lambda(t) * n, each live ball departs at rate mu
// (service) and carries an RLS clock of rate `resampleRate` while resident.
// The generator decides which ball departs (that is part of the
// *workload*, not the allocator), so a trace is a self-contained,
// replayable object. It names balls by live slot (workload/event.hpp), so
// it keeps only the live count: an arrival takes slot = live count, and a
// departure draws a uniform slot below it.
//
// The clocks are the balancer's, not traffic: the generator runs the same
// competing-clocks race as before, but a ring emits nothing. It only
// counts, and the next record (arrival or departure) carries the count in
// Event::rings. Which ball rang is a uniform live ball, and the live set
// at that trace position is the same for the generator and the allocator,
// so the allocator draws it (serve/event_loop.hpp) and the law is exactly
// the per-ball-clock one.
//
// Determinism contract: a generator is a pure function of its options and
// seed — the same (options, seed) yields the same record stream on any
// machine, thread count, or consumption pattern. Seeds are derived through
// the same rng::streamSeed machinery as the replication harness.
//
// The roster:
//   PoissonTrace   constant-rate arrivals — the [11] baseline.
//   BurstyTrace    2-state MMPP (Markov-modulated Poisson): calm/burst
//                  phases switching at exponential times; the modulator
//                  trajectory is sampled lazily from its own stream and
//                  arrivals are thinned against the burst-rate ceiling.
//   DiurnalTrace   sinusoid-modulated rate lambda(t) = lambda*(1 +
//                  amp*sin(2*pi*t/period)), thinned against the ceiling.
// Both modulated traces are exact samplers by the Lewis-Shedler thinning
// argument (candidates at the ceiling rate, accepted with probability
// lambda(t)/ceiling); rejected candidates consume rng draws, so draw
// counts differ from PoissonTrace even at identical accepted rates.
//   HotspotTrace   adversarial: background Poisson plus periodic
//                  synchronized bursts of heavy balls at one timestamp —
//                  worst case for placement policies that act on a stale
//                  load snapshot. Rings that fall before a burst ride on
//                  its first arrival.
// Replay (workload/trace_io.hpp) completes the set.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "rng/xoshiro256pp.hpp"
#include "workload/event.hpp"

namespace rlslb::workload {

/// Pull interface: next(out) yields records in nondecreasing time order
/// until the trace ends (returns false).
class TraceGenerator {
 public:
  virtual ~TraceGenerator() = default;
  virtual bool next(Event* out) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Knobs shared by every stochastic generator.
struct OpenTraceOptions {
  std::int64_t bins = 256;         // n: arrival rate scales with system size
  double arrivalRatePerBin = 1.0;  // lambda: arrivals per bin per time unit
  double departureRate = 0.125;    // mu: per-ball service rate
  double resampleRate = 1.0;       // per-ball RLS clock rate (0 = no migration)
  std::int64_t ballWeight = 1;     // weight of background arrivals
  std::int64_t maxEvents = 1'000'000;  // trace length in records (rings not counted)
};

/// Shared event-loop over superposed exponential clocks, with hooks for
/// rate modulation and scheduled (deterministic-time) arrivals. Stochastic
/// arrivals and departures are emitted directly; only a burst's arrivals
/// queue.
class OpenTrace : public TraceGenerator {
 public:
  OpenTrace(const OpenTraceOptions& options, std::uint64_t seed);

  bool next(Event* out) final;

  [[nodiscard]] std::int64_t liveBalls() const { return live_; }

  /// Whether the total clock rate stays finite with up to 2^31 - 1 live
  /// balls (the allocator's live-slot range): the arrival ceiling times n
  /// plus the per-ball departure and ring rates times that many balls. A
  /// trace whose rates overflow cannot be sampled.
  [[nodiscard]] bool ratesFinite() const;

 protected:
  /// Instantaneous arrival rate per bin at time t; must be <=
  /// arrivalRateCeiling() everywhere (thinning correctness).
  [[nodiscard]] virtual double arrivalRateAt(double t) const;
  [[nodiscard]] virtual double arrivalRateCeiling() const;
  /// Weight of the arrival being emitted at time t (>= 1).
  [[nodiscard]] virtual std::int64_t arrivalWeight(double t);
  /// Earliest scheduled burst strictly after t, or infinity. At that time
  /// emitBurst is invoked to queue synchronized events.
  [[nodiscard]] virtual double nextBurstAfter(double t) const;
  virtual void emitBurst(double t);

  /// Queue one arrival at time t, in the next live slot; used by emitBurst.
  void queueArrival(double t, std::int64_t weight);

  OpenTraceOptions options_;
  rng::Xoshiro256pp eng_;

 private:
  double time_ = 0.0;
  std::int64_t emitted_ = 0;
  std::int32_t rings_ = 0;      // clock rings since the last emitted record
  std::int64_t live_ = 0;       // live balls, queued burst arrivals included
  std::deque<Event> pending_;   // queued burst arrivals, FIFO
};

class PoissonTrace final : public OpenTrace {
 public:
  using OpenTrace::OpenTrace;
  [[nodiscard]] std::string name() const override { return "poisson"; }
};

struct BurstyTraceOptions {
  OpenTraceOptions base;
  double burstRateFactor = 8.0;  // arrival rate multiplier in the burst state
  double calmToBurstRate = 0.05; // modulator switch rate calm -> burst
  double burstToCalmRate = 0.5;  // modulator switch rate burst -> calm
};

/// 2-state MMPP, sampled by thinning: the modulating chain's switch times
/// come from a dedicated stream (lazily extended), and arrival candidates
/// at the burst-rate ceiling are accepted with probability
/// rate(state(t))/ceiling — exact given the modulator trajectory.
class BurstyTrace final : public OpenTrace {
 public:
  BurstyTrace(const BurstyTraceOptions& options, std::uint64_t seed);
  [[nodiscard]] std::string name() const override { return "bursty"; }

 protected:
  [[nodiscard]] double arrivalRateAt(double t) const override;
  [[nodiscard]] double arrivalRateCeiling() const override;

 private:
  BurstyTraceOptions burstOptions_;
  // The modulator trajectory is precomputed lazily as switch times so that
  // arrivalRateAt stays a pure function of t (thinning hook contract).
  mutable std::vector<double> switchTimes_;  // times of state flips, ascending
  mutable rng::Xoshiro256pp modulatorEng_;
  [[nodiscard]] bool burstingAt(double t) const;
};

struct DiurnalTraceOptions {
  OpenTraceOptions base;
  double amplitude = 0.8;  // in [0, 1): peak-to-mean arrival modulation
  double period = 64.0;    // trace-time units per day
};

class DiurnalTrace final : public OpenTrace {
 public:
  DiurnalTrace(const DiurnalTraceOptions& options, std::uint64_t seed);
  [[nodiscard]] std::string name() const override { return "diurnal"; }

 protected:
  [[nodiscard]] double arrivalRateAt(double t) const override;
  [[nodiscard]] double arrivalRateCeiling() const override;

 private:
  DiurnalTraceOptions diurnalOptions_;
};

struct HotspotTraceOptions {
  OpenTraceOptions base;
  double burstPeriod = 16.0;      // deterministic spacing between hot bursts
  std::int64_t burstSize = 32;    // synchronized heavy arrivals per burst
  std::int64_t hotWeight = 8;     // weight of each hot ball
};

/// Adversarial hot-spot workload: every burstPeriod, burstSize balls of
/// weight hotWeight arrive at the *same* timestamp (one epoch sees them all
/// against one stale snapshot), on top of background Poisson traffic.
class HotspotTrace final : public OpenTrace {
 public:
  HotspotTrace(const HotspotTraceOptions& options, std::uint64_t seed);
  [[nodiscard]] std::string name() const override { return "adversarial"; }

 protected:
  [[nodiscard]] double nextBurstAfter(double t) const override;
  void emitBurst(double t) override;

 private:
  HotspotTraceOptions hotspotOptions_;
};

}  // namespace rlslb::workload
