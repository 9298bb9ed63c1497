// ComposedTrace: the workload algebra over the open-system generators.
//
// The fixed roster (poisson / bursty / diurnal / adversarial) emits one
// traffic shape at a time; capacity planning needs their *mixes*. A
// composed trace is described by a spec string over three combinators:
//
//   modulate (*)   multiply rate envelopes within a term:
//                    diurnal(0.8,64)*bursty(8,0.05,0.5)
//                  is a day/night sinusoid with MMPP bursts riding on it.
//   sum (+)        superpose terms (Poisson superposition: the sum of the
//                  term rates is the arrival rate):
//                    poisson(0.5)+diurnal(0.8,64)
//   overlay        hotspot(period,size,weight) factors schedule
//                  synchronized heavy bursts on top of the stochastic
//                  stream (their rate contribution is neutral):
//                    diurnal(0.8,64)+hotspot(16,32,8)
//
// Factors (args optional, right to left; defaults match the standalone
// generators):
//   poisson(f)                constant rate multiplier f (default 1)
//   diurnal(amp,period)       1 + amp*sin(2*pi*t/period) envelope
//   bursty(f,c2b,b2c)         2-state MMPP envelope: f while bursting,
//                             1 while calm; each bursty factor owns an
//                             independent modulator stream
//   hotspot(period,size,w)    synchronized burst overlay (size balls of
//                             weight w every period time units)
//
// Semantics: arrivals are an exact Lewis-Shedler-thinned sampler of
//   rate(t) = lambda * sum_terms ( c_term * prod_envelopes env(t) )
// against the ceiling lambda * sum(c * prod(max env)); departures and
// the RLS clock rings each record carries come from the shared OpenTrace
// clocks. A composed trace
// is a pure function of (options, spec, seed) — byte-stable across
// machines and thread counts like every other generator — and its
// single-factor degenerate cases reproduce the standalone generators
// bit-for-bit: "poisson" == PoissonTrace, "diurnal(a,p)" == DiurnalTrace,
// "bursty(f,a,b)" == BurstyTrace, "hotspot(p,s,w)" == HotspotTrace
// (pinned by tests/test_workload_compose.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rng/xoshiro256pp.hpp"
#include "workload/generators.hpp"

namespace rlslb::workload {

/// One parsed factor application. Parameters are positional; unset
/// trailing ones hold the documented defaults.
struct ComposeFactor {
  enum class Kind : std::uint8_t { kPoisson, kDiurnal, kBursty, kHotspot };
  Kind kind = Kind::kPoisson;
  double a = 1.0;  // poisson f / diurnal amp / bursty f / hotspot period
  double b = 0.0;  // diurnal period / bursty c2b / hotspot size
  double c = 0.0;  // bursty b2c / hotspot weight
};

/// A parsed spec: sum of products.
struct ComposeSpec {
  std::vector<std::vector<ComposeFactor>> terms;
  /// Canonical re-rendering (full args, shortest number form); equal specs
  /// normalize equally, and ComposedTrace::name() reports this.
  [[nodiscard]] std::string canonical() const;
};

/// The one range table of the trace shapes: why `f`'s parameters are out
/// of range, or nullptr when they are in range. The parser reports it for
/// a spec, the trace constructor asserts it, and the standalone serve
/// scenarios (bursty, diurnal, adversarial) check their params through it.
[[nodiscard]] const char* checkComposeFactor(const ComposeFactor& f);

/// Parse a spec string. On failure returns false and stores a message in
/// `error` when non-null.
[[nodiscard]] bool parseComposeSpec(const std::string& spec, ComposeSpec* out,
                                    std::string* error = nullptr);

/// CLI/describe metadata for one factor or combinator of the algebra.
struct TraceFactorSpec {
  std::string name;         // e.g. "diurnal"
  std::string signature;    // e.g. "diurnal(amp=0.8, period=64)"
  std::string role;         // "factor" or "combinator"
  std::string description;  // one line
};

/// The discoverable algebra roster (rlslb describe / rlslb traces).
[[nodiscard]] const std::vector<TraceFactorSpec>& traceFactorRoster();

class ComposedTrace final : public OpenTrace {
 public:
  /// `spec` must parse (asserted); validate with parseComposeSpec first
  /// when the string comes from a user.
  ComposedTrace(const OpenTraceOptions& options, const std::string& spec,
                std::uint64_t seed);
  ComposedTrace(const OpenTraceOptions& options, ComposeSpec spec, std::uint64_t seed);

  [[nodiscard]] std::string name() const override { return "composed:" + canonical_; }
  [[nodiscard]] const std::string& canonicalSpec() const { return canonical_; }

 protected:
  [[nodiscard]] double arrivalRateAt(double t) const override;
  [[nodiscard]] double arrivalRateCeiling() const override;
  [[nodiscard]] double nextBurstAfter(double t) const override;
  void emitBurst(double t) override;

 private:
  /// One MMPP envelope layer: the BurstyTrace modulator, verbatim, on its
  /// own stream (layer k seeded streamSeed(seed, kMmppSalt + k), so layer
  /// 0 matches the standalone BurstyTrace bit-for-bit).
  struct BurstyLayer {
    double factor = 8.0;
    double calmToBurst = 0.05;
    double burstToCalm = 0.5;
    mutable std::vector<double> switchTimes;
    mutable rng::Xoshiro256pp eng{0};
    [[nodiscard]] bool burstingAt(double t) const;
  };
  /// One term factor resolved for evaluation.
  struct EnvFactor {
    ComposeFactor::Kind kind = ComposeFactor::Kind::kPoisson;
    double a = 1.0;
    double b = 0.0;
    std::size_t burstyIndex = 0;  // into burstyLayers_ when kind == kBursty
  };
  struct Overlay {
    double period = 16.0;
    std::int64_t size = 32;
    std::int64_t weight = 8;
    [[nodiscard]] double nextAfter(double t) const;
    [[nodiscard]] bool scheduledAt(double t) const;
  };

  void build(const ComposeSpec& spec, std::uint64_t seed);

  std::string canonical_;
  std::vector<std::vector<EnvFactor>> terms_;
  std::vector<BurstyLayer> burstyLayers_;
  std::vector<Overlay> overlays_;
  double ceiling_ = 0.0;  // precomputed: sum of per-term envelope maxima
};

}  // namespace rlslb::workload
