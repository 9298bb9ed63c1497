#include "workload/compose.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "report/json.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "util/assert.hpp"

namespace rlslb::workload {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr std::uint64_t kMmppSalt = 0x6d6d7070ULL;  // "mmpp" (BurstyTrace's salt)

struct FactorMeta {
  const char* name;
  ComposeFactor::Kind kind;
  int maxArgs;
  double defaults[3];
};

constexpr FactorMeta kFactorMeta[] = {
    {"poisson", ComposeFactor::Kind::kPoisson, 1, {1.0, 0.0, 0.0}},
    {"diurnal", ComposeFactor::Kind::kDiurnal, 2, {0.8, 64.0, 0.0}},
    {"bursty", ComposeFactor::Kind::kBursty, 3, {8.0, 0.05, 0.5}},
    {"hotspot", ComposeFactor::Kind::kHotspot, 3, {16.0, 32.0, 8.0}},
};

const FactorMeta* metaFor(ComposeFactor::Kind kind) {
  for (const FactorMeta& m : kFactorMeta) {
    if (m.kind == kind) return &m;
  }
  return nullptr;
}

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  void skipWs() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
      ++pos;
    }
  }
  bool fail(const std::string& message) {
    error = message + " at offset " + std::to_string(pos);
    return false;
  }
  bool factor(ComposeFactor* out) {
    skipWs();
    const std::size_t start = pos;
    while (pos < text.size() &&
           (std::isalpha(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '_')) {
      ++pos;
    }
    if (pos == start) return fail("expected factor name");
    const std::string name = text.substr(start, pos - start);
    const FactorMeta* meta = nullptr;
    for (const FactorMeta& m : kFactorMeta) {
      if (name == m.name) meta = &m;
    }
    if (meta == nullptr) return fail("unknown factor '" + name + "'");
    double args[3] = {meta->defaults[0], meta->defaults[1], meta->defaults[2]};
    skipWs();
    if (pos < text.size() && text[pos] == '(') {
      ++pos;
      int count = 0;
      skipWs();
      if (pos < text.size() && text[pos] == ')') {
        ++pos;  // empty arg list: all defaults
      } else {
        for (;;) {
          skipWs();
          const char* begin = text.c_str() + pos;
          char* end = nullptr;
          const double v = std::strtod(begin, &end);
          if (end == begin) return fail("expected number");
          pos += static_cast<std::size_t>(end - begin);
          if (count >= meta->maxArgs) {
            return fail(std::string(meta->name) + " takes at most " +
                        std::to_string(meta->maxArgs) + " args");
          }
          args[count++] = v;
          skipWs();
          if (pos < text.size() && text[pos] == ',') {
            ++pos;
            continue;
          }
          if (pos < text.size() && text[pos] == ')') {
            ++pos;
            break;
          }
          return fail("expected ',' or ')'");
        }
      }
    }
    out->kind = meta->kind;
    out->a = args[0];
    out->b = args[1];
    out->c = args[2];
    if (const char* message = checkComposeFactor(*out)) return fail(message);
    return true;
  }
  bool term(std::vector<ComposeFactor>* out) {
    ComposeFactor f;
    if (!factor(&f)) return false;
    out->push_back(f);
    for (;;) {
      skipWs();
      if (pos < text.size() && text[pos] == '*') {
        ++pos;
        if (!factor(&f)) return false;
        out->push_back(f);
        continue;
      }
      return true;
    }
  }
  bool spec(ComposeSpec* out) {
    out->terms.clear();
    std::vector<ComposeFactor> t;
    if (!term(&t)) return false;
    out->terms.push_back(std::move(t));
    for (;;) {
      skipWs();
      if (pos < text.size() && text[pos] == '+') {
        ++pos;
        t.clear();
        if (!term(&t)) return false;
        out->terms.push_back(std::move(t));
        continue;
      }
      break;
    }
    skipWs();
    if (pos != text.size()) return fail("trailing input");
    return true;
  }
};

}  // namespace

const char* checkComposeFactor(const ComposeFactor& f) {
  constexpr double kInt32Max = std::numeric_limits<std::int32_t>::max();
  switch (f.kind) {
    case ComposeFactor::Kind::kPoisson:
      if (!(f.a >= 0.0)) return "poisson multiplier must be >= 0";
      break;
    case ComposeFactor::Kind::kDiurnal:
      if (!(f.a >= 0.0 && f.a < 1.0)) return "diurnal amplitude must be in [0, 1)";
      if (!(f.b > 0.0)) return "diurnal period must be > 0";
      break;
    case ComposeFactor::Kind::kBursty:
      if (!(f.a >= 1.0)) return "bursty factor must be >= 1";
      if (!(f.b > 0.0 && f.c > 0.0)) return "bursty switch rates must be > 0";
      break;
    case ComposeFactor::Kind::kHotspot:
      if (!(f.a > 0.0)) return "hotspot period must be > 0";
      if (!(f.b >= 1.0 && f.b <= kInt32Max && f.b == std::floor(f.b))) {
        return "hotspot size must be an integer in [1, 2147483647]";
      }
      if (!(f.c >= 1.0 && f.c <= kInt32Max && f.c == std::floor(f.c))) {
        return "hotspot weight must be an integer in [1, 2147483647]";
      }
      break;
  }
  return nullptr;
}

std::string ComposeSpec::canonical() const {
  std::string out;
  for (std::size_t ti = 0; ti < terms.size(); ++ti) {
    if (ti > 0) out += '+';
    for (std::size_t fi = 0; fi < terms[ti].size(); ++fi) {
      if (fi > 0) out += '*';
      const ComposeFactor& f = terms[ti][fi];
      const FactorMeta* meta = metaFor(f.kind);
      RLSLB_ASSERT(meta != nullptr);
      out += meta->name;
      out += '(';
      const double args[3] = {f.a, f.b, f.c};
      for (int a = 0; a < meta->maxArgs; ++a) {
        if (a > 0) out += ',';
        out += report::formatJsonNumber(args[a]);
      }
      out += ')';
    }
  }
  return out;
}

bool parseComposeSpec(const std::string& spec, ComposeSpec* out, std::string* error) {
  Parser p{spec, 0, {}};
  if (!p.spec(out)) {
    if (error != nullptr) *error = p.error;
    return false;
  }
  return true;
}

const std::vector<TraceFactorSpec>& traceFactorRoster() {
  static const std::vector<TraceFactorSpec> roster = {
      {"poisson", "poisson(f=1)", "factor",
       "constant rate multiplier f (bare 'poisson' is the [11] baseline)"},
      {"diurnal", "diurnal(amp=0.8, period=64)", "factor",
       "sinusoid envelope 1 + amp*sin(2*pi*t/period)"},
      {"bursty", "bursty(factor=8, calm_to_burst=0.05, burst_to_calm=0.5)", "factor",
       "2-state MMPP envelope: xfactor while bursting; independent modulator stream per layer"},
      {"hotspot", "hotspot(period=16, size=32, weight=8)", "factor",
       "synchronized burst overlay: size balls of weight every period (rate-neutral)"},
      {"*", "termA*termB", "combinator",
       "modulate: multiply envelopes within a term (e.g. diurnal(0.8,64)*bursty(8,0.05,0.5))"},
      {"+", "specA+specB", "combinator",
       "superpose: sum term rates (Poisson superposition of independent streams)"},
  };
  return roster;
}

ComposedTrace::ComposedTrace(const OpenTraceOptions& options, const std::string& spec,
                             std::uint64_t seed)
    : OpenTrace(options, seed) {
  ComposeSpec parsed;
  std::string error;
  const bool ok = parseComposeSpec(spec, &parsed, &error);
  RLSLB_ASSERT_MSG(ok, "invalid compose spec");
  build(parsed, seed);
}

ComposedTrace::ComposedTrace(const OpenTraceOptions& options, ComposeSpec spec,
                             std::uint64_t seed)
    : OpenTrace(options, seed) {
  build(spec, seed);
}

void ComposedTrace::build(const ComposeSpec& spec, std::uint64_t seed) {
  RLSLB_ASSERT_MSG(!spec.terms.empty(), "compose spec must have at least one term");
  canonical_ = spec.canonical();
  ceiling_ = 0.0;
  for (const std::vector<ComposeFactor>& term : spec.terms) {
    RLSLB_ASSERT(!term.empty());
    std::vector<EnvFactor> resolved;
    double termCeiling = 1.0;
    for (const ComposeFactor& f : term) {
      RLSLB_ASSERT_MSG(checkComposeFactor(f) == nullptr, "invalid compose factor");
      switch (f.kind) {
        case ComposeFactor::Kind::kPoisson: {
          resolved.push_back({f.kind, f.a, 0.0, 0});
          termCeiling *= f.a;
          break;
        }
        case ComposeFactor::Kind::kDiurnal: {
          resolved.push_back({f.kind, f.a, f.b, 0});
          termCeiling *= 1.0 + f.a;
          break;
        }
        case ComposeFactor::Kind::kBursty: {
          // Layer k draws its modulator from streamSeed(seed, kMmppSalt + k);
          // layer 0 is therefore the standalone BurstyTrace stream.
          BurstyLayer layer;
          layer.factor = f.a;
          layer.calmToBurst = f.b;
          layer.burstToCalm = f.c;
          layer.eng.reseed(rng::streamSeed(
              seed, kMmppSalt + static_cast<std::uint64_t>(burstyLayers_.size())));
          resolved.push_back({f.kind, 0.0, 0.0, burstyLayers_.size()});
          burstyLayers_.push_back(std::move(layer));
          termCeiling *= f.a;
          break;
        }
        case ComposeFactor::Kind::kHotspot: {
          // Rate-neutral: contributes an overlay, not an envelope. A term of
          // only hotspot factors keeps its constant multiplier 1 — exactly
          // the standalone HotspotTrace's background Poisson.
          overlays_.push_back({f.a, static_cast<std::int64_t>(f.b),
                               static_cast<std::int64_t>(f.c)});
          break;
        }
      }
    }
    terms_.push_back(std::move(resolved));
    ceiling_ += termCeiling;
  }
}

bool ComposedTrace::BurstyLayer::burstingAt(double t) const {
  // Verbatim BurstyTrace::burstingAt (generators.cpp): lazily extend the
  // switch-time trajectory from this layer's stream, then parity-count.
  while (switchTimes.empty() || switchTimes.back() <= t) {
    const bool leavingCalm = switchTimes.size() % 2 == 0;
    const double rate = leavingCalm ? calmToBurst : burstToCalm;
    const double last = switchTimes.empty() ? 0.0 : switchTimes.back();
    switchTimes.push_back(last + rng::exponential(eng, rate));
  }
  const auto it = std::upper_bound(switchTimes.begin(), switchTimes.end(), t);
  const auto flips = static_cast<std::size_t>(it - switchTimes.begin());
  return flips % 2 == 1;
}

double ComposedTrace::arrivalRateAt(double t) const {
  double sum = 0.0;
  for (const std::vector<EnvFactor>& term : terms_) {
    double env = 1.0;
    for (const EnvFactor& f : term) {
      switch (f.kind) {
        case ComposeFactor::Kind::kPoisson:
          env *= f.a;
          break;
        case ComposeFactor::Kind::kDiurnal: {
          // Same expression as DiurnalTrace::arrivalRateAt so the single-
          // factor degenerate case is bit-identical.
          const double phase = 2.0 * kPi * t / f.b;
          env *= 1.0 + f.a * std::sin(phase);
          break;
        }
        case ComposeFactor::Kind::kBursty: {
          const BurstyLayer& layer = burstyLayers_[f.burstyIndex];
          if (layer.burstingAt(t)) env *= layer.factor;
          break;
        }
        case ComposeFactor::Kind::kHotspot:
          break;  // rate-neutral (overlay handled via the burst hooks)
      }
    }
    sum += env;
  }
  return options_.arrivalRatePerBin * sum;
}

double ComposedTrace::arrivalRateCeiling() const {
  return options_.arrivalRatePerBin * ceiling_;
}

double ComposedTrace::Overlay::nextAfter(double t) const {
  // Verbatim HotspotTrace::nextBurstAfter, including the strictly-after
  // guard for non-dyadic periods.
  double k = std::floor(t / period) + 1.0;
  double next = k * period;
  while (next <= t) next = ++k * period;
  return next;
}

bool ComposedTrace::Overlay::scheduledAt(double t) const {
  // t came out of some overlay's nextAfter, i.e. it is an exact double
  // product k*period for THAT overlay; this one fires too iff t is also on
  // its own grid. Reconstruct k by rounding and accept only an exact
  // product match (neighbors guard against t/period landing a ulp off).
  const double k = std::round(t / period);
  for (double kk = k - 1.0; kk <= k + 1.0; kk += 1.0) {
    if (kk >= 1.0 && kk * period == t) return true;
  }
  return false;
}

double ComposedTrace::nextBurstAfter(double t) const {
  double next = std::numeric_limits<double>::infinity();
  for (const Overlay& overlay : overlays_) {
    next = std::min(next, overlay.nextAfter(t));
  }
  return next;
}

void ComposedTrace::emitBurst(double t) {
  // Every overlay whose grid contains t fires, in spec order, at the same
  // timestamp — coincident bursts merge into one synchronized volley.
  for (const Overlay& overlay : overlays_) {
    if (!overlay.scheduledAt(t)) continue;
    for (std::int64_t i = 0; i < overlay.size; ++i) {
      queueArrival(t, overlay.weight);
    }
  }
}

}  // namespace rlslb::workload
