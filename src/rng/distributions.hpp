// Distribution samplers over any 64-bit engine (concept Uint64Engine).
// Everything here is an *exact* sampler (up to floating-point rounding):
// the simulators' correctness arguments rely on the activation process being
// exactly Poisson and destination choices exactly uniform.
#pragma once

#include <cmath>
#include <math.h>
#include <concepts>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace rlslb::rng {

template <typename E>
concept Uint64Engine = requires(E e) {
  { e.next() } -> std::convertible_to<std::uint64_t>;
};

/// Uniform double in [0, 1) with 53 random bits.
template <Uint64Engine E>
double uniformDouble(E& eng) {
  return static_cast<double>(eng.next() >> 11) * 0x1.0p-53;
}

/// Uniform double in (0, 1]; safe as an argument to log().
template <Uint64Engine E>
double uniformDoublePositive(E& eng) {
  return static_cast<double>((eng.next() >> 11) + 1) * 0x1.0p-53;
}

/// Uniform integer in [0, bound) by Lemire's multiply-shift with rejection.
/// Exactly uniform for any bound >= 1.
template <Uint64Engine E>
std::uint64_t uniformIndex(E& eng, std::uint64_t bound) {
  RLSLB_ASSERT(bound >= 1);
  __extension__ typedef unsigned __int128 u128;
  u128 m = static_cast<u128>(eng.next()) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0ULL - bound) % bound;
    while (lo < threshold) {
      m = static_cast<u128>(eng.next()) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

/// Uniform integer in [lo, hi] inclusive.
template <Uint64Engine E>
std::int64_t uniformInt(E& eng, std::int64_t lo, std::int64_t hi) {
  RLSLB_ASSERT(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniformIndex(eng, span));
}

/// Exponential with rate `lambda` (mean 1/lambda).
template <Uint64Engine E>
double exponential(E& eng, double lambda) {
  RLSLB_ASSERT(lambda > 0);
  return -std::log(uniformDoublePositive(eng)) / lambda;
}

/// Bernoulli(p).
template <Uint64Engine E>
bool bernoulli(E& eng, double p) {
  return uniformDouble(eng) < p;
}

/// Geometric number of trials until first success, support {1, 2, ...},
/// mean 1/p. Matches the convention of Lemmas 7/13 in the paper.
template <Uint64Engine E>
std::int64_t geometricTrials(E& eng, double p) {
  RLSLB_ASSERT(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 1;
  const double u = uniformDoublePositive(eng);
  const double v = std::ceil(std::log(u) / std::log1p(-p));
  return v < 1.0 ? 1 : static_cast<std::int64_t>(v);
}

/// Standard normal via Marsaglia's polar method (no cached spare: keeps the
/// sampler stateless so replications stay reproducible under refactoring).
template <Uint64Engine E>
double standardNormal(E& eng) {
  for (;;) {
    const double x = 2.0 * uniformDouble(eng) - 1.0;
    const double y = 2.0 * uniformDouble(eng) - 1.0;
    const double s = x * x + y * y;
    if (s > 0.0 && s < 1.0) return x * std::sqrt(-2.0 * std::log(s) / s);
  }
}

namespace detail {
/// ln Gamma(x). std::lgamma also writes the global `signgam` on glibc, a
/// data race once replications sample on several pool threads; lgamma_r
/// returns the sign through its argument and the same value.
inline double logGamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

/// Binomial by inversion (BINV); efficient for n*min(p,1-p) <~ 10.
template <Uint64Engine E>
std::int64_t binomialInversion(E& eng, std::int64_t n, double p) {
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = static_cast<double>(n + 1) * s;
  double r = std::pow(q, static_cast<double>(n));
  double u = uniformDouble(eng);
  std::int64_t x = 0;
  // The loop terminates with probability 1; the x > n guard handles the
  // vanishing-probability tail where floating-point r underflows.
  while (u > r) {
    u -= r;
    ++x;
    if (x > n) return n;
    r *= (a / static_cast<double>(x)) - s;
  }
  return x;
}

/// Binomial via the BTRS transformed-rejection sampler (Hoermann 1993);
/// requires n*p >= 10 and p <= 0.5.
template <Uint64Engine E>
std::int64_t binomialBtrs(E& eng, std::int64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double spq = std::sqrt(nd * p * (1.0 - p));
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double vr = 0.92 - 4.2 / b;
  const double r = p / (1.0 - p);
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double lpq = std::log(r);
  const auto mode = static_cast<std::int64_t>(std::floor((nd + 1.0) * p));
  const double h = logGamma(static_cast<double>(mode) + 1.0) +
                   logGamma(static_cast<double>(n - mode) + 1.0);
  for (;;) {
    const double u = uniformDouble(eng) - 0.5;
    double v = uniformDouble(eng);
    const double us = 0.5 - std::fabs(u);
    const auto k = static_cast<std::int64_t>(std::floor((2.0 * a / us + b) * u + c));
    if (k < 0 || k > n) continue;
    // Squeeze: the box region where acceptance is certain.
    if (us >= 0.07 && v <= vr) return k;
    v = v * alpha / (a / (us * us) + b);
    const double kd = static_cast<double>(k);
    if (std::log(v) <= h - logGamma(kd + 1.0) - logGamma(static_cast<double>(n - k) + 1.0) +
                           (kd - static_cast<double>(mode)) * lpq) {
      return k;
    }
  }
}
}  // namespace detail

/// Exact Binomial(n, p) sample. Handles the full parameter range; O(1)
/// expected time for large n*p via BTRS, inversion otherwise.
template <Uint64Engine E>
std::int64_t binomial(E& eng, std::int64_t n, double p) {
  RLSLB_ASSERT(n >= 0 && p >= 0.0 && p <= 1.0);
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  const bool flipped = p > 0.5;
  const double q = flipped ? 1.0 - p : p;
  const double nq = static_cast<double>(n) * q;
  std::int64_t x;
  if (nq < 10.0) {
    x = detail::binomialInversion(eng, n, q);
  } else {
    x = detail::binomialBtrs(eng, n, q);
  }
  return flipped ? n - x : x;
}

/// Exact Poisson(mu) via Knuth product (mu < 10) or Hoermann's PTRS
/// transformed rejection.
template <Uint64Engine E>
std::int64_t poisson(E& eng, double mu) {
  RLSLB_ASSERT(mu >= 0.0);
  if (mu == 0.0) return 0;
  if (mu < 10.0) {
    const double limit = std::exp(-mu);
    double prod = uniformDouble(eng);
    std::int64_t k = 0;
    while (prod > limit) {
      prod *= uniformDouble(eng);
      ++k;
    }
    return k;
  }
  const double b = 0.931 + 2.53 * std::sqrt(mu);
  const double a = -0.059 + 0.02483 * b;
  const double invAlpha = 1.1239 + 1.1328 / (b - 3.4);
  const double vr = 0.9277 - 3.6224 / (b - 2.0);
  const double logMu = std::log(mu);
  for (;;) {
    const double u = uniformDouble(eng) - 0.5;
    double v = uniformDouble(eng);
    const double us = 0.5 - std::fabs(u);
    const auto k = static_cast<std::int64_t>(std::floor((2.0 * a / us + b) * u + mu + 0.43));
    if (us >= 0.07 && v <= vr) return k;
    if (k < 0 || (us < 0.013 && v > us)) continue;
    const double kd = static_cast<double>(k);
    if (std::log(v * invAlpha / (a / (us * us) + b)) <=
        kd * logMu - mu - detail::logGamma(kd + 1.0)) {
      return k;
    }
  }
}

/// Throw `balls` balls into `bins` bins independently and uniformly: an exact
/// multinomial sample by recursive binomial splitting, O(bins) time
/// independent of `balls`.
template <Uint64Engine E>
void multinomialUniform(E& eng, std::int64_t balls, std::vector<std::int64_t>& countsOut) {
  const std::size_t bins = countsOut.size();
  RLSLB_ASSERT(bins >= 1);
  std::int64_t remaining = balls;
  for (std::size_t i = 0; i + 1 < bins; ++i) {
    const double p = 1.0 / static_cast<double>(bins - i);
    const std::int64_t c = binomial(eng, remaining, p);
    countsOut[i] = c;
    remaining -= c;
  }
  countsOut[bins - 1] = remaining;
}

/// In-place Fisher-Yates shuffle.
template <Uint64Engine E, typename T>
void shuffle(E& eng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(uniformIndex(eng, i));
    std::swap(v[i - 1], v[j]);
  }
}

}  // namespace rlslb::rng
