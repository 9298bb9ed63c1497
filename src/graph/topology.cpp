#include "graph/topology.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "rng/distributions.hpp"
#include "util/assert.hpp"

namespace rlslb::graph {

Topology Topology::fromEdges(std::int64_t n,
                             const std::vector<std::pair<std::int64_t, std::int64_t>>& edges) {
  RLSLB_ASSERT(n >= 1);
  std::set<std::pair<std::int64_t, std::int64_t>> unique;
  for (auto [a, b] : edges) {
    RLSLB_ASSERT(a >= 0 && a < n && b >= 0 && b < n);
    if (a == b) continue;
    unique.emplace(std::min(a, b), std::max(a, b));
  }
  Topology t;
  t.n_ = n;
  t.name_ = "explicit";
  std::vector<std::int64_t> deg(static_cast<std::size_t>(n), 0);
  for (auto [a, b] : unique) {
    ++deg[static_cast<std::size_t>(a)];
    ++deg[static_cast<std::size_t>(b)];
  }
  t.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (std::int64_t v = 0; v < n; ++v) {
    t.offsets_[static_cast<std::size_t>(v) + 1] =
        t.offsets_[static_cast<std::size_t>(v)] + deg[static_cast<std::size_t>(v)];
  }
  t.neighbors_.resize(static_cast<std::size_t>(t.offsets_.back()));
  std::vector<std::int64_t> fill = t.offsets_;
  for (auto [a, b] : unique) {
    t.neighbors_[static_cast<std::size_t>(fill[static_cast<std::size_t>(a)]++)] = b;
    t.neighbors_[static_cast<std::size_t>(fill[static_cast<std::size_t>(b)]++)] = a;
  }
  return t;
}

Topology Topology::complete(std::int64_t n) {
  RLSLB_ASSERT(n >= 2);
  Topology t;
  t.n_ = n;
  t.complete_ = true;
  t.name_ = "complete";
  return t;
}

Topology Topology::cycle(std::int64_t n) {
  RLSLB_ASSERT(n >= 3);
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  edges.reserve(static_cast<std::size_t>(n));
  for (std::int64_t v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  Topology t = fromEdges(n, edges);
  t.name_ = "cycle";
  return t;
}

Topology Topology::path(std::int64_t n) {
  RLSLB_ASSERT(n >= 2);
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  for (std::int64_t v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  Topology t = fromEdges(n, edges);
  t.name_ = "path";
  return t;
}

Topology Topology::torus(std::int64_t rows, std::int64_t cols) {
  RLSLB_ASSERT(rows >= 3 && cols >= 3);
  const std::int64_t n = rows * cols;
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  edges.reserve(static_cast<std::size_t>(2 * n));
  const auto id = [cols](std::int64_t r, std::int64_t c) { return r * cols + c; };
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      edges.emplace_back(id(r, c), id(r, (c + 1) % cols));
      edges.emplace_back(id(r, c), id((r + 1) % rows, c));
    }
  }
  Topology t = fromEdges(n, edges);
  t.name_ = "torus";
  return t;
}

Topology Topology::hypercube(int dim) {
  RLSLB_ASSERT(dim >= 1 && dim <= 30);
  const std::int64_t n = std::int64_t{1} << dim;
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  edges.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(dim) / 2);
  for (std::int64_t v = 0; v < n; ++v) {
    for (int b = 0; b < dim; ++b) {
      const std::int64_t u = v ^ (std::int64_t{1} << b);
      if (u > v) edges.emplace_back(v, u);
    }
  }
  Topology t = fromEdges(n, edges);
  t.name_ = "hypercube";
  return t;
}

Topology Topology::star(std::int64_t n) {
  RLSLB_ASSERT(n >= 2);
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  for (std::int64_t v = 1; v < n; ++v) edges.emplace_back(0, v);
  Topology t = fromEdges(n, edges);
  t.name_ = "star";
  return t;
}

Topology Topology::completeBipartite(std::int64_t a, std::int64_t b) {
  RLSLB_ASSERT(a >= 1 && b >= 1);
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  edges.reserve(static_cast<std::size_t>(a * b));
  for (std::int64_t u = 0; u < a; ++u) {
    for (std::int64_t v = 0; v < b; ++v) edges.emplace_back(u, a + v);
  }
  Topology t = fromEdges(a + b, edges);
  t.name_ = "complete_bipartite";
  return t;
}

Topology Topology::randomRegular(std::int64_t n, int d, rng::Xoshiro256pp& eng) {
  RLSLB_ASSERT(n >= 2 && d >= 1 && d < n);
  RLSLB_ASSERT_MSG((n * d) % 2 == 0, "n*d must be even");
  // Configuration model: pair up n*d half-edges uniformly; resample on
  // self-loops or multi-edges. Acceptance probability is bounded away from
  // zero for fixed d, so this terminates quickly in expectation.
  for (int attempt = 0; attempt < 2000; ++attempt) {
    std::vector<std::int64_t> stubs(static_cast<std::size_t>(n * d));
    for (std::int64_t i = 0; i < n * d; ++i) stubs[static_cast<std::size_t>(i)] = i / d;
    rng::shuffle(eng, stubs);
    std::set<std::pair<std::int64_t, std::int64_t>> seen;
    bool simple = true;
    std::vector<std::pair<std::int64_t, std::int64_t>> edges;
    edges.reserve(stubs.size() / 2);
    for (std::size_t i = 0; i < stubs.size(); i += 2) {
      const std::int64_t a = stubs[i];
      const std::int64_t b = stubs[i + 1];
      if (a == b || !seen.emplace(std::min(a, b), std::max(a, b)).second) {
        simple = false;
        break;
      }
      edges.emplace_back(a, b);
    }
    if (!simple) continue;
    Topology t = fromEdges(n, edges);
    t.name_ = "random_regular";
    return t;
  }
  RLSLB_ASSERT_MSG(false, "configuration model failed to produce a simple graph");
  return complete(n);
}

Topology Topology::erdosRenyi(std::int64_t n, double p, rng::Xoshiro256pp& eng) {
  RLSLB_ASSERT(n >= 2 && p >= 0.0 && p <= 1.0);
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  // Geometric edge skipping: O(#edges) expected instead of O(n^2).
  if (p > 0.0) {
    const double logq = std::log1p(-p);
    std::int64_t v = 1;
    std::int64_t w = -1;
    while (v < n) {
      const double r = rng::uniformDoublePositive(eng);
      w += 1 + (p >= 1.0 ? 0 : static_cast<std::int64_t>(std::floor(std::log(r) / logq)));
      while (w >= v && v < n) {
        w -= v;
        ++v;
      }
      if (v < n) edges.emplace_back(v, w);
    }
  }
  Topology t = fromEdges(n, edges);
  t.name_ = "erdos_renyi";
  return t;
}

std::int64_t Topology::numEdges() const {
  if (complete_) return n_ * (n_ - 1) / 2;
  return static_cast<std::int64_t>(neighbors_.size()) / 2;
}

std::int64_t Topology::degree(std::int64_t v) const {
  RLSLB_ASSERT(v >= 0 && v < n_);
  if (complete_) return n_ - 1;
  return offsets_[static_cast<std::size_t>(v) + 1] - offsets_[static_cast<std::size_t>(v)];
}

std::int64_t Topology::neighbor(std::int64_t v, std::int64_t k) const {
  RLSLB_ASSERT(v >= 0 && v < n_ && k >= 0 && k < degree(v));
  if (complete_) return k < v ? k : k + 1;
  return neighbors_[static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)] + k)];
}

std::int64_t Topology::sampleNeighbor(std::int64_t v, rng::Xoshiro256pp& eng) const {
  const std::int64_t d = degree(v);
  RLSLB_ASSERT_MSG(d >= 1, "isolated vertex has no neighbor to sample");
  const auto k = static_cast<std::int64_t>(rng::uniformIndex(eng, static_cast<std::uint64_t>(d)));
  return neighbor(v, k);
}

bool Topology::isConnected() const {
  if (complete_) return true;
  if (n_ == 0) return true;
  std::vector<char> seen(static_cast<std::size_t>(n_), 0);
  std::vector<std::int64_t> stack = {0};
  seen[0] = 1;
  std::int64_t visited = 1;
  while (!stack.empty()) {
    const std::int64_t v = stack.back();
    stack.pop_back();
    for (std::int64_t k = 0; k < degree(v); ++k) {
      const std::int64_t u = neighbor(v, k);
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = 1;
        ++visited;
        stack.push_back(u);
      }
    }
  }
  return visited == n_;
}

std::int64_t Topology::diameter() const {
  if (complete_) return n_ >= 2 ? 1 : 0;
  if (n_ == 0) return 0;
  std::int64_t best = 0;
  std::vector<std::int64_t> dist(static_cast<std::size_t>(n_));
  std::vector<std::int64_t> queue(static_cast<std::size_t>(n_));
  for (std::int64_t src = 0; src < n_; ++src) {
    std::fill(dist.begin(), dist.end(), -1);
    std::size_t head = 0;
    std::size_t tail = 0;
    dist[static_cast<std::size_t>(src)] = 0;
    queue[tail++] = src;
    while (head < tail) {
      const std::int64_t v = queue[head++];
      for (std::int64_t k = 0; k < degree(v); ++k) {
        const std::int64_t u = neighbor(v, k);
        if (dist[static_cast<std::size_t>(u)] < 0) {
          dist[static_cast<std::size_t>(u)] = dist[static_cast<std::size_t>(v)] + 1;
          queue[tail++] = u;
        }
      }
    }
    for (std::int64_t v = 0; v < n_; ++v) {
      if (dist[static_cast<std::size_t>(v)] < 0) return -1;  // disconnected
      best = std::max(best, dist[static_cast<std::size_t>(v)]);
    }
  }
  return best;
}

bool Topology::isRegular() const {
  if (complete_ || n_ == 0) return true;
  const std::int64_t d0 = degree(0);
  for (std::int64_t v = 1; v < n_; ++v) {
    if (degree(v) != d0) return false;
  }
  return true;
}

double Topology::spectralGapRegular(int iterations, rng::Xoshiro256pp& eng) const {
  RLSLB_ASSERT_MSG(isRegular(), "spectral gap helper requires a regular graph");
  RLSLB_ASSERT(n_ >= 2);
  if (complete_) {
    // Every vector orthogonal to the uniform one is an eigenvector of the
    // lazy walk (I + A/(n-1))/2 on K_n, with eigenvalue (n-2)/(2(n-1)).
    const auto n = static_cast<double>(n_);
    return n / (2.0 * (n - 1.0));
  }
  const double d = static_cast<double>(degree(0));
  std::vector<double> v(static_cast<std::size_t>(n_));
  for (auto& x : v) x = rng::uniformDouble(eng) - 0.5;

  std::vector<double> next(static_cast<std::size_t>(n_));
  double lambda = 0.0;
  for (int it = 0; it < iterations; ++it) {
    // Deflate the top eigenvector (uniform) of the walk matrix.
    double mean = 0.0;
    for (double x : v) mean += x;
    mean /= static_cast<double>(n_);
    for (auto& x : v) x -= mean;
    // Lazy walk: next = (v + A v / d) / 2.
    for (std::int64_t i = 0; i < n_; ++i) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < degree(i); ++k) {
        acc += v[static_cast<std::size_t>(neighbor(i, k))];
      }
      next[static_cast<std::size_t>(i)] = 0.5 * (v[static_cast<std::size_t>(i)] + acc / d);
    }
    double norm = 0.0;
    for (double x : next) norm += x * x;
    norm = std::sqrt(norm);
    if (norm < 1e-280) return 1.0;  // deflated to zero: gap is maximal
    lambda = norm;  // after normalization of v on the previous iteration
    for (std::size_t idx = 0; idx < next.size(); ++idx) v[idx] = next[idx] / norm;
  }
  // lambda approximates |lambda_2| of the lazy walk; gap = 1 - lambda_2.
  return 1.0 - std::min(1.0, lambda);
}

}  // namespace rlslb::graph
