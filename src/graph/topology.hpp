// Network topologies for the Section-7 extension "analyze the protocol in
// network topologies other than the complete graph": a ball activated on
// bin i samples a uniform *neighbor* of i instead of a uniform bin.
//
// The complete graph is special-cased without materializing O(n^2) edges;
// all other topologies are CSR adjacency lists. Random regular graphs use
// the configuration model with resampling until simple; spectral gap (for
// regular graphs) comes from power iteration with deflation, or from the
// closed form on K_n, so the graph bench (E12) can correlate balancing time
// with mixing properties, echoing the tau_mix * ln m bound of [6] cited in
// Section 2.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rng/xoshiro256pp.hpp"
#include "util/assert.hpp"

namespace rlslb::graph {

class Topology {
 public:
  /// Complete graph K_n (implicit edges).
  static Topology complete(std::int64_t n);
  /// Cycle C_n (n >= 3).
  static Topology cycle(std::int64_t n);
  /// Path P_n.
  static Topology path(std::int64_t n);
  /// rows x cols torus (wrap-around grid); 4-regular for rows, cols >= 3.
  static Topology torus(std::int64_t rows, std::int64_t cols);
  /// Hypercube Q_d with 2^d vertices.
  static Topology hypercube(int dim);
  /// Star K_{1,n-1} (vertex 0 is the hub).
  static Topology star(std::int64_t n);
  /// Complete bipartite K_{a,b}.
  static Topology completeBipartite(std::int64_t a, std::int64_t b);
  /// Random d-regular simple graph via the configuration model (resampled
  /// until simple; requires n*d even, d < n).
  static Topology randomRegular(std::int64_t n, int d, rng::Xoshiro256pp& eng);
  /// Erdos-Renyi G(n, p). Not necessarily connected; see isConnected().
  static Topology erdosRenyi(std::int64_t n, double p, rng::Xoshiro256pp& eng);
  /// Build from explicit undirected edge list (deduplicated; no self-loops).
  static Topology fromEdges(std::int64_t n, const std::vector<std::pair<std::int64_t, std::int64_t>>& edges);

  [[nodiscard]] std::int64_t numVertices() const { return n_; }
  [[nodiscard]] std::int64_t numEdges() const;
  [[nodiscard]] std::int64_t degree(std::int64_t v) const;
  [[nodiscard]] std::int64_t neighbor(std::int64_t v, std::int64_t k) const;
  /// v's adjacency list, read inline (no call per neighbor). CSR graphs
  /// only: K_n's edges are implicit.
  [[nodiscard]] std::span<const std::int64_t> neighbors(std::int64_t v) const {
    RLSLB_ASSERT(!complete_ && v >= 0 && v < n_);
    const auto begin = offsets_[static_cast<std::size_t>(v)];
    const auto end = offsets_[static_cast<std::size_t>(v) + 1];
    return {neighbors_.data() + begin, static_cast<std::size_t>(end - begin)};
  }
  [[nodiscard]] bool isComplete() const { return complete_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Uniform random neighbor of v (v must have degree >= 1).
  [[nodiscard]] std::int64_t sampleNeighbor(std::int64_t v, rng::Xoshiro256pp& eng) const;

  [[nodiscard]] bool isConnected() const;
  [[nodiscard]] bool isRegular() const;

  /// Graph diameter by BFS from every vertex (O(n * (n + e)); intended for
  /// experiment-scale graphs). Returns -1 for disconnected graphs.
  [[nodiscard]] std::int64_t diameter() const;

  /// 1 - |lambda_2| of the lazy random-walk matrix (I + A/d)/2 for regular
  /// graphs, by power iteration with deflation of the uniform vector, from
  /// a start vector drawn from `eng`. The laziness makes the spectrum
  /// non-negative so |lambda_2| is the second-largest eigenvalue. The
  /// complete graph takes the closed form n/(2(n-1)) (1 at n = 2) and
  /// draws nothing from `eng`.
  [[nodiscard]] double spectralGapRegular(int iterations, rng::Xoshiro256pp& eng) const;

 private:
  Topology() = default;
  std::int64_t n_ = 0;
  bool complete_ = false;
  std::string name_;
  std::vector<std::int64_t> offsets_;    // CSR, size n+1 (empty when complete_)
  std::vector<std::int64_t> neighbors_;  // CSR payload
};

}  // namespace rlslb::graph
