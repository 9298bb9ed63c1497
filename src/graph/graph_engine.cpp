#include "graph/graph_engine.hpp"

#include <utility>

#include "rng/distributions.hpp"
#include "util/assert.hpp"

namespace rlslb::graph {

GraphRlsEngine::GraphRlsEngine(const config::Configuration& initial, const Topology& topology,
                               std::uint64_t seed, int gap)
    : topology_(topology), loads_(initial.loads()), ballMass_(initial.loads()),
      tracker_(initial.loads()), eng_(seed), gap_(gap) {
  RLSLB_ASSERT(gap_ >= 1);
  RLSLB_ASSERT(initial.numBins() == topology.numVertices());
}

GraphRlsEngine::GraphRlsEngine(const config::Configuration& initial,
                               std::shared_ptr<const Topology> topology, std::uint64_t seed,
                               int gap)
    : GraphRlsEngine(initial, *topology, seed, gap) {
  ownedTopology_ = std::move(topology);
}

bool GraphRlsEngine::advance() {
  const std::int64_t m = tracker_.state().numBalls;
  if (m == 0) return false;
  time_ += rng::exponential(eng_, static_cast<double>(m));
  ++activations_;

  const auto ticket =
      static_cast<std::int64_t>(rng::uniformIndex(eng_, static_cast<std::uint64_t>(m)));
  const std::size_t src = ballMass_.upperBound(ticket);
  if (topology_.degree(static_cast<std::int64_t>(src)) == 0) return true;  // isolated bin
  const auto dst = static_cast<std::size_t>(
      topology_.sampleNeighbor(static_cast<std::int64_t>(src), eng_));

  if (loads_[src] < loads_[dst] + gap_) return true;  // move rejected

  const std::int64_t v = loads_[src];
  const std::int64_t u = loads_[dst];
  loads_[src] = v - 1;
  loads_[dst] = u + 1;
  ballMass_.add(src, -1);
  ballMass_.add(dst, +1);
  tracker_.onLoadChange(v, v - 1);
  tracker_.onLoadChange(u, u + 1);
  ++moves_;
  return true;
}

}  // namespace rlslb::graph
