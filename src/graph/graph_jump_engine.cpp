#include "graph/graph_jump_engine.hpp"

#include "rng/distributions.hpp"
#include "util/assert.hpp"

namespace rlslb::graph {

GraphJumpEngine::GraphJumpEngine(const config::Configuration& initial, const Topology& topology,
                                 std::uint64_t seed, int gap)
    : topology_(topology), loads_(initial.loads()), acc_(loads_.size(), 0),
      weight_(loads_.size()), tracker_(initial.loads()), eng_(seed),
      degree_(static_cast<double>(topology.degree(0))), gap_(gap) {
  RLSLB_ASSERT(gap_ >= 1);
  RLSLB_ASSERT(initial.numBins() == topology.numVertices());
  RLSLB_ASSERT_MSG(topology.isRegular() && !topology.isComplete(),
                   "GraphJumpEngine needs a regular topology with an adjacency list");
  std::vector<std::int64_t> weights(loads_.size());
  for (std::size_t u = 0; u < loads_.size(); ++u) {
    acc_[u] = countAccepting(static_cast<std::int64_t>(u));
    weights[u] = loads_[u] * acc_[u];
  }
  weight_ = ds::Fenwick<std::int64_t>(weights);
}

std::int32_t GraphJumpEngine::countAccepting(std::int64_t u) const {
  const std::int64_t load = loads_[static_cast<std::size_t>(u)];
  std::int32_t count = 0;
  for (const std::int64_t x : topology_.neighbors(u)) {
    count += load >= loads_[static_cast<std::size_t>(x)] + gap_ ? 1 : 0;
  }
  return count;
}

bool GraphJumpEngine::advance() {
  const std::int64_t total = weight_.total();
  if (total == 0) return false;  // absorbed: no move is accepting
  time_ += rng::exponential(eng_, static_cast<double>(total) / degree_);

  const auto ticket =
      static_cast<std::int64_t>(rng::uniformIndex(eng_, static_cast<std::uint64_t>(total)));
  const std::size_t u = weight_.upperBound(ticket);
  RLSLB_ASSERT_MSG(acc_[u] >= 1, "sampled bin has no accepting neighbor");
  auto k = rng::uniformIndex(eng_, static_cast<std::uint64_t>(acc_[u]));
  const std::int64_t from = loads_[u];
  std::size_t v = loads_.size();
  for (const std::int64_t x : topology_.neighbors(static_cast<std::int64_t>(u))) {
    if (from >= loads_[static_cast<std::size_t>(x)] + gap_ && k-- == 0) {
      v = static_cast<std::size_t>(x);
      break;
    }
  }
  RLSLB_ASSERT_MSG(v < loads_.size(), "sampled bin lacks its k-th accepting neighbor");

  const std::int64_t to = loads_[v];
  loads_[u] = from - 1;
  loads_[v] = to + 1;
  tracker_.onLoadChange(from, from - 1);
  tracker_.onLoadChange(to, to + 1);

  // u and v recount all their edges. Every other neighbor x re-checks only
  // its edge to the moved bin: x -> u starts accepting iff load(x) equals
  // u's new load + gap, and x -> v stops iff load(x) equals v's old load +
  // gap.
  std::int32_t accU = 0;
  for (const std::int64_t x : topology_.neighbors(static_cast<std::int64_t>(u))) {
    const auto xi = static_cast<std::size_t>(x);
    const std::int64_t load = loads_[xi];
    accU += from - 1 >= load + gap_ ? 1 : 0;
    if (load == from - 1 + gap_ && xi != v) {
      ++acc_[xi];
      weight_.add(xi, load);
    }
  }
  std::int32_t accV = 0;
  for (const std::int64_t x : topology_.neighbors(static_cast<std::int64_t>(v))) {
    const auto xi = static_cast<std::size_t>(x);
    const std::int64_t load = loads_[xi];
    accV += to + 1 >= load + gap_ ? 1 : 0;
    if (load == to + gap_ && xi != u) {
      RLSLB_ASSERT_MSG(acc_[xi] >= 1, "acceptance weight would turn negative");
      --acc_[xi];
      weight_.add(xi, -load);
    }
  }
  weight_.add(u, (from - 1) * accU - from * acc_[u]);
  weight_.add(v, (to + 1) * accV - to * acc_[v]);
  acc_[u] = accU;
  acc_[v] = accV;
  ++moves_;
  return true;
}

bool GraphJumpEngine::validate() const {
  std::int64_t total = 0;
  for (std::size_t u = 0; u < loads_.size(); ++u) {
    const std::int64_t weight = loads_[u] * acc_[u];
    if (acc_[u] != countAccepting(static_cast<std::int64_t>(u)) || weight_.get(u) != weight) {
      return false;
    }
    total += weight;
  }
  return weight_.total() == total && sim::BalanceTracker(loads_).state() == state();
}

}  // namespace rlslb::graph
