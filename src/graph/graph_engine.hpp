// RLS on an arbitrary topology (Section 7, third future direction).
//
// Identical to NaiveEngine except the destination is a uniform random
// *neighbor* of the ball's current bin. Note the lumped-multiset reduction
// of JumpEngine does not apply here: transition rates depend on which bins
// are adjacent, so bin identities matter and neutral moves genuinely change
// the state. The engine therefore simulates every activation.
//
// On a connected graph the discrepancy is still non-increasing, the minimum
// load non-decreasing, and the maximum non-increasing (the protocol's local
// test is unchanged); perfect balance remains reachable, just slower on
// poorly-mixing topologies -- exactly what experiment E12 measures.
//
// GraphJumpEngine (graph/graph_jump_engine.hpp) samples the same chain at
// the granularity of accepted moves on sparse regular topologies; this
// engine stays its oracle and the engine for K_n.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "config/configuration.hpp"
#include "ds/fenwick.hpp"
#include "graph/topology.hpp"
#include "process/process.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/balance_tracker.hpp"

namespace rlslb::graph {

class GraphRlsEngine final : public process::Process {
 public:
  /// `topology` must outlive the engine; bins are its vertices.
  GraphRlsEngine(const config::Configuration& initial, const Topology& topology,
                 std::uint64_t seed, int gap = 1);
  /// Owning: the engine keeps `topology` alive (the registry's graph_rls).
  GraphRlsEngine(const config::Configuration& initial, std::shared_ptr<const Topology> topology,
                 std::uint64_t seed, int gap = 1);

  /// One activation; false only when there are no balls.
  bool advance() override;
  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] process::Clock now() const override {
    return {process::Clock::Kind::Continuous, time_};
  }
  [[nodiscard]] std::int64_t moves() const override { return moves_; }
  [[nodiscard]] std::int64_t activations() const override { return activations_; }
  [[nodiscard]] const sim::BalanceState& state() const override { return tracker_.state(); }
  [[nodiscard]] const process::Capabilities& capabilities() const override {
    static constexpr process::Capabilities kCaps{};
    return kCaps;
  }

  [[nodiscard]] const std::vector<std::int64_t>& loads() const { return loads_; }

 private:
  std::shared_ptr<const Topology> ownedTopology_;  // null when borrowed
  const Topology& topology_;
  std::vector<std::int64_t> loads_;
  ds::Fenwick<std::int64_t> ballMass_;
  sim::BalanceTracker tracker_;
  rng::Xoshiro256pp eng_;
  double time_ = 0.0;
  std::int64_t moves_ = 0;
  std::int64_t activations_ = 0;
  int gap_;
};

}  // namespace rlslb::graph
