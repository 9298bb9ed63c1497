// GraphJumpEngine: rejection-free ("n-fold way") RLS on a sparse regular
// topology -- the chain GraphRlsEngine simulates, sampled at the
// granularity of accepted moves.
//
// On a d-regular graph every ball rings at rate 1 and picks each neighbor
// of its bin with probability 1/d, so the move u -> v fires at rate
// load(u)/d while it is accepting (load(u) >= load(v) + gap) and is a
// rejected activation otherwise. With
//
//   acc(u) = #{v in N(u) : load(u) >= load(v) + gap},
//
// the state changes at total rate W/d, W = sum_u load(u) * acc(u), and the
// next change is the move u -> v with probability load(u)/W for each
// accepting pair. The engine keeps the exact int64 weight load(u) * acc(u)
// per bin in a Fenwick tree. A step draws Exp(W/d), a bin by weight, and a
// uniform one of its acc(u) accepting neighbors: 3 draws. A move changes
// only the edges at u and v, so the engine recounts u and v, and every
// other neighbor of either re-checks only its edge to the moved bin:
// O(d log n) per accepted move and nothing per rejected activation.
//
// That pays on sparse topologies, where most activations are rejected
// (89% on E12's n = 256 cycle), and loses on K_n (d = n - 1), whose
// implicit edges it does not take: E12 runs this engine iff
// `isRegular() && !isComplete()`, and GraphRlsEngine stays its oracle and
// the K_n engine. Activations are not simulated (activations() is -1, as
// for sim::JumpEngine), and advance() returns false once no move is
// accepting.
#pragma once

#include <cstdint>
#include <vector>

#include "config/configuration.hpp"
#include "ds/fenwick.hpp"
#include "graph/topology.hpp"
#include "process/process.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/balance_tracker.hpp"

namespace rlslb::graph {

class GraphJumpEngine final : public process::Process {
 public:
  /// `topology` must be regular, have an adjacency list (not K_n) and
  /// outlive the engine; bins are its vertices.
  GraphJumpEngine(const config::Configuration& initial, const Topology& topology,
                  std::uint64_t seed, int gap = 1);

  bool advance() override;
  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] process::Clock now() const override {
    return {process::Clock::Kind::Continuous, time_};
  }
  [[nodiscard]] std::int64_t moves() const override { return moves_; }
  [[nodiscard]] const sim::BalanceState& state() const override { return tracker_.state(); }
  [[nodiscard]] const process::Capabilities& capabilities() const override {
    static constexpr process::Capabilities kCaps{};
    return kCaps;
  }

  [[nodiscard]] const std::vector<std::int64_t>& loads() const { return loads_; }

  /// Test hook: true iff acc(.), the Fenwick weights and state() equal a
  /// recount from the loads. O(n d + max load).
  [[nodiscard]] bool validate() const;

 private:
  [[nodiscard]] std::int32_t countAccepting(std::int64_t u) const;

  const Topology& topology_;
  std::vector<std::int64_t> loads_;
  std::vector<std::int32_t> acc_;     // accepting out-edges per bin
  ds::Fenwick<std::int64_t> weight_;  // load(u) * acc(u)
  sim::BalanceTracker tracker_;
  rng::Xoshiro256pp eng_;
  double degree_;
  double time_ = 0.0;
  std::int64_t moves_ = 0;
  int gap_;
};

}  // namespace rlslb::graph
