// Shared scaffolding for the *synchronous* baselines of Section 2 (selfish
// and threshold load balancing). Unlike RLS these activate all balls
// simultaneously in rounds; the paper compares one synchronous round to one
// unit of continuous RLS time (m activations in expectation).
//
// Balance bookkeeping: subclasses mutate loads only through the
// transferBall / removeBall / addBall primitives, which count moves and
// mark the cached sim::BalanceState dirty; state() recomputes it in one
// allocation-free O(n) sweep on first access after a round. Per-move
// incremental tracking would be the wrong trade here -- a round rewrites
// Theta(m) loads (the threshold protocol migrates thousands of balls per
// round), while the stopping predicate is consulted once per round, so one
// O(n) sweep per round beats m histogram updates by orders of magnitude.
// Repeated state() calls between rounds are O(1) on the cache.
//
// Every subclass is a process::Process whose advance() is one round, so
// process::run drives it; rlslb's process registry exposes each as a
// process kind (selfish / edm / threshold / repeated).
#pragma once

#include <cstdint>
#include <vector>

#include "config/configuration.hpp"
#include "config/metrics.hpp"
#include "process/process.hpp"
#include "rng/xoshiro256pp.hpp"

namespace rlslb::protocols {

class RoundProtocol : public process::Process {
 public:
  explicit RoundProtocol(const config::Configuration& initial, std::uint64_t seed)
      : eng_(seed), loads_(initial.loads()), balls_(initial.numBalls()) {}

  /// Execute one synchronous round (does not advance the round counter;
  /// advance() owns it).
  virtual void round() = 0;

  /// One process-level event: execute a round and advance the counter.
  /// Rounds always execute (a fixed point just moves nothing).
  bool advance() final {
    round();
    ++rounds_;
    return true;
  }
  [[nodiscard]] process::Clock now() const final {
    return {process::Clock::Kind::Rounds, static_cast<double>(rounds_)};
  }
  /// Closed, with no equilibrium target: every flag is off.
  [[nodiscard]] const process::Capabilities& capabilities() const final {
    static constexpr process::Capabilities kCaps{};
    return kCaps;
  }

  [[nodiscard]] std::int64_t numBins() const { return static_cast<std::int64_t>(loads_.size()); }
  [[nodiscard]] std::int64_t numBalls() const { return balls_; }
  [[nodiscard]] const std::vector<std::int64_t>& loads() const { return loads_; }
  [[nodiscard]] std::int64_t roundsTaken() const { return rounds_; }
  /// Individual ball relocations across all rounds so far.
  [[nodiscard]] std::int64_t moves() const final { return moves_; }

  /// The shared balance view. Cached; recomputed in one O(n) sweep when
  /// loads changed since the last call (amortized against the Omega(n)
  /// round that dirtied it).
  [[nodiscard]] const sim::BalanceState& state() const final {
    if (stateDirty_) refreshState();
    return state_;
  }

  /// Full metric sweep (reporting; stopping checks use state()).
  [[nodiscard]] config::Metrics metrics() const { return config::computeMetrics(loads_); }

 protected:
  /// Move one ball src -> dst. No-op when src == dst.
  void transferBall(std::size_t src, std::size_t dst) {
    if (src == dst) return;
    RLSLB_ASSERT(loads_[src] >= 1);
    --loads_[src];
    ++loads_[dst];
    ++moves_;
    stateDirty_ = true;
  }

  /// Bulk primitives for protocols that release and re-throw (repeated
  /// balls-into-bins). removeBall does not count as a move; the re-throw
  /// (addBall) does, since that is the relocation.
  void removeBall(std::size_t bin) {
    RLSLB_ASSERT(loads_[bin] >= 1);
    --loads_[bin];
    stateDirty_ = true;
  }
  void addBall(std::size_t bin, bool countMove = false) {
    ++loads_[bin];
    if (countMove) ++moves_;
    stateDirty_ = true;
  }

  rng::Xoshiro256pp eng_;

 private:
  void refreshState() const;

  std::vector<std::int64_t> loads_;
  std::int64_t balls_;
  std::int64_t rounds_ = 0;
  std::int64_t moves_ = 0;
  mutable sim::BalanceState state_;
  mutable bool stateDirty_ = true;
};

}  // namespace rlslb::protocols
