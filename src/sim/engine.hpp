// Engine interface for continuous-time balls-into-bins processes.
//
// An Engine is an exact sampler of a CTMC trajectory: step() advances to the
// next *state-changing* event of that engine's granularity (an activation for
// NaiveEngine, a multiset-changing move for JumpEngine) and time() is the
// continuous simulation clock. All engines expose O(1) balance metrics so run
// loops and probes can test stopping conditions after every event.
#pragma once

#include <cstdint>
#include <limits>

#include "config/metrics.hpp"

namespace rlslb::sim {

/// O(1)-maintained view of the current balance state.
struct BalanceState {
  std::int64_t numBins = 0;
  std::int64_t numBalls = 0;
  std::int64_t minLoad = 0;
  std::int64_t maxLoad = 0;
  std::int64_t overloadedBalls = 0;  // sum_i max(0, l_i - ceil(m/n))

  [[nodiscard]] bool perfectlyBalanced() const {
    return config::isPerfectlyBalanced(minLoad, maxLoad, numBins, numBalls);
  }
  [[nodiscard]] bool xBalanced(std::int64_t x) const {
    return config::isXBalancedInt(minLoad, maxLoad, numBins, numBalls, x);
  }
  [[nodiscard]] double discrepancy() const {
    return config::discrepancy(minLoad, maxLoad, numBins, numBalls);
  }
  friend bool operator==(const BalanceState&, const BalanceState&) = default;
};

/// Stopping target of a run.
struct Target {
  enum class Kind { PerfectBalance, XBalanced };
  Kind kind = Kind::PerfectBalance;
  std::int64_t x = 0;  // used by XBalanced

  static Target perfect() { return {Kind::PerfectBalance, 0}; }
  static Target xBalanced(std::int64_t x) { return {Kind::XBalanced, x}; }

  [[nodiscard]] bool reached(const BalanceState& s) const {
    return kind == Kind::PerfectBalance ? s.perfectlyBalanced() : s.xBalanced(x);
  }
};

/// Safety budgets so runaway parameter choices fail loudly instead of
/// spinning forever. `maxEvents` counts engine steps (activations for
/// NaiveEngine, multiset-changing moves for JumpEngine).
struct RunLimits {
  double maxTime = std::numeric_limits<double>::infinity();
  std::int64_t maxEvents = std::numeric_limits<std::int64_t>::max();
};

class Engine {
 public:
  virtual ~Engine() = default;

  /// Advance one event. Returns false iff the chain is absorbed (no
  /// transition has positive rate), in which case time()/state() are final.
  virtual bool step() = 0;

  /// Continuous simulation time elapsed.
  [[nodiscard]] virtual double time() const = 0;

  /// Successful (configuration-changing) ball moves so far.
  [[nodiscard]] virtual std::int64_t moves() const = 0;

  /// Ball activations so far; -1 when the engine does not simulate
  /// individual activations (JumpEngine).
  [[nodiscard]] virtual std::int64_t activations() const = 0;

  [[nodiscard]] virtual const BalanceState& state() const = 0;
};

/// Observer called after every engine event (and once before the run).
/// Implementations decimate themselves; see probes.hpp.
class Probe {
 public:
  virtual ~Probe() = default;
  virtual void onEvent(const Engine& engine) = 0;
};

struct RunResult {
  double time = 0.0;
  std::int64_t moves = 0;
  std::int64_t activations = 0;  // -1 if unavailable
  bool reachedTarget = false;
  BalanceState finalState;
};

/// Run `engine` until the target, absorption, or a limit. If `probe` is
/// non-null it sees every event.
RunResult runUntil(Engine& engine, Target target, const RunLimits& limits = {},
                   Probe* probe = nullptr);

}  // namespace rlslb::sim
