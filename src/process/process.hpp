// The unified process API: one polymorphic interface over every balancing
// dynamic in the library, one generic run loop over all of them.
//
// The repo hosts five process families -- continuous-time RLS engines
// (sim::NaiveEngine / JumpEngine / HybridEngine, graph::GraphRlsEngine /
// GraphJumpEngine), synchronous round protocols (protocols::RoundProtocol
// and CRS), the Section-7 extensions (ext::SpeedRlsEngine /
// ext::WeightedRlsEngine) and the open system (dynamic::OpenSystem). Each
// implements process::Process itself:
//
//   advance()   one state-changing event of the dynamic's natural
//               granularity: an activation, a lumped multiset move, a
//               synchronous round, a CRS pair draw, an open-system
//               multiset change.
//   now()       a unified Clock spanning the granularities: continuous
//               simulation time, synchronous round count, or sequential
//               step count -- one comparable "how far along" axis (the
//               paper equates one synchronous round with one unit of
//               continuous RLS time: m expected activations).
//   state()     the O(1)-maintained BalanceState view shared with
//               serve::CompactAllocator::balanceState(), so stopping
//               predicates and gap reports speak one vocabulary.
//   capabilities()  the two traits generic drivers read: an open ball
//               population and an equilibrium target.
//
// process::run(...) is THE run loop; callers hand it any dynamic directly.
// tests/test_process.cpp pins it byte-identical to frozen copies of the
// per-family loops it replaced. OpenSystem::runUntilTime is the one other
// loop over a dynamic: it stops exactly at its time, which run() does too
// for a finite maxTime (see advanceWithin).
//
// This header sits directly above sim::BalanceState: the family headers
// include it, it includes none of them. Construction is data too: see
// registry.hpp (makeProcess(kind, ...)) for the string-keyed roster
// mirroring the scenario registry.
#pragma once

#include <cstdint>

#include "sim/engine.hpp"

namespace rlslb::process {

/// Unified clock over the three event granularities.
struct Clock {
  enum class Kind {
    Continuous,  // exact CTMC simulation time
    Rounds,      // synchronous rounds executed
    Steps,       // sequential protocol steps (CRS pair draws)
  };
  Kind kind = Kind::Continuous;
  double value = 0.0;

  /// Short unit label for tables ("time" / "rounds" / "steps").
  [[nodiscard]] const char* unit() const {
    switch (kind) {
      case Kind::Continuous: return "time";
      case Kind::Rounds: return "rounds";
      case Kind::Steps: return "steps";
    }
    return "?";
  }
};

/// The traits generic drivers read: process_compare picks its default
/// target from both, and the conformance probe checks an open system's
/// mass against its live population (obs/probe.cpp).
struct Capabilities {
  bool openSystem = false;   // ball population changes over time
  bool equilibrium = false;  // supports Target::equilibrium()
};

/// Stopping target of a run: a balance target, the fixed point of the
/// non-RLS dynamics (Nash equilibrium / local stability), or an explicit
/// "no target" for horizon-limited runs (open systems).
struct Target {
  enum class Kind { PerfectBalance, XBalanced, Equilibrium, None };
  Kind kind = Kind::PerfectBalance;
  std::int64_t x = 0;  // used by XBalanced

  static Target perfect() { return {Kind::PerfectBalance, 0}; }
  static Target xBalanced(std::int64_t x) { return {Kind::XBalanced, x}; }
  static Target equilibrium() { return {Kind::Equilibrium, 0}; }
  static Target none() { return {Kind::None, 0}; }
};

/// Safety budgets: maxTime bounds now().value (so it caps rounds/steps for
/// synchronous clocks), maxEvents bounds advance() calls within one run().
using RunLimits = sim::RunLimits;

class Process {
 public:
  virtual ~Process() = default;

  /// Advance one event. Returns false iff the process is absorbed (no
  /// transition has positive rate), in which case now()/state() are final.
  virtual bool advance() = 0;

  /// advance(), for a run that stops at `horizon` (> now().value; infinite
  /// without a maxTime). A dynamic with no event by a finite `horizon`
  /// may instead stop its clock exactly there and return false: OpenSystem
  /// does, absorbed or not, so run() returns its state AT maxTime, not
  /// after the first event past it. The default is advance(): an event
  /// loop overshoots by one event.
  virtual bool advanceWithin(double horizon) {
    (void)horizon;
    return advance();
  }

  [[nodiscard]] virtual Clock now() const = 0;

  /// O(1) balance view (see sim::BalanceState). For weighted dynamics the
  /// loads are in weight units; for open systems numBalls tracks the live
  /// population.
  [[nodiscard]] virtual const sim::BalanceState& state() const = 0;

  [[nodiscard]] virtual const Capabilities& capabilities() const = 0;

  /// Successful (state-changing) ball relocations so far.
  [[nodiscard]] virtual std::int64_t moves() const = 0;

  /// Ball activations so far; -1 when the dynamic does not simulate
  /// individual activations.
  [[nodiscard]] virtual std::int64_t activations() const { return -1; }

  /// Target predicate. The default evaluates balance targets on state()
  /// (None is never reached); dynamics with a fixed point override it for
  /// Target::equilibrium().
  [[nodiscard]] virtual bool reached(const Target& target) const;

  /// How many events run() lets pass between target re-evaluations. 1 for
  /// O(1) predicates; dynamics with O(n)-or-worse fixed-point checks return
  /// their family's historical check cadence.
  [[nodiscard]] virtual std::int64_t targetCheckStride(const Target& target) const {
    (void)target;
    return 1;
  }
};

/// Observer called once before the run and after every event.
class Probe {
 public:
  virtual ~Probe() = default;
  virtual void onEvent(const Process& process) = 0;
};

struct RunResult {
  Clock clock;                    // final clock (kind + value)
  double time = 0.0;              // == clock.value, for drop-in reporting
  std::int64_t events = 0;        // advance() calls made by this run()
  std::int64_t moves = 0;
  std::int64_t activations = -1;  // -1 if unavailable
  bool reachedTarget = false;
  sim::BalanceState finalState;
};

/// Run `process` until the target, absorption, or a limit. If `probe` is
/// non-null it sees the start and every event.
RunResult run(Process& process, const Target& target, const RunLimits& limits = {},
              Probe* probe = nullptr);

}  // namespace rlslb::process

namespace rlslb::sim {
/// The run report under its old sim-layer name (perfbench spells it).
using RunResult = process::RunResult;
}  // namespace rlslb::sim
