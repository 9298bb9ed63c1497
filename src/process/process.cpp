#include "process/process.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rlslb::process {

bool Process::reached(const Target& target) const {
  switch (target.kind) {
    case Target::Kind::PerfectBalance:
      return state().perfectlyBalanced();
    case Target::Kind::XBalanced:
      return state().xBalanced(target.x);
    case Target::Kind::None:
      return false;
    case Target::Kind::Equilibrium:
      RLSLB_ASSERT_MSG(false,
                       "this process has no equilibrium notion (check "
                       "capabilities().equilibrium before targeting it)");
      return false;
  }
  return false;
}

RunResult run(Process& process, const Target& target, const RunLimits& limits, Probe* probe) {
  if (target.kind == Target::Kind::Equilibrium) {
    RLSLB_ASSERT_MSG(process.capabilities().equilibrium,
                     "Target::equilibrium() on a process without an equilibrium notion");
  }

  RunResult result;
  if (probe != nullptr) probe->onEvent(process);
  bool reached = process.reached(target);
  const std::int64_t stride = std::max<std::int64_t>(1, process.targetCheckStride(target));
  std::int64_t sinceCheck = 0;
  std::int64_t events = 0;
  while (!reached && process.now().value < limits.maxTime && events < limits.maxEvents) {
    if (!process.advanceWithin(limits.maxTime)) break;  // absorbed, or stopped at the horizon
    ++events;
    if (probe != nullptr) probe->onEvent(process);
    if (++sinceCheck >= stride) {
      sinceCheck = 0;
      reached = process.reached(target);
    }
  }
  result.clock = process.now();
  result.time = result.clock.value;
  result.events = events;
  result.moves = process.moves();
  result.activations = process.activations();
  result.finalState = process.state();
  result.reachedTarget = reached || process.reached(target);
  return result;
}

}  // namespace rlslb::process
