#include "core/rls.hpp"

#include "sim/hybrid_engine.hpp"
#include "sim/jump_engine.hpp"
#include "sim/naive_engine.hpp"
#include "util/assert.hpp"

namespace rlslb::core {

std::unique_ptr<process::Process> makeEngine(const config::Configuration& initial,
                                             const SimOptions& options) {
  switch (options.engine) {
    case SimOptions::EngineKind::Naive:
      return std::make_unique<sim::NaiveEngine>(initial, options.seed, options.gap);
    case SimOptions::EngineKind::Jump:
      return std::make_unique<sim::JumpEngine>(initial, options.seed);
    case SimOptions::EngineKind::Hybrid:
      return std::make_unique<sim::HybridEngine>(initial, options.seed, options.levelThreshold);
  }
  RLSLB_ASSERT_MSG(false, "unknown engine kind");
  return nullptr;
}

process::RunResult balance(const config::Configuration& initial, const SimOptions& options,
                           const process::Target& target, const process::RunLimits& limits,
                           process::Probe* probe) {
  const auto engine = makeEngine(initial, options);
  return process::run(*engine, target, limits, probe);
}

double balancingTime(const config::Configuration& initial, const SimOptions& options,
                     const process::Target& target, const process::RunLimits& limits) {
  const process::RunResult r = balance(initial, options, target, limits);
  RLSLB_ASSERT_MSG(r.reachedTarget, "run hit a limit before reaching the balance target");
  return r.time;
}

}  // namespace rlslb::core
