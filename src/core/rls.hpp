// Public facade of the library: one-call construction of an exact RLS
// simulator and convenience wrappers for the common "measure the balancing
// time" workflow. See README.md for a tour; examples/quickstart.cpp is the
// smallest complete program, and docs/ARCHITECTURE.md maps the modules
// behind this header to the paper's concepts.
#pragma once

#include <cstdint>
#include <memory>

#include "config/configuration.hpp"
#include "process/process.hpp"

namespace rlslb::core {

struct SimOptions {
  enum class EngineKind {
    Naive,   // simulate every activation (ground truth; exposes activations())
    Jump,    // event-skipping lumped chain (fast endgame; O(L) per move)
    Hybrid,  // naive until few distinct loads, then jump (default)
  };
  EngineKind engine = EngineKind::Hybrid;
  std::uint64_t seed = 1;
  /// Naive engine only: move iff load(src) >= load(dst) + gap. gap = 1 is the
  /// paper's RLS; gap = 2 the strict variant of [12, 11]. The jump engine is
  /// gap-agnostic (identical lumped chain; Section 3 remark).
  int gap = 1;
  /// Hybrid: switch to jump when #distinct loads <= this (0 = default 96).
  std::int64_t levelThreshold = 0;
};

/// Build an engine over a copy of `initial`.
std::unique_ptr<process::Process> makeEngine(const config::Configuration& initial,
                                             const SimOptions& options);

/// Run to the target (default: perfect balance) and report: makeEngine,
/// then process::run.
process::RunResult balance(const config::Configuration& initial, const SimOptions& options,
                           const process::Target& target = process::Target::perfect(),
                           const process::RunLimits& limits = {},
                           process::Probe* probe = nullptr);

/// Shorthand: the balancing time of one run (asserts the target was reached).
double balancingTime(const config::Configuration& initial, const SimOptions& options,
                     const process::Target& target = process::Target::perfect(),
                     const process::RunLimits& limits = {});

}  // namespace rlslb::core
