// Registration hooks for the built-in experiment roster (one per ported
// bench harness; bodies live in src/scenario/builtin/*.cpp). Explicitly
// called from registerBuiltinScenarios() in register_all.cpp — no static
// initializers, so nothing depends on whole-archive link semantics.
#pragma once

#include <cstdint>
#include <string_view>

#include "scenario/scenario.hpp"

namespace rlslb::scenario::builtin {

/// FNV-1a, used to derive per-case seed salts from row labels. NOT
/// std::hash: that is implementation-defined, and salts feed replication
/// seeds, so they must be identical across standard libraries for the
/// cross-machine byte-determinism contract (report/result_sink.hpp).
inline std::uint64_t stableHash(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The wall-time split of one serving run, set on its throughput/frontier
/// record: wall_s (the scenario's or the cell's wall time), the loop's named
/// parts fill_s (trace generation), loop_s (decide + apply) and observe_s
/// (stats, telemetry, callbacks), and unattributed_s, the rest.
void setWallSplit(report::Json* record, double wallSeconds, double fillSeconds,
                  double loopSeconds, double observeSeconds);

void registerTheorem1(ScenarioRegistry& r);       // e1_theorem1
void registerLowerbound(ScenarioRegistry& r);     // e2_lowerbound (E2/E3/E9)
void registerWhp(ScenarioRegistry& r);            // e4_whp
void registerPhases(ScenarioRegistry& r);         // e5_phases (E5-E7)
void registerDml(ScenarioRegistry& r);            // e8_dml
void registerBaselines(ScenarioRegistry& r);      // e10_baselines
void registerExtensions(ScenarioRegistry& r);     // e11_extensions
void registerGraphs(ScenarioRegistry& r);         // e12_graphs
void registerOpensystem(ScenarioRegistry& r);     // e14_opensystem
void registerTrajectory(ScenarioRegistry& r);     // e15_trajectory
void registerAblation(ScenarioRegistry& r);       // ablation
void registerMicroSubstrate(ScenarioRegistry& r); // micro_substrate
void registerServe(ScenarioRegistry& r);          // serve_poisson/bursty/diurnal/adversarial/composed
void registerServeCapacity(ScenarioRegistry& r);  // serve_capacity
void registerProcessCompare(ScenarioRegistry& r); // process_compare

}  // namespace rlslb::scenario::builtin
