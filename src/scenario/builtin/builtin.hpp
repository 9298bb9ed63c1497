// Registration hooks for the built-in experiment roster (one per ported
// bench harness; bodies live in src/scenario/builtin/*.cpp). Explicitly
// called from registerBuiltinScenarios() in register_all.cpp — no static
// initializers, so nothing depends on whole-archive link semantics.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "scenario/scenario.hpp"
#include "util/format.hpp"

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

/// The largest `n=` (bins) a paper scenario declares: the serving layer's
/// int32 bin index. The bodies' products with n (8n, 16n, n^2/4) then fit
/// int64.
inline constexpr std::int64_t kMaxBins = std::numeric_limits<std::int32_t>::max();

/// m = ratio * n for the scenarios whose `ratio=` counts balls per bin.
/// Both keys' domains are declared; their product fitting int64 reads two
/// keys, so it is checked here, before the multiplication.
inline std::int64_t ballsFor(const std::string& owner, std::int64_t ratio, std::int64_t n) {
  if (ratio > std::numeric_limits<std::int64_t>::max() / n) {
    throw std::invalid_argument(owner + ": ratio=" + std::to_string(ratio) + " must be in [0, " +
                                std::to_string(std::numeric_limits<std::int64_t>::max() / n) +
                                "] at n=" + std::to_string(n) + " (ratio * n must fit int64)");
  }
  return ratio * n;
}

/// The most points a trajectory grid may hold: e15_trajectory's recorder
/// samples each run every dt / 4 up to horizon + 1, so (horizon + 1) / dt
/// <= kMaxGridPoints bounds its 4x finer grid by 4 * kMaxGridPoints points
/// and the table's horizon / dt + 1 rows by kMaxGridPoints.
inline constexpr double kMaxGridPoints = 1 << 17;

/// Checks e15's grid against kMaxGridPoints. Both keys' domains are
/// declared; their ratio reads two keys, so it is checked here, before the
/// grid is sized (a ratio past size_t would make its cast undefined).
inline void checkGrid(const std::string& owner, double horizon, double dt) {
  if ((horizon + 1.0) / dt > kMaxGridPoints) {
    throw std::invalid_argument(
        owner + ": horizon=" + formatSig(horizon, 6) + " and dt=" + formatSig(dt, 6) +
        " ask for (horizon + 1) / dt = " + formatSig((horizon + 1.0) / dt, 3) +
        " grid points; it must be <= " + formatSig(kMaxGridPoints, 7) +
        " (the recorder samples every dt / 4)");
  }
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
