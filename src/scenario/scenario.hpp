// Scenario subsystem: experiments as data.
//
// Every experiment harness (E1-E15 and the design ablations; roster in
// docs/EXPERIMENTS.md) registers itself in the ScenarioRegistry as a named
// Scenario — name, description, paper reference, and a run function over a
// ScenarioContext. The context carries the run knobs (scale/seed/reps/
// threads), the shared replication thread pool (one pool serves every
// scenario in a driver run), per-scenario `key=value` parameter overrides,
// and the ResultSink that turns each table into a machine-readable JSONL
// record next to the ASCII output.
//
// Parameters: each scenario declares its keys as util::ParamSpecs, each
// with a domain. runOne checks every supplied key the scenario declares
// against its domain before the body runs (util::checkParams), so a body
// reads only values in range and keeps only the checks that read two keys
// or structured input. Overrides arrive as bare `key=value` tokens in one
// util::Params bag; the driver fails a run whose bag holds a key no
// scenario read.
//
// Entry points: the unified `rlslb` driver (examples/rlslb.cpp) and the
// thin standalone bench_* mains (scenario/harness.hpp), which both resolve
// scenarios through the same registry — `./bench/bench_theorem1` and
// `rlslb run e1_theorem1` run the same registered function.
#pragma once

#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/trace.hpp"
#include "report/result_sink.hpp"
#include "runner/thread_pool.hpp"
#include "util/params.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace rlslb::scenario {

/// The scenario-side spelling of the one key=value bag.
using ScenarioParams = util::Params;

/// Everything a scenario needs to run: knobs, pool, params, sink.
struct ScenarioContext {
  double scale = 1.0;              // size multiplier (small 0.5 / default 1 / full 2)
  std::string scaleName = "default";
  std::int64_t reps = 0;           // 0 = per-experiment default
  std::uint64_t seed = 20170529;   // the IPDPS date
  int threads = 0;                 // 0 = hardware concurrency
  bool csv = false;                // also print CSV blocks (legacy --csv)
  std::shared_ptr<runner::ThreadPool> sharedPool;
  report::ResultSink* sink = nullptr;  // may be null (console-only run)
  util::Params params;
  std::ostream* console = &std::cout;  // null = fully quiet (tests)

  /// The run's telemetry registry (src/obs/): scenarios wire it into their
  /// subsystems (e.g. serve::LoopOptions.metrics); runOne resets it per
  /// scenario and, when non-empty after the body, emits the merged
  /// snapshot as a {"type":"metrics"} record to the sink.
  obs::MetricsRegistry metrics;
  /// Non-null when the driver runs with --trace-out= (and tracing is
  /// compiled in): scenarios with traceable subsystems attach it (the
  /// harness also attaches it to the shared pool for job spans).
  obs::TraceWriter* trace = nullptr;

  /// The run's conformance roster (obs/monitor.hpp). Scenarios that honor
  /// `conformance=` install their default monitors here and hand the set
  /// to their subsystems (serve::LoopOptions.monitors /
  /// obs::ProcessProbe::Options::monitors); runOne clears it per scenario
  /// and, when monitors ran, emits each violation as a {"type":"anomaly"}
  /// record plus a {"type":"conformance"} summary record.
  obs::MonitorSet monitors;
  /// Default for the scenarios' `conformance=` param; set by the
  /// --conformance= driver flag (on|off|strict, default off; `rlslb
  /// watch` defaults it on).
  bool conformanceDefault = false;
  /// --conformance=strict: the driver exits non-zero on any error-severity
  /// anomaly (the CI gate).
  bool conformanceStrict = false;
  /// Run totals, accumulated by runOne across scenarios for the driver's
  /// exit summary.
  std::int64_t conformanceChecks = 0;
  std::int64_t anomalyWarnings = 0;
  std::int64_t anomalyErrors = 0;

  /// Set by ScenarioRegistry::runOne for the duration of the run; sink
  /// records are tagged with it.
  std::string activeScenario;

  /// Lazily create the shared pool from `threads`. One pool is reused by
  /// every replication sweep of every scenario in the run, so the
  /// --threads knob governs the whole process (see runner/thread_pool.hpp).
  runner::ThreadPool& pool() {
    if (!sharedPool) sharedPool = std::make_shared<runner::ThreadPool>(threads);
    return *sharedPool;
  }

  /// Scaled replication count.
  [[nodiscard]] std::int64_t repsOr(std::int64_t dflt) const {
    if (reps > 0) return reps;
    const auto r = static_cast<std::int64_t>(static_cast<double>(dflt) * scale);
    return r < 2 ? 2 : r;
  }

  /// Scaled size (rounded to a multiple of `quantum` for n | m constraints).
  [[nodiscard]] std::int64_t sized(std::int64_t dflt, std::int64_t quantum = 1) const {
    auto v = static_cast<std::int64_t>(static_cast<double>(dflt) * scale);
    if (v < quantum) v = quantum;
    return v / quantum * quantum;
  }

  /// Print the table (plus CSV when --csv) and emit a deterministic
  /// "table" record to the sink.
  void emitTable(const Table& table, const std::string& title);

  /// Same, but as a "timing" record: for tables whose cells contain
  /// wall-clock measurements, which are excluded from the byte-determinism
  /// contract (see report/result_sink.hpp).
  void emitTimingTable(const Table& table, const std::string& title);

  /// Console side note (replaces the harnesses' bare printf commentary);
  /// silent when console is null.
  void note(const std::string& text);
};

/// A registered experiment.
struct Scenario {
  std::string name;         // stable CLI identifier, e.g. "e1_theorem1"
  std::string description;  // one line: what it reproduces
  std::string paperRef;     // e.g. "Theorem 1; Section 5"
  std::function<void(ScenarioContext&)> run;
  /// Declared `key=value` knobs with their domains (printed by `rlslb
  /// describe <name>`, enforced by runOne). Shares the spec type with the
  /// process registry so both layers' parameters read the same way.
  /// Defaulted so parameterless scenarios keep the four-field aggregate
  /// registration.
  std::vector<util::ParamSpec> params = {};
  /// True when the body forwards each selected process kind's declared
  /// keys to ProcessRegistry::make (forwardProcessParams): those keys are
  /// declared and checked there, and `rlslb describe` lists them from the
  /// process registry.
  bool forwardsProcessParams = false;
};

class ScenarioRegistry {
 public:
  /// The process-wide registry used by the drivers. Fresh instances can be
  /// constructed for tests.
  static ScenarioRegistry& global();

  /// Throws std::invalid_argument on a duplicate name.
  void add(Scenario s);

  [[nodiscard]] const Scenario* find(const std::string& name) const;
  /// All scenarios, name-sorted.
  [[nodiscard]] std::vector<const Scenario*> list() const;
  [[nodiscard]] std::size_t size() const { return byName_.size(); }

  /// Run one scenario: the domain check of its declared params, banner +
  /// scenario_start record, the scenario body, then the scenario_end
  /// record with wall-clock seconds. Throws std::out_of_range (with the
  /// known-name list) on an unknown name and std::invalid_argument on a
  /// param outside its domain (before anything is printed or recorded).
  void runOne(const std::string& name, ScenarioContext& ctx) const;

 private:
  std::map<std::string, Scenario> byName_;
};

/// Register the built-in experiment roster (idempotent on the global
/// registry; repeatable on fresh registries). Explicit registration — not
/// static initializers — so scenarios linked from the static library are
/// never silently dropped by the linker.
void registerBuiltinScenarios(ScenarioRegistry& registry = ScenarioRegistry::global());

}  // namespace rlslb::scenario
