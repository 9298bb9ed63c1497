// ResultSink: machine-readable experiment output as JSON-lines.
//
// One run of the `rlslb` driver (or a standalone bench harness with
// --out=FILE) produces one JSONL stream: a run manifest first, then a
// small fixed vocabulary of record types per scenario. Every record is one
// line, one JSON object, with a "type" field:
//
//   {"type":"manifest", ...}           run provenance: seed, scale, threads,
//                                      git sha, compiler, host, start time
//   {"type":"scenario_start", ...}     scenario name, paper ref, parameters
//   {"type":"table", ...}              one experiment table (headers + rows)
//   {"type":"timing", ...}             wall-clock measurements (machine-
//                                      dependent by nature)
//   {"type":"throughput", ...}         scenario events/sec (the serving
//                                      scenarios' CI-gated rate metric)
//   {"type":"metrics", ...}            merged obs::MetricsRegistry snapshot
//                                      (counters/gauges/histograms/sketches;
//                                      the phase-timing source for
//                                      scripts/perf_report.py)
//   {"type":"anomaly", ...}            one conformance-monitor violation
//                                      (obs/monitor.hpp): monitor, metric,
//                                      severity, step/time, value vs bound
//   {"type":"conformance", ...}        per-scenario monitor summary: check
//                                      and anomaly counts + gap/latency
//                                      sketch snapshots
//   {"type":"frontier", ...}           one capacity-sweep cell (serve_capacity):
//                                      n, load factor, trace shape, backend,
//                                      gap stats + events/sec, p99 ns/event,
//                                      state bytes, bytes/ball, peak RSS
//   {"type":"scenario_end", ...}       scenario wall-clock seconds
//
// Determinism contract (asserted by tests/test_scenario.cpp and relied on
// by CI's results diff): for a fixed seed, every "scenario_start" and
// "table" record is byte-identical across runs, thread counts, and
// machines; all wall-clock and host-dependent data is confined to
// "manifest", "timing", "throughput", "metrics", "conformance",
// "frontier", and "scenario_end" records ("metrics" carries phase nanoseconds, so the
// whole record type is excluded even though its semantic counters are
// deterministic; "conformance" likewise via its latency sketch).
// "anomaly" records from simulated-state monitors are deterministic;
// wall-clock monitors (latency_drift) may differ run to run.
//
// The sink is not thread-safe; scenarios run sequentially and emit tables
// from the calling thread (replication fan-out stays below this layer).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "report/json.hpp"

namespace rlslb {
class Table;  // util/table.hpp
}

namespace rlslb::report {

/// Provenance header for one driver run.
struct RunManifest {
  std::string tool = "rlslb";
  std::string version;      // project version (x.y.z)
  std::uint64_t seed = 0;
  std::string scaleName;    // small | default | full
  double scale = 1.0;
  std::int64_t reps = 0;    // 0 = per-experiment default
  int threadsRequested = 0; // the --threads knob (0 = hardware)
  int threadsResolved = 1;  // actual pool concurrency
  std::string gitSha;       // build-time git revision, "unknown" outside git
  std::string compiler;     // e.g. "gcc 12.2.0"
  std::string buildType;    // e.g. "Release"
  std::string host;         // gethostname(), "unknown" on failure
  std::int64_t startedUnixMs = 0;

  [[nodiscard]] Json toJson() const;
};

/// Fill the environment-derived fields (version, git sha, compiler, host,
/// start timestamp); the caller sets the run knobs.
RunManifest makeManifest();

/// The Table -> Json bridge: {"title":..., "headers":[...], "rows":[[...]]}.
/// Cells stay the formatted strings the ASCII table prints, so the JSON is
/// exactly as deterministic as the table itself.
Json tableToJson(const Table& table, const std::string& title);

class ResultSink {
 public:
  /// `out == nullptr` disables the sink: every emit is a cheap no-op, so
  /// scenario code calls the sink unconditionally.
  explicit ResultSink(std::ostream* out = nullptr) : out_(out) {}

  [[nodiscard]] bool enabled() const { return out_ != nullptr; }

  void writeManifest(const RunManifest& manifest);
  void beginScenario(const std::string& name, const std::string& paperRef,
                     const Json& params);
  /// Deterministic experiment table (type "table").
  void writeTable(const std::string& scenario, const std::string& title, const Table& table);
  /// Wall-clock table (type "timing"): same payload shape, excluded from
  /// the determinism contract.
  void writeTimingTable(const std::string& scenario, const std::string& title,
                        const Table& table);
  /// Rate metric (type "throughput"): a serving scenario's units served
  /// (`events`, `activations` among them), loop `events_per_sec` and wall
  /// split, spliced from the `fields` object. events_per_sec is gated by
  /// scripts/compare_results.py next to the scenario wall-clocks.
  /// Wall-clock derived, hence excluded from the determinism contract.
  void writeThroughput(const std::string& scenario, const Json& fields);
  /// Telemetry snapshot (type "metrics"): `snapshot` is
  /// obs::MetricsRegistry::toJson() -- its counters/gauges/histograms keys
  /// are spliced into the record. Wall-clock-bearing (phase ns counters),
  /// hence excluded from the determinism contract.
  void writeMetrics(const std::string& scenario, const Json& snapshot);
  /// One monitor violation (type "anomaly"): `anomaly` is
  /// obs::anomalyToJson() -- its fields are spliced into the record.
  void writeAnomaly(const std::string& scenario, const Json& anomaly);
  /// Per-scenario monitor summary (type "conformance"): `summary` is
  /// obs::MonitorSet::summaryJson(), fields spliced like writeMetrics.
  void writeConformance(const std::string& scenario, const Json& summary);
  /// One capacity-sweep cell (type "frontier"): `cell` carries the sweep
  /// coordinates and measurements (see serve_capacity). Wall-clock and
  /// allocator-capacity bearing, hence excluded from the determinism
  /// contract; the deterministic part of a sweep goes out as "table"
  /// records.
  void writeFrontier(const std::string& scenario, const Json& cell);
  void endScenario(const std::string& name, double wallSeconds);

  /// Escape hatch: write an arbitrary record (must be an object; a "type"
  /// field is required so downstream tools can dispatch).
  void writeRecord(const Json& record);

 private:
  std::ostream* out_;

  void writeLine(const Json& record);
};

}  // namespace rlslb::report
