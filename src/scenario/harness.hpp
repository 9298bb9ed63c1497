// Shared CLI harness for the scenario drivers.
//
// Two kinds of binary resolve experiments through the ScenarioRegistry:
//   - the unified driver `rlslb` (examples/rlslb.cpp) with list/run/all
//     subcommands, and
//   - the standalone bench_* mains, each a one-line wrapper over
//     runStandalone() so historical invocations keep working:
//         ./bench/bench_theorem1 --scale=small --seed=7
//     is exactly `rlslb run e1_theorem1 --scale=small --seed=7`.
//
// Both accept the common knobs (--scale/--seed/--reps/--threads/--csv/
// --conformance, declared with their domains in harness.cpp) plus
// --out=FILE to stream JSONL records (report/result_sink.hpp), and bare
// key=value tokens as scenario parameter overrides. Every usage error --
// a bad flag, a malformed token, a param outside its domain -- is a
// std::invalid_argument, which the binaries print and turn into exit 2.
#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "process/registry.hpp"
#include "scenario/scenario.hpp"
#include "util/params.hpp"

namespace rlslb::scenario {

/// Build a ScenarioContext from the common `--key=value` knobs, checked
/// against their declared domains first: a value outside its domain (e.g.
/// --scale=bogus, --threads=-3) throws std::invalid_argument. Does not
/// check unused flags (the caller may still consume e.g. --out).
ScenarioContext contextFromArgs(const util::Params& args);

/// Print the run-total conformance summary (when any checks ran) and
/// return the driver exit code: 3 when --conformance=strict saw
/// error-severity anomalies, 0 otherwise.
int conformanceExit(const ScenarioContext& ctx);

/// Fill `ctx.params` from bare key=value tokens; throws
/// std::invalid_argument on a malformed token.
void applyParamTokens(ScenarioContext& ctx, const std::vector<std::string>& tokens);

/// Forward exactly the keys `spec` declares from the scenario's `key=value`
/// overrides into a process bag (marking them consumed on the scenario
/// side); ProcessRegistry::make checks them against the kind's domains.
/// One spelling of every knob across both layers: a scenario takes e.g.
/// `process=threshold threshold=8 p=0.25` and hands the latter two to
/// process::makeProcess.
util::Params forwardProcessParams(const process::ProcessSpec& spec, const util::Params& params);

/// Caller-owned holder for the --out stream and its sink (both must
/// outlive the scenario runs). attach() with a non-empty path opens the
/// file, wires ctx.sink, and writes the run manifest from the context's
/// knobs; an empty path leaves the sink disabled. Returns false (with a
/// stderr message) when the file cannot be opened.
class ResultOutput {
 public:
  bool attach(const std::string& outPath, ScenarioContext& ctx);

 private:
  std::ofstream file_;
  report::ResultSink sink_;
};

/// Caller-owned holder for the --trace-out= writer (must outlive the
/// scenario runs). attach() with a non-empty path wires ctx.trace and the
/// shared pool's job spans; when tracing is compiled out (RLSLB_TRACING=0)
/// it warns on stderr and stays detached, so the flag is accepted but
/// inert. finish() serializes the Chrome trace-event JSON after the runs
/// (false + stderr message on IO failure; true when never attached).
class TraceOutput {
 public:
  void attach(const std::string& tracePath, ScenarioContext& ctx);
  bool finish(ScenarioContext& ctx);

 private:
  std::string path_;
  obs::TraceWriter writer_;
  bool active_ = false;
};

/// Entry point for the thin standalone bench_* mains: parse the common
/// knobs + --out + key=value overrides from argv, register the built-in
/// roster, run `scenarioName`, and return the process exit code.
int runStandalone(int argc, char** argv, const std::string& scenarioName);

}  // namespace rlslb::scenario
