#include "scenario/harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

namespace rlslb::scenario {

ScenarioContext contextFromArgs(const CliArgs& args) {
  ScenarioContext ctx;
  ctx.scaleName = args.getString("scale", "default");
  if (ctx.scaleName == "small") {
    ctx.scale = 0.5;
  } else if (ctx.scaleName == "default") {
    ctx.scale = 1.0;
  } else if (ctx.scaleName == "full") {
    ctx.scale = 2.0;
  } else {
    std::fprintf(stderr, "unknown --scale=%s (small|default|full)\n", ctx.scaleName.c_str());
    std::exit(2);
  }
  ctx.reps = args.getInt("reps", 0);
  if (ctx.reps < 0) {
    throw std::invalid_argument("--reps=" + std::to_string(ctx.reps) +
                                " must be >= 0 (0 = the scenario's default)");
  }
  ctx.seed = static_cast<std::uint64_t>(args.getInt("seed", 20170529));
  ctx.threads = args.getThreads(0);
  ctx.csv = args.getBool("csv", false);
  const std::string conformance = args.getString("conformance", "off");
  if (conformance == "on") {
    ctx.conformanceDefault = true;
  } else if (conformance == "strict") {
    ctx.conformanceDefault = true;
    ctx.conformanceStrict = true;
  } else if (conformance == "off") {
    ctx.conformanceDefault = false;
  } else {
    std::fprintf(stderr, "unknown --conformance=%s (on|off|strict)\n",
                 conformance.c_str());
    std::exit(2);
  }
  return ctx;
}

int conformanceExit(const ScenarioContext& ctx) {
  if (ctx.conformanceChecks > 0 && ctx.console != nullptr) {
    *ctx.console << "[conformance] run total: " << ctx.conformanceChecks << " checks, "
                 << ctx.anomalyWarnings << " warnings, " << ctx.anomalyErrors
                 << " errors"
                 << (ctx.conformanceStrict && ctx.anomalyErrors > 0
                         ? " -- FAILING (strict)"
                         : "")
                 << '\n';
  }
  return ctx.conformanceStrict && ctx.anomalyErrors > 0 ? 3 : 0;
}

void applyParamTokens(ScenarioContext& ctx, const std::vector<std::string>& tokens) {
  std::string error;
  if (!ScenarioParams::fromTokens(tokens, &ctx.params, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(2);
  }
}

process::ProcessParams forwardProcessParams(const process::ProcessSpec& spec,
                                            const ScenarioParams& params) {
  process::ProcessParams out;
  for (const process::ParamSpec& p : spec.params) {
    if (params.has(p.name)) out.set(p.name, params.getString(p.name, ""));
  }
  return out;
}

bool ResultOutput::attach(const std::string& outPath, ScenarioContext& ctx) {
  if (outPath.empty()) return true;
  file_.open(outPath);
  if (!file_) {
    std::fprintf(stderr, "cannot open --out=%s for writing\n", outPath.c_str());
    return false;
  }
  sink_ = report::ResultSink(&file_);
  ctx.sink = &sink_;

  report::RunManifest manifest = report::makeManifest();
  manifest.seed = ctx.seed;
  manifest.scaleName = ctx.scaleName;
  manifest.scale = ctx.scale;
  manifest.reps = ctx.reps;
  manifest.threadsRequested = ctx.threads;
  manifest.threadsResolved = runner::ThreadPool::resolveThreadCount(ctx.threads);
  sink_.writeManifest(manifest);
  return true;
}

void TraceOutput::attach(const std::string& tracePath, ScenarioContext& ctx) {
  if (tracePath.empty()) return;
  if (!obs::kTracingCompiledIn) {
    std::fprintf(stderr,
                 "--trace-out=%s ignored: tracing is compiled out (build with "
                 "-DRLSLB_TRACING=ON)\n",
                 tracePath.c_str());
    return;
  }
  path_ = tracePath;
  ctx.trace = &writer_;
  // Job spans for every parallelFor of the run (the replication fan-outs);
  // workers were assigned tracks at pool construction, which ctx.pool()
  // forces here if it has not happened yet.
  ctx.pool().setTraceWriter(&writer_);
  active_ = true;
}

bool TraceOutput::finish(ScenarioContext& ctx) {
  if (!active_) return true;
  ctx.pool().setTraceWriter(nullptr);
  ctx.trace = nullptr;
  if (!writer_.writeFile(path_)) {
    std::fprintf(stderr, "cannot write --trace-out=%s\n", path_.c_str());
    return false;
  }
  if (ctx.console != nullptr) {
    *ctx.console << "[trace] " << writer_.eventCount() << " events -> " << path_
                 << "  (load in ui.perfetto.dev or chrome://tracing)\n";
  }
  return true;
}

int runStandalone(int argc, char** argv, const std::string& scenarioName) {
  // Split bare key=value tokens (parameter overrides) from --flags before
  // CliArgs sees them; CliArgs insists on the -- prefix.
  std::vector<std::string> flagStrings;
  std::vector<std::string> paramTokens;
  if (argc > 0) flagStrings.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      flagStrings.push_back(arg);
    } else {
      paramTokens.push_back(arg);
    }
  }
  std::vector<const char*> flagPtrs;
  flagPtrs.reserve(flagStrings.size());
  for (const auto& s : flagStrings) flagPtrs.push_back(s.c_str());
  // A bad flag and a failing scenario are both usage errors: exit 2.
  try {
    const CliArgs args(static_cast<int>(flagPtrs.size()), flagPtrs.data());
    ScenarioContext ctx = contextFromArgs(args);
    applyParamTokens(ctx, paramTokens);

    const std::string outPath = args.getString("out", "");
    const std::string tracePath = args.getString("trace-out", "");
    const auto unused = args.unusedKeys();
    if (!unused.empty()) {
      for (const auto& k : unused) std::fprintf(stderr, "unknown flag --%s\n", k.c_str());
      return 2;
    }
    ResultOutput out;
    if (!out.attach(outPath, ctx)) return 2;
    TraceOutput traceOut;
    traceOut.attach(tracePath, ctx);

    registerBuiltinScenarios();
    ScenarioRegistry::global().runOne(scenarioName, ctx);
    if (!traceOut.finish(ctx)) return 2;

    const auto unusedParams = ctx.params.unusedKeys();
    if (!unusedParams.empty()) {
      for (const auto& k : unusedParams) {
        std::fprintf(stderr, "unknown parameter %s (not read by %s)\n", k.c_str(),
                     scenarioName.c_str());
      }
      return 2;
    }
    return conformanceExit(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}

}  // namespace rlslb::scenario
