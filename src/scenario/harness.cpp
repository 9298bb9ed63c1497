#include "scenario/harness.hpp"

#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

namespace rlslb::scenario {

namespace {

/// The common driver flags and their domains.
const std::vector<util::ParamSpec>& driverFlags() {
  static const std::vector<util::ParamSpec> flags = {
      {"scale", "string", "default", "size multiplier: small 0.5, default 1, full 2",
       {.choices = "small|default|full"}},
      {"seed", "int", "20170529", "base seed (as uint64)"},
      {"reps", "int", "0", "replications (0 = each scenario's default)", {.intMin = 0}},
      {"threads", "int", "0", "replication threads (0 = hardware)",
       {.intMin = 0, .intMax = runner::kMaxThreads}},
      {"csv", "bool", "0", "also print CSV blocks"},
      {"conformance", "string", "off", "attach the conformance monitors (strict: exit 3)",
       {.choices = "on|off|strict"}},
  };
  return flags;
}

}  // namespace

ScenarioContext contextFromArgs(const util::Params& args) {
  util::checkParams(args, driverFlags(), "");
  ScenarioContext ctx;
  ctx.scaleName = args.getString("scale", "default");
  ctx.scale = ctx.scaleName == "small" ? 0.5 : (ctx.scaleName == "full" ? 2.0 : 1.0);
  ctx.reps = args.getInt("reps", 0);
  ctx.seed = static_cast<std::uint64_t>(args.getInt("seed", 20170529));
  ctx.threads = static_cast<int>(args.getInt("threads", 0));
  ctx.csv = args.getBool("csv", false);
  const std::string conformance = args.getString("conformance", "off");
  ctx.conformanceDefault = conformance != "off";
  ctx.conformanceStrict = conformance == "strict";
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
  if (!util::Params::fromTokens(tokens, &ctx.params, &error)) {
    throw std::invalid_argument(error);
  }
}

util::Params forwardProcessParams(const process::ProcessSpec& spec, const util::Params& params) {
  util::Params out;
  for (const util::ParamSpec& p : spec.params) {
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
  // the flag bag sees them; it insists on the -- prefix.
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
    const util::Params args(static_cast<int>(flagPtrs.size()), flagPtrs.data());
    ScenarioContext ctx = contextFromArgs(args);
    applyParamTokens(ctx, paramTokens);

    const std::string outPath = args.getString("out", "");
    const std::string tracePath = args.getString("trace-out", "");
    args.rejectUnused();
    ResultOutput out;
    if (!out.attach(outPath, ctx)) return 2;
    TraceOutput traceOut;
    traceOut.attach(tracePath, ctx);

    registerBuiltinScenarios();
    ScenarioRegistry::global().runOne(scenarioName, ctx);
    if (!traceOut.finish(ctx)) return 2;
    ctx.params.rejectUnused(" (not read by " + scenarioName + ")");
    return conformanceExit(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}

}  // namespace rlslb::scenario
