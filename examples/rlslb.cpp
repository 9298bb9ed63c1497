// rlslb -- the unified experiment driver over the scenario registry.
//
//   rlslb list                         enumerate registered scenarios
//   rlslb processes                    enumerate registered process kinds
//   rlslb describe <name...>           print a scenario's or process kind's
//                                      parameter spec (keys, types, defaults,
//                                      ranges)
//   rlslb run <name...> [flags] [k=v]  run one or more scenarios by name
//   rlslb all [flags] [k=v]            run the whole roster, name order
//   rlslb serve <kind...> [flags] [k=v]  serving-subsystem sugar:
//                                      `serve poisson` == `run serve_poisson`
//                                      (kinds: poisson bursty diurnal
//                                      adversarial; see docs/EXPERIMENTS.md)
//   rlslb watch <name...> [flags] [k=v]  run with the conformance roster on
//                                      and a live snapshot line (gap vs the
//                                      paper envelope, sparkline, anomaly
//                                      tally) on stdout
//
// Flags (any subcommand that runs scenarios):
//   --scale=small|default|full   coarse size knob (default ~ minutes total)
//   --seed=<u64>                 base seed (default 20170529)
//   --reps=<k>                   override replication count
//   --threads=<t>                replication fan-out (0 = all cores)
//   --csv                        also print CSV blocks
//   --out=FILE                   stream JSONL records (manifest + tables +
//                                timings; schema in docs/EXPERIMENTS.md)
//   --conformance=on|off|strict  attach the conformance monitor roster to
//                                every scenario that supports it; strict
//                                exits 3 on any error-severity anomaly
//
// Bare key=value tokens are per-scenario parameter overrides, e.g.
//   rlslb run e15_trajectory n=4096 horizon=12 --out=r.jsonl
// Each is checked against its declared range before the scenario runs; a
// bad flag, a value out of range or a key no scenario read exits 2.
//
// One thread pool and one ResultSink are shared across every scenario in
// the run; for a fixed seed the "table" records are byte-identical across
// runs, thread counts, and machines (see report/result_sink.hpp).
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/watch.hpp"
#include "process/registry.hpp"
#include "scenario/harness.hpp"
#include "workload/compose.hpp"

using namespace rlslb;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s list\n"
               "       %s processes\n"
               "       %s traces\n"
               "              list the workload trace generators and the compose\n"
               "              algebra's factors/combinators (spec= grammar)\n"
               "       %s describe <scenario-process-or-trace-factor...>\n"
               "       %s run <scenario...> [--scale=..] [--seed=..] [--reps=..]\n"
               "             [--threads=..] [--csv] [--out=FILE] [key=value...]\n"
               "       %s all [flags] [key=value...]\n"
               "       %s serve <kind...> [flags] [key=value...]\n"
               "              kinds: poisson bursty diurnal adversarial composed\n"
               "              (shorthand for `run serve_<kind>`)\n"
               "       %s watch <scenario...> [flags] [key=value...]\n"
               "              run with conformance monitors on and a live\n"
               "              gap/anomaly snapshot on stdout\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

void printParamSpec(const std::vector<util::ParamSpec>& params) {
  if (params.empty()) {
    std::cout << "  (no key=value parameters; the common knobs --scale/--seed/--reps/"
                 "--threads still apply)\n";
    return;
  }
  Table table({"param", "type", "default", "range", "description"});
  for (const util::ParamSpec& p : params) {
    table.row().cell(p.name).cell(p.type).cell(p.defaultValue).cell(util::rangeText(p)).cell(
        p.help);
  }
  table.print(std::cout, "parameters (pass as bare key=value tokens)");
}

/// The keys a scenario forwards to the process kinds, as each kind
/// declares them (ProcessRegistry::make checks them).
void printForwardedSpec(const process::ProcessRegistry& processes) {
  Table table({"param", "process", "type", "default", "range", "description"});
  for (const process::ProcessSpec* spec : processes.list()) {
    for (const util::ParamSpec& p : spec->params) {
      table.row().cell(p.name).cell(spec->kind).cell(p.type).cell(p.defaultValue).cell(
          util::rangeText(p)).cell(p.help);
    }
  }
  table.print(std::cout, "\nforwarded to the selected process kinds (see `rlslb describe <kind>`)");
}

/// `rlslb traces`: the generator roster plus the compose algebra.
void printTraceRoster() {
  Table generators({"generator", "scenario", "description"});
  generators.row().cell("poisson").cell("serve_poisson").cell(
      "constant-rate Poisson arrivals/departures (the [11] baseline)");
  generators.row().cell("bursty").cell("serve_bursty").cell(
      "2-state MMPP calm/burst modulated arrivals");
  generators.row().cell("diurnal").cell("serve_diurnal").cell(
      "sinusoid (day/night) modulated arrivals");
  generators.row().cell("adversarial").cell("serve_adversarial").cell(
      "synchronized heavy hot-spot bursts on background Poisson");
  generators.row().cell("composed:<spec>").cell("serve_composed / serve_capacity").cell(
      "trace algebra over the factors below (spec= / traces= params)");
  generators.row().cell("replay").cell("any serve_* (trace=FILE)").cell(
      "recorded trace: .jsonl / .csv / .bin chosen by extension");
  generators.print(std::cout, "workload trace generators (workload/generators.hpp)");

  Table algebra({"name", "signature", "role", "description"});
  for (const workload::TraceFactorSpec& f : workload::traceFactorRoster()) {
    algebra.row().cell(f.name).cell(f.signature).cell(f.role).cell(f.description);
  }
  algebra.print(std::cout, "\ncompose algebra (spec grammar: term ('+' term)*, "
                           "term = factor ('*' factor)*)");
  std::cout << "\nexample: rlslb serve composed "
               "'spec=diurnal(0.8,64)*bursty(8,0.05,0.5)+hotspot(16,32,8)'\n";
}

/// `rlslb describe <name>`: scenario first, process kind second, trace
/// factor/combinator third.
int describeOne(const std::string& name, const scenario::ScenarioRegistry& scenarios,
                const process::ProcessRegistry& processes) {
  if (const scenario::Scenario* s = scenarios.find(name)) {
    std::cout << "scenario " << s->name << "  [" << s->paperRef << "]\n"
              << "  " << s->description << "\n\n";
    printParamSpec(s->params);
    if (s->forwardsProcessParams) printForwardedSpec(processes);
    return 0;
  }
  if (const process::ProcessSpec* p = processes.find(name)) {
    std::cout << "process " << p->kind << "  (family: " << p->family << ")\n"
              << "  " << p->description << "\n\n";
    printParamSpec(p->params);
    std::cout << "\nrun it through a comparison scenario, e.g. `rlslb run "
                 "process_compare process="
              << p->kind << " [key=value...]`\n";
    return 0;
  }
  for (const workload::TraceFactorSpec& f : workload::traceFactorRoster()) {
    if (f.name == name) {
      std::cout << "trace " << f.role << " " << f.signature << "\n  " << f.description
                << "\n\nuse it in a compose spec: `rlslb serve composed spec=...` or "
                   "`rlslb run serve_capacity traces=...`; full roster: `rlslb traces`\n";
      return 0;
    }
  }
  std::fprintf(stderr,
               "unknown name '%s': not a scenario (`rlslb list`), process kind "
               "(`rlslb processes`), or trace factor (`rlslb traces`)\n",
               name.c_str());
  return 2;
}

int runDriver(int argc, char** argv) {
  // Split argv: --flags go to the flag bag; bare tokens are the subcommand,
  // scenario names, and key=value parameter overrides.
  std::vector<std::string> flagStrings;
  std::vector<std::string> words;
  std::vector<std::string> paramTokens;
  if (argc > 0) flagStrings.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      flagStrings.push_back(arg);
    } else if (arg.find('=') != std::string::npos) {
      paramTokens.push_back(arg);
    } else {
      words.push_back(arg);
    }
  }
  if (words.empty()) return usage(argv[0]);
  std::string command = words.front();
  std::vector<std::string> names(words.begin() + 1, words.end());
  if (command == "serve") {
    // Sugar for the serving roster: `serve poisson` -> `run serve_poisson`.
    // Unknown kinds fall through to the registry's unknown-name error,
    // which lists the roster.
    if (names.empty()) return usage(argv[0]);
    for (std::string& name : names) name = "serve_" + name;
    command = "run";
  }

  std::vector<const char*> flagPtrs;
  flagPtrs.reserve(flagStrings.size());
  for (const auto& s : flagStrings) flagPtrs.push_back(s.c_str());
  const util::Params args(static_cast<int>(flagPtrs.size()), flagPtrs.data());

  scenario::registerBuiltinScenarios();
  process::registerBuiltinProcesses();
  const scenario::ScenarioRegistry& registry = scenario::ScenarioRegistry::global();
  const process::ProcessRegistry& processRegistry = process::ProcessRegistry::global();

  if (command == "list") {
    if (!names.empty() || !paramTokens.empty()) return usage(argv[0]);
    args.rejectUnused();
    Table table({"scenario", "paper ref", "description"});
    for (const scenario::Scenario* s : registry.list()) {
      table.row().cell(s->name).cell(s->paperRef).cell(s->description);
    }
    table.print(std::cout, "registered scenarios (" + std::to_string(registry.size()) + ")");
    std::cout << "\nrun one with: " << argv[0]
              << " run <scenario> [--scale=small] [--out=results.jsonl] [key=value...]\n"
              << "parameter specs: " << argv[0] << " describe <scenario>\n";
    return 0;
  }

  if (command == "processes") {
    if (!names.empty() || !paramTokens.empty()) return usage(argv[0]);
    args.rejectUnused();
    Table table({"process", "family", "description"});
    for (const process::ProcessSpec* p : processRegistry.list()) {
      table.row().cell(p->kind).cell(p->family).cell(p->description);
    }
    table.print(std::cout, "registered process kinds (" +
                               std::to_string(processRegistry.size()) + ")");
    std::cout << "\ncompare them with: " << argv[0]
              << " run process_compare process=<kind,...|all> [key=value...]\n"
              << "parameter specs: " << argv[0] << " describe <kind>\n";
    return 0;
  }

  if (command == "traces") {
    if (!names.empty() || !paramTokens.empty()) return usage(argv[0]);
    args.rejectUnused();
    printTraceRoster();
    return 0;
  }

  if (command == "describe") {
    if (names.empty() || !paramTokens.empty()) return usage(argv[0]);
    args.rejectUnused();
    int status = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i > 0) std::cout << '\n';
      status = describeOne(names[i], registry, processRegistry) != 0 ? 2 : status;
    }
    return status;
  }

  const bool watchMode = command == "watch";
  if (watchMode) command = "run";
  if (command != "run" && command != "all") return usage(argv[0]);
  if (command == "run" && names.empty()) {
    std::fprintf(stderr, "%s: no scenario names given (try `%s list`)\n",
                 watchMode ? "watch" : "run", argv[0]);
    return 2;
  }
  if (command == "all" && !names.empty()) return usage(argv[0]);

  scenario::ScenarioContext ctx = scenario::contextFromArgs(args);
  scenario::applyParamTokens(ctx, paramTokens);

  // watch = run with the conformance roster defaulted on and a live
  // renderer observing the monitor set (the observer survives the
  // per-scenario MonitorSet::clear()). Its envelope reads n= and d= from
  // a fresh copy: a read for display, not by a scenario, so a key that no
  // scenario reads still fails the unused-key sweep below.
  std::unique_ptr<obs::WatchRenderer> watcher;
  if (watchMode) {
    ctx.conformanceDefault = true;
    const util::Params unread = ctx.params.freshCopy();
    obs::WatchRenderer::Options wo;
    wo.envelope.n = unread.getInt("n", ctx.sized(256));
    wo.envelope.d = static_cast<int>(unread.getInt("d", 2));
    wo.showBound = names.front().rfind("serve", 0) == 0;
    watcher = std::make_unique<obs::WatchRenderer>(std::cout, wo);
    watcher->attach(ctx.monitors);
  }

  const std::string outPath = args.getString("out", "");
  const std::string tracePath = args.getString("trace-out", "");
  args.rejectUnused();
  scenario::ResultOutput out;
  if (!out.attach(outPath, ctx)) return 2;
  scenario::TraceOutput traceOut;
  traceOut.attach(tracePath, ctx);

  std::vector<std::string> toRun = names;
  if (command == "all") {
    for (const scenario::Scenario* s : registry.list()) toRun.push_back(s->name);
  }

  for (const std::string& name : toRun) {
    try {
      registry.runOne(name, ctx);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  if (watcher) watcher->finish(ctx.monitors);
  if (!traceOut.finish(ctx)) return 2;

  // A parameter consumed by none of the scenarios that ran is a typo.
  ctx.params.rejectUnused(" (not read by any scenario that ran)");
  return scenario::conformanceExit(ctx);
}

}  // namespace

// A usage error -- a bad flag, a malformed token, a value outside its
// declared range, an unknown key -- throws std::invalid_argument: a
// message and exit 2.
int main(int argc, char** argv) {
  try {
    return runDriver(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
