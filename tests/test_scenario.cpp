// scenario/: registry semantics, parameter spec layer, and the JSONL
// determinism contract (fixed seed => byte-identical deterministic records
// across repeated runs and thread counts).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/generators.hpp"
#include "core/rls.hpp"
#include "process/registry.hpp"
#include "report/json.hpp"
#include "scenario/harness.hpp"
#include "scenario/scenario.hpp"

namespace rlslb::scenario {
namespace {

util::Params paramsOf(const std::vector<std::string>& tokens) {
  util::Params p;
  std::string error;
  EXPECT_TRUE(util::Params::fromTokens(tokens, &p, &error)) << error;
  return p;
}

// ------------------------------------------------------------- params

TEST(ScenarioParams, TypedGetters) {
  const util::Params p =
      paramsOf({"n=1024", "big=1e6", "rate=0.25", "label=hello", "flag=true"});
  EXPECT_EQ(p.getInt("n", 0), 1024);
  EXPECT_EQ(p.getInt("big", 0), 1'000'000);  // scientific shorthand
  EXPECT_DOUBLE_EQ(p.getDouble("rate", 0.0), 0.25);
  EXPECT_EQ(p.getString("label", ""), "hello");
  EXPECT_TRUE(p.getBool("flag", false));
  // Defaults for absent keys.
  EXPECT_EQ(p.getInt("absent", 7), 7);
  EXPECT_DOUBLE_EQ(p.getDouble("absent", 1.5), 1.5);
  EXPECT_FALSE(p.has("absent"));
}

TEST(ScenarioParams, MalformedTokensRejected) {
  util::Params p;
  std::string error;
  EXPECT_FALSE(util::Params::fromTokens({"novalue"}, &p, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(util::Params::fromTokens({"=5"}, &p, &error));
}

// A key given twice used to keep its last value, so an earlier bad value
// was never checked (`n=0 n=5` ran n=5).
TEST(ScenarioParams, RepeatedKeysAreUsageErrors) {
  util::Params p;
  std::string error;
  EXPECT_FALSE(util::Params::fromTokens({"n=0", "d=2", "n=5"}, &p, &error));
  EXPECT_EQ(error, "n given twice (0, then 5)");
  EXPECT_FALSE(util::Params::fromTokens({"n=16", "n=16"}, &p, &error));
  EXPECT_EQ(error, "n given twice (16, then 16)");
  EXPECT_TRUE(util::Params::fromTokens({"n=16", "nn=16"}, &p, &error)) << error;
}

TEST(ScenarioParams, MalformedValuesThrowUsageErrors) {
  // The driver turns std::invalid_argument into a message and exit 2.
  const util::Params p = paramsOf({"n=abc", "rate=fast", "flag=maybe", "half=2.5"});
  EXPECT_THROW((void)p.getInt("n", 0), std::invalid_argument);
  EXPECT_THROW((void)p.getDouble("rate", 0.0), std::invalid_argument);
  EXPECT_THROW((void)p.getBool("flag", false), std::invalid_argument);
  EXPECT_THROW((void)p.getInt("half", 0), std::invalid_argument);
}

/// The declaration of `key` for a bad-input row: the scenario's own, else
/// that of the process kind its `process=` token selects.
const util::ParamSpec* declarationOf(const Scenario& s, const std::vector<std::string>& params,
                                     const std::string& key) {
  for (const util::ParamSpec& p : s.params) {
    if (p.name == key) return &p;
  }
  process::registerBuiltinProcesses();
  for (const std::string& token : params) {
    if (token.rfind("process=", 0) != 0) continue;
    const process::ProcessSpec* kind = process::ProcessRegistry::global().find(token.substr(8));
    if (kind == nullptr) continue;
    for (const util::ParamSpec& p : kind->params) {
      if (p.name == key) return &p;
    }
  }
  return nullptr;
}

TEST(ScenarioParams, OutOfRangeSizesAndEmptyListsThrowUsageErrors) {
  // Checked against the declared domains before the body runs (ranged
  // rows), or in the body when the check reads two keys or a list. These
  // used to abort on an internal assertion (exit 134), or to run and exit
  // 0, instead of exiting 2 with a message.
  ScenarioRegistry r;
  registerBuiltinScenarios(r);
  const struct {
    const char* scenario;
    std::vector<std::string> params;
    const char* key;  // the key the message names; null for cross-key rows
    bool ranged;      // the message also names the key's declared range
  } bad[] = {
      {"e14_opensystem", {"n=0"}, "n", true},
      {"process_compare", {"process=rls", "n=0"}, "n", true},
      {"process_compare", {"process="}, "process", false},
      {"e10_baselines", {"process=foo"}, "process", false},
      {"e8_dml", {"n=0"}, "n", true},
      {"e11_extensions", {"n=0"}, "n", true},
      {"e15_trajectory", {"n=0"}, "n", true},
      {"e15_trajectory", {"ratio=-1"}, "ratio", true},
      {"e15_trajectory", {"dt=0"}, "dt", true},
      {"e15_trajectory", {"horizon=-1"}, "horizon", true},
      {"e15_trajectory", {"horizon=inf"}, "horizon", true},
      {"micro_substrate", {"n=0"}, "n", true},
      {"micro_substrate", {"n=-5"}, "n", true},
      {"ablation", {"n=0"}, "n", true},
      {"ablation", {"n=33"}, "n", false},
      // Process params, checked against each kind's declaration before its
      // maker runs (or, for the topology against n, in the maker), and
      // process_compare's own start=/target=.
      {"process_compare", {"process=graph_rls", "topology=foo"}, "topology", true},
      {"process_compare", {"process=graph_rls", "topology=torus", "n=15"}, nullptr, false},
      {"process_compare", {"process=graph_rls", "topology=cycle", "n=2"}, nullptr, false},
      {"process_compare", {"process=graph_rls", "topology=hypercube", "n=12"}, nullptr, false},
      {"process_compare", {"process=graph_rls", "gap=0"}, "gap", true},
      {"process_compare",
       {"process=graph_rls", "topology=random_regular", "degree=3", "n=15"},
       nullptr,
       false},
      {"process_compare",
       {"process=graph_rls", "topology=random_regular", "degree=0", "n=16"},
       "degree",
       true},
      {"process_compare", {"process=rls_naive", "gap=0"}, "gap", true},
      {"process_compare", {"process=open", "lambda=-1"}, "lambda", true},
      {"process_compare", {"process=open", "d=0"}, "d", true},
      {"process_compare", {"process=speed_rls", "speeds=0"}, "speeds", true},
      {"process_compare", {"process=rls", "start=foo"}, "start", true},
      {"process_compare", {"process=rls", "target=foo"}, "target", true},
      {"process_compare", {"process=rls", "target=equilibrium"}, nullptr, false},
      {"process_compare", {"process=rls", "ratio=-1"}, "ratio", true},
      {"process_compare", {"process=open", "mu=-1"}, "mu", true},
      {"process_compare", {"process=open", "gap=0"}, "gap", true},
      {"process_compare", {"process=weighted_rls", "weights=foo"}, "weights", true},
      {"process_compare", {"process=threshold", "p=0"}, "p", true},
      {"process_compare", {"process=crs", "n=1"}, nullptr, false},
      {"process_compare", {"process=graph_rls", "topology=complete", "n=1"}, nullptr, false},
      {"process_compare", {"process=graph_rls", "topology=torus", "n=4"}, nullptr, false},
      // These used to overflow (exit 134) or run and exit 0.
      {"e15_trajectory", {"ratio=9223372036854775807"}, "ratio", false},
      {"e15_trajectory", {"horizon=1e300"}, "horizon", false},
      {"e15_trajectory", {"horizon=1e7", "dt=1e-3"}, "dt", false},
      {"e15_trajectory", {"horizon=0", "dt=1e-6"}, "dt", false},
      {"micro_substrate", {"jump_levels=0"}, "jump_levels", true},
      {"micro_substrate", {"ops=-1"}, "ops", true},
      {"process_compare", {"budget=-1"}, "budget", true},
      {"process_compare", {"target=time", "horizon=nan"}, "horizon", true},
      {"process_compare", {"target=x", "x=-1"}, "x", true},
      {"process_compare", {"process=rls,,rls_jump"}, "process", false},
      {"process_compare", {"process=threshold", "threshold=-2"}, "threshold", true},
      {"process_compare", {"process=threshold", "p=nan"}, "p", true},
      {"process_compare", {"process=rls", "level_threshold=-1"}, "level_threshold", true},
      {"e10_baselines", {"process=,"}, "process", false},
      {"e10_baselines", {"process=edm,"}, "process", false},
  };
  for (const auto& b : bad) {
    ScenarioContext ctx;
    ctx.threads = 1;
    ctx.reps = 1;
    ctx.console = nullptr;
    std::string error;
    ASSERT_TRUE(util::Params::fromTokens(b.params, &ctx.params, &error)) << error;
    const std::string row = std::string(b.scenario) + " " + ::testing::PrintToString(b.params);
    try {
      r.runOne(b.scenario, ctx);
      ADD_FAILURE() << row << " was accepted";
      continue;
    } catch (const std::invalid_argument& e) {
      error = e.what();
    }
    if (b.key == nullptr) continue;
    EXPECT_NE(error.find(std::string(b.key) + "="), std::string::npos) << row << ": " << error;
    if (!b.ranged) continue;
    const util::ParamSpec* spec = declarationOf(*r.find(b.scenario), b.params, b.key);
    ASSERT_NE(spec, nullptr) << row;
    EXPECT_NE(error.find(util::rangeText(*spec)), std::string::npos) << row << ": " << error;
  }
}

/// `value` as a token that parses back to exactly `value`.
std::string exactText(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// The tokens a key's domain accepts and rejects at its edges: each finite
/// bound (or, for an exclusive one, the next double inside it), the value
/// one past each finite bound, NaN, and an unlisted string for a choice
/// list.
void edgeTokens(const util::ParamSpec& spec, std::vector<std::string>* accepted,
                std::vector<std::string>* rejected) {
  const util::ParamDomain& d = spec.domain;
  constexpr util::ParamDomain kAny;
  const auto add = [&spec](std::vector<std::string>* out, const std::string& value) {
    out->push_back(spec.name + "=" + value);
  };
  if (spec.type == "int") {
    if (d.intMin != kAny.intMin) {
      add(accepted, std::to_string(d.intMin));
      add(rejected, std::to_string(d.intMin - 1));
    }
    if (d.intMax != kAny.intMax) {
      add(accepted, std::to_string(d.intMax));
      add(rejected, std::to_string(d.intMax + 1));
    }
  } else if (spec.type == "double") {
    const double inf = std::numeric_limits<double>::infinity();
    if (!std::isinf(d.min)) {
      add(accepted, exactText(d.minExclusive ? std::nextafter(d.min, inf) : d.min));
      add(rejected, exactText(d.minExclusive ? d.min : std::nextafter(d.min, -inf)));
    }
    if (!std::isinf(d.max)) {
      add(accepted, exactText(d.max));
      add(rejected, exactText(std::nextafter(d.max, inf)));
    }
    if (d.finite) add(rejected, "inf");
    add(rejected, "nan");
  } else if (d.choices != nullptr) {
    add(accepted, std::string(d.choices).substr(0, std::string(d.choices).find('|')));
    add(rejected, "not-a-listed-choice");
  }
}

// The shape keys of the standalone trace scenarios keep the compose
// factor's range table (workload::checkComposeFactor), shared with compose
// specs; every other int or double key declares a domain.
bool isShapeKey(const std::string& scenario, const std::string& key) {
  static const std::set<std::string> shapes = {"burst_factor", "calm_to_burst", "burst_to_calm",
                                               "amplitude",    "period",        "burst_period",
                                               "burst_size",   "hot_weight"};
  return (scenario == "serve_bursty" || scenario == "serve_diurnal" ||
          scenario == "serve_adversarial") &&
         shapes.count(key) > 0;
}

bool hasDomain(const util::ParamSpec& spec) {
  constexpr util::ParamDomain kAny;
  const util::ParamDomain& d = spec.domain;
  if (spec.type == "int") return d.intMin != kAny.intMin || d.intMax != kAny.intMax;
  return !std::isinf(d.min) || !std::isinf(d.max) || d.finite;
}

// Declaration-driven: every int and double key of every scenario and
// process kind has a domain, the check accepts its edges and rejects what
// lies past them, and runOne / make enforce the rejections before any body
// or maker runs. No body runs here.
TEST(ParamDomains, EveryDeclaredKeyIsCheckedAtItsEdges) {
  ScenarioRegistry scenarios;
  registerBuiltinScenarios(scenarios);
  process::ProcessRegistry processes;
  process::registerBuiltinProcesses(processes);
  const config::Configuration initial = config::allInOne(16, 64);
  std::size_t checkedKeys = 0;

  const auto checkEdges = [&checkedKeys](const std::string& owner,
                                         const std::vector<util::ParamSpec>& specs,
                                         const auto& enforced) {
    for (const util::ParamSpec& spec : specs) {
      if (spec.type == "int" || spec.type == "double") {
        if (isShapeKey(owner, spec.name)) continue;
        EXPECT_TRUE(hasDomain(spec)) << owner << " " << spec.name << " declares no domain";
      }
      std::vector<std::string> accepted;
      std::vector<std::string> rejected;
      edgeTokens(spec, &accepted, &rejected);
      if (!accepted.empty() || !rejected.empty()) ++checkedKeys;
      for (const std::string& token : accepted) {
        EXPECT_NO_THROW(util::checkParams(paramsOf({token}), specs, owner))
            << owner << " " << token;
      }
      for (const std::string& token : rejected) {
        EXPECT_THROW(util::checkParams(paramsOf({token}), specs, owner), std::invalid_argument)
            << owner << " " << token;
        EXPECT_THROW(enforced(paramsOf({token})), std::invalid_argument)
            << owner << " " << token << " is not enforced before the body";
      }
    }
  };
  for (const Scenario* s : scenarios.list()) {
    checkEdges(s->name, s->params, [&](const util::Params& params) {
      ScenarioContext ctx;
      ctx.console = nullptr;
      ctx.threads = 1;
      ctx.params = params;
      ScenarioRegistry trap;  // runs a body that fails the test if reached
      trap.add({s->name, "", "", [](ScenarioContext&) { ADD_FAILURE() << "body ran"; },
                s->params});
      trap.runOne(s->name, ctx);
    });
    if (s->forwardsProcessParams) {
      // Forwarded keys are declared (and checked) once, by the kinds.
      for (const process::ProcessSpec* kind : processes.list()) {
        for (const util::ParamSpec& p : kind->params) {
          for (const util::ParamSpec& own : s->params) {
            EXPECT_NE(own.name, p.name) << s->name << " re-declares " << kind->kind;
          }
        }
      }
    }
  }
  for (const process::ProcessSpec* kind : processes.list()) {
    process::ProcessSpec trap = *kind;  // a maker that fails the test if reached
    trap.make = [](const config::Configuration&, std::uint64_t, const util::Params&) {
      ADD_FAILURE() << "maker ran";
      return std::unique_ptr<process::Process>();
    };
    process::ProcessRegistry one;
    one.add(trap);
    checkEdges(kind->kind, kind->params, [&](const util::Params& params) {
      (void)one.make(kind->kind, initial, 1, params);
    });
  }
  EXPECT_GE(checkedKeys, 40u);
}

// The smallest declared ops= still times at least one operation in every
// micro_substrate row at --scale=small (the scaled count used to reach 0,
// and the row printed inf ns/op).
TEST(ScenarioParams, SmallestOpsTimesEveryMicroRow) {
  ScenarioRegistry r;
  registerBuiltinScenarios(r);
  std::ostringstream out;
  report::ResultSink sink(&out);
  ScenarioContext ctx;
  ctx.console = nullptr;
  ctx.sink = &sink;
  ctx.scale = 0.5;
  ctx.params = paramsOf({"ops=1", "n=10", "jump_levels=2"});
  r.runOne("micro_substrate", ctx);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    const report::Json rec = report::Json::parse(line);
    if (rec.at("type").asString() != "timing") continue;
    for (std::size_t i = 0; i < rec.at("rows").size(); ++i, ++rows) {
      const report::Json& row = rec.at("rows").at(i);
      EXPECT_NE(row.at(2).asString(), "0") << row.at(0).asString();
      EXPECT_NE(row.at(3).asString(), "inf") << row.at(0).asString();
    }
  }
  EXPECT_GE(rows, 7u);
}

TEST(ScenarioParams, UnusedKeySweep) {
  const util::Params p = paramsOf({"used=1", "typo=2"});
  EXPECT_EQ(p.getInt("used", 0), 1);
  const auto unused = p.unusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(ScenarioParams, StartRecordParamsAreSortedAndRaw) {
  ScenarioRegistry r;
  r.add({"echo", "d", "p", [](ScenarioContext& ctx) { (void)ctx.params.getInt("b", 0); },
         {{"a", "int", "0", "", {.intMin = 0}}, {"b", "int", "0", "", {.intMin = 0}}}});
  std::ostringstream out;
  report::ResultSink sink(&out);
  ScenarioContext ctx;
  ctx.console = nullptr;
  ctx.sink = &sink;
  ctx.params = paramsOf({"b=2", "a=1e6"});
  r.runOne("echo", ctx);
  EXPECT_NE(out.str().find("\"params\":{\"a\":\"1e6\",\"b\":\"2\"}"), std::string::npos)
      << out.str();
  // The domain check is not a read: a is still unread.
  EXPECT_EQ(ctx.params.unusedKeys(), std::vector<std::string>{"a"});
}

// ------------------------------------------------------------- registry

Scenario trivialScenario(const std::string& name) {
  return {name, "desc", "ref", [](ScenarioContext&) {}};
}

TEST(ScenarioRegistry, AddFindList) {
  ScenarioRegistry r;
  r.add(trivialScenario("beta"));
  r.add(trivialScenario("alpha"));
  ASSERT_NE(r.find("alpha"), nullptr);
  EXPECT_EQ(r.find("alpha")->description, "desc");
  EXPECT_EQ(r.find("nope"), nullptr);
  const auto all = r.list();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->name, "alpha");  // name-sorted
  EXPECT_EQ(all[1]->name, "beta");
}

TEST(ScenarioRegistry, DuplicateNameThrows) {
  ScenarioRegistry r;
  r.add(trivialScenario("x"));
  EXPECT_THROW(r.add(trivialScenario("x")), std::invalid_argument);
}

TEST(ScenarioRegistry, RunOneUnknownNameThrowsWithRoster) {
  ScenarioRegistry r;
  r.add(trivialScenario("known"));
  ScenarioContext ctx;
  ctx.console = nullptr;
  try {
    r.runOne("unknown", ctx);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown scenario 'unknown'"), std::string::npos);
    EXPECT_NE(what.find("known"), std::string::npos);  // lists the roster
  }
}

TEST(ScenarioRegistry, BuiltinRosterAtLeastElevenAndIdempotent) {
  ScenarioRegistry r;
  registerBuiltinScenarios(r);
  EXPECT_GE(r.size(), 11u);
  EXPECT_NE(r.find("e1_theorem1"), nullptr);
  const std::size_t before = r.size();
  registerBuiltinScenarios(r);  // second call must be a no-op
  EXPECT_EQ(r.size(), before);
  for (const Scenario* s : r.list()) {
    EXPECT_FALSE(s->description.empty()) << s->name;
    EXPECT_FALSE(s->paperRef.empty()) << s->name;
  }
}

// ------------------------------------------------------------- context

TEST(ScenarioContext, ScalingHelpers) {
  ScenarioContext ctx;
  ctx.scale = 0.5;
  EXPECT_EQ(ctx.repsOr(30), 15);
  ctx.reps = 4;
  EXPECT_EQ(ctx.repsOr(30), 4);
  EXPECT_EQ(ctx.sized(1024, 2), 512);
  EXPECT_EQ(ctx.sized(1, 2), 2);  // quantum floor
}

// --------------------------------------------------- determinism contract

/// JSONL minus the wall-clock record types ("manifest", "timing",
/// "throughput", "metrics", "scenario_end"): the part of the stream the
/// contract says is byte-identical.
std::string deterministicRecords(const std::string& jsonl) {
  std::istringstream in(jsonl);
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    std::string error;
    const report::Json rec = report::Json::parse(line, &error);
    EXPECT_TRUE(error.empty()) << error;
    const std::string& type = rec.at("type").asString();
    if (type == "manifest" || type == "timing" || type == "throughput" ||
        type == "metrics" || type == "scenario_end") {
      continue;
    }
    out += line;
    out.push_back('\n');
  }
  return out;
}

std::string runToJsonl(const ScenarioRegistry& r, const std::string& name, std::uint64_t seed,
                       int threads, const std::vector<std::string>& paramTokens,
                       std::int64_t reps = 4, double scale = 1.0) {
  std::ostringstream out;
  report::ResultSink sink(&out);
  ScenarioContext ctx;
  ctx.seed = seed;
  ctx.threads = threads;
  ctx.reps = reps;
  ctx.scale = scale;
  ctx.sink = &sink;
  ctx.console = nullptr;
  std::string error;
  EXPECT_TRUE(util::Params::fromTokens(paramTokens, &ctx.params, &error)) << error;
  r.runOne(name, ctx);
  EXPECT_TRUE(ctx.params.unusedKeys().empty());
  return out.str();
}

TEST(ScenarioDeterminism, RealScenarioByteIdenticalAcrossRunsAndThreads) {
  ScenarioRegistry r;
  registerBuiltinScenarios(r);
  // Tiny e15 run: params shrink it to milliseconds and double as the
  // param-override test (n and horizon must be honored).
  const std::vector<std::string> params = {"n=32", "ratio=8", "horizon=3", "dt=0.5"};
  const std::string a = deterministicRecords(runToJsonl(r, "e15_trajectory", 99, 1, params));
  const std::string b = deterministicRecords(runToJsonl(r, "e15_trajectory", 99, 1, params));
  const std::string c = deterministicRecords(runToJsonl(r, "e15_trajectory", 99, 3, params));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "same seed, same thread count";
  EXPECT_EQ(a, c) << "same seed, different thread count";

  // The overrides really took: the table title embeds n=32, and a
  // different seed changes the records.
  EXPECT_NE(a.find("n=32"), std::string::npos);
  const std::string d = deterministicRecords(runToJsonl(r, "e15_trajectory", 100, 1, params));
  EXPECT_NE(a, d) << "different seed must change the sampled tables";
}

TEST(ScenarioDeterminism, ReplicationPlansByteIdenticalAcrossThreads) {
  // e10 and e14 run all their table cells as one replication plan, so the
  // pool interleaves different cells' replications; the records must not
  // depend on how. Sizes, reps and scale are shrunk to keep Debug fast.
  ScenarioRegistry r;
  registerBuiltinScenarios(r);
  const struct {
    const char* scenario;
    std::vector<std::string> params;
  } cases[] = {
      {"e10_baselines", {"process=edm,threshold"}},
      {"e14_opensystem", {"n=4"}},
  };
  for (const auto& c : cases) {
    const std::string a =
        deterministicRecords(runToJsonl(r, c.scenario, 41, 1, c.params, 2, 0.125));
    const std::string b =
        deterministicRecords(runToJsonl(r, c.scenario, 41, 3, c.params, 2, 0.125));
    EXPECT_NE(a.find("\"type\":\"table\""), std::string::npos) << c.scenario;
    EXPECT_EQ(a, b) << c.scenario << ": same seed, different thread count";
  }
}

TEST(ScenarioDeterminism, SinkRecordsTaggedWithScenarioName) {
  ScenarioRegistry r;
  r.add({"tagcheck", "d", "p", [](ScenarioContext& ctx) {
           Table t({"v"});
           t.row().cell(core::balancingTime(config::allInOne(16, 64), {.seed = ctx.seed}));
           ctx.emitTable(t, "tbl");
         }});
  const std::string jsonl = runToJsonl(r, "tagcheck", 1, 1, {});
  std::istringstream in(jsonl);
  std::string line;
  bool sawStart = false;
  bool sawTable = false;
  bool sawEnd = false;
  while (std::getline(in, line)) {
    const report::Json rec = report::Json::parse(line);
    const std::string& type = rec.at("type").asString();
    if (type == "scenario_start") sawStart = true;
    if (type == "table") {
      sawTable = true;
      EXPECT_EQ(rec.at("scenario").asString(), "tagcheck");
    }
    if (type == "scenario_end") {
      sawEnd = true;
      EXPECT_GE(rec.at("wall_s").asDouble(), 0.0);
    }
  }
  EXPECT_TRUE(sawStart && sawTable && sawEnd);
}

}  // namespace
}  // namespace rlslb::scenario
