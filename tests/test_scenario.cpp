// scenario/: registry semantics, parameter spec layer, and the JSONL
// determinism contract (fixed seed => byte-identical deterministic records
// across repeated runs and thread counts).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/generators.hpp"
#include "core/rls.hpp"
#include "report/json.hpp"
#include "scenario/harness.hpp"
#include "scenario/scenario.hpp"

namespace rlslb::scenario {
namespace {

ScenarioParams paramsOf(const std::vector<std::string>& tokens) {
  ScenarioParams p;
  std::string error;
  EXPECT_TRUE(ScenarioParams::fromTokens(tokens, &p, &error)) << error;
  return p;
}

// ------------------------------------------------------------- params

TEST(ScenarioParams, TypedGetters) {
  const ScenarioParams p =
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
  ScenarioParams p;
  std::string error;
  EXPECT_FALSE(ScenarioParams::fromTokens({"novalue"}, &p, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ScenarioParams::fromTokens({"=5"}, &p, &error));
}

TEST(ScenarioParams, MalformedValuesThrowUsageErrors) {
  // The driver turns std::invalid_argument into a message and exit 2.
  const ScenarioParams p = paramsOf({"n=abc", "rate=fast", "flag=maybe", "half=2.5"});
  EXPECT_THROW((void)p.getInt("n", 0), std::invalid_argument);
  EXPECT_THROW((void)p.getDouble("rate", 0.0), std::invalid_argument);
  EXPECT_THROW((void)p.getBool("flag", false), std::invalid_argument);
  EXPECT_THROW((void)p.getInt("half", 0), std::invalid_argument);
}

TEST(ScenarioParams, OutOfRangeSizesAndEmptyListsThrowUsageErrors) {
  // Checked in the scenario bodies; these used to abort on an internal
  // assertion (exit 134) instead of exiting 2 with a message.
  ScenarioRegistry r;
  registerBuiltinScenarios(r);
  const struct {
    const char* scenario;
    std::vector<std::string> params;
  } bad[] = {
      {"e14_opensystem", {"n=0"}},
      {"process_compare", {"process=rls", "n=0"}},
      {"process_compare", {"process="}},
      {"e10_baselines", {"process=foo"}},
      {"e8_dml", {"n=0"}},
      {"e11_extensions", {"n=0"}},
      {"e15_trajectory", {"n=0"}},
      {"e15_trajectory", {"ratio=-1"}},
      {"e15_trajectory", {"dt=0"}},
      {"e15_trajectory", {"horizon=-1"}},
      {"e15_trajectory", {"horizon=inf"}},
      {"micro_substrate", {"n=0"}},
      {"micro_substrate", {"n=-5"}},
      {"ablation", {"n=0"}},
      {"ablation", {"n=33"}},
      // Process params, checked in the registry makers before anything is
      // built, and process_compare's own start=/target=.
      {"process_compare", {"process=graph_rls", "topology=foo"}},
      {"process_compare", {"process=graph_rls", "topology=torus", "n=15"}},
      {"process_compare", {"process=graph_rls", "topology=cycle", "n=2"}},
      {"process_compare", {"process=graph_rls", "topology=hypercube", "n=12"}},
      {"process_compare", {"process=graph_rls", "gap=0"}},
      {"process_compare", {"process=graph_rls", "topology=random_regular", "degree=3", "n=15"}},
      {"process_compare", {"process=graph_rls", "topology=random_regular", "degree=0", "n=16"}},
      {"process_compare", {"process=rls_naive", "gap=0"}},
      {"process_compare", {"process=open", "lambda=-1"}},
      {"process_compare", {"process=open", "d=0"}},
      {"process_compare", {"process=speed_rls", "speeds=0"}},
      {"process_compare", {"process=rls", "start=foo"}},
      {"process_compare", {"process=rls", "target=foo"}},
      {"process_compare", {"process=rls", "target=equilibrium"}},
      {"process_compare", {"process=rls", "ratio=-1"}},
      {"process_compare", {"process=open", "mu=-1"}},
      {"process_compare", {"process=open", "gap=0"}},
      {"process_compare", {"process=weighted_rls", "weights=foo"}},
      {"process_compare", {"process=threshold", "p=0"}},
      {"process_compare", {"process=crs", "n=1"}},
      {"process_compare", {"process=graph_rls", "topology=complete", "n=1"}},
      {"process_compare", {"process=graph_rls", "topology=torus", "n=4"}},
  };
  for (const auto& b : bad) {
    ScenarioContext ctx;
    ctx.threads = 1;
    ctx.reps = 1;
    ctx.console = nullptr;
    std::string error;
    ASSERT_TRUE(ScenarioParams::fromTokens(b.params, &ctx.params, &error)) << error;
    EXPECT_THROW(r.runOne(b.scenario, ctx), std::invalid_argument)
        << b.scenario << " " << ::testing::PrintToString(b.params);
  }
}

TEST(ScenarioParams, UnusedKeySweep) {
  const ScenarioParams p = paramsOf({"used=1", "typo=2"});
  EXPECT_EQ(p.getInt("used", 0), 1);
  const auto unused = p.unusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(ScenarioParams, ToJsonIsSortedAndRaw) {
  const ScenarioParams p = paramsOf({"b=2", "a=1e6"});
  EXPECT_EQ(p.toJson().dump(), "{\"a\":\"1e6\",\"b\":\"2\"}");
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
  EXPECT_TRUE(ScenarioParams::fromTokens(paramTokens, &ctx.params, &error)) << error;
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
