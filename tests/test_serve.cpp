// serve/: OnlineAllocator state invariants, the ball-uniform repair draw on
// weighted traffic, the event loop's epoch observer, RLS's balance benefit
// over placement-only serving, the serve_* scenarios' byte-determinism
// through the JSONL sink, and their usage errors (bad input — params out of
// range, corrupt replay traces — throws std::invalid_argument, which
// `rlslb` turns into exit code 2).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "report/json.hpp"
#include "scenario/scenario.hpp"
#include "serve/event_loop.hpp"
#include "serve/online_allocator.hpp"
#include "stats/tests.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

namespace rlslb::serve {
namespace {

workload::OpenTraceOptions traceOptions(std::int64_t events) {
  workload::OpenTraceOptions o;
  o.bins = 32;
  o.arrivalRatePerBin = 1.0;
  o.departureRate = 0.25;
  o.resampleRate = 1.0;
  o.maxEvents = events;
  return o;
}

struct LoopOutcome {
  std::vector<std::int64_t> loads;
  ServeCounters counters;
  std::int64_t liveBalls = 0;
  std::int64_t totalLoad = 0;
  std::int64_t gap = 0;
};

LoopOutcome runLoop(std::int64_t events, std::uint64_t seed = 99) {
  workload::PoissonTrace trace(traceOptions(events), seed);
  AllocatorOptions allocOptions;
  allocOptions.bins = 32;
  allocOptions.arrivalChoices = 2;
  OnlineAllocator allocator(allocOptions);
  LoopOptions loopOptions;
  loopOptions.epochEvents = 256;
  loopOptions.repairMovesPerEpoch = 4;
  loopOptions.seed = seed;
  EpochLoop loop(allocator, loopOptions);
  const auto result = loop.run(trace);
  EXPECT_EQ(result.events, events);
  EXPECT_TRUE(allocator.validate());
  return {allocator.loads(), allocator.counters(), allocator.liveBalls(),
          allocator.totalLoad(), allocator.gap()};
}

TEST(OnlineAllocator, ConservesMassAndTracksLevels) {
  const LoopOutcome out = runLoop(/*events=*/8000);
  EXPECT_EQ(out.counters.events, 8000);
  EXPECT_EQ(out.liveBalls, out.counters.arrivals - out.counters.departures);
  std::int64_t total = 0;
  std::int64_t lo = out.loads[0];
  std::int64_t hi = out.loads[0];
  for (const std::int64_t v : out.loads) {
    total += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_EQ(total, out.totalLoad);
  EXPECT_EQ(out.gap, hi - lo);
  EXPECT_EQ(out.counters.resamples,
            out.counters.migrations + out.counters.rejectedMoves);
}

// Repair activates a uniform live ball (the paper's per-ball clocks), not a
// load-weighted bin. Bin 0 holds two weight-2 balls, bin 1 four unit balls,
// bin 2 nothing; both loaded bins carry load 4, and the only move the strict
// rule accepts is into bin 2. Ball-uniform activation takes an accepted
// move from bin 0 with probability 2/6 = 1/3; a load-weighted bin pick
// would take it with probability 4/8 = 1/2.
TEST(OnlineAllocator, RepairActivatesAUniformLiveBall) {
  constexpr int kAllocators = 3000;
  std::vector<std::int64_t> moves = {0, 0};  // accepted moves out of bin 0, bin 1
  for (int seed = 1; seed <= kAllocators; ++seed) {
    OnlineAllocator allocator(AllocatorOptions{.bins = 3, .arrivalChoices = 1});
    for (std::int64_t ball = 0; ball < 6; ++ball) {
      workload::Event e;
      e.kind = workload::EventKind::kArrive;
      e.ball = ball;
      e.weight = ball < 2 ? 2 : 1;
      allocator.apply(e, Decision{ball < 2 ? 0 : 1});
    }
    rng::Xoshiro256pp eng(static_cast<std::uint64_t>(seed));
    if (!allocator.repairMove(eng)) continue;
    EXPECT_EQ(allocator.loads()[2], allocator.loads()[0] == 2 ? 2 : 1);
    ++moves[allocator.loads()[0] == 2 ? 0 : 1];
  }
  const auto total = static_cast<double>(moves[0] + moves[1]);
  ASSERT_GT(total, kAllocators / 4);
  const stats::TestResult ballUniform =
      stats::chiSquareGof(moves, {total / 3.0, total * 2.0 / 3.0});
  const stats::TestResult loadWeighted =
      stats::chiSquareGof(moves, {total / 2.0, total / 2.0});
  EXPECT_GT(ballUniform.pValue, 1e-4) << moves[0] << " of " << total << " from bin 0";
  EXPECT_LT(loadWeighted.pValue, 1e-4) << moves[0] << " of " << total << " from bin 0";
}

TEST(EpochLoop, EpochObserverSeesEveryEvent) {
  workload::PoissonTrace trace(traceOptions(1000), 7);
  OnlineAllocator allocator(AllocatorOptions{.bins = 16, .arrivalChoices = 1});
  EpochLoop loop(allocator, LoopOptions{.epochEvents = 128});
  std::int64_t observed = 0;
  std::int64_t epochs = 0;
  std::int64_t lastEpoch = -1;
  const auto result = loop.run(trace, [&](const EpochStats& s) {
    observed += s.events;
    EXPECT_EQ(s.epoch, lastEpoch + 1);
    lastEpoch = s.epoch;
    ++epochs;
    EXPECT_EQ(s.totalLoad, allocator.totalLoad());
  });
  EXPECT_EQ(observed, 1000);
  EXPECT_EQ(result.epochs, epochs);
  EXPECT_EQ(result.epochs, (1000 + 127) / 128);
}

TEST(EpochLoop, RlsMigrationShrinksTheGapVersusPlacementOnly) {
  // Same arrivals/departures rates; with the RLS clocks off the gap is the
  // raw d-choice band, with them on the allocator must hold a tighter one.
  const auto gapWith = [](double resampleRate, std::uint64_t seed) {
    workload::OpenTraceOptions o = traceOptions(40000);
    o.arrivalRatePerBin = 4.0;  // mean load/bin ~ 16: room for imbalance
    o.departureRate = 0.25;
    o.resampleRate = resampleRate;
    workload::PoissonTrace trace(o, seed);
    OnlineAllocator allocator(AllocatorOptions{.bins = 32, .arrivalChoices = 1});
    LoopOptions loopOptions;
    loopOptions.repairMovesPerEpoch = 0;  // isolate the per-event rule
    loopOptions.seed = seed;
    EpochLoop loop(allocator, loopOptions);
    double gapSum = 0.0;
    std::int64_t samples = 0;
    loop.run(trace, [&](const EpochStats& s) {
      gapSum += static_cast<double>(s.gap());
      ++samples;
    });
    return gapSum / static_cast<double>(samples);
  };
  double off = 0.0;
  double on = 0.0;
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    off += gapWith(0.0, seed);
    on += gapWith(1.0, seed);
  }
  EXPECT_LT(on, 0.6 * off) << "RLS on: " << on / 3 << " off: " << off / 3;
}

// ------------------------------------------------- scenario determinism

/// The deterministic record types of one serve_* run ("table" and
/// "scenario_start"; wall-clock lives in timing/throughput/scenario_end).
std::string deterministicRecords(const std::string& jsonl) {
  std::istringstream in(jsonl);
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    const report::Json rec = report::Json::parse(line);
    const std::string& type = rec.at("type").asString();
    if (type == "table" || type == "scenario_start") {
      out += line;
      out.push_back('\n');
    }
  }
  return out;
}

/// Run one scenario; returns its JSONL and stores the params it never read
/// in `unused` (when given; otherwise every param must have been read).
std::string runServeScenario(const std::string& name, std::uint64_t seed, int threads,
                             const std::vector<std::string>& params,
                             std::vector<std::string>* unused = nullptr) {
  scenario::ScenarioRegistry registry;
  scenario::registerBuiltinScenarios(registry);
  std::ostringstream out;
  report::ResultSink sink(&out);
  scenario::ScenarioContext ctx;
  ctx.seed = seed;
  ctx.threads = threads;
  ctx.sink = &sink;
  ctx.console = nullptr;
  std::string error;
  EXPECT_TRUE(scenario::ScenarioParams::fromTokens(params, &ctx.params, &error)) << error;
  registry.runOne(name, ctx);
  if (unused != nullptr) {
    *unused = ctx.params.unusedKeys();
  } else {
    EXPECT_TRUE(ctx.params.unusedKeys().empty());
  }
  return out.str();
}

TEST(ServeScenarios, ByteIdenticalAcrossRunsAndThreads) {
  const std::vector<std::string> params = {"n=32", "events=20000", "epoch=256"};
  for (const std::string name : {"serve_poisson", "serve_adversarial"}) {
    const std::string a = deterministicRecords(runServeScenario(name, 5, 1, params));
    const std::string b = deterministicRecords(runServeScenario(name, 5, 1, params));
    const std::string c = deterministicRecords(runServeScenario(name, 5, 3, params));
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << name << ": same seed, same threads";
    EXPECT_EQ(a, c) << name << ": same seed, different threads";
    const std::string e = deterministicRecords(runServeScenario(name, 6, 1, params));
    EXPECT_NE(a, e) << name << ": a different seed must change the tables";
  }
}

TEST(ServeScenarios, RemovedShardKnobsAreUnusedParams) {
  // The loop has one execution path and serve_capacity one allocator, so
  // shards=, partitioned= and backend= are read by nobody; `rlslb`
  // reports them as unknown parameters (exit 2).
  std::vector<std::string> unused;
  runServeScenario("serve_poisson", 1, 1,
                   {"n=16", "events=2000", "shards=4", "partitioned=1"}, &unused);
  EXPECT_EQ(unused, (std::vector<std::string>{"partitioned", "shards"}));
  runServeScenario("serve_capacity", 1, 1,
                   {"n_list=16", "load_list=1", "backend=dense", "shards=2"}, &unused);
  EXPECT_EQ(unused, (std::vector<std::string>{"backend", "shards"}));
}

TEST(ServeScenarios, BadInputIsAUsageError) {
  // A usage error, not a crash: the driver turns the exception into a
  // message and exit code 2 (these used to abort, divide by zero, or fail
  // an internal assertion).
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string missingDir = (dir / "rlslb-no-such-dir").string();
  const std::string emptyTrace = (dir / "rlslb-test-serve-empty.jsonl").string();
  { std::ofstream touch(emptyTrace); }
  // One corrupt replay trace per format, each with a good record first.
  const auto writeTrace = [&dir](const char* name, const std::string& bytes) {
    const std::string path = (dir / name).string();
    std::ofstream out(path, std::ios::binary);
    out << bytes;
    return path;
  };
  const workload::Event good{0.5, workload::EventKind::kArrive, 0, 1};
  std::string truncatedBin = workload::kTraceBinaryMagic;
  workload::appendTraceEventBinary(&truncatedBin, good);
  workload::appendTraceEventBinary(&truncatedBin, good);
  truncatedBin.resize(truncatedBin.size() - 5);
  const std::string badFiles[] = {
      writeTrace("rlslb-test-serve-truncated.bin", truncatedBin),
      writeTrace("rlslb-test-serve-bogus.csv", "t,kind,ball,w\n0.5,arrive,0,1\n1,bogus,1,1\n"),
      writeTrace("rlslb-test-serve-cut.jsonl",
                 workload::formatTraceEvent(good) + "\n{\"t\":1,\"kind\":\"arr"),
      writeTrace("rlslb-test-serve-w0.jsonl",
                 workload::formatTraceEvent({0.5, workload::EventKind::kArrive, 0, 0}) + "\n"),
      writeTrace("rlslb-test-serve-neg.csv", "t,kind,ball,w\n0.5,arrive,-3,1\n"),
  };
  const struct {
    const char* scenario;
    std::vector<std::string> params;
  } bad[] = {
      {"serve_poisson", {"n=16", "events=100", "epoch=0"}},
      {"serve_poisson", {"n=abc"}},
      {"serve_composed", {"n=16", "events=100", "spec=diurnal(0.8"}},
      {"serve_poisson", {"n=16", "trace=" + missingDir + "/trace.jsonl"}},
      {"serve_poisson", {"n=16", "trace=" + emptyTrace}},
      {"serve_poisson", {"n=16", "trace=" + emptyTrace, "record=" + emptyTrace}},
      {"serve_poisson", {"n=16", "events=100", "record=" + missingDir + "/r.jsonl"}},
      {"serve_poisson", {"n=16", "events=100", "weight=0"}},
      {"serve_poisson", {"n=16", "events=100", "d=0"}},
      {"serve_poisson", {"n=16", "events=100", "repair=-1"}},
      // Range-checked before the int cast: these used to wrap to d = 2 and
      // repair = 0 and run.
      {"serve_poisson", {"n=16", "events=100", "d=4294967298"}},
      {"serve_poisson", {"n=16", "events=100", "repair=4294967296"}},
      {"serve_poisson", {"n=16", "events=100", "d=65"}},
      {"serve_poisson", {"n=0", "events=100"}},
      {"serve_poisson", {"n=16", "events=100", "lambda=-1"}},
      {"serve_poisson", {"n=16", "events=100", "mu=-1"}},
      {"serve_poisson", {"n=16", "events=100", "resample=-1"}},
      {"serve_adversarial", {"n=16", "events=100", "hot_weight=0"}},
      {"serve_poisson", {"n=16", "trace=" + badFiles[0]}},
      {"serve_poisson", {"n=16", "trace=" + badFiles[1]}},
      {"serve_poisson", {"n=16", "trace=" + badFiles[2]}},
      {"serve_poisson", {"n=16", "trace=" + badFiles[3]}},
      {"serve_poisson", {"n=16", "trace=" + badFiles[4]}},
      {"serve_capacity", {"n_list=16", "epoch=0"}},
      {"serve_capacity", {"n_list=16", "epb=0"}},
      {"serve_capacity", {"n_list=16,,32"}},
      {"serve_capacity", {"n_list=0"}},
      {"serve_capacity", {"n_list=16", "load_list=0"}},
      {"serve_capacity", {"n_list=16", "load_list=-2"}},
      {"serve_capacity", {"n_list=16", "traces=poisson;bogus(1)"}},
      {"serve_capacity", {"n_list=16", "traces=hotspot(16,8,2)"}},
      {"serve_capacity", {"n_list=16", "d=0"}},
      {"serve_capacity", {"n_list=16", "repair=-1"}},
      {"serve_capacity", {"n_list=16", "d=4294967297"}},
      {"serve_capacity", {"n_list=16", "repair=-4294967295"}},
      {"serve_capacity", {"n_list=16", "d=65"}},
      {"serve_capacity", {"n_list=16", "resample=-1"}},
      {"serve_capacity", {"n_list=1", "load_list=0.5"}},  // a cell with 0 events
  };
  for (const auto& b : bad) {
    std::vector<std::string> unused;
    EXPECT_THROW(runServeScenario(b.scenario, 1, 1, b.params, &unused), std::invalid_argument)
        << b.scenario << " " << b.params.back();
  }
  if (obs::kTracingCompiledIn) {
    std::vector<std::string> unused;
    EXPECT_THROW(runServeScenario("serve_poisson", 1, 1,
                                  {"n=16", "events=100",
                                   "trace_out=" + missingDir + "/t.json"},
                                  &unused),
                 std::invalid_argument);
  }
  std::filesystem::remove(emptyTrace);
  for (const std::string& path : badFiles) std::filesystem::remove(path);
}

TEST(ServeScenarios, ThroughputRecordEmitted) {
  const std::string jsonl =
      runServeScenario("serve_bursty", 3, 1, {"n=16", "events=4000"});
  bool sawThroughput = false;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    const report::Json rec = report::Json::parse(line);
    if (rec.at("type").asString() != "throughput") continue;
    sawThroughput = true;
    EXPECT_EQ(rec.at("scenario").asString(), "serve_bursty");
    EXPECT_EQ(rec.at("events").asInt(), 4000);
    EXPECT_GT(rec.at("events_per_sec").asDouble(), 0.0);
  }
  EXPECT_TRUE(sawThroughput);
}

}  // namespace
}  // namespace rlslb::serve
