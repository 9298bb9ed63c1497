// serve/: OnlineAllocator state invariants, the sharded event loop's
// invariance contract (final load vector identical across shard counts AND
// thread counts), RLS's balance benefit over placement-only serving, and
// the serve_* scenarios' byte-determinism through the JSONL sink.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "report/json.hpp"
#include "scenario/scenario.hpp"
#include "serve/event_loop.hpp"
#include "serve/online_allocator.hpp"
#include "workload/generators.hpp"

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

LoopOutcome runLoop(int shards, int threads, std::int64_t events,
                    std::uint64_t seed = 99) {
  workload::PoissonTrace trace(traceOptions(events), seed);
  AllocatorOptions allocOptions;
  allocOptions.bins = 32;
  allocOptions.arrivalChoices = 2;
  OnlineAllocator allocator(allocOptions);
  LoopOptions loopOptions;
  loopOptions.shards = shards;
  loopOptions.epochEvents = 256;
  loopOptions.repairMovesPerEpoch = 4;
  loopOptions.seed = seed;
  runner::ThreadPool pool(threads);
  ShardedEventLoop loop(allocator, loopOptions, pool);
  const auto result = loop.run(trace);
  EXPECT_EQ(result.events, events);
  EXPECT_TRUE(allocator.validate());
  return {allocator.loads(), allocator.counters(), allocator.liveBalls(),
          allocator.totalLoad(), allocator.gap()};
}

bool countersEqual(const ServeCounters& a, const ServeCounters& b) {
  return a.events == b.events && a.arrivals == b.arrivals &&
         a.departures == b.departures && a.resamples == b.resamples &&
         a.migrations == b.migrations && a.rejectedMoves == b.rejectedMoves &&
         a.repairAttempts == b.repairAttempts &&
         a.repairMigrations == b.repairMigrations;
}

TEST(OnlineAllocator, ConservesMassAndTracksLevels) {
  const LoopOutcome out = runLoop(/*shards=*/4, /*threads=*/1, /*events=*/8000);
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

TEST(ShardedEventLoop, FinalStateInvariantAcrossShardCounts) {
  const LoopOutcome one = runLoop(/*shards=*/1, /*threads=*/1, /*events=*/6000);
  for (const int shards : {2, 5, 16}) {
    const LoopOutcome other = runLoop(shards, /*threads=*/1, /*events=*/6000);
    EXPECT_EQ(one.loads, other.loads) << "shards=" << shards;
    EXPECT_TRUE(countersEqual(one.counters, other.counters)) << "shards=" << shards;
  }
}

TEST(ShardedEventLoop, FinalStateInvariantAcrossThreadCounts) {
  const LoopOutcome serial = runLoop(/*shards=*/8, /*threads=*/1, /*events=*/6000);
  for (const int threads : {2, 4}) {
    const LoopOutcome parallel = runLoop(/*shards=*/8, threads, /*events=*/6000);
    EXPECT_EQ(serial.loads, parallel.loads) << "threads=" << threads;
    EXPECT_TRUE(countersEqual(serial.counters, parallel.counters))
        << "threads=" << threads;
  }
}

TEST(ShardedEventLoop, EpochObserverSeesEveryEvent) {
  workload::PoissonTrace trace(traceOptions(1000), 7);
  OnlineAllocator allocator(AllocatorOptions{.bins = 16, .arrivalChoices = 1});
  runner::ThreadPool pool(1);
  ShardedEventLoop loop(allocator, LoopOptions{.shards = 2, .epochEvents = 128}, pool);
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

TEST(ShardedEventLoop, RlsMigrationShrinksTheGapVersusPlacementOnly) {
  // Same arrivals/departures rates; with the RLS clocks off the gap is the
  // raw d-choice band, with them on the allocator must hold a tighter one.
  const auto gapWith = [](double resampleRate, std::uint64_t seed) {
    workload::OpenTraceOptions o = traceOptions(40000);
    o.arrivalRatePerBin = 4.0;  // mean load/bin ~ 16: room for imbalance
    o.departureRate = 0.25;
    o.resampleRate = resampleRate;
    workload::PoissonTrace trace(o, seed);
    OnlineAllocator allocator(AllocatorOptions{.bins = 32, .arrivalChoices = 1});
    runner::ThreadPool pool(1);
    LoopOptions loopOptions;
    loopOptions.repairMovesPerEpoch = 0;  // isolate the per-event rule
    loopOptions.seed = seed;
    ShardedEventLoop loop(allocator, loopOptions, pool);
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

std::string runServeScenario(const std::string& name, std::uint64_t seed, int threads,
                             const std::vector<std::string>& params) {
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
  EXPECT_TRUE(ctx.params.unusedKeys().empty());
  return out.str();
}

TEST(ServeScenarios, ByteIdenticalAcrossRunsThreadsAndShards) {
  const std::vector<std::string> params = {"n=32", "events=20000", "epoch=256"};
  for (const std::string name : {"serve_poisson", "serve_adversarial"}) {
    const std::string a = deterministicRecords(runServeScenario(name, 5, 1, params));
    const std::string b = deterministicRecords(runServeScenario(name, 5, 1, params));
    const std::string c = deterministicRecords(runServeScenario(name, 5, 3, params));
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << name << ": same seed, same threads";
    EXPECT_EQ(a, c) << name << ": same seed, different threads";
    // Different shard count: the tables themselves must not move (the
    // param shows up only in scenario_start, which embeds the overrides).
    std::vector<std::string> sharded = params;
    sharded.push_back("shards=3");
    const std::string d = runServeScenario(name, 5, 1, sharded);
    std::istringstream in(deterministicRecords(d));
    std::string line;
    std::string tablesOnly;
    std::string tablesA;
    while (std::getline(in, line)) {
      if (line.find("\"type\":\"table\"") != std::string::npos) tablesOnly += line + "\n";
    }
    std::istringstream inA(a);
    while (std::getline(inA, line)) {
      if (line.find("\"type\":\"table\"") != std::string::npos) tablesA += line + "\n";
    }
    EXPECT_EQ(tablesA, tablesOnly) << name << ": same seed, different shard count";
    const std::string e = deterministicRecords(runServeScenario(name, 6, 1, params));
    EXPECT_NE(a, e) << name << ": a different seed must change the tables";
  }
}

TEST(ServeScenarios, EpochBelowOneIsAUsageError) {
  // A usage error, not a crash: the driver turns the exception into a
  // message and exit code 2 (epoch=0 used to divide by zero).
  EXPECT_THROW(runServeScenario("serve_poisson", 1, 1, {"n=16", "events=100", "epoch=0"}),
               std::invalid_argument);
  EXPECT_THROW(runServeScenario("serve_capacity", 1, 1, {"n_list=16", "epoch=0"}),
               std::invalid_argument);
  EXPECT_THROW(runServeScenario("serve_capacity", 1, 1, {"n_list=16", "epb=0"}),
               std::invalid_argument);
}

TEST(ServeScenarios, PartitionedKnobPreservesTheDeterministicRecords) {
  // partitioned= flips the apply execution strategy only; the scenario's
  // deterministic records must not move. threads=3 gives the auto and
  // forced-partitioned paths real workers.
  const std::vector<std::string> base = {"n=32", "events=20000", "epoch=256"};
  const auto with = [&](const std::string& mode) {
    std::vector<std::string> params = base;
    params.push_back("partitioned=" + mode);
    return deterministicRecords(runServeScenario("serve_poisson", 5, 3, params));
  };
  const std::string sequential = with("0");
  EXPECT_FALSE(sequential.empty());
  // scenario_start embeds the overrides, so compare the tables only.
  const auto tables = [](const std::string& records) {
    std::istringstream in(records);
    std::string line;
    std::string out;
    while (std::getline(in, line)) {
      if (line.find("\"type\":\"table\"") != std::string::npos) out += line + "\n";
    }
    return out;
  };
  EXPECT_EQ(tables(sequential), tables(with("1")));
  EXPECT_EQ(tables(sequential), tables(with("auto")));
  EXPECT_EQ(tables(sequential), tables(with("seq")));
  EXPECT_EQ(tables(sequential), tables(with("part")));
}

TEST(ServeScenarios, ScalingSweepEmitsPerRowThroughput) {
  const std::string jsonl = runServeScenario(
      "serve_scaling", 4, 1,
      {"n=16", "events=4000", "epoch=128", "thread_list=1", "shard_list=1,2"});
  std::vector<std::string> names;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    const report::Json rec = report::Json::parse(line);
    if (rec.at("type").asString() != "throughput") continue;
    names.push_back(rec.at("scenario").asString());
    EXPECT_EQ(rec.at("events").asInt(), 4000);
    EXPECT_GT(rec.at("events_per_sec").asDouble(), 0.0);
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"serve_scaling/s1t1", "serve_scaling/s2t1"}));
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
