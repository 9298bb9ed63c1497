// serve/: OnlineAllocator state invariants, the ball-uniform activation a
// clock ring runs on weighted traffic, the event loop's epochs of units and
// its unit budget, RLS's balance benefit over placement-only serving, the
// serve_* scenarios' byte-determinism through the JSONL sink, record ->
// replay reproducing every table, and their usage errors (bad input —
// params out of range, corrupt or inconsistent replay traces — throws
// std::invalid_argument, which `rlslb` turns into exit code 2).
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
  loopOptions.unitBudget = events;
  loopOptions.seed = seed;
  EpochLoop loop(allocator, loopOptions);
  const auto result = loop.run(trace);
  EXPECT_EQ(result.events, events);
  EXPECT_EQ(result.activations, allocator.counters().resamples);
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
  EXPECT_EQ(out.counters.events,
            out.counters.arrivals + out.counters.departures + out.counters.resamples);
}

/// A trace of one record: `rings` clock rings, then the depart of ball 0.
/// With a unit budget of `rings` the loop runs the rings and stops before
/// the depart.
class RingsOnlyTrace final : public workload::TraceGenerator {
 public:
  explicit RingsOnlyTrace(std::int32_t rings) : rings_(rings) {}
  bool next(workload::Event* out) override {
    if (done_) return false;
    done_ = true;
    *out = {1.0, workload::EventKind::kDepart, rings_, 0, 0};
    return true;
  }
  [[nodiscard]] std::string name() const override { return "rings-only"; }

 private:
  std::int32_t rings_;
  bool done_ = false;
};

// A clock ring activates a uniform live ball (the paper's per-ball clocks),
// not a load-weighted bin. Bin 0 holds two weight-2 balls, bin 1 four unit
// balls, bin 2 nothing; both loaded bins carry load 4, and the only move
// the strict rule accepts is into bin 2. Ball-uniform activation takes an
// accepted move from bin 0 with probability 2/6 = 1/3; a load-weighted bin
// pick would take it with probability 4/8 = 1/2. The ring is drawn by the
// loop (one ring, then the budget stops it), so this pins the loop's draw.
TEST(OnlineAllocator, RingActivatesAUniformLiveBall) {
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
    RingsOnlyTrace trace(1);
    EpochLoop loop(allocator, LoopOptions{.unitBudget = 1,
                                          .seed = static_cast<std::uint64_t>(seed)});
    const RunResult result = loop.run(trace);
    ASSERT_EQ(result.events, 1);
    ASSERT_EQ(result.activations, 1);
    ASSERT_EQ(allocator.counters().resamples, 1);
    ASSERT_EQ(allocator.liveBalls(), 6);  // the depart never ran
    if (allocator.counters().migrations == 0) continue;
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

// Epochs hold exactly epochEvents units even when one record carries more
// rings than an epoch: the loop splits it, runs the rings that fit, carries
// the rest, and runs the record's event after the last of them.
TEST(EpochLoop, RingsStraddleEpochBoundaries) {
  OnlineAllocator allocator(AllocatorOptions{.bins = 4, .arrivalChoices = 1});
  for (std::int64_t ball = 0; ball < 8; ++ball) {
    workload::Event e;
    e.ball = ball;
    e.weight = 1;
    allocator.apply(e, Decision{static_cast<std::int32_t>(ball % 4)});
  }
  RingsOnlyTrace trace(1000);
  EpochLoop loop(allocator, LoopOptions{.epochEvents = 64});
  std::vector<std::int64_t> sizes;
  std::vector<std::int64_t> live;
  const RunResult result = loop.run(trace, [&](const EpochStats& s) {
    sizes.push_back(s.events);
    live.push_back(s.liveBalls);
  });
  EXPECT_EQ(result.events, 1001);
  EXPECT_EQ(result.activations, 1000);
  EXPECT_EQ(result.epochs, 16);  // ceil(1001 / 64)
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) EXPECT_EQ(sizes[i], 64) << i;
  EXPECT_EQ(sizes.back(), 1001 - 15 * 64);
  // The depart runs after all 1000 rings, in the last epoch only.
  for (std::size_t i = 0; i + 1 < live.size(); ++i) EXPECT_EQ(live[i], 8) << i;
  EXPECT_EQ(live.back(), 7);
  EXPECT_EQ(allocator.counters().resamples, 1000);
  EXPECT_EQ(allocator.counters().departures, 1);
  EXPECT_TRUE(allocator.validate());
}

// The unit budget stops the loop after exactly that many units, mid-record
// if need be, on any epoch length.
TEST(EpochLoop, UnitBudgetIsExact) {
  for (const std::int64_t epochEvents : {1, 7, 256, 5000}) {
    for (const std::int64_t budget : {1, 999, 4000}) {
      workload::PoissonTrace trace(traceOptions(budget), 5);
      OnlineAllocator allocator(AllocatorOptions{.bins = 32, .arrivalChoices = 2});
      EpochLoop loop(allocator,
                     LoopOptions{.epochEvents = epochEvents, .unitBudget = budget});
      std::int64_t observed = 0;
      const RunResult result = loop.run(trace, [&](const EpochStats& s) {
        EXPECT_LE(s.events, epochEvents);
        observed += s.events;
      });
      EXPECT_EQ(result.events, budget) << epochEvents;
      EXPECT_EQ(observed, budget) << epochEvents;
      EXPECT_EQ(result.epochs, (budget + epochEvents - 1) / epochEvents);
      EXPECT_EQ(allocator.counters().events, budget);
      EXPECT_TRUE(allocator.validate());
    }
  }
}

TEST(EpochLoop, EpochObserverSeesEveryEvent) {
  workload::PoissonTrace trace(traceOptions(1000), 7);
  OnlineAllocator allocator(AllocatorOptions{.bins = 16, .arrivalChoices = 1});
  EpochLoop loop(allocator, LoopOptions{.epochEvents = 128, .unitBudget = 1000});
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
  // (The clocks-off run serves 40000 external events, the clocks-on run
  // 40000 units, most of them activations: both reach equilibrium.)
  const auto gapWith = [](double resampleRate, std::uint64_t seed) {
    workload::OpenTraceOptions o = traceOptions(40000);
    o.arrivalRatePerBin = 4.0;  // mean load/bin ~ 16: room for imbalance
    o.departureRate = 0.25;
    o.resampleRate = resampleRate;
    workload::PoissonTrace trace(o, seed);
    OnlineAllocator allocator(AllocatorOptions{.bins = 32, .arrivalChoices = 1});
    LoopOptions loopOptions;
    loopOptions.unitBudget = 40000;
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
  // shards=, partitioned= and backend= are read by nobody; nor is repair=,
  // since the clocks ring in the trace records and no repair budget is
  // left. `rlslb` reports them as unknown parameters (exit 2).
  std::vector<std::string> unused;
  runServeScenario("serve_poisson", 1, 1,
                   {"n=16", "events=2000", "shards=4", "partitioned=1", "repair=4"}, &unused);
  EXPECT_EQ(unused, (std::vector<std::string>{"partitioned", "repair", "shards"}));
  runServeScenario("serve_capacity", 1, 1,
                   {"n_list=16", "load_list=1", "backend=dense", "shards=2", "repair=0"},
                   &unused);
  EXPECT_EQ(unused, (std::vector<std::string>{"backend", "repair", "shards"}));
}

/// The "table" records of one run's JSONL.
std::string tableRecords(const std::string& jsonl) {
  std::istringstream in(jsonl);
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    if (report::Json::parse(line).at("type").asString() == "table") {
      out += line;
      out.push_back('\n');
    }
  }
  return out;
}

// Recording a generated run and replaying the file, with the same seed and
// events=, reproduces every table byte for byte, in each format: the ring
// count a record carries is what the loop depends on most, and the budget
// ends both runs inside the same record's rings.
TEST(ServeScenarios, RecordThenReplayReproducesEveryTable) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::vector<std::string> shape = {"n=32", "events=30000", "epoch=256"};
  const struct {
    const char* scenario;
    std::vector<std::string> traceParams;  // generator params (record run only)
  } runs[] = {{"serve_poisson", {}}, {"serve_adversarial", {"weight=3", "hot_weight=5"}}};
  for (const auto& r : runs) {
    for (const char* ext : {".jsonl", ".csv", ".bin"}) {
      const std::string path =
          (dir / (std::string("rlslb-test-record-") + r.scenario + ext)).string();
      std::vector<std::string> record = shape;
      record.insert(record.end(), r.traceParams.begin(), r.traceParams.end());
      record.push_back("record=" + path);
      const std::string generated = tableRecords(runServeScenario(r.scenario, 9, 1, record));
      std::vector<std::string> replay = shape;
      replay.push_back("trace=" + path);
      const std::string replayed = tableRecords(runServeScenario(r.scenario, 9, 1, replay));
      EXPECT_FALSE(generated.empty());
      EXPECT_EQ(generated, replayed) << r.scenario << " " << ext;
      std::filesystem::remove(path);
    }
  }
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
  const workload::Event good{0.5, workload::EventKind::kArrive, 0, 0, 1};
  std::string truncatedBin = workload::kTraceBinaryMagic;
  workload::appendTraceEventBinary(&truncatedBin, good);
  workload::appendTraceEventBinary(&truncatedBin, good);
  truncatedBin.resize(truncatedBin.size() - 5);
  // Rings on the first record, while no ball is live.
  std::string ringsFirstBin = workload::kTraceBinaryMagic;
  workload::appendTraceEventBinary(&ringsFirstBin, {0.5, workload::EventKind::kArrive, 2, 0, 1});
  // The pre-rings binary layout: RLT1 magic, 25-byte records.
  std::string rlt1 = "RLT1";
  workload::appendTraceEventBinary(&rlt1, good);
  rlt1.resize(4 + 25);
  const std::string badFiles[] = {
      writeTrace("rlslb-test-serve-truncated.bin", truncatedBin),
      writeTrace("rlslb-test-serve-bogus.csv",
                 "t,kind,ball,w,rings\n0.5,arrive,0,1,0\n1,bogus,1,1,0\n"),
      writeTrace("rlslb-test-serve-cut.jsonl",
                 workload::formatTraceEvent(good) + "\n{\"t\":1,\"kind\":\"arr"),
      writeTrace("rlslb-test-serve-w0.jsonl",
                 workload::formatTraceEvent({0.5, workload::EventKind::kArrive, 0, 0, 0}) +
                     "\n"),
      writeTrace("rlslb-test-serve-neg.csv", "t,kind,ball,w,rings\n0.5,arrive,-3,1,0\n"),
      // Each breaks one invariant of the stream, caught by the counting pass.
      writeTrace("rlslb-test-serve-depart.jsonl", "{\"t\":0.5,\"kind\":\"depart\",\"ball\":3,\"w\":0}\n"),
      writeTrace("rlslb-test-serve-twice.csv",
                 "t,kind,ball,w,rings\n0.5,arrive,3,1,0\n0.75,arrive,3,1,0\n"),
      writeTrace("rlslb-test-serve-rings.bin", ringsFirstBin),
      writeTrace("rlslb-test-serve-back.jsonl",
                 "{\"t\":2,\"kind\":\"arrive\",\"ball\":0,\"w\":1}\n"
                 "{\"t\":1,\"kind\":\"arrive\",\"ball\":1,\"w\":1}\n"),
      writeTrace("rlslb-test-serve-inf.csv", "t,kind,ball,w,rings\ninf,arrive,0,1,0\n"),
      // Retired and malformed layouts.
      writeTrace("rlslb-test-serve-resample.jsonl",
                 workload::formatTraceEvent(good) +
                     "\n{\"t\":1,\"kind\":\"resample\",\"ball\":0,\"w\":0}\n"),
      writeTrace("rlslb-test-serve-rlt1.bin", rlt1),
      writeTrace("rlslb-test-serve-old.csv", "t,kind,ball,w\n0.5,arrive,0,1\n"),
      writeTrace("rlslb-test-serve-negrings.jsonl",
                 "{\"t\":1,\"kind\":\"arrive\",\"ball\":0,\"w\":1,\"rings\":-1}\n"),
      writeTrace("rlslb-test-serve-wide.csv", "t,kind,ball,w,rings\n0.5,arrive,0,2147483648,0\n"),
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
      // Range-checked before the int cast: this used to wrap to d = 2 and
      // run.
      {"serve_poisson", {"n=16", "events=100", "d=4294967298"}},
      {"serve_poisson", {"n=16", "events=100", "d=65"}},
      {"serve_poisson", {"n=0", "events=100"}},
      {"serve_poisson", {"n=16", "events=100", "lambda=-1"}},
      {"serve_poisson", {"n=16", "events=100", "mu=-1"}},
      {"serve_poisson", {"n=16", "events=100", "resample=-1"}},
      {"serve_adversarial", {"n=16", "events=100", "hot_weight=0"}},
      // These used to abort (exit 134), overflow or serve nothing.
      {"serve_adversarial", {"n=16", "events=100", "burst_size=0"}},
      {"serve_adversarial", {"n=16", "events=100", "burst_size=-3"}},
      {"serve_adversarial", {"n=16", "events=100", "burst_period=0"}},
      {"serve_adversarial", {"n=16", "events=100", "hot_weight=2147483648"}},
      {"serve_diurnal", {"n=16", "events=100", "amplitude=1.5"}},
      {"serve_diurnal", {"n=16", "events=100", "period=0"}},
      {"serve_bursty", {"n=16", "events=100", "burst_factor=0.5"}},
      {"serve_bursty", {"n=16", "events=100", "calm_to_burst=0"}},
      {"serve_composed", {"n=16", "events=100", "spec=hotspot(16,32,3e9)"}},
      {"serve_poisson", {"n=16", "events=100", "lambda=1e308"}},
      {"serve_poisson", {"n=16", "events=100", "mu=1e300"}},
      {"serve_poisson", {"n=2", "events=40", "weight=4611686018427387904"}},
      {"serve_poisson", {"n=2147483648", "events=40"}},
      {"serve_poisson", {"n=16", "events=-5"}},
      {"serve_poisson", {"n=16", "events=0"}},
      {"serve_capacity", {"n_list=16", "epoch=0"}},
      {"serve_capacity", {"n_list=16", "epb=0"}},
      {"serve_capacity", {"n_list=16,,32"}},
      {"serve_capacity", {"n_list=0"}},
      {"serve_capacity", {"n_list=16", "load_list=0"}},
      {"serve_capacity", {"n_list=16", "load_list=-2"}},
      {"serve_capacity", {"n_list=16", "traces=poisson;bogus(1)"}},
      {"serve_capacity", {"n_list=16", "traces=hotspot(16,8,2)"}},
      {"serve_capacity", {"n_list=16", "d=0"}},
      {"serve_capacity", {"n_list=16", "d=4294967297"}},
      {"serve_capacity", {"n_list=16", "d=65"}},
      {"serve_capacity", {"n_list=16", "resample=-1"}},
      {"serve_capacity", {"n_list=16", "resample=1e305"}},
      {"serve_capacity", {"n_list=1", "load_list=0.5"}},  // a cell with 0 events
      {"serve_capacity", {"n_list=3000000000", "load_list=1", "epb=1", "budget_mb=0"}},
      {"serve_capacity", {"n_list=1000", "load_list=1", "epb=9223372036854775807"}},
      {"serve_capacity", {"n_list=1000", "load_list=1e300", "epb=1"}},
  };
  for (const auto& b : bad) {
    std::vector<std::string> unused;
    EXPECT_THROW(runServeScenario(b.scenario, 1, 1, b.params, &unused), std::invalid_argument)
        << b.scenario << " " << b.params.back();
  }
  // A replayed trace the loop cannot serve names the offending position.
  for (const std::string& path : badFiles) {
    std::vector<std::string> unused;
    try {
      runServeScenario("serve_poisson", 1, 1, {"n=16", "trace=" + path}, &unused);
      ADD_FAILURE() << path << " was served";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_TRUE(what.find("malformed trace at line ") != std::string::npos ||
                  what.find("malformed trace at byte ") != std::string::npos)
          << path << ": " << what;
    }
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

// Every serve scenario serves exactly `events` units: the throughput (or
// frontier) record's `events` and the serve.events counter both equal it,
// with the activations among them reported beside it.
TEST(ServeScenarios, ServeExactlyTheRequestedUnits) {
  const struct {
    const char* scenario;
    std::vector<std::string> params;
    std::int64_t units;
  } runs[] = {
      {"serve_poisson", {"n=16", "events=4000"}, 4000},
      {"serve_bursty", {"n=16", "events=4000"}, 4000},
      {"serve_diurnal", {"n=16", "events=4000"}, 4000},
      {"serve_adversarial", {"n=16", "events=4000"}, 4000},
      {"serve_composed", {"n=16", "events=4000"}, 4000},
      {"serve_capacity", {"n_list=1000", "load_list=2", "epb=3"}, 6000},
  };
  for (const auto& r : runs) {
    const std::string jsonl = runServeScenario(r.scenario, 3, 1, r.params);
    int rateRecords = 0;
    int metricsRecords = 0;
    std::istringstream in(jsonl);
    std::string line;
    while (std::getline(in, line)) {
      const report::Json rec = report::Json::parse(line);
      const std::string& type = rec.at("type").asString();
      if (type == "metrics") {
        ++metricsRecords;
        EXPECT_EQ(rec.at("counters").at("serve.events").asInt(), r.units) << r.scenario;
      }
      if (type != "throughput" && type != "frontier") continue;
      ++rateRecords;
      EXPECT_EQ(rec.at("scenario").asString(), r.scenario);
      EXPECT_EQ(rec.at("events").asInt(), r.units) << r.scenario;
      EXPECT_GT(rec.at("activations").asInt(), 0) << r.scenario;
      EXPECT_LT(rec.at("activations").asInt(), r.units) << r.scenario;
      EXPECT_GT(rec.at("events_per_sec").asDouble(), 0.0) << r.scenario;
    }
    EXPECT_EQ(rateRecords, 1) << r.scenario;
    EXPECT_EQ(metricsRecords, 1) << r.scenario;
  }
}

}  // namespace
}  // namespace rlslb::serve
