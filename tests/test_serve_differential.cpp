// The serving loop's differential layer: the production event loop must be
// byte-identical — final load vector, every semantic counter, and the
// per-epoch gap trajectory — to the frozen reference loop
// (tests/serve_reference.hpp, which serves one unit at a time: each clock
// ring, then each record's event, with a per-unit decide frozen apart from
// production's two-pass one and its ring buffer) across epoch
// granularities, unit budgets that cut a record's rings, trace kinds
// (including the weighted adversarial one), arrival choices d and seeds.
// Plus LoopOptions validation death tests, the EpochStats/RunResult timing
// contract, the scenario wall split, and a high-contention stress case.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "report/json.hpp"
#include "report/result_sink.hpp"
#include "scenario/scenario.hpp"
#include "serve/event_loop.hpp"
#include "serve/online_allocator.hpp"
#include "serve_reference.hpp"
#include "workload/generators.hpp"

namespace rlslb::serve {
namespace {

enum class TraceKind { kPoisson, kBursty, kDiurnal, kAdversarial };
constexpr TraceKind kAllKinds[] = {TraceKind::kPoisson, TraceKind::kBursty,
                                   TraceKind::kDiurnal, TraceKind::kAdversarial};

std::unique_ptr<workload::TraceGenerator> makeTrace(TraceKind kind, std::int64_t bins,
                                                    std::int64_t events,
                                                    std::uint64_t seed) {
  workload::OpenTraceOptions base;
  base.bins = bins;
  base.arrivalRatePerBin = 1.0;
  base.departureRate = 0.25;
  base.resampleRate = 1.0;
  base.maxEvents = events;
  switch (kind) {
    case TraceKind::kPoisson:
      return std::make_unique<workload::PoissonTrace>(base, seed);
    case TraceKind::kBursty:
      return std::make_unique<workload::BurstyTrace>(
          workload::BurstyTraceOptions{.base = base}, seed);
    case TraceKind::kDiurnal:
      return std::make_unique<workload::DiurnalTrace>(
          workload::DiurnalTraceOptions{.base = base}, seed);
    case TraceKind::kAdversarial:
      return std::make_unique<workload::HotspotTrace>(
          workload::HotspotTraceOptions{.base = base}, seed);
  }
  return nullptr;
}

/// Everything the differential compares: the semantic outcome of a run.
struct Outcome {
  std::vector<std::int64_t> loads;
  ServeCounters counters;
  std::int64_t liveBalls = 0;
  std::int64_t totalLoad = 0;
  std::vector<std::int64_t> gapTrajectory;
};

bool countersEqual(const ServeCounters& a, const ServeCounters& b) {
  return a.events == b.events && a.arrivals == b.arrivals &&
         a.departures == b.departures && a.resamples == b.resamples &&
         a.migrations == b.migrations && a.rejectedMoves == b.rejectedMoves;
}

struct Config {
  TraceKind kind = TraceKind::kPoisson;
  std::int64_t bins = 24;
  std::int64_t events = 2048;  // the unit budget, and the trace's record cap
  std::int64_t epochEvents = 256;
  std::uint64_t seed = 1;
  int d = 2;  // arrival choices
};

Outcome runReference(workload::TraceGenerator& trace, const Config& c) {
  reference::ReferenceAllocator allocator(
      AllocatorOptions{.bins = c.bins, .arrivalChoices = c.d});
  reference::ReferenceEventLoop loop(
      allocator, reference::ReferenceEventLoop::Options{
                     .epochEvents = c.epochEvents, .unitBudget = c.events, .seed = c.seed});
  Outcome out;
  const auto result =
      loop.run(trace, [&](const reference::ReferenceEpochStats& s) {
        out.gapTrajectory.push_back(s.gap());
      });
  EXPECT_EQ(result.events, c.events);
  out.loads = allocator.loads();
  out.counters = allocator.counters();
  out.liveBalls = allocator.liveBalls();
  out.totalLoad = allocator.totalLoad();
  return out;
}

Outcome runLoop(workload::TraceGenerator& trace, const Config& c) {
  OnlineAllocator allocator(AllocatorOptions{.bins = c.bins, .arrivalChoices = c.d});
  LoopOptions options;
  options.epochEvents = c.epochEvents;
  options.unitBudget = c.events;
  options.seed = c.seed;
  EpochLoop loop(allocator, options);
  Outcome out;
  const auto result = loop.run(trace, [&](const EpochStats& s) {
    out.gapTrajectory.push_back(s.gap());
  });
  EXPECT_EQ(result.events, c.events);
  EXPECT_TRUE(allocator.validate());
  out.loads = allocator.loads();
  out.counters = allocator.counters();
  out.liveBalls = allocator.liveBalls();
  out.totalLoad = allocator.totalLoad();
  return out;
}

Outcome runReference(const Config& c) {
  auto trace = makeTrace(c.kind, c.bins, c.events, c.seed);
  return runReference(*trace, c);
}

Outcome runLoop(const Config& c) {
  auto trace = makeTrace(c.kind, c.bins, c.events, c.seed);
  return runLoop(*trace, c);
}

void expectIdentical(const Outcome& ref, const Outcome& got, const Config& c) {
  const auto label = ::testing::Message()
                     << "kind=" << static_cast<int>(c.kind) << " epoch=" << c.epochEvents
                     << " seed=" << c.seed << " d=" << c.d;
  EXPECT_EQ(ref.loads, got.loads) << label;
  EXPECT_TRUE(countersEqual(ref.counters, got.counters)) << label;
  EXPECT_EQ(ref.liveBalls, got.liveBalls) << label;
  EXPECT_EQ(ref.totalLoad, got.totalLoad) << label;
  EXPECT_EQ(ref.gapTrajectory, got.gapTrajectory) << label;
}

// ------------------------------------------------ differential matrix

// The batched hot path — the two-pass decide over one stream per epoch,
// the ring buffer, records split at epoch boundaries, batched apply —
// against the frozen unit-at-a-time reference loop. epochEvents is a
// semantic knob, so every granularity gets its own reference: the
// degenerate one-unit epoch (every arrival sees every activation before
// it), a prime one, the default, and an epoch at least as long as the whole
// run. At ~4 rings per record most epoch boundaries cut a record's rings,
// and the budget ends the run mid-record. d runs over the no-candidate
// shortcut (1), the default (2) and wider choices (3, 8), where the tie
// rule matters. Every semantic observable, including the per-epoch gap
// trajectory, must be byte-identical.
TEST(FusedDifferential, MatchesReferenceAcrossEpochsKindsAndSeeds) {
  const struct {
    std::int64_t epochEvents;
    std::int64_t events;
  } grid[] = {{1, 300}, {7, 700}, {256, 2048}, {1024, 2048}};
  for (const auto& g : grid) {
    for (const TraceKind kind : kAllKinds) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        for (const int d : {1, 2, 3, 8}) {
          Config c;
          c.kind = kind;
          c.epochEvents = g.epochEvents;
          c.events = g.events;
          c.seed = seed;
          c.d = d;
          expectIdentical(runReference(c), runLoop(c), c);
        }
      }
    }
  }
}

// Without a budget the run ends with the trace: every record, rings and
// event, is served.
TEST(FusedDifferential, UnboundedRunServesTheWholeTrace) {
  for (const TraceKind kind : kAllKinds) {
    for (const std::int64_t epochEvents : {5, 256}) {
      Config c;
      c.kind = kind;
      c.events = 600;
      c.epochEvents = epochEvents;
      auto refTrace = makeTrace(c.kind, c.bins, c.events, c.seed);
      reference::ReferenceAllocator refAllocator(
          AllocatorOptions{.bins = c.bins, .arrivalChoices = c.d});
      reference::ReferenceEventLoop refLoop(
          refAllocator, {.epochEvents = c.epochEvents, .seed = c.seed});
      const auto refResult = refLoop.run(*refTrace);

      auto trace = makeTrace(c.kind, c.bins, c.events, c.seed);
      OnlineAllocator allocator(AllocatorOptions{.bins = c.bins, .arrivalChoices = c.d});
      EpochLoop loop(allocator, LoopOptions{.epochEvents = c.epochEvents, .seed = c.seed});
      const auto result = loop.run(*trace);
      EXPECT_EQ(result.events, refResult.events);
      EXPECT_EQ(result.epochs, refResult.epochs);
      EXPECT_EQ(result.activations, allocator.counters().resamples);
      EXPECT_EQ(allocator.counters().arrivals + allocator.counters().departures, 600);
      EXPECT_EQ(result.events, 600 + result.activations);
      EXPECT_EQ(allocator.loads(), refAllocator.loads());
      EXPECT_TRUE(countersEqual(allocator.counters(), refAllocator.counters()));
    }
  }
}

TEST(FusedDifferential, MoreBinsThanEventsPerEpochAndFewBins) {
  // Edge shapes: four bins (every candidate collides), and more bins than
  // an epoch has events.
  for (const std::int64_t bins : {4, 512}) {
    Config c;
    c.bins = bins;
    c.events = 1200;
    c.epochEvents = 64;
    c.kind = TraceKind::kAdversarial;
    expectIdentical(runReference(c), runLoop(c), c);
  }
}

// ------------------------------------------------ option validation

TEST(ServeLoopDeathTest, RejectsInvalidLoopOptions) {
  OnlineAllocator allocator(AllocatorOptions{.bins = 8, .arrivalChoices = 1});
  const auto makeLoop = [&](std::int64_t epochEvents, std::int64_t budget) {
    LoopOptions o;
    o.epochEvents = epochEvents;
    o.unitBudget = budget;
    EpochLoop loop(allocator, o);
  };
  EXPECT_DEATH(makeLoop(0, 4), "LoopOptions.epochEvents must be >= 1");
  EXPECT_DEATH(makeLoop(-1, 4), "LoopOptions.epochEvents must be >= 1");
  EXPECT_DEATH(makeLoop(1024, -1), "LoopOptions.unitBudget must be >= 0");
}

// ------------------------------------------------ timing contract

TEST(TimingContract, RunResultIsTheExactSumOfEpochWallSeconds) {
  Config c;
  c.events = 2048;
  c.epochEvents = 128;
  auto trace = makeTrace(c.kind, c.bins, c.events, c.seed);
  OnlineAllocator allocator(AllocatorOptions{.bins = c.bins, .arrivalChoices = 2});
  LoopOptions options;
  options.epochEvents = c.epochEvents;
  options.unitBudget = c.events;
  options.seed = c.seed;
  EpochLoop loop(allocator, options);
  double sum = 0.0;
  std::int64_t epochs = 0;
  const auto result = loop.run(*trace, [&](const EpochStats& s) {
    EXPECT_GE(s.wallSeconds, 0.0);
    sum += s.wallSeconds;
    ++epochs;
  });
  EXPECT_EQ(epochs, result.epochs);
  // Exact: both sides accumulate the identical per-epoch doubles in the
  // identical order, so this is bitwise equality, not a tolerance check.
  EXPECT_EQ(sum, result.wallSeconds);
}

TEST(TimingContract, OnEpochCallbackTimeIsExcluded) {
  Config c;
  c.events = 256;
  c.epochEvents = 64;
  auto trace = makeTrace(c.kind, c.bins, c.events, c.seed);
  OnlineAllocator allocator(AllocatorOptions{.bins = c.bins, .arrivalChoices = 2});
  LoopOptions options;
  options.epochEvents = c.epochEvents;
  options.unitBudget = c.events;
  options.seed = c.seed;
  EpochLoop loop(allocator, options);
  const auto result = loop.run(*trace, [&](const EpochStats&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  EXPECT_EQ(result.epochs, 4);
  // 4 x 10ms of callback sleep; the measured epochs do ~256 units of real
  // work (microseconds). Half the sleep budget is an ocean of margin. The
  // sleep is observe time, which the run reports beside the contract.
  EXPECT_LT(result.wallSeconds, 0.020);
  EXPECT_GE(result.observeSeconds, 0.040);
}

/// Wraps a trace and sleeps inside next(): trace *generation* cost, which
/// the timing contract says is not the serving loop's to report.
class SlowTrace final : public workload::TraceGenerator {
 public:
  SlowTrace(workload::TraceGenerator& inner, std::chrono::microseconds delay)
      : inner_(&inner), delay_(delay) {}
  bool next(workload::Event* out) override {
    if (!inner_->next(out)) return false;
    std::this_thread::sleep_for(delay_);
    return true;
  }
  [[nodiscard]] std::string name() const override { return "slow"; }

 private:
  workload::TraceGenerator* inner_;
  std::chrono::microseconds delay_;
};

TEST(TimingContract, TraceGenerationTimeIsExcluded) {
  Config c;
  c.events = 64;
  c.epochEvents = 16;
  auto inner = makeTrace(c.kind, c.bins, c.events, c.seed);
  SlowTrace trace(*inner, std::chrono::microseconds(500));
  OnlineAllocator allocator(AllocatorOptions{.bins = c.bins, .arrivalChoices = 2});
  LoopOptions options;
  options.epochEvents = c.epochEvents;
  options.unitBudget = c.events;
  options.seed = c.seed;
  EpochLoop loop(allocator, options);
  const auto result = loop.run(trace);
  EXPECT_EQ(result.events, 64);
  // At least 64 / 5 records x 0.5ms of generation sleep; the 4 epochs of
  // real work are microseconds. The sleep is fill time, which the run
  // reports beside the contract.
  EXPECT_LT(result.wallSeconds, 0.004);
  EXPECT_GE(result.fillSeconds, 0.006);
}

// The scenario's wall time, split: fill (trace generation), loop (decide +
// apply), observe and the unattributed rest are each >= 0 and together at
// most the wall, in serve_poisson's throughput record and in every
// serve_capacity frontier record.
TEST(TimingContract, ThroughputAndFrontierRecordsSplitTheWall) {
  const auto run = [](const char* name, const std::vector<std::string>& params) {
    scenario::ScenarioRegistry registry;
    scenario::registerBuiltinScenarios(registry);
    std::ostringstream out;
    report::ResultSink sink(&out);
    scenario::ScenarioContext ctx;
    ctx.seed = 3;
    ctx.sink = &sink;
    ctx.console = nullptr;
    std::string error;
    EXPECT_TRUE(scenario::ScenarioParams::fromTokens(params, &ctx.params, &error)) << error;
    registry.runOne(name, ctx);
    return out.str();
  };
  const std::string jsonl =
      run("serve_poisson", {"n=64", "events=200000", "epoch=256"}) +
      run("serve_capacity", {"n_list=1000,4000", "load_list=2", "epb=8"});
  int records = 0;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    const report::Json rec = report::Json::parse(line);
    const std::string& type = rec.at("type").asString();
    if (type != "throughput" && type != "frontier") continue;
    ++records;
    const double wall = rec.at("wall_s").asDouble();
    double named = 0.0;
    for (const char* part : {"fill_s", "loop_s", "observe_s", "unattributed_s"}) {
      EXPECT_GE(rec.at(part).asDouble(), 0.0) << type << " " << part;
      named += rec.at(part).asDouble();
    }
    EXPECT_LE(named, wall * (1.0 + 1e-12)) << type;
    EXPECT_GT(rec.at("loop_s").asDouble(), 0.0) << type;
    EXPECT_GT(rec.at("activations").asInt(), 0) << type;
    EXPECT_LT(rec.at("activations").asInt(), rec.at("events").asInt()) << type;
  }
  EXPECT_EQ(records, 3);  // one throughput record, two frontier cells
}

// ------------------------------------------------ stress

TEST(FusedStress, HighContentionLongEpochs) {
  // Long epochs + a hot ring clock: most units are activations, against
  // a snapshot up to 8192 units stale for the arrivals between them, so
  // the live re-validation rejects and accepts in bulk.
  Config c;
  c.bins = 64;
  c.events = 3 * 8192;
  c.epochEvents = 8192;
  c.seed = 2017;
  workload::OpenTraceOptions base;
  base.bins = c.bins;
  base.arrivalRatePerBin = 2.0;
  base.departureRate = 0.25;
  base.resampleRate = 4.0;  // high contention: most units are activations
  base.maxEvents = c.events;

  workload::PoissonTrace refTrace(base, c.seed);
  const Outcome ref = runReference(refTrace, c);
  workload::PoissonTrace trace(base, c.seed);
  const Outcome got = runLoop(trace, c);
  expectIdentical(ref, got, c);
  EXPECT_GT(got.counters.migrations, 0);
}

}  // namespace
}  // namespace rlslb::serve
