// Telemetry-layer coverage (src/obs/):
//   - MetricsRegistry: handle semantics, histogram bucketing, clear and
//     reset;
//   - the zero-allocation contract with metrics ATTACHED: steady-state
//     serving epochs stay heap-silent while exporting counters, gauges,
//     histograms, and phase timings (registration, the one allocating
//     step, is confined to the first epoch);
//   - semantic transparency: a loop with telemetry attached lands in the
//     byte-identical allocator state as an unobserved loop, and the
//     exported counters agree with the allocator's own ServeCounters;
//   - TraceWriter: Chrome trace-event JSON well-formedness (parsed with
//     report::Json), span containment, per-track worker events, and the
//     compiled-out stub contract (no events, writeTo fails so drivers
//     warn).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/trace.hpp"
#include "report/json.hpp"
#include "runner/thread_pool.hpp"
#include "serve/compact_allocator.hpp"
#include "serve/event_loop.hpp"
#include "workload/generators.hpp"

// ------------------------------------------------------------------------
// Allocation-counting hook (same pattern as tests/test_serve_hotpath.cpp):
// replaces the replaceable global allocation functions for this binary;
// counting is toggled around the region under scrutiny only.
namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<std::int64_t> g_allocCount{0};

std::int64_t allocCount() { return g_allocCount.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t size) {
  if (size == 0) size = 1;
  if (g_countAllocs.load(std::memory_order_relaxed)) {
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rlslb::obs {
namespace {

// ------------------------------------------------------------- registry

TEST(MetricsRegistry_, RegistrationIsIdempotentByName) {
  MetricsRegistry m;
  const CounterId a = m.counter("x.events");
  const CounterId b = m.counter("x.events");
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.index, b.index);
  const GaugeId g1 = m.gauge("x.gap");
  const GaugeId g2 = m.gauge("x.gap");
  EXPECT_EQ(g1.index, g2.index);
  const HistId h1 = m.histogram("x.hist", {1, 2, 4});
  const HistId h2 = m.histogram("x.hist", {1, 2, 4});
  EXPECT_EQ(h1.index, h2.index);
  // Distinct names get distinct handles even across kinds.
  EXPECT_NE(m.counter("x.other").index, a.index);
  EXPECT_FALSE(m.empty());
}

TEST(MetricsRegistry_, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  MetricsRegistry m;
  const HistId h = m.histogram("h", {0, 1, 4});
  // bounds[0] <= v <= bounds[i] lands in bucket i; outside that range the
  // value is counted explicitly instead of clamped into an edge bucket.
  m.observe(h, -3);  // underflow (< bounds[0])
  m.observe(h, 0);   // bucket 0
  m.observe(h, 1);   // bucket 1
  m.observe(h, 2);   // bucket 2 (<= 4)
  m.observe(h, 4);   // bucket 2
  m.observe(h, 5);   // overflow
  m.observe(h, 999); // overflow
  const std::vector<std::int64_t> counts = m.histCounts(h);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 2);
  EXPECT_EQ(m.histUnderflow(h), 1);
  EXPECT_EQ(m.histOverflow(h), 2);
  EXPECT_EQ(m.histTotal(h), 7);
}

TEST(MetricsRegistry_, ClearKeepsRegistrationsResetDropsThem) {
  MetricsRegistry m;
  const CounterId c = m.counter("c");
  const GaugeId g = m.gauge("g");
  const HistId h = m.histogram("h", {8});
  m.add(c, 5);
  m.set(g, 3.5);
  m.observe(h, 2);

  m.clear();
  EXPECT_FALSE(m.empty()) << "clear() keeps the registrations";
  EXPECT_EQ(m.counterValue(c), 0);
  EXPECT_EQ(m.gaugeValue(g), 0.0);
  EXPECT_EQ(m.histTotal(h), 0);

  m.reset();
  EXPECT_TRUE(m.empty());
}

// --------------------------------------------- serving-loop integration

/// Steady-state trace: one record whose clock rings, served under a unit
/// budget that stops before its event, are all the run does. On a
/// perfectly balanced allocator the strict RLS rule rejects every
/// activation, so epochs after the first do no structural work (the same
/// construction tests/test_serve_hotpath.cpp pins WITHOUT metrics).
class RingsOnlyTrace final : public workload::TraceGenerator {
 public:
  explicit RingsOnlyTrace(std::int64_t rings) : rings_(static_cast<std::int32_t>(rings)) {}

  bool next(workload::Event* out) override {
    if (done_) return false;
    done_ = true;
    *out = {0.0, workload::EventKind::kDepart, rings_, 0, 0};
    return true;
  }

  [[nodiscard]] std::string name() const override { return "rings-only"; }

 private:
  std::int32_t rings_;
  bool done_ = false;
};

serve::CompactAllocator makeBalancedAllocator(std::int64_t bins, std::int64_t balls) {
  serve::CompactAllocator allocator(
      serve::AllocatorOptions{.bins = bins, .arrivalChoices = 2});
  for (std::int64_t ball = 0; ball < balls; ++ball) {
    workload::Event e;
    e.kind = workload::EventKind::kArrive;
    e.slot = ball;
    e.weight = 1;
    allocator.apply(e, serve::Decision{static_cast<std::int32_t>(ball % bins)});
  }
  return allocator;
}

// Metrics attached, steady state: epochs after the first allocate nothing.
// Registration (name -> handle, slab layout) is the only allocating step
// and must be folded into epoch 0 / setup.
TEST(MetricsHotPath, SteadyStateEpochsAreAllocationFreeWithMetricsAttached) {
  constexpr std::int64_t kEpochEvents = 256;
  constexpr std::int64_t kEpochs = 16;
  serve::CompactAllocator allocator = makeBalancedAllocator(64, 256);
  ASSERT_EQ(allocator.gap(), 0);

  MetricsRegistry metrics;
  serve::LoopOptions options;
  options.epochEvents = kEpochEvents;
  options.unitBudget = kEpochEvents * kEpochs;
  options.seed = 11;
  options.metrics = &metrics;
  serve::EpochLoop loop(allocator, options);

  RingsOnlyTrace trace(kEpochEvents * kEpochs);
  std::vector<std::int64_t> perEpoch;
  perEpoch.reserve(64);
  std::int64_t last = 0;
  g_allocCount.store(0);
  g_countAllocs.store(true);
  const auto result = loop.run(trace, [&](const serve::EpochStats&) {
    const std::int64_t now = allocCount();
    perEpoch.push_back(now - last);
    last = now;
  });
  g_countAllocs.store(false);

  ASSERT_EQ(result.epochs, kEpochs);
  ASSERT_EQ(perEpoch.size(), static_cast<std::size_t>(kEpochs));
  for (std::size_t i = 1; i < perEpoch.size(); ++i) {
    EXPECT_EQ(perEpoch[i], 0) << "epoch " << i << " allocated with metrics attached";
  }
  // The export is live: every event and epoch was counted.
  EXPECT_EQ(metrics.counterValue(metrics.counter("serve.events")), kEpochEvents * kEpochs);
  EXPECT_EQ(metrics.counterValue(metrics.counter("serve.epochs")), kEpochs);
  EXPECT_EQ(metrics.histTotal(
                metrics.histogram("serve.epoch_gap", {0, 1, 2, 4, 8, 16, 32, 64, 128})),
            kEpochs);
}

// The full observability stack live -- metrics (including the epoch-ns
// quantile sketch) AND the conformance roster (conservation, gap envelope,
// drift with its CUSUM) -- must keep steady-state epochs heap-silent.
TEST(MetricsHotPath, SteadyStateEpochsAreAllocationFreeWithMonitorsAttached) {
  constexpr std::int64_t kEpochEvents = 256;
  constexpr std::int64_t kEpochs = 16;
  serve::CompactAllocator allocator = makeBalancedAllocator(64, 256);
  ASSERT_EQ(allocator.gap(), 0);

  MetricsRegistry metrics;
  MonitorSet monitors;
  ServeConformanceParams conformance;
  conformance.n = 64;
  conformance.expectedBalls = 256;
  conformance.d = 2;
  conformance.totalEpochs = kEpochs;
  installServeMonitors(monitors, conformance);
  monitors.beginRun();

  serve::LoopOptions options;
  options.epochEvents = kEpochEvents;
  options.unitBudget = kEpochEvents * kEpochs;
  options.seed = 11;
  options.metrics = &metrics;
  options.monitors = &monitors;
  serve::EpochLoop loop(allocator, options);

  RingsOnlyTrace trace(kEpochEvents * kEpochs);
  std::vector<std::int64_t> perEpoch;
  perEpoch.reserve(64);
  std::int64_t last = 0;
  g_allocCount.store(0);
  g_countAllocs.store(true);
  const auto result = loop.run(trace, [&](const serve::EpochStats&) {
    const std::int64_t now = allocCount();
    perEpoch.push_back(now - last);
    last = now;
  });
  g_countAllocs.store(false);

  ASSERT_EQ(result.epochs, kEpochs);
  for (std::size_t i = 1; i < perEpoch.size(); ++i) {
    EXPECT_EQ(perEpoch[i], 0)
        << "epoch " << i << " allocated with monitors + sketches attached";
  }
  // The roster was live (every epoch checked, the sketch fed) and the
  // balanced steady state is healthy: no anomalies.
  EXPECT_EQ(monitors.checks(), kEpochs);
  EXPECT_EQ(monitors.gapSketch().count(), kEpochs);
  EXPECT_EQ(monitors.log().total(), 0);
}

// Telemetry must be semantically invisible: the observed loop lands in the
// byte-identical allocator state, and the exported counters agree with the
// allocator's own ServeCounters.
TEST(MetricsHotPath, AttachedMetricsDoNotPerturbTheRunAndAgreeWithCounters) {
  const auto runOnce = [](MetricsRegistry* metrics) {
    workload::OpenTraceOptions base;
    base.bins = 32;
    base.arrivalRatePerBin = 1.0;
    base.departureRate = 0.25;
    base.resampleRate = 1.0;
    base.maxEvents = 4096;
    workload::PoissonTrace trace(base, 17);
    serve::CompactAllocator allocator(
        serve::AllocatorOptions{.bins = 32, .arrivalChoices = 2});
    serve::LoopOptions options;
    options.epochEvents = 512;
    options.seed = 5;
    options.metrics = metrics;
    serve::EpochLoop loop(allocator, options);
    loop.run(trace);
    return std::make_pair(allocator.loads(), allocator.counters());
  };

  MetricsRegistry metrics;
  const auto observed = runOnce(&metrics);
  const auto plain = runOnce(nullptr);
  EXPECT_EQ(observed.first, plain.first) << "metrics changed the run's outcome";

  const serve::ServeCounters& c = observed.second;
  EXPECT_EQ(metrics.counterValue(metrics.counter("serve.events")), c.events);
  EXPECT_EQ(metrics.counterValue(metrics.counter("serve.arrivals")), c.arrivals);
  EXPECT_EQ(metrics.counterValue(metrics.counter("serve.departures")), c.departures);
  EXPECT_EQ(metrics.counterValue(metrics.counter("serve.migrations")), c.migrations);
  EXPECT_EQ(metrics.counterValue(metrics.counter("serve.rejected_moves")),
            c.rejectedMoves);
  EXPECT_EQ(metrics.counterValue(metrics.counter("serve.resamples")), c.resamples);
  EXPECT_GT(c.resamples, 0);
}

// ---------------------------------------------------------------- trace

TEST(Trace, NowUsIsMonotonicEvenWhenTracingIsCompiledOut) {
  const double a = nowUs();
  const double b = nowUs();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(Trace, CompiledOutStubIsInertSoDriversCanWarn) {
  if (kTracingCompiledIn) GTEST_SKIP() << "tracing compiled in";
  TraceWriter w;
  {
    const Span s(&w, "outer");
    w.counter("c", "v", 0.0, 1.0);
  }
  EXPECT_EQ(w.eventCount(), 0u);
  std::ostringstream out;
  EXPECT_FALSE(w.writeTo(out)) << "stub writeTo must fail so --trace-out warns";
  EXPECT_TRUE(out.str().empty());
}

TEST(Trace, JsonIsWellFormedWithContainedSpansAndWorkerTracks) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  TraceWriter w(8);
  {
    const Span outer(&w, "outer", "epoch");
    {
      const Span inner(&w, "inner");  // default category "phase"
    }
    w.counter("lane", "value", nowUs(), 42.0);
  }
  // Worker-track events: ThreadPool records one "parallelFor" job span
  // per participating thread.
  runner::ThreadPool pool(2);
  pool.setTraceWriter(&w);
  pool.parallelFor(64, [](std::int64_t) {});
  pool.setTraceWriter(nullptr);

  std::ostringstream out;
  ASSERT_TRUE(w.writeTo(out));
  std::string error;
  const report::Json doc = report::Json::parse(out.str(), &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_TRUE(doc.isObject());
  const report::Json& events = doc.at("traceEvents");
  ASSERT_TRUE(events.isArray());
  // Every recorded event plus the process_name meta and one thread_name
  // meta per non-empty track.
  ASSERT_GE(events.size(), w.eventCount() + 2u);

  double outerTs = -1.0, outerEnd = -1.0, innerTs = -1.0, innerEnd = -1.0;
  bool sawCounter = false;
  bool sawJobSpan = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const report::Json& e = events.at(i);
    ASSERT_TRUE(e.isObject());
    const std::string& ph = e.at("ph").asString();
    ASSERT_TRUE(e.find("name") != nullptr);
    if (ph == "M") continue;
    ASSERT_TRUE(e.find("ts") != nullptr);
    ASSERT_TRUE(e.find("tid") != nullptr);
    const std::string& name = e.at("name").asString();
    if (ph == "X") {
      ASSERT_TRUE(e.find("dur") != nullptr);
      if (name == "outer") {
        outerTs = e.at("ts").asDouble();
        outerEnd = outerTs + e.at("dur").asDouble();
        EXPECT_EQ(e.at("cat").asString(), "epoch");
        EXPECT_EQ(e.at("tid").asInt(), 0);
      } else if (name == "inner") {
        innerTs = e.at("ts").asDouble();
        innerEnd = innerTs + e.at("dur").asDouble();
        EXPECT_EQ(e.at("cat").asString(), "phase");
      } else if (name == "parallelFor") {
        EXPECT_EQ(e.at("cat").asString(), "job");
        sawJobSpan = true;
      }
    } else if (ph == "C") {
      EXPECT_EQ(e.at("args").at("value").asDouble(), 42.0);
      sawCounter = true;
    }
  }
  ASSERT_GE(outerTs, 0.0);
  ASSERT_GE(innerTs, 0.0);
  // Span nesting: the inner phase lies inside the outer epoch span.
  EXPECT_GE(innerTs, outerTs);
  EXPECT_LE(innerEnd, outerEnd);
  EXPECT_TRUE(sawCounter);
  EXPECT_TRUE(sawJobSpan);
}

// Runtime-off contract: tracing never changes the run's outcome, and the
// attached writer records per epoch exactly one epoch span, the three phase
// spans (fill, decide, apply), one observe span and one serve.gap counter
// sample.
TEST(LoopTrace, ServingLoopEmitsPhaseSpansOnlyWhenAttached) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  std::int64_t epochs = 0;
  const auto runOnce = [&epochs](TraceWriter* trace) {
    workload::OpenTraceOptions base;
    base.bins = 32;
    base.arrivalRatePerBin = 1.0;
    base.departureRate = 0.25;
    base.resampleRate = 1.0;
    base.maxEvents = 2048;
    workload::PoissonTrace traceGen(base, 23);
    serve::CompactAllocator allocator(serve::AllocatorOptions{.bins = 32, .arrivalChoices = 2});
    serve::LoopOptions options;
    options.epochEvents = 512;
    options.unitBudget = 2048;
    options.seed = 5;
    options.trace = trace;
    serve::EpochLoop loop(allocator, options);
    epochs = loop.run(traceGen).epochs;
    return allocator.loads();
  };

  TraceWriter attached;
  const auto tracedLoads = runOnce(&attached);
  const auto plainLoads = runOnce(nullptr);
  EXPECT_EQ(tracedLoads, plainLoads) << "tracing changed the run's outcome";
  ASSERT_EQ(epochs, 4);

  std::ostringstream out;
  ASSERT_TRUE(attached.writeTo(out));
  std::string error;
  const report::Json doc = report::Json::parse(out.str(), &error);
  ASSERT_TRUE(error.empty()) << error;
  const report::Json& events = doc.at("traceEvents");
  const char* const kSpans[] = {"epoch", "fill", "decide", "apply", "observe"};
  std::int64_t spans[std::size(kSpans)] = {};
  std::int64_t gaps = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const report::Json& e = events.at(i);
    const std::string& ph = e.at("ph").asString();
    const std::string& name = e.at("name").asString();
    if (ph == "C" && name == "serve.gap") ++gaps;
    if (ph != "X") continue;
    const auto* span = std::find(std::begin(kSpans), std::end(kSpans), name);
    if (span == std::end(kSpans)) {
      ADD_FAILURE() << "unexpected span " << name;
      continue;
    }
    ++spans[span - std::begin(kSpans)];
  }
  for (std::size_t i = 0; i < std::size(kSpans); ++i) {
    EXPECT_EQ(spans[i], epochs) << kSpans[i];
  }
  EXPECT_EQ(gaps, epochs);
}

}  // namespace
}  // namespace rlslb::obs
