// workload/: generator determinism, ball-lifecycle structure, inter-arrival
// distribution sanity (KS against the exact exponential law), modulation
// shape checks for the bursty/diurnal/hot-spot traces, and the JSONL
// record -> replay round trip.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "stats/tests.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

namespace rlslb::workload {
namespace {

std::vector<Event> drain(TraceGenerator& trace, std::int64_t cap = 1 << 20) {
  std::vector<Event> out;
  Event e;
  while (static_cast<std::int64_t>(out.size()) < cap && trace.next(&e)) out.push_back(e);
  return out;
}

OpenTraceOptions smallOptions() {
  OpenTraceOptions o;
  o.bins = 16;
  o.arrivalRatePerBin = 1.0;
  o.departureRate = 0.25;
  o.resampleRate = 1.0;
  o.maxEvents = 4000;
  return o;
}

TEST(Workload, KindNamesRoundTrip) {
  for (const EventKind kind : {EventKind::kArrive, EventKind::kDepart}) {
    EventKind back{};
    ASSERT_TRUE(kindFromName(kindName(kind), &back));
    EXPECT_EQ(back, kind);
  }
  EventKind ignored{};
  EXPECT_FALSE(kindFromName("nonsense", &ignored));
  // Clock rings are counts on records, not records of their own.
  EXPECT_FALSE(kindFromName("resample", &ignored));
}

TEST(Workload, GeneratorsAreDeterministicForSeed) {
  const auto run = [](std::uint64_t seed) {
    PoissonTrace trace(smallOptions(), seed);
    return drain(trace);
  };
  const auto a = run(7);
  EXPECT_EQ(a, run(7));
  EXPECT_NE(a, run(8));
  EXPECT_EQ(a.size(), 4000u);  // arrivals keep the trace alive to maxEvents
}

TEST(Workload, EventStreamIsStructurallyValid) {
  BurstyTraceOptions options;
  options.base = smallOptions();
  BurstyTrace trace(options, 3);
  double lastTime = 0.0;
  std::set<std::int64_t> live;
  std::set<std::int64_t> seen;
  Event e;
  while (trace.next(&e)) {
    EXPECT_GE(e.time, lastTime);
    lastTime = e.time;
    EXPECT_GE(e.rings, 0);
    if (live.empty()) {
      EXPECT_EQ(e.rings, 0) << "clocks ring only on live balls";
    }
    switch (e.kind) {
      case EventKind::kArrive:
        EXPECT_GE(e.weight, 1);
        EXPECT_TRUE(seen.insert(e.ball).second) << "ball ids are never reused";
        live.insert(e.ball);
        break;
      case EventKind::kDepart:
        EXPECT_EQ(e.weight, 0);
        EXPECT_EQ(live.erase(e.ball), 1u) << "departures pick live balls";
        break;
    }
  }
  EXPECT_EQ(trace.liveBalls(), static_cast<std::int64_t>(live.size()));
}

// The ring law. Between records k-1 and k the live count m is constant, so
// the rings record k carries are Poisson(r * m * dt): their total must match
// r * integral of m dt, and regressing each record's count on its own
// interval's r * m * dt must give slope 1 and Poisson dispersion. A count
// attributed to the neighbouring interval has slope ~0 here, and a wrong
// rate (per trace instead of per ball, say) misses the total.
TEST(Workload, RingsFollowThePerBallRateOfTheirOwnInterval) {
  OpenTraceOptions o = smallOptions();
  o.resampleRate = 1.5;
  o.maxEvents = 200000;
  PoissonTrace trace(o, 29);
  std::int64_t live = 0;
  double lastTime = 0.0;
  std::int64_t skip = 20000;  // warm-up records: m approaches equilibrium
  double n = 0.0, sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0, sres = 0.0;
  Event e;
  while (trace.next(&e)) {
    const double x = o.resampleRate * static_cast<double>(live) * (e.time - lastTime);
    const auto y = static_cast<double>(e.rings);
    lastTime = e.time;
    live += e.kind == EventKind::kArrive ? 1 : -1;
    if (skip > 0) {
      --skip;
      continue;
    }
    n += 1.0;
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    sres += (y - x) * (y - x);
  }
  ASSERT_EQ(n, 180000.0);
  EXPECT_NEAR(sy / sx, 1.0, 0.01) << "total rings against r * integral of m dt";
  const double slope = (sxy - sx * sy / n) / (sxx - sx * sx / n);
  EXPECT_NEAR(slope, 1.0, 0.05) << "rings against their own interval";
  EXPECT_NEAR(sres / sx, 1.0, 0.05) << "Poisson dispersion";
}

TEST(Workload, PoissonInterArrivalsAreExponential) {
  // Arrivals only (mu = resample = 0): inter-arrival times must be exactly
  // Exp(lambda * n).
  OpenTraceOptions o;
  o.bins = 8;
  o.arrivalRatePerBin = 0.5;
  o.departureRate = 0.0;
  o.resampleRate = 0.0;
  o.maxEvents = 4000;
  PoissonTrace trace(o, 19);
  const auto events = drain(trace);
  ASSERT_EQ(events.size(), 4000u);
  const double rate = o.arrivalRatePerBin * static_cast<double>(o.bins);
  std::vector<double> gaps;
  for (std::size_t i = 1; i < events.size(); ++i) {
    gaps.push_back(events[i].time - events[i - 1].time);
  }
  const auto ks = stats::ksOneSample(
      gaps, [rate](double t) { return t <= 0.0 ? 0.0 : 1.0 - std::exp(-rate * t); });
  EXPECT_GT(ks.pValue, 1e-3) << "KS statistic " << ks.statistic;
}

TEST(Workload, DiurnalPeakCarriesMoreArrivalsThanTrough) {
  DiurnalTraceOptions options;
  options.base.bins = 32;
  options.base.arrivalRatePerBin = 1.0;
  options.base.departureRate = 1.0;  // keep the population (and event mix) bounded
  options.base.resampleRate = 0.0;
  options.base.maxEvents = 60000;
  options.amplitude = 0.9;
  options.period = 8.0;
  DiurnalTrace trace(options, 5);
  // Peak phase: sin > 0 (first half of each period); trough: sin < 0.
  std::int64_t peak = 0;
  std::int64_t trough = 0;
  Event e;
  while (trace.next(&e)) {
    if (e.kind != EventKind::kArrive) continue;
    const double phase = std::fmod(e.time, options.period) / options.period;
    (phase < 0.5 ? peak : trough) += 1;
  }
  ASSERT_GT(trough, 0);
  EXPECT_GT(static_cast<double>(peak) / static_cast<double>(trough), 2.0)
      << "peak " << peak << " trough " << trough;
}

TEST(Workload, BurstyIsOverdispersedVersusPoisson) {
  // Arrival counts per fixed window: an MMPP has variance/mean well above
  // the Poisson value 1.
  BurstyTraceOptions options;
  options.base.bins = 16;
  options.base.arrivalRatePerBin = 0.5;
  options.base.departureRate = 1.0;
  options.base.resampleRate = 0.0;
  options.base.maxEvents = 60000;
  options.burstRateFactor = 16.0;
  options.calmToBurstRate = 0.2;
  options.burstToCalmRate = 0.2;
  BurstyTrace trace(options, 23);
  std::vector<double> window;
  double windowEnd = 1.0;
  double count = 0.0;
  Event e;
  while (trace.next(&e)) {
    if (e.kind != EventKind::kArrive) continue;
    while (e.time >= windowEnd) {
      window.push_back(count);
      count = 0.0;
      windowEnd += 1.0;
    }
    count += 1.0;
  }
  ASSERT_GT(window.size(), 50u);
  double mean = 0.0;
  for (const double v : window) mean += v;
  mean /= static_cast<double>(window.size());
  double var = 0.0;
  for (const double v : window) var += (v - mean) * (v - mean);
  var /= static_cast<double>(window.size() - 1);
  EXPECT_GT(var / mean, 1.5) << "variance/mean " << var / mean;
}

TEST(Workload, HotspotBurstsAreSynchronizedAndHeavy) {
  HotspotTraceOptions options;
  options.base = smallOptions();
  options.base.maxEvents = 20000;
  options.burstPeriod = 4.0;
  options.burstSize = 8;
  options.hotWeight = 5;
  HotspotTrace trace(options, 31);
  const auto events = drain(trace);
  // Every burst: burstSize consecutive arrivals with identical timestamp
  // (a multiple of the period) and the hot weight. No time passes inside a
  // burst, so only its first arrival may carry rings (those since the
  // record before it).
  std::int64_t bursts = 0;
  std::int64_t ringsBeforeBursts = 0;
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    if (events[i].kind != EventKind::kArrive || events[i].weight != options.hotWeight) {
      continue;
    }
    const double t = events[i].time;
    if (i > 0 && events[i - 1].time == t && events[i - 1].weight == options.hotWeight) {
      continue;  // interior of a burst already counted
    }
    std::int64_t runLength = 0;
    for (std::size_t j = i; j < events.size() && events[j].time == t; ++j) {
      ASSERT_EQ(events[j].kind, EventKind::kArrive);
      ASSERT_EQ(events[j].weight, options.hotWeight);
      if (j > i) {
        EXPECT_EQ(events[j].rings, 0);
      }
      ++runLength;
    }
    ringsBeforeBursts += events[i].rings;
    EXPECT_EQ(runLength, options.burstSize);
    EXPECT_NEAR(std::fmod(t, options.burstPeriod), 0.0, 1e-9);
    ++bursts;
  }
  EXPECT_GT(bursts, 10);
  EXPECT_GT(ringsBeforeBursts, 0);
}

TEST(Workload, NonDyadicBurstPeriodAdvancesTime) {
  // Regression: floor(t/p)+1 times p can round back to exactly t for
  // non-dyadic periods, freezing trace time and re-emitting one burst
  // forever. Bursts must stay strictly increasing in time.
  HotspotTraceOptions options;
  options.base = smallOptions();
  options.base.maxEvents = 20000;
  options.burstPeriod = 0.7;
  options.burstSize = 4;
  options.hotWeight = 2;
  HotspotTrace trace(options, 57);
  double lastBurstTime = -1.0;
  std::int64_t distinctBursts = 0;
  Event e;
  while (trace.next(&e)) {
    if (e.kind != EventKind::kArrive || e.weight != options.hotWeight) continue;
    if (e.time != lastBurstTime) {
      EXPECT_GT(e.time, lastBurstTime);
      lastBurstTime = e.time;
      ++distinctBursts;
    }
  }
  EXPECT_GT(distinctBursts, 100);  // ~maxEvents worth of trace, period 0.7
}

TEST(Workload, PureBurstTraceStillEmits) {
  // lambda = 0 with an empty system leaves no running clocks; scheduled
  // bursts must still fire (regression: the zero-rate path used to end
  // the trace before consulting the burst schedule).
  HotspotTraceOptions options;
  options.base.bins = 8;
  options.base.arrivalRatePerBin = 0.0;
  options.base.departureRate = 1.0;
  options.base.resampleRate = 0.0;
  options.base.maxEvents = 1000;
  options.burstPeriod = 2.0;
  options.burstSize = 4;
  options.hotWeight = 3;
  HotspotTrace trace(options, 13);
  const auto events = drain(trace);
  ASSERT_EQ(events.size(), 1000u);
  std::int64_t bursts = 0;
  for (const Event& e : events) {
    if (e.kind == EventKind::kArrive) {
      EXPECT_EQ(e.weight, options.hotWeight);  // no background traffic
      ++bursts;
    }
  }
  EXPECT_GT(bursts, 0);
}

TEST(Workload, JsonlRoundTripIsExact) {
  HotspotTraceOptions options;
  options.base = smallOptions();
  options.base.maxEvents = 2000;
  HotspotTrace trace(options, 41);
  std::ostringstream recorded;
  RecordingTrace tee(trace, recorded);
  const auto original = drain(tee);
  ASSERT_EQ(original.size(), 2000u);

  std::istringstream in(recorded.str());
  JsonlTraceReader reader(in);
  const auto replayed = drain(reader);
  // Bit-exact, including the double timestamps (shortest round-trip form).
  EXPECT_EQ(original, replayed);
}

TEST(Workload, ParseRejectsMalformedLines) {
  Event e;
  std::string error;
  EXPECT_FALSE(parseTraceEvent("not json", &e, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parseTraceEvent("{\"t\":1.0}", &e, &error));
  EXPECT_FALSE(parseTraceEvent(
      "{\"t\":1.0,\"kind\":\"explode\",\"ball\":1,\"w\":1}", &e, &error));
  EXPECT_FALSE(parseTraceEvent(
      "{\"t\":1.0,\"kind\":\"resample\",\"ball\":1,\"w\":0}", &e, &error));
  EXPECT_FALSE(parseTraceEvent(
      "{\"t\":1.0,\"kind\":\"depart\",\"ball\":1,\"w\":0,\"rings\":\"2\"}", &e, &error));
  EXPECT_FALSE(parseTraceEvent(
      "{\"t\":1.0,\"kind\":\"depart\",\"ball\":1,\"w\":0,\"rings\":3000000000}", &e,
      &error));
  // "rings" is optional and defaults to 0.
  e.rings = 9;
  EXPECT_TRUE(parseTraceEvent("{\"t\":1.5,\"kind\":\"depart\",\"ball\":3,\"w\":0}", &e));
  EXPECT_EQ(e.kind, EventKind::kDepart);
  EXPECT_EQ(e.ball, 3);
  EXPECT_EQ(e.rings, 0);
  EXPECT_TRUE(parseTraceEvent(
      "{\"t\":1.5,\"kind\":\"arrive\",\"ball\":4,\"w\":1,\"rings\":7}", &e));
  EXPECT_EQ(e.rings, 7);
}

}  // namespace
}  // namespace rlslb::workload
