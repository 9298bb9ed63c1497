// workload/compose.hpp + trace_io.hpp formats: the trace algebra's
// degenerate cases reproduce the standalone generators bit-for-bit, a
// composed trace is a pure function of (options, spec, seed), the spec
// parser reports errors without aborting, and every trace format (JSONL /
// CSV / binary) round-trips the event stream bit-exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "workload/compose.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

namespace rlslb::workload {
namespace {

OpenTraceOptions baseOptions(std::int64_t events) {
  OpenTraceOptions o;
  o.bins = 32;
  o.arrivalRatePerBin = 1.0;
  o.departureRate = 0.25;
  o.resampleRate = 1.0;
  o.maxEvents = events;
  return o;
}

std::vector<Event> drain(TraceGenerator& trace) {
  std::vector<Event> events;
  Event e;
  while (trace.next(&e)) events.push_back(e);
  return events;
}

/// Bit-level equality: operator== on doubles would conflate -0.0 with 0.0
/// and the byte-determinism contract is about bits, not values.
bool bitEqual(const std::vector<Event>& a, const std::vector<Event>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].time) != std::bit_cast<std::uint64_t>(b[i].time) ||
        a[i].kind != b[i].kind || a[i].rings != b[i].rings || a[i].ball != b[i].ball ||
        a[i].weight != b[i].weight) {
      return false;
    }
  }
  return true;
}

TEST(ComposeSpec, ParsesAndNormalizes) {
  ComposeSpec spec;
  ASSERT_TRUE(parseComposeSpec("poisson", &spec));
  EXPECT_EQ(spec.canonical(), "poisson(1)");
  ASSERT_TRUE(parseComposeSpec(" diurnal( 0.8 , 64 ) * bursty + hotspot(16,32,8) ", &spec));
  EXPECT_EQ(spec.canonical(), "diurnal(0.8,64)*bursty(8,0.05,0.5)+hotspot(16,32,8)");
  ASSERT_EQ(spec.terms.size(), 2u);
  EXPECT_EQ(spec.terms[0].size(), 2u);
  // Partial args fill left to right, the rest stay at the defaults.
  ASSERT_TRUE(parseComposeSpec("bursty(4)", &spec));
  EXPECT_EQ(spec.canonical(), "bursty(4,0.05,0.5)");
  ASSERT_TRUE(parseComposeSpec("poisson()", &spec));
  EXPECT_EQ(spec.canonical(), "poisson(1)");
}

TEST(ComposeSpec, RejectsMalformedSpecs) {
  ComposeSpec spec;
  std::string error;
  EXPECT_FALSE(parseComposeSpec("", &spec, &error));
  EXPECT_FALSE(parseComposeSpec("mystery(1)", &spec, &error));
  EXPECT_NE(error.find("unknown factor"), std::string::npos);
  EXPECT_FALSE(parseComposeSpec("poisson(1,2)", &spec, &error));
  EXPECT_NE(error.find("at most"), std::string::npos);
  EXPECT_FALSE(parseComposeSpec("poisson garbage", &spec, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
  EXPECT_FALSE(parseComposeSpec("poisson+", &spec, &error));
  EXPECT_FALSE(parseComposeSpec("diurnal(1.5,64)", &spec, &error));  // amp >= 1
  EXPECT_FALSE(parseComposeSpec("bursty(0.5)", &spec, &error));      // factor < 1
  EXPECT_FALSE(parseComposeSpec("hotspot(16,32.5,8)", &spec, &error));  // frac size
  EXPECT_FALSE(parseComposeSpec("diurnal(0.8,", &spec, &error));
}

TEST(ComposedTrace, DegenerateSpecsMatchStandaloneGeneratorsBitForBit) {
  const std::int64_t events = 4000;
  const std::uint64_t seed = 20170529;
  {
    PoissonTrace reference(baseOptions(events), seed);
    ComposedTrace composed(baseOptions(events), "poisson", seed);
    EXPECT_TRUE(bitEqual(drain(reference), drain(composed)));
  }
  {
    DiurnalTraceOptions o;
    o.base = baseOptions(events);
    o.amplitude = 0.8;
    o.period = 64.0;
    DiurnalTrace reference(o, seed);
    ComposedTrace composed(baseOptions(events), "diurnal(0.8,64)", seed);
    EXPECT_TRUE(bitEqual(drain(reference), drain(composed)));
  }
  {
    BurstyTraceOptions o;
    o.base = baseOptions(events);
    o.burstRateFactor = 8.0;
    o.calmToBurstRate = 0.05;
    o.burstToCalmRate = 0.5;
    BurstyTrace reference(o, seed);
    ComposedTrace composed(baseOptions(events), "bursty(8,0.05,0.5)", seed);
    EXPECT_TRUE(bitEqual(drain(reference), drain(composed)));
  }
  {
    HotspotTraceOptions o;
    o.base = baseOptions(events);
    o.burstPeriod = 16.0;
    o.burstSize = 32;
    o.hotWeight = 8;
    HotspotTrace reference(o, seed);
    ComposedTrace composed(baseOptions(events), "hotspot(16,32,8)", seed);
    EXPECT_TRUE(bitEqual(drain(reference), drain(composed)));
  }
}

TEST(ComposedTrace, PureFunctionOfOptionsSpecAndSeed) {
  const std::string spec = "diurnal(0.8,64)*bursty(8,0.05,0.5)+poisson(0.5)+hotspot(8,4,2)";
  ComposedTrace a(baseOptions(3000), spec, 7);
  ComposedTrace b(baseOptions(3000), spec, 7);
  const std::vector<Event> streamA = drain(a);
  EXPECT_TRUE(bitEqual(streamA, drain(b)));
  EXPECT_FALSE(streamA.empty());
  // A different seed moves every stochastic draw.
  ComposedTrace c(baseOptions(3000), spec, 8);
  EXPECT_FALSE(bitEqual(streamA, drain(c)));
  EXPECT_EQ(a.canonicalSpec(),
            "diurnal(0.8,64)*bursty(8,0.05,0.5)+poisson(0.5)+hotspot(8,4,2)");
  EXPECT_EQ(a.name(), "composed:" + a.canonicalSpec());
}

TEST(ComposedTrace, CoincidentOverlaysMergeInSpecOrder) {
  // Two overlays with nested periods: at t=16 both fire, the 8-period one
  // first in spec order; at t=8 and t=24 only the 8-period one fires.
  OpenTraceOptions o = baseOptions(400);
  o.arrivalRatePerBin = 0.0;  // burst arrivals only
  o.departureRate = 0.0;
  o.resampleRate = 0.0;
  ComposedTrace trace(o, "hotspot(8,2,1)+hotspot(16,3,1)", 1);
  const std::vector<Event> events = drain(trace);
  ASSERT_GE(events.size(), 7u);
  EXPECT_DOUBLE_EQ(events[0].time, 8.0);
  EXPECT_DOUBLE_EQ(events[1].time, 8.0);
  // t=16: 2 arrivals from the 8-period overlay, then 3 from the 16-period.
  for (int i = 2; i < 7; ++i) EXPECT_DOUBLE_EQ(events[static_cast<std::size_t>(i)].time, 16.0);
  EXPECT_EQ(events[2].ball + 1, events[3].ball);  // sequential ids across the merge
  EXPECT_EQ(events[6].ball, events[2].ball + 4);
}

TEST(TraceFactorRoster, ListsTheAlgebra) {
  const std::vector<TraceFactorSpec>& roster = traceFactorRoster();
  ASSERT_EQ(roster.size(), 6u);
  int factors = 0;
  int combinators = 0;
  for (const TraceFactorSpec& f : roster) {
    EXPECT_FALSE(f.name.empty());
    EXPECT_FALSE(f.description.empty());
    if (f.role == "factor") ++factors;
    if (f.role == "combinator") ++combinators;
  }
  EXPECT_EQ(factors, 4);
  EXPECT_EQ(combinators, 2);
}

TEST(TraceIo, FormatFromPath) {
  EXPECT_EQ(traceFormatFromPath("a/b/trace.jsonl"), TraceFormat::kJsonl);
  EXPECT_EQ(traceFormatFromPath("trace.csv"), TraceFormat::kCsv);
  EXPECT_EQ(traceFormatFromPath("trace.bin"), TraceFormat::kBinary);
  EXPECT_EQ(traceFormatFromPath("no_extension"), TraceFormat::kJsonl);
}

class TraceRoundTrip : public ::testing::TestWithParam<TraceFormat> {};

TEST_P(TraceRoundTrip, RecordThenReplayIsBitExact) {
  const TraceFormat format = GetParam();
  // A composed trace exercises both record kinds, ring counts, weighted
  // burst arrivals, and non-trivial timestamps.
  ComposedTrace source(baseOptions(2500), "diurnal(0.8,64)*bursty(8,0.05,0.5)+hotspot(16,4,8)",
                       42);
  std::stringstream storage(std::ios::in | std::ios::out | std::ios::binary);
  RecordingTrace recorder(source, storage, format);
  const std::vector<Event> original = drain(recorder);
  ASSERT_FALSE(original.empty());
  std::int64_t rings = 0;
  for (const Event& event : original) rings += event.rings;
  EXPECT_GT(rings, 0);

  const std::unique_ptr<TraceGenerator> reader = makeTraceReader(storage, format);
  std::vector<Event> replayed;
  Event e;
  while (reader->next(&e)) replayed.push_back(e);
  EXPECT_TRUE(bitEqual(original, replayed));
}

INSTANTIATE_TEST_SUITE_P(AllFormats, TraceRoundTrip,
                         ::testing::Values(TraceFormat::kJsonl, TraceFormat::kCsv,
                                           TraceFormat::kBinary),
                         [](const ::testing::TestParamInfo<TraceFormat>& info) {
                           return std::string(traceFormatName(info.param));
                         });

TEST(TraceIo, FormatConversionComposesWithoutLoss) {
  // JSONL -> events -> binary -> events -> CSV -> events: every hop equal.
  ComposedTrace source(baseOptions(1200), "bursty(8,0.05,0.5)+hotspot(8,2,3)", 9);
  std::stringstream jsonl;
  RecordingTrace jsonlRec(source, jsonl, TraceFormat::kJsonl);
  const std::vector<Event> original = drain(jsonlRec);

  JsonlTraceReader jsonlReader(jsonl);
  std::stringstream binary(std::ios::in | std::ios::out | std::ios::binary);
  RecordingTrace binaryRec(jsonlReader, binary, TraceFormat::kBinary);
  const std::vector<Event> viaBinary = drain(binaryRec);
  EXPECT_TRUE(bitEqual(original, viaBinary));

  BinaryTraceReader binaryReader(binary);
  std::stringstream csv;
  RecordingTrace csvRec(binaryReader, csv, TraceFormat::kCsv);
  const std::vector<Event> viaCsv = drain(csvRec);
  EXPECT_TRUE(bitEqual(original, viaCsv));

  CsvTraceReader csvReader(csv);
  std::vector<Event> last;
  Event e;
  while (csvReader.next(&e)) last.push_back(e);
  EXPECT_TRUE(bitEqual(original, last));
}

TEST(TraceIo, CountTraceEventsCountsUnitsInEveryFormat) {
  for (const TraceFormat format :
       {TraceFormat::kJsonl, TraceFormat::kCsv, TraceFormat::kBinary}) {
    PoissonTrace source(baseOptions(600), 3);
    std::stringstream storage(std::ios::in | std::ios::out | std::ios::binary);
    RecordingTrace recorder(source, storage, format);
    const std::vector<Event> original = drain(recorder);
    std::int64_t units = 0;
    for (const Event& event : original) units += 1 + event.rings;
    EXPECT_GT(units, static_cast<std::int64_t>(original.size()));
    EXPECT_EQ(countTraceEvents(storage, format), units) << traceFormatName(format);
  }
}

// The binary layout, byte for byte: RLT2, then per record f64 time, u8 kind,
// i64 ball, i64 weight and i32 rings, little-endian.
TEST(TraceIo, BinaryRecordLayout) {
  std::string bytes;
  appendTraceEventBinary(&bytes, {1.0, EventKind::kDepart, 0x01020304, 5, 0});
  ASSERT_EQ(bytes.size(), kTraceBinaryRecordBytes);
  EXPECT_EQ(bytes.size(), 29u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[8]), 1);          // kind
  EXPECT_EQ(static_cast<unsigned char>(bytes[9]), 5);          // ball
  EXPECT_EQ(static_cast<unsigned char>(bytes[25]), 0x04);      // rings, low byte
  EXPECT_EQ(static_cast<unsigned char>(bytes[28]), 0x01);      // rings, high byte
  Event decoded;
  ASSERT_TRUE(decodeTraceEventBinary(reinterpret_cast<const unsigned char*>(bytes.data()),
                                     &decoded));
  EXPECT_EQ(decoded, (Event{1.0, EventKind::kDepart, 0x01020304, 5, 0}));
  EXPECT_EQ(std::string(kTraceBinaryMagic), "RLT2");
}

TEST(TraceIo, CsvRowFormatting) {
  const Event event{1.25, EventKind::kArrive, 4, 7, 3};
  EXPECT_EQ(formatTraceEventCsv(event), "1.25,arrive,7,3,4");
  EXPECT_EQ(std::string(kTraceCsvHeader), "t,kind,ball,w,rings");
  Event parsed;
  ASSERT_TRUE(parseTraceEventCsv("1.25,arrive,7,3,4", &parsed));
  EXPECT_EQ(parsed, event);
  std::string error;
  EXPECT_FALSE(parseTraceEventCsv("1.25,arrive,7,3", &parsed, &error));  // no rings column
  EXPECT_FALSE(parseTraceEventCsv("1.25,arrive,7,3,4,9", &parsed, &error));
  EXPECT_FALSE(parseTraceEventCsv("x,arrive,7,3,0", &parsed, &error));
  EXPECT_FALSE(parseTraceEventCsv("1.25,levitate,7,3,0", &parsed, &error));
  EXPECT_FALSE(parseTraceEventCsv("1.25,resample,7,0,0", &parsed, &error));
  EXPECT_FALSE(parseTraceEventCsv("1.25,arrive,7,3,x", &parsed, &error));
  EXPECT_FALSE(parseTraceEventCsv("1.25,arrive,7,3,4294967296", &parsed, &error));
}

}  // namespace
}  // namespace rlslb::workload
