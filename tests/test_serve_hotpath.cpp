// Hot-path regression coverage for the batched serving pipeline:
//   - the multi-run contract (each EpochLoop::run() restarts the epoch index
//     keying its decision streams, so a reused loop draws exactly the
//     streams a fresh loop would);
//   - the zero-allocation claim, for both allocators (steady-state epochs —
//     balanced system, ring-only traffic — perform no heap allocation at
//     all, pinned by a global operator new counting hook).
// The byte-identity of the snapshot-free decision phase and the batched
// apply against the eager reference is pinned separately by the
// differentials in tests/test_serve_differential.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "serve/compact_allocator.hpp"
#include "serve/event_loop.hpp"
#include "serve/online_allocator.hpp"
#include "workload/generators.hpp"

// ------------------------------------------------------------------------
// Allocation-counting hook: replaces the replaceable global allocation
// functions for this test binary. Counting is off by default so gtest's
// own bookkeeping never trips it; tests toggle it around the region under
// scrutiny. (Aligned-new overloads fall through to the default library
// implementations; nothing on the serving hot path uses them.)
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

namespace rlslb::serve {
namespace {

// ------------------------------------------------------------------------
// A deterministic steady-state trace: one record carrying `rings` clock
// rings, then the depart of ball 0. Served with a budget of `rings` units,
// every epoch runs rings only; fed to a perfectly balanced allocator, the
// strict RLS rule rejects every activation, so every epoch is pure steady
// state: no load change, no structure work, no allocation.
class RingsOnlyTrace final : public workload::TraceGenerator {
 public:
  explicit RingsOnlyTrace(std::int32_t rings) : rings_(rings) {}

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

// Shifts ball ids by a fixed offset so a second trace consumed by the same
// allocator cannot collide with balls the first trace left live (trace
// generators assign ids from 0).
class OffsetBalls final : public workload::TraceGenerator {
 public:
  OffsetBalls(std::unique_ptr<workload::TraceGenerator> inner, std::int64_t offset)
      : inner_(std::move(inner)), offset_(offset) {}

  bool next(workload::Event* out) override {
    if (!inner_->next(out)) return false;
    out->ball += offset_;
    return true;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<workload::TraceGenerator> inner_;
  std::int64_t offset_;
};

std::unique_ptr<workload::TraceGenerator> makePoisson(std::int64_t bins,
                                                      std::int64_t events,
                                                      std::uint64_t seed) {
  workload::OpenTraceOptions base;
  base.bins = bins;
  base.arrivalRatePerBin = 1.0;
  base.departureRate = 0.25;
  base.resampleRate = 1.0;
  base.maxEvents = events;
  return std::make_unique<workload::PoissonTrace>(base, seed);
}

bool countersEqual(const ServeCounters& a, const ServeCounters& b) {
  return a.events == b.events && a.arrivals == b.arrivals &&
         a.departures == b.departures && a.resamples == b.resamples &&
         a.migrations == b.migrations && a.rejectedMoves == b.rejectedMoves;
}

LoopOptions hotpathOptions() {
  LoopOptions options;
  options.epochEvents = 256;
  options.seed = 11;
  return options;
}

// ------------------------------------------------------------ multi-run

// A reused loop must behave exactly like a fresh one on the same trace:
// run() restarts the epoch index that keys the decision streams. Before
// the reset contract this diverged — the second run of a reused loop
// continued the sequence and drew different streams than a fresh loop.
TEST(MultiRunContract, ReusedLoopMatchesFreshLoopOnTheSecondTrace) {
  const AllocatorOptions allocOpts{.bins = 24, .arrivalChoices = 2};
  const LoopOptions options = hotpathOptions();

  // Universe A: one loop reused across both traces.
  OnlineAllocator reusedAlloc(allocOpts);
  EpochLoop reusedLoop(reusedAlloc, options);
  auto traceA1 = makePoisson(24, 2048, 3);
  reusedLoop.run(*traceA1);
  OffsetBalls traceA2(makePoisson(24, 1536, 7), 1'000'000);
  const auto reusedResult = reusedLoop.run(traceA2);

  // Universe B: same allocator lifetime, but a fresh loop per trace.
  OnlineAllocator freshAlloc(allocOpts);
  {
    EpochLoop first(freshAlloc, options);
    auto traceB1 = makePoisson(24, 2048, 3);
    first.run(*traceB1);
  }
  EpochLoop second(freshAlloc, options);
  OffsetBalls traceB2(makePoisson(24, 1536, 7), 1'000'000);
  const auto freshResult = second.run(traceB2);

  EXPECT_EQ(reusedAlloc.loads(), freshAlloc.loads());
  EXPECT_TRUE(countersEqual(reusedAlloc.counters(), freshAlloc.counters()));
  EXPECT_EQ(reusedAlloc.liveBalls(), freshAlloc.liveBalls());
  EXPECT_EQ(reusedResult.events, freshResult.events);
  EXPECT_EQ(reusedResult.epochs, freshResult.epochs);
  EXPECT_TRUE(reusedAlloc.validate());
}

// ------------------------------------------------------- zero allocation

// Steady-state epochs allocate nothing, whichever allocator the loop
// drives: against a perfectly balanced allocator (built below with explicit
// placement decisions, so the balance is by construction, not by stochastic
// convergence), every ring of a ring-only run is rejected by the strict
// rule, and all epoch-scoped storage (batch, decisions, ring draws) is
// reused at its first-epoch capacity — so every epoch after the first must
// perform zero heap allocations.
template <typename Allocator>
class SteadyStateAllocations : public ::testing::Test {};
using Allocators = ::testing::Types<OnlineAllocator, CompactAllocator>;
TYPED_TEST_SUITE(SteadyStateAllocations, Allocators);

TYPED_TEST(SteadyStateAllocations, EpochsAreAllocationFree) {
  constexpr std::int64_t kBins = 64;
  constexpr std::int64_t kBalls = 256;  // exactly 4 per bin: gap 0
  constexpr std::int64_t kEpochEvents = 256;
  constexpr std::int64_t kRingEpochs = 16;

  TypeParam allocator(AllocatorOptions{.bins = kBins, .arrivalChoices = 2});
  for (std::int64_t ball = 0; ball < kBalls; ++ball) {
    workload::Event e;
    e.kind = workload::EventKind::kArrive;
    e.ball = ball;
    e.weight = 1;
    const Decision d{static_cast<std::int32_t>(ball % kBins)};
    allocator.applyBatch(&e, &d, 1, nullptr, 0);
  }
  ASSERT_EQ(allocator.gap(), 0);

  LoopOptions options = hotpathOptions();
  options.epochEvents = kEpochEvents;
  options.unitBudget = kEpochEvents * kRingEpochs;
  EpochLoop loop(allocator, options);

  RingsOnlyTrace trace(static_cast<std::int32_t>(kEpochEvents * kRingEpochs));

  // Per-epoch allocation counts, recorded inside the callback. Reserved up
  // front so the recording itself never allocates while counting is live.
  std::vector<std::int64_t> perEpoch;
  perEpoch.reserve(64);
  std::int64_t last = 0;
  g_allocCount.store(0);
  g_countAllocs.store(true);
  const auto result = loop.run(trace, [&](const EpochStats&) {
    const std::int64_t now = allocCount();
    perEpoch.push_back(now - last);
    last = now;
  });
  g_countAllocs.store(false);

  ASSERT_EQ(result.epochs, kRingEpochs);
  // Steady state by construction: nothing moved, gap stayed 0.
  EXPECT_EQ(allocator.gap(), 0);
  EXPECT_EQ(allocator.counters().migrations, 0);
  EXPECT_EQ(allocator.counters().resamples, kEpochEvents * kRingEpochs);
  // Epoch 0 may allocate (buffers grow to capacity, closures are built);
  // every later epoch must be allocation-free.
  ASSERT_EQ(perEpoch.size(), static_cast<std::size_t>(kRingEpochs));
  for (std::size_t i = 1; i < perEpoch.size(); ++i) {
    EXPECT_EQ(perEpoch[i], 0) << "epoch " << i << " allocated";
  }
  EXPECT_TRUE(allocator.validate());
}

}  // namespace
}  // namespace rlslb::serve
