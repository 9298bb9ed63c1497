// E13 -- engine and substrate micro-benchmarks (google-benchmark).
//
// Measures the per-event cost of both simulation engines, the Fenwick and
// LoadMultiset primitives they are built on, and the RNG samplers. These
// numbers justify the hybrid switch policy (see bench_ablation for the
// end-to-end ablation) and document the library's single-core throughput.
#include <benchmark/benchmark.h>

#include <chrono>

#include "config/generators.hpp"
#include "ds/fenwick.hpp"
#include "ds/load_multiset.hpp"
#include "process/process.hpp"
#include "rng/distributions.hpp"
#include "rng/pcg64.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/hybrid_engine.hpp"
#include "sim/jump_engine.hpp"
#include "sim/naive_engine.hpp"

namespace {

using namespace rlslb;

void BM_Xoshiro(benchmark::State& state) {
  rng::Xoshiro256pp eng(1);
  for (auto _ : state) benchmark::DoNotOptimize(eng.next());
}
BENCHMARK(BM_Xoshiro);

void BM_Pcg64(benchmark::State& state) {
  rng::Pcg64 eng(1);
  for (auto _ : state) benchmark::DoNotOptimize(eng.next());
}
BENCHMARK(BM_Pcg64);

void BM_UniformIndex(benchmark::State& state) {
  rng::Xoshiro256pp eng(2);
  for (auto _ : state) benchmark::DoNotOptimize(rng::uniformIndex(eng, 1000003));
}
BENCHMARK(BM_UniformIndex);

void BM_Exponential(benchmark::State& state) {
  rng::Xoshiro256pp eng(3);
  for (auto _ : state) benchmark::DoNotOptimize(rng::exponential(eng, 2.0));
}
BENCHMARK(BM_Exponential);

void BM_BinomialSmall(benchmark::State& state) {
  rng::Xoshiro256pp eng(4);
  for (auto _ : state) benchmark::DoNotOptimize(rng::binomial(eng, 50, 0.1));
}
BENCHMARK(BM_BinomialSmall);

void BM_BinomialBtrs(benchmark::State& state) {
  rng::Xoshiro256pp eng(5);
  for (auto _ : state) benchmark::DoNotOptimize(rng::binomial(eng, 1'000'000, 0.3));
}
BENCHMARK(BM_BinomialBtrs);

void BM_FenwickAdd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ds::Fenwick<std::int64_t> f(std::vector<std::int64_t>(n, 4));
  rng::Xoshiro256pp eng(6);
  std::size_t i = 0;
  for (auto _ : state) {
    f.add(i, 1);
    f.add(i, -1);
    i = static_cast<std::size_t>(rng::uniformIndex(eng, n));
  }
}
BENCHMARK(BM_FenwickAdd)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_FenwickSample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ds::Fenwick<std::int64_t> f(std::vector<std::int64_t>(n, 4));
  rng::Xoshiro256pp eng(7);
  const std::int64_t total = f.total();
  for (auto _ : state) {
    const auto ticket =
        static_cast<std::int64_t>(rng::uniformIndex(eng, static_cast<std::uint64_t>(total)));
    benchmark::DoNotOptimize(f.upperBound(ticket));
  }
}
BENCHMARK(BM_FenwickSample)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// Before/after pair for the cached running total (ds/fenwick.hpp): the
// draw hot path consumes the total every activation, so total() must be a
// load, not a root prefix-sum walk. The "recompute" variant is the old
// implementation, kept callable through the public prefixSum(n).
// Sizes are deliberately not powers of two: prefixSum(n) touches one node
// per set bit of n, so 1<<k would collapse the recompute to a single read.
void BM_FenwickTotalCached(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ds::Fenwick<std::int64_t> f(std::vector<std::int64_t>(n, 4));
  for (auto _ : state) benchmark::DoNotOptimize(f.total());
}
BENCHMARK(BM_FenwickTotalCached)->Arg(1021)->Arg(100003)->Arg(1048573);

void BM_FenwickTotalRecompute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ds::Fenwick<std::int64_t> f(std::vector<std::int64_t>(n, 4));
  for (auto _ : state) benchmark::DoNotOptimize(f.prefixSum(n));
}
BENCHMARK(BM_FenwickTotalRecompute)->Arg(1021)->Arg(100003)->Arg(1048573);

void BM_LoadMultisetMove(benchmark::State& state) {
  const auto fresh = [] {
    std::vector<std::int64_t> loads;
    for (std::int64_t i = 0; i < 64; ++i) loads.push_back(100 + i);
    return ds::LoadMultiset::fromLoads(loads);
  };
  auto ms = fresh();
  for (auto _ : state) {
    // Each move shrinks the spread; reset when no multiset-changing move
    // remains (the rebuild is amortized over ~60 moves).
    if (ms.maxLoad() - ms.minLoad() < 2) ms = fresh();
    ms.applyBallMove(ms.maxLoad(), ms.minLoad());
  }
}
BENCHMARK(BM_LoadMultisetMove);

void BM_NaiveStep(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  sim::NaiveEngine engine(config::balanced(n, 8 * n), 8);
  for (auto _ : state) benchmark::DoNotOptimize(engine.advance());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NaiveStep)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_JumpStep(benchmark::State& state) {
  // Steady-state stepping is impossible (the chain absorbs), so measure
  // construction+drain amortized over the moves of a fresh halfHalf system.
  const std::int64_t n = state.range(0);
  std::uint64_t seed = 9;
  std::int64_t moves = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::JumpEngine engine(config::halfHalf(n, 32 * n, 8), seed++);
    state.ResumeTiming();
    while (engine.advance()) {
    }
    moves += engine.moves();
  }
  state.SetItemsProcessed(moves);
}
BENCHMARK(BM_JumpStep)->Arg(1 << 10)->Arg(1 << 14)->Unit(benchmark::kMicrosecond);

// The regime E1/E4 time: all-in-one starts run to balance on the scan path
// (few levels, many moves). Reports the drain's wall time per lumped move,
// construction excluded. Args: n, m/n.
void BM_JumpStepAllInOne(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::int64_t ratio = state.range(1);
  std::uint64_t seed = 11;
  std::int64_t moves = 0;
  double drainSeconds = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::JumpEngine engine(config::allInOne(n, ratio * n), seed++);
    state.ResumeTiming();
    const auto t0 = std::chrono::steady_clock::now();
    while (engine.advance()) {
    }
    drainSeconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    moves += engine.moves();
  }
  state.SetItemsProcessed(moves);
  state.counters["ns_per_move"] = drainSeconds * 1e9 / static_cast<double>(moves);
}
BENCHMARK(BM_JumpStepAllInOne)
    ->ArgsProduct({{256, 2048}, {8, 64}})
    ->Unit(benchmark::kMillisecond);

void BM_FullRunHybridAllInOne(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::uint64_t seed = 10;
  for (auto _ : state) {
    sim::HybridEngine engine(config::allInOne(n, 8 * n), seed++);
    const auto r = process::run(engine, process::Target::perfect());
    benchmark::DoNotOptimize(r.time);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullRunHybridAllInOne)->Arg(1 << 10)->Arg(1 << 14)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
