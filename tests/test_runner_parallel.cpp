// Tests for the parallel execution subsystem (runner/thread_pool.hpp and the
// pooled replication harness): output must be bit-identical for any thread
// count, exceptions must propagate exactly once without deadlock, and the
// degenerate shapes (no work, fewer replications than threads, empty plans
// and cells) must return well-formed results. This suite is the one the CI
// sanitizer matrix runs under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "config/generators.hpp"
#include "core/rls.hpp"
#include "rng/splitmix64.hpp"
#include "runner/replication.hpp"
#include "runner/thread_pool.hpp"
#include "sim/ensemble.hpp"
#include "sim/probes.hpp"

namespace rlslb::runner {
namespace {

/// A replication body with real floating-point content: the balancing time
/// of a jump-engine run, so any cross-thread contamination of rng streams
/// or result slots shows up as a bit difference.
double simulateOne(std::uint64_t seed) {
  core::SimOptions o;
  o.engine = core::SimOptions::EngineKind::Jump;
  o.seed = seed;
  return core::balancingTime(config::allInOne(16, 96), o);
}

bool bitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  // memcmp may not be handed the null data() of an empty vector.
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

#if defined(__SANITIZE_THREAD__)
#define RLSLB_TEST_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RLSLB_TEST_UNDER_TSAN 1
#endif
#endif

#if !defined(RLSLB_TEST_UNDER_TSAN)
TEST(ThreadPoolDeathTest, NestedParallelForAbortsWithDiagnostic) {
  // The documented non-nestable contract: nesting on a pool with workers
  // would corrupt the single job slot and deadlock. RLSLB_ASSERT is active
  // in every build type, so this death test runs in Release too — the
  // guard used to live inside #ifndef NDEBUG, which left Release builds
  // with the silent deadlock this test exists to rule out. (Skipped under
  // TSan: fork-based death tests and the sanitizer runtime do not mix.)
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ThreadPool pool(3);
  EXPECT_DEATH(
      pool.parallelFor(4,
                       [&](std::int64_t) {
                         pool.parallelFor(2, [](std::int64_t) {});
                       }),
      "not reentrant");
}

TEST(ThreadPoolDeathTest, ConcurrentDispatchFromASecondThreadAborts) {
  // The other half of the single-job-slot contract: two threads
  // dispatching on the same pool concurrently. The body parks every
  // worker on a latch until the second dispatch has hit the guard, so
  // exactly one of the two calls must die — which one wins the exchange
  // is a race, so the whole scenario runs inside EXPECT_DEATH.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(3);
        std::atomic<bool> release{false};
        std::thread second;
        pool.parallelFor(4, [&](std::int64_t i) {
          if (i == 0) {
            second = std::thread([&] {
              pool.parallelFor(2, [](std::int64_t) {});
            });
            second.join();  // unreachable: the dispatch above aborts
            release.store(true);
          }
          while (!release.load()) std::this_thread::yield();
        });
      },
      "not reentrant");
}
#endif

TEST(ThreadPool, SerialPoolNestingRunsInline) {
  // A 1-thread pool has no job slot (parallelFor runs inline), so nesting
  // is harmless there and stays permitted.
  ThreadPool pool(1);
  std::int64_t total = 0;
  pool.parallelFor(3, [&](std::int64_t) {
    pool.parallelFor(2, [&](std::int64_t) { ++total; });
  });
  EXPECT_EQ(total, 6);
}

TEST(ThreadPool, SizeAccounting) {
  EXPECT_GE(ThreadPool(0).size(), 1);  // hardware concurrency, caller included
  EXPECT_EQ(ThreadPool(1).size(), 1);
  EXPECT_EQ(ThreadPool(5).size(), 5);
  EXPECT_EQ(ThreadPool::resolveThreadCount(7), 7);
  EXPECT_GE(ThreadPool::resolveThreadCount(0), 1);
  EXPECT_GE(ThreadPool::resolveThreadCount(-3), 1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 7}) {
    ThreadPool pool(threads);
    const std::int64_t count = 10007;  // prime, so chunks never tile evenly
    std::vector<std::atomic<int>> hits(count);
    pool.parallelFor(count, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
    for (std::int64_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPool, ClaimsOneIndexAtATime) {
  // Indices 0-3 each wait until all four have started. With one index per
  // claim the pool's four threads hold one each; had any two of them been
  // handed out in one claim, one thread would run them in turn and the
  // first would wait out its bound.
  ThreadPool pool(4);
  std::atomic<int> started{0};
  std::atomic<int> timedOut{0};
  pool.parallelFor(64, [&](std::int64_t i) {
    if (i >= 4) return;
    started.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 4) {
      if (std::chrono::steady_clock::now() > deadline) {
        timedOut.fetch_add(1);
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(started.load(), 4);
  EXPECT_EQ(timedOut.load(), 0);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(4);
  for (int job = 0; job < 50; ++job) {
    std::atomic<std::int64_t> sum{0};
    pool.parallelFor(100, [&](std::int64_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadPool, ZeroCountIsANoop) {
  ThreadPool pool(3);
  pool.parallelFor(0, [](std::int64_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPool, FirstExceptionPropagatesExactlyOnce) {
  ThreadPool pool(8);
  // Every body throws; the pool must surface exactly one exception on the
  // calling thread and quiesce without deadlock.
  int caught = 0;
  try {
    pool.parallelFor(64, [](std::int64_t i) {
      throw std::runtime_error("boom " + std::to_string(i));
    });
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_EQ(std::string(e.what()).rfind("boom ", 0), 0u);
  }
  EXPECT_EQ(caught, 1);

  // The pool stays usable after a throw.
  std::atomic<std::int64_t> sum{0};
  pool.parallelFor(10, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, ExceptionCancelsRemainingWork) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> executed{0};
  EXPECT_THROW(pool.parallelFor(1 << 20,
                                [&](std::int64_t i) {
                                  ++executed;
                                  if (i == 0) throw std::runtime_error("stop");
                                }),
               std::runtime_error);
  EXPECT_LT(executed.load(), (1 << 20) / 2);  // unclaimed chunks were dropped
}

TEST(ThreadPool, PreCancelledTokenRunsNothing) {
  ThreadPool pool(4);
  CancellationToken token;
  token.cancel();
  std::atomic<std::int64_t> executed{0};
  pool.parallelFor(1000, [&](std::int64_t) { ++executed; }, &token);
  EXPECT_EQ(executed.load(), 0);
  token.reset();
  pool.parallelFor(10, [&](std::int64_t) { ++executed; }, &token);
  EXPECT_EQ(executed.load(), 10);
}

TEST(ThreadPool, CancellationFromBodyStopsEarly) {
  ThreadPool pool(4);
  CancellationToken token;
  std::atomic<std::int64_t> executed{0};
  pool.parallelFor(
      1 << 20,
      [&](std::int64_t i) {
        ++executed;
        if (i == 0) token.cancel();
      },
      &token);
  EXPECT_TRUE(token.cancelled());
  EXPECT_GE(executed.load(), 1);
  EXPECT_LT(executed.load(), (1 << 20) / 2);
}

TEST(RunnerParallel, BitIdenticalForAnyThreadCount) {
  const auto body = [](std::int64_t, std::uint64_t seed) { return simulateOne(seed); };
  const std::int64_t reps = 64;
  const std::uint64_t baseSeed = 20170529;
  const auto reference = runReplicationsScalar(reps, baseSeed, body, 1);
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(reps));
  const int hardware = ThreadPool::resolveThreadCount(0);
  for (const int threads : {2, 7, hardware}) {
    const auto parallel = runReplicationsScalar(reps, baseSeed, body, threads);
    EXPECT_TRUE(bitIdentical(reference, parallel)) << "threads = " << threads;
  }
}

TEST(RunnerParallel, MultiMetricColumnsBitIdentical) {
  const auto body = [](std::int64_t rep, std::uint64_t seed) {
    const double t = simulateOne(seed);
    return std::vector<double>{t, static_cast<double>(rep), t * t};
  };
  const auto reference = runReplications(33, 7, 3, body, 1);
  const auto parallel = runReplications(33, 7, 3, body, 7);
  ASSERT_EQ(reference.samples.size(), 3u);
  for (std::size_t metric = 0; metric < 3; ++metric) {
    EXPECT_TRUE(bitIdentical(reference.samples[metric], parallel.samples[metric]))
        << "metric " << metric;
  }
}

TEST(RunnerParallel, SharedPoolMatchesPerCallPool) {
  ThreadPool pool(5);
  const auto body = [](std::int64_t, std::uint64_t seed) { return simulateOne(seed); };
  const auto viaShared = runReplicationsScalar(20, 3, body, pool);
  const auto viaOwned = runReplicationsScalar(20, 3, body, 4);
  EXPECT_TRUE(bitIdentical(viaShared, viaOwned));
  // Reuse the same pool for a second, differently-seeded batch.
  const auto second = runReplicationsScalar(20, 4, body, pool);
  EXPECT_FALSE(bitIdentical(viaShared, second));
}

TEST(RunnerParallel, ZeroRepsIsWellFormed) {
  const auto result = runReplications(
      0, 1, 2, [](std::int64_t, std::uint64_t) { return std::vector<double>{0.0, 0.0}; }, 4);
  ASSERT_EQ(result.samples.size(), 2u);
  EXPECT_TRUE(result.samples[0].empty());
  EXPECT_TRUE(result.samples[1].empty());

  const auto scalar = runReplicationsScalar(
      0, 1, [](std::int64_t, std::uint64_t) { return 0.0; }, 4);
  EXPECT_TRUE(scalar.empty());
}

TEST(RunnerParallel, FewerRepsThanThreads) {
  const auto body = [](std::int64_t, std::uint64_t seed) { return simulateOne(seed); };
  const auto reference = runReplicationsScalar(3, 11, body, 1);
  const auto parallel = runReplicationsScalar(3, 11, body, 16);
  ASSERT_EQ(parallel.size(), 3u);
  EXPECT_TRUE(bitIdentical(reference, parallel));
}

TEST(RunnerParallel, ThrowingReplicationPropagatesOnce) {
  int caught = 0;
  try {
    runReplicationsScalar(
        64, 5,
        [](std::int64_t rep, std::uint64_t) -> double {
          if (rep % 3 == 1) throw std::runtime_error("replication failed");
          return 1.0;
        },
        8);
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_STREQ(e.what(), "replication failed");
  }
  EXPECT_EQ(caught, 1);
}

TEST(RunnerPlan, EveryCellGetsWhatItsOneCellCallGives) {
  const ReplicationFn scalar = [](std::int64_t, std::uint64_t seed) {
    return std::vector<double>{simulateOne(seed)};
  };
  const ReplicationFn triple = [](std::int64_t rep, std::uint64_t seed) {
    const double t = simulateOne(seed);
    return std::vector<double>{t, static_cast<double>(rep), t * t};
  };
  // Mixed reps (zero ones first, inside and last), metric counts and seeds;
  // cells 1 and 4 share a base seed, so they share their first replication.
  const std::vector<ReplicationCell> plan = {
      {0, 5, 2, triple}, {9, 11, 1, scalar}, {0, 12, 3, triple},
      {17, 13, 3, triple}, {1, 11, 1, scalar}, {0, 14, 1, scalar},
  };
  std::vector<ReplicationResult> oneCell;
  for (const ReplicationCell& cell : plan) {
    oneCell.push_back(runReplications(cell.reps, cell.baseSeed, cell.numMetrics, cell.fn, 3));
    // ... which is the contract evaluated serially.
    for (std::int64_t rep = 0; rep < cell.reps; ++rep) {
      const auto values =
          cell.fn(rep, rng::streamSeed(cell.baseSeed, static_cast<std::uint64_t>(rep)));
      for (std::size_t metric = 0; metric < cell.numMetrics; ++metric) {
        const double got = oneCell.back().samples[metric][static_cast<std::size_t>(rep)];
        EXPECT_EQ(std::memcmp(&got, &values[metric], sizeof(double)), 0);
      }
    }
  }
  const int hardware = ThreadPool::resolveThreadCount(0);
  for (const int threads : {1, 2, 7, hardware}) {
    ThreadPool pool(threads);
    const auto results = runReplications(plan, pool);
    ASSERT_EQ(results.size(), plan.size());
    for (std::size_t c = 0; c < plan.size(); ++c) {
      ASSERT_EQ(results[c].samples.size(), plan[c].numMetrics);
      for (std::size_t metric = 0; metric < plan[c].numMetrics; ++metric) {
        EXPECT_TRUE(bitIdentical(results[c].samples[metric], oneCell[c].samples[metric]))
            << "threads = " << threads << ", cell " << c << ", metric " << metric;
      }
    }
  }
}

TEST(RunnerPlan, EmptyPlanIsWellFormed) {
  ThreadPool pool(4);
  EXPECT_TRUE(runReplications(std::vector<ReplicationCell>{}, pool).empty());
}

TEST(RunnerPlan, ThrowingCellPropagatesOnce) {
  ThreadPool pool(4);
  const std::vector<ReplicationCell> plan = {
      {20, 1, 1, [](std::int64_t, std::uint64_t) { return std::vector<double>{1.0}; }},
      {20, 2, 1,
       [](std::int64_t rep, std::uint64_t) -> std::vector<double> {
         if (rep % 2 == 1) throw std::runtime_error("cell failed");
         return {2.0};
       }},
  };
  int caught = 0;
  try {
    (void)runReplications(plan, pool);
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_STREQ(e.what(), "cell failed");
  }
  EXPECT_EQ(caught, 1);

  // The pool stays usable after a throw.
  const auto again = runReplications({plan.front()}, pool);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again.front().samples.front(), std::vector<double>(20, 1.0));
}

TEST(EnsembleParallel, MeansBitIdenticalForAnyThreadCount) {
  const auto body = [](std::int64_t, std::uint64_t seed) {
    sim::TrajectoryRecorder recorder(0.25);
    core::SimOptions o;
    o.seed = seed;
    core::balance(config::allInOne(32, 256), o, process::Target::perfect(), {}, &recorder);
    return recorder.points();
  };
  ThreadPool serial(1);
  ThreadPool wide(6);
  const auto a = sim::accumulateEnsemble(0.5, 8.0, 24, 99, body, serial);
  const auto b = sim::accumulateEnsemble(0.5, 8.0, 24, 99, body, wide);
  ASSERT_EQ(a.gridSize(), b.gridSize());
  EXPECT_EQ(a.runs(), 24);
  EXPECT_EQ(b.runs(), 24);
  for (std::size_t g = 0; g < a.gridSize(); ++g) {
    // memcmp-strength equality, metric by metric.
    const double da = a.meanDiscrepancy(g);
    const double db = b.meanDiscrepancy(g);
    EXPECT_EQ(std::memcmp(&da, &db, sizeof(double)), 0) << "grid " << g;
    EXPECT_DOUBLE_EQ(a.meanLogDiscrepancy(g), b.meanLogDiscrepancy(g));
    EXPECT_DOUBLE_EQ(a.meanOverloaded(g), b.meanOverloaded(g));
  }
}

TEST(EnsembleParallel, MergeMatchesSequentialFold) {
  const auto run = [](std::uint64_t seed) {
    sim::TrajectoryRecorder recorder(0.25);
    core::SimOptions o;
    o.seed = seed;
    core::balance(config::allInOne(16, 64), o, process::Target::perfect(), {}, &recorder);
    return recorder.points();
  };
  sim::EnsembleAccumulator whole(0.5, 4.0);
  sim::EnsembleAccumulator left(0.5, 4.0);
  sim::EnsembleAccumulator right(0.5, 4.0);
  for (int rep = 0; rep < 8; ++rep) {
    const auto points = run(1000 + static_cast<std::uint64_t>(rep));
    whole.addRun(points);
    (rep < 4 ? left : right).addRun(points);
  }
  left.merge(right);
  EXPECT_EQ(left.runs(), whole.runs());
  for (std::size_t g = 0; g < whole.gridSize(); ++g) {
    EXPECT_DOUBLE_EQ(left.meanDiscrepancy(g), whole.meanDiscrepancy(g));
    EXPECT_DOUBLE_EQ(left.meanOverloaded(g), whole.meanOverloaded(g));
  }
}

}  // namespace
}  // namespace rlslb::runner
