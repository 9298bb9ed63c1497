#include "runner/replication.hpp"

#include <algorithm>
#include <utility>

#include "rng/splitmix64.hpp"
#include "util/assert.hpp"

namespace rlslb::runner {

namespace {

/// Pool size for the pool-owning overloads: never more threads than
/// replications, never less than one.
int clampedThreads(int numThreads, std::int64_t reps) {
  const auto resolved = static_cast<std::int64_t>(ThreadPool::resolveThreadCount(numThreads));
  return static_cast<int>(std::max<std::int64_t>(1, std::min(resolved, reps)));
}

}  // namespace

std::vector<ReplicationResult> runReplications(const std::vector<ReplicationCell>& plan,
                                               ThreadPool& pool) {
  // firstIndex[c] is the flat index of cell c's replication 0; the last
  // entry is the plan's total.
  std::vector<std::int64_t> firstIndex(plan.size() + 1, 0);
  std::vector<ReplicationResult> results(plan.size());
  for (std::size_t c = 0; c < plan.size(); ++c) {
    const ReplicationCell& cell = plan[c];
    RLSLB_ASSERT(cell.reps >= 0 && cell.numMetrics >= 1);
    firstIndex[c + 1] = firstIndex[c] + cell.reps;
    results[c].samples.assign(cell.numMetrics,
                              std::vector<double>(static_cast<std::size_t>(cell.reps)));
  }
  pool.parallelFor(firstIndex.back(), [&](std::int64_t index) {
    // The cell whose [firstIndex[c], firstIndex[c + 1]) holds `index`; cells
    // with no replications have an empty range and are never found.
    const auto c = static_cast<std::size_t>(
        std::upper_bound(firstIndex.begin(), firstIndex.end(), index) - firstIndex.begin() - 1);
    const ReplicationCell& cell = plan[c];
    const std::int64_t rep = index - firstIndex[c];
    const auto values =
        cell.fn(rep, rng::streamSeed(cell.baseSeed, static_cast<std::uint64_t>(rep)));
    RLSLB_ASSERT_MSG(values.size() == cell.numMetrics, "replication returned wrong metric count");
    for (std::size_t metric = 0; metric < cell.numMetrics; ++metric) {
      results[c].samples[metric][static_cast<std::size_t>(rep)] = values[metric];
    }
  });
  return results;
}

ReplicationResult runReplications(std::int64_t reps, std::uint64_t baseSeed,
                                  std::size_t numMetrics, const ReplicationFn& fn,
                                  ThreadPool& pool) {
  return std::move(runReplications({{reps, baseSeed, numMetrics, fn}}, pool).front());
}

ReplicationResult runReplications(std::int64_t reps, std::uint64_t baseSeed,
                                  std::size_t numMetrics, const ReplicationFn& fn,
                                  int numThreads) {
  ThreadPool pool(clampedThreads(numThreads, reps));
  return runReplications(reps, baseSeed, numMetrics, fn, pool);
}

std::vector<double> runReplicationsScalar(
    std::int64_t reps, std::uint64_t baseSeed,
    const std::function<double(std::int64_t, std::uint64_t)>& fn, ThreadPool& pool) {
  const ReplicationFn asVector = [&fn](std::int64_t rep, std::uint64_t seed) {
    return std::vector<double>{fn(rep, seed)};
  };
  return std::move(runReplications(reps, baseSeed, 1, asVector, pool).samples.front());
}

std::vector<double> runReplicationsScalar(
    std::int64_t reps, std::uint64_t baseSeed,
    const std::function<double(std::int64_t, std::uint64_t)>& fn, int numThreads) {
  ThreadPool pool(clampedThreads(numThreads, reps));
  return runReplicationsScalar(reps, baseSeed, fn, pool);
}

}  // namespace rlslb::runner
