// Replication harness: run R independent replications of an experiment body
// and collect per-replication metric vectors.
//
// A scenario with several table cells declares them all as one *plan*: a
// list of ReplicationCells, run as a single parallelFor over every (cell,
// rep) pair. No cell waits at a barrier for another, so the pool stays busy
// until the last replication of the whole plan. Pairs are claimed in
// declaration order (cell 0's replications first), so a plan that wants its
// longest replications to start early declares those cells first; results
// come back one per cell, in declaration order, whatever the claim order.
//
// Determinism contract: replication r of a cell always receives the seed
// rng::streamSeed(cell.baseSeed, r) and writes into the pre-sized column
// slot samples[metric][r] of its cell's result, so results are bit-identical
// for a given baseSeed regardless of thread count, scheduling, or which
// other cells share the plan -- experiment tables in docs/EXPERIMENTS.md are
// exactly reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/thread_pool.hpp"
#include "stats/summary.hpp"

namespace rlslb::runner {

/// fn(repIndex, seed) -> metric values (same length every call).
using ReplicationFn = std::function<std::vector<double>(std::int64_t, std::uint64_t)>;

struct ReplicationResult {
  /// samples[metric][rep]
  std::vector<std::vector<double>> samples;

  [[nodiscard]] stats::Summary summary(std::size_t metric) const {
    return stats::summarize(samples[metric]);
  }
};

/// One cell of a plan: `reps` replications of `fn`, each returning
/// `numMetrics` values. `reps == 0` yields well-formed empty columns.
struct ReplicationCell {
  std::int64_t reps = 0;
  std::uint64_t baseSeed = 0;
  std::size_t numMetrics = 1;
  ReplicationFn fn;
};

/// Run every cell of `plan` on an existing pool as one parallelFor; returns
/// one result per cell, in plan order. An empty plan returns no results. If
/// any body throws, the first exception propagates (once) and the partial
/// results are discarded.
std::vector<ReplicationResult> runReplications(const std::vector<ReplicationCell>& plan,
                                               ThreadPool& pool);

/// A one-cell plan on an existing pool.
ReplicationResult runReplications(std::int64_t reps, std::uint64_t baseSeed,
                                  std::size_t numMetrics, const ReplicationFn& fn,
                                  ThreadPool& pool);

/// Convenience overload owning a pool for the call (0 = hardware
/// concurrency, clamped to `reps` so tiny jobs don't spawn idle threads).
ReplicationResult runReplications(std::int64_t reps, std::uint64_t baseSeed,
                                  std::size_t numMetrics, const ReplicationFn& fn,
                                  int numThreads = 0);

/// Single-metric convenience wrappers (one-cell plans).
std::vector<double> runReplicationsScalar(std::int64_t reps, std::uint64_t baseSeed,
                                          const std::function<double(std::int64_t, std::uint64_t)>& fn,
                                          ThreadPool& pool);
std::vector<double> runReplicationsScalar(std::int64_t reps, std::uint64_t baseSeed,
                                          const std::function<double(std::int64_t, std::uint64_t)>& fn,
                                          int numThreads = 0);

}  // namespace rlslb::runner
