#include "process/replicate.hpp"

#include "rng/splitmix64.hpp"

namespace rlslb::process {

std::vector<RunResult> runReplicated(const std::string& kind,
                                     const config::Configuration& initial,
                                     const util::Params& params, const Target& target,
                                     const RunLimits& limits, std::int64_t reps,
                                     std::uint64_t baseSeed, runner::ThreadPool& pool,
                                     const ProcessRegistry& registry) {
  std::vector<RunResult> results(static_cast<std::size_t>(reps < 0 ? 0 : reps));
  if (results.empty()) return results;
  pool.parallelFor(reps, [&](std::int64_t r) {
    auto process = registry.make(kind, initial, rng::streamSeed(baseSeed, r), params);
    results[static_cast<std::size_t>(r)] = run(*process, target, limits);
  });
  return results;
}

}  // namespace rlslb::process
