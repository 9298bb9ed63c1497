// Replicated process runs: the registry-aware counterpart of
// runner::runReplications, so comparison scenarios fan ANY registered
// dynamic out across the shared thread pool with one call.
//
// Determinism contract matches the runner layer: replication r constructs
// its process with rng::streamSeed(baseSeed, r) and writes into slot r, so
// results are bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/configuration.hpp"
#include "process/registry.hpp"
#include "runner/thread_pool.hpp"

namespace rlslb::process {

/// Run `reps` independent replications of `kind` from `initial` to `target`
/// on `pool`. Each replication builds a fresh process via the registry
/// (parameters validated once per replication against a fresh usage slate,
/// see util::Params::freshCopy) and runs the generic loop.
std::vector<RunResult> runReplicated(const std::string& kind,
                                     const config::Configuration& initial,
                                     const util::Params& params, const Target& target,
                                     const RunLimits& limits, std::int64_t reps,
                                     std::uint64_t baseSeed, runner::ThreadPool& pool,
                                     const ProcessRegistry& registry = ProcessRegistry::global());

}  // namespace rlslb::process
