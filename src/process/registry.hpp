// ProcessRegistry: balancing dynamics as data, mirroring the scenario
// registry one layer down.
//
//   auto p = process::makeProcess("threshold", initial, seed, params);
//   auto r = process::run(*p, process::Target::xBalanced(8), limits);
//
// Every registered ProcessSpec names a kind (stable CLI identifier), its
// source family, a one-line description, the declared ParamSpec roster
// (util/params.hpp; printed with its ranges by `rlslb describe <kind>`),
// and a make function. Construction validates parameters loudly, in the
// scenario registry's contract: make() checks every declared key against
// its domain before the make function runs, so makers read only values in
// range; a key the make function never consumed throws
// std::invalid_argument; an unknown kind throws std::out_of_range listing
// the roster. The scenario layer forwards exactly the declared keys from
// its own overrides (scenario::forwardProcessParams), so a knob has one
// spelling, and one domain, across both layers.
//
// Built-in kinds (registerBuiltinProcesses):
//   sim        rls (hybrid), rls_naive, rls_jump
//   protocols  selfish, edm, threshold, repeated, crs
//   ext        speed_rls, weighted_rls
//   graph      graph_rls
//   dynamic    open
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "config/configuration.hpp"
#include "process/process.hpp"
#include "util/params.hpp"

namespace rlslb::process {

struct ProcessSpec {
  std::string kind;         // stable identifier, e.g. "threshold"
  std::string family;       // "sim" | "protocols" | "ext" | "graph" | "dynamic"
  std::string description;  // one line: what dynamic this is
  std::vector<util::ParamSpec> params;
  /// Build a process over (a copy of the state implied by) `initial`,
  /// seeded deterministically. CRS-style dynamics that own their placement
  /// use only the shape (n, m) of `initial`; their spec says so.
  std::function<std::unique_ptr<Process>(const config::Configuration& initial,
                                         std::uint64_t seed, const util::Params& params)>
      make;
};

class ProcessRegistry {
 public:
  /// The process-wide registry used by drivers; fresh instances for tests.
  static ProcessRegistry& global();

  /// Throws std::invalid_argument on a duplicate kind.
  void add(ProcessSpec spec);

  [[nodiscard]] const ProcessSpec* find(const std::string& kind) const;
  /// All specs, kind-sorted.
  [[nodiscard]] std::vector<const ProcessSpec*> list() const;
  [[nodiscard]] std::size_t size() const { return byKind_.size(); }

  /// Construct. Throws std::out_of_range (with the roster) on an unknown
  /// kind, and std::invalid_argument on a value outside its declared
  /// domain (checked before the maker runs) or on parameter keys the kind
  /// ignored. Safe on pool threads: it only reads the registry and
  /// `params`.
  [[nodiscard]] std::unique_ptr<Process> make(const std::string& kind,
                                              const config::Configuration& initial,
                                              std::uint64_t seed,
                                              const util::Params& params = {}) const;

 private:
  std::map<std::string, ProcessSpec> byKind_;
};

/// Register the built-in roster (idempotent on the global registry).
/// Explicit registration, not static initializers, matching the scenario
/// registry's linker-safety rationale.
void registerBuiltinProcesses(ProcessRegistry& registry = ProcessRegistry::global());

/// One-liner over the global registry (registers built-ins on first use).
std::unique_ptr<Process> makeProcess(const std::string& kind,
                                     const config::Configuration& initial, std::uint64_t seed,
                                     const util::Params& params = {});

}  // namespace rlslb::process
