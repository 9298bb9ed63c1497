#include "process/registry.hpp"

#include <climits>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/rls.hpp"
#include "dynamic/open_system.hpp"
#include "ext/speed_rls.hpp"
#include "ext/weighted_rls.hpp"
#include "graph/graph_engine.hpp"
#include "graph/topology.hpp"
#include "protocols/crs.hpp"
#include "protocols/edm.hpp"
#include "protocols/repeated.hpp"
#include "protocols/selfish.hpp"
#include "protocols/threshold.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "util/assert.hpp"

namespace rlslb::process {

ProcessRegistry& ProcessRegistry::global() {
  static ProcessRegistry registry;
  return registry;
}

void ProcessRegistry::add(ProcessSpec spec) {
  RLSLB_ASSERT_MSG(!spec.kind.empty() && spec.make != nullptr,
                   "process spec needs a kind and a make function");
  const auto [it, inserted] = byKind_.emplace(spec.kind, std::move(spec));
  if (!inserted) throw std::invalid_argument("duplicate process kind: " + it->first);
}

const ProcessSpec* ProcessRegistry::find(const std::string& kind) const {
  const auto it = byKind_.find(kind);
  return it == byKind_.end() ? nullptr : &it->second;
}

std::vector<const ProcessSpec*> ProcessRegistry::list() const {
  std::vector<const ProcessSpec*> out;
  out.reserve(byKind_.size());
  for (const auto& [_, s] : byKind_) out.push_back(&s);  // map order = kind order
  return out;
}

std::unique_ptr<Process> ProcessRegistry::make(const std::string& kind,
                                               const config::Configuration& initial,
                                               std::uint64_t seed,
                                               const util::Params& params) const {
  const ProcessSpec* spec = find(kind);
  if (spec == nullptr) {
    std::string known;
    for (const auto& [k, _] : byKind_) {
      if (!known.empty()) known += ", ";
      known += k;
    }
    throw std::out_of_range("unknown process kind '" + kind + "' (known: " + known + ")");
  }
  util::checkParams(params, spec->params, kind);
  // Validate against a fresh usage slate so one bag can serve several
  // kinds (and several replication threads) in turn.
  const util::Params local = params.freshCopy();
  std::unique_ptr<Process> process = spec->make(initial, seed, local);
  const auto unused = local.unusedKeys();
  if (!unused.empty()) {
    std::string list;
    for (const auto& k : unused) {
      if (!list.empty()) list += ", ";
      list += k;
    }
    throw std::invalid_argument("process kind '" + kind + "' does not take parameter(s): " +
                                list + " (see `rlslb describe " + kind + "`)");
  }
  return process;
}

namespace {

// Checks that read the start configuration, past the declared domains:
// usage errors thrown before anything is built (the driver turns
// std::invalid_argument into a message and exit 2).
void require(bool ok, const std::string& kind, const std::string& what) {
  if (!ok) throw std::invalid_argument(kind + ": " + what);
}

// ---------------------------------------------------------------- sim ---

using Engine = core::SimOptions::EngineKind;

std::unique_ptr<Process> makeRls(const config::Configuration& initial, std::uint64_t seed,
                                 const util::Params& params) {
  return core::makeEngine(initial, {.engine = Engine::Hybrid,
                                    .seed = seed,
                                    .levelThreshold = params.getInt("level_threshold", 0)});
}

std::unique_ptr<Process> makeRlsNaive(const config::Configuration& initial, std::uint64_t seed,
                                      const util::Params& params) {
  return core::makeEngine(initial, {.engine = Engine::Naive,
                                    .seed = seed,
                                    .gap = static_cast<int>(params.getInt("gap", 1))});
}

std::unique_ptr<Process> makeRlsJump(const config::Configuration& initial, std::uint64_t seed,
                                     const util::Params& params) {
  (void)params;
  return core::makeEngine(initial, {.engine = Engine::Jump, .seed = seed});
}

// ---------------------------------------------------------- protocols ---

std::unique_ptr<Process> makeSelfish(const config::Configuration& initial, std::uint64_t seed,
                                     const util::Params& params) {
  (void)params;
  return std::make_unique<protocols::SelfishRerouting>(initial, seed);
}

std::unique_ptr<Process> makeEdm(const config::Configuration& initial, std::uint64_t seed,
                                 const util::Params& params) {
  (void)params;
  return std::make_unique<protocols::EdmGlobalRerouting>(initial, seed);
}

std::unique_ptr<Process> makeRepeated(const config::Configuration& initial, std::uint64_t seed,
                                      const util::Params& params) {
  (void)params;
  return std::make_unique<protocols::RepeatedBallsIntoBins>(initial, seed);
}

std::unique_ptr<Process> makeThreshold(const config::Configuration& initial, std::uint64_t seed,
                                       const util::Params& params) {
  std::int64_t threshold = params.getInt("threshold", -1);
  if (threshold < 0) threshold = initial.floorAverage();
  const double p = params.getDouble("p", 0.5);
  return std::make_unique<protocols::ThresholdProtocol>(initial, seed, threshold, p);
}

std::unique_ptr<Process> makeCrs(const config::Configuration& initial, std::uint64_t seed,
                                 const util::Params& params) {
  (void)params;
  require(initial.numBins() >= 2, "crs", "needs n >= 2");
  // CRS owns its placement (random candidate pairs + Greedy[2]); only the
  // shape (n, m) of the initial configuration is used.
  return std::make_unique<protocols::CrsProtocol>(initial.numBins(), initial.numBalls(), seed);
}

// ----------------------------------------------------------------- ext ---

std::vector<std::int64_t> speedRoster(const std::string& name, std::int64_t n) {
  std::vector<std::int64_t> speeds(static_cast<std::size_t>(n), 1);
  if (name == "uniform") return speeds;
  if (name == "half2") {
    for (std::int64_t i = n / 2; i < n; ++i) speeds[static_cast<std::size_t>(i)] = 2;
    return speeds;
  }
  if (name == "thirds124") {
    for (std::int64_t i = 0; i < n; ++i) {
      speeds[static_cast<std::size_t>(i)] = i < n / 3 ? 1 : (i < 2 * n / 3 ? 2 : 4);
    }
    return speeds;
  }
  RLSLB_ASSERT(name == "one_fast8");
  speeds[static_cast<std::size_t>(n - 1)] = 8;
  return speeds;
}

std::unique_ptr<Process> makeSpeedRls(const config::Configuration& initial, std::uint64_t seed,
                                      const util::Params& params) {
  return std::make_unique<ext::SpeedRlsEngine>(
      initial, speedRoster(params.getString("speeds", "uniform"), initial.numBins()), seed);
}

std::unique_ptr<Process> makeWeightedRls(const config::Configuration& initial,
                                         std::uint64_t seed, const util::Params& params) {
  const std::int64_t n = initial.numBins();
  const std::int64_t m = initial.numBalls();
  require(m >= 1, "weighted_rls", "needs at least one ball");

  // Weights: unit keeps one ball per load unit; the skewed rosters keep the
  // expected total weight comparable to m with 1/4 as many balls (the E11
  // convention).
  const std::string dist = params.getString("weights", "unit");
  rng::Xoshiro256pp weightEng(seed ^ 0xfeed);
  std::vector<std::int64_t> weights;
  if (dist == "unit") {
    weights.assign(static_cast<std::size_t>(m), 1);
  } else if (dist == "uniform8") {
    weights.resize(static_cast<std::size_t>(std::max<std::int64_t>(1, m / 4)));
    for (auto& w : weights) w = 1 + static_cast<std::int64_t>(rng::uniformIndex(weightEng, 8));
  } else {
    RLSLB_ASSERT(dist == "bimodal16");
    weights.resize(static_cast<std::size_t>(std::max<std::int64_t>(1, m / 4)));
    for (auto& w : weights) w = rng::bernoulli(weightEng, 0.1) ? 16 : 1;
  }

  // Start bins follow the configuration's shape: ball b sits where the
  // (b mod m)-th ball of `initial` sits, so allInOne puts every weighted
  // ball on bin 0 and balanced spreads them evenly.
  std::vector<std::uint32_t> flat;
  flat.reserve(static_cast<std::size_t>(m));
  for (std::int64_t bin = 0; bin < n; ++bin) {
    for (std::int64_t k = 0; k < initial.load(static_cast<std::size_t>(bin)); ++k) {
      flat.push_back(static_cast<std::uint32_t>(bin));
    }
  }
  std::vector<std::uint32_t> start(weights.size());
  for (std::size_t b = 0; b < start.size(); ++b) start[b] = flat[b % flat.size()];

  return std::make_unique<ext::WeightedRlsEngine>(n, std::move(weights), std::move(start),
                                                 seed);
}

// --------------------------------------------------------------- graph ---

std::unique_ptr<Process> makeGraphRls(const config::Configuration& initial, std::uint64_t seed,
                                      const util::Params& params) {
  const std::int64_t n = initial.numBins();
  const std::string name = params.getString("topology", "complete");
  const auto gap = static_cast<int>(params.getInt("gap", 1));
  const auto need = [&](bool ok, const std::string& what) {
    require(ok, "graph_rls", "topology=" + name + " needs " + what + " (n = " +
                                 std::to_string(n) + ")");
  };
  auto topology = std::make_shared<graph::Topology>([&] {
    if (name == "complete") {
      need(n >= 2, "n >= 2");
      return graph::Topology::complete(n);
    }
    if (name == "cycle") {
      need(n >= 3, "n >= 3");
      return graph::Topology::cycle(n);
    }
    if (name == "hypercube") {
      int dim = 0;
      while ((std::int64_t{1} << dim) < n) ++dim;
      need(dim >= 1 && dim <= 30 && (std::int64_t{1} << dim) == n, "n = 2^d, 1 <= d <= 30");
      return graph::Topology::hypercube(dim);
    }
    if (name == "torus") {
      const auto side = static_cast<std::int64_t>(std::llround(std::sqrt(static_cast<double>(n))));
      need(side >= 3 && side * side == n, "a square n >= 9");
      return graph::Topology::torus(side, side);
    }
    RLSLB_ASSERT(name == "random_regular");
    const std::int64_t degree = params.getInt("degree", 4);
    need(degree < n && (n * degree) % 2 == 0, "degree < n and n * degree even");
    // Topology randomness rides a dedicated stream off the process seed,
    // so the graph is deterministic per (seed, degree).
    rng::Xoshiro256pp topoEng(rng::streamSeed(seed, 0x746f706fULL));  // "topo"
    return graph::Topology::randomRegular(n, static_cast<int>(degree), topoEng);
  }());

  return std::make_unique<graph::GraphRlsEngine>(initial, std::move(topology), seed, gap);
}

// -------------------------------------------------------------- dynamic ---

std::unique_ptr<Process> makeOpen(const config::Configuration& initial, std::uint64_t seed,
                                  const util::Params& params) {
  dynamic::OpenSystemOptions options;
  options.arrivalRatePerBin = params.getDouble("lambda", 0.5);
  options.departureRate = params.getDouble("mu", 1.0);
  options.arrivalChoices = static_cast<int>(params.getInt("d", 1));
  options.gap = static_cast<int>(params.getInt("gap", 1));
  return std::make_unique<dynamic::OpenSystem>(initial.numBins(), options, seed, &initial);
}

}  // namespace

namespace {

/// The RLS acceptance gap: a move needs load(src) >= load(dst) + gap.
constexpr util::ParamDomain kGap = {.intMin = 1, .intMax = INT_MAX};

void addBuiltinProcesses(ProcessRegistry& registry) {
  registry.add({"rls", "sim",
                "the paper's RLS via the hybrid engine (naive until few levels, then jump)",
                {{"level_threshold", "int", "0",
                  "switch to the jump engine at this many distinct loads (0 = default 96)",
                  {.intMin = 0}}},
                makeRls});
  registry.add({"rls_naive", "sim",
                "ground-truth RLS simulating every activation",
                {{"gap", "int", "1",
                  "move iff load(src) >= load(dst) + gap (1 = paper, 2 = strict variant)",
                  kGap}},
                makeRlsNaive});
  registry.add({"rls_jump", "sim",
                "event-skipping exact simulator of the lumped RLS chain",
                {},
                makeRlsJump});

  registry.add({"selfish", "protocols",
                "synchronous selfish rerouting [4]: damped uniform-sample migration rounds",
                {},
                makeSelfish});
  registry.add({"edm", "protocols",
                "Even-Dar--Mansour global-average rerouting [10]",
                {},
                makeEdm});
  registry.add({"threshold", "protocols",
                "fixed-threshold synchronous protocol [1]",
                {{"threshold", "int", "-1 (= floor(m/n))", "balls above this load migrate",
                  {.intMin = -1}},
                 {"p", "double", "0.5", "per-ball migration probability",
                  {.min = 0.0, .max = 1.0, .minExclusive = true}}},
                makeThreshold});
  registry.add({"repeated", "protocols",
                "repeated balls-into-bins [2]: every non-empty bin re-throws one ball per round",
                {},
                makeRepeated});
  registry.add({"crs", "protocols",
                "CRS local search [9] over per-ball candidate pairs (uses only the (n, m) "
                "shape of the initial configuration; placement is Greedy[2], seed-derived)",
                {},
                makeCrs});

  registry.add({"speed_rls", "ext",
                "bins with speeds: strict-improvement RLS to Nash equilibrium (Section 7)",
                {{"speeds", "string", "uniform", "speed roster",
                  {.choices = "uniform|half2|thirds124|one_fast8"}}},
                makeSpeedRls});
  registry.add({"weighted_rls", "ext",
                "weighted balls: non-worsening RLS to Nash equilibrium (Section 7); the "
                "balance view is in weight units",
                {{"weights", "string", "unit", "ball-weight distribution",
                  {.choices = "unit|uniform8|bimodal16"}}},
                makeWeightedRls});

  registry.add({"graph_rls", "graph",
                "RLS with destinations restricted to a topology's neighbors (Section 7)",
                {{"topology", "string", "complete", "destination graph over the bins",
                  {.choices = "complete|cycle|hypercube|torus|random_regular"}},
                 {"gap", "int", "1", "RLS acceptance gap", kGap},
                 {"degree", "int", "4", "degree of the random_regular topology",
                  {.intMin = 1, .intMax = INT_MAX}}},
                makeGraphRls});

  registry.add({"open", "dynamic",
                "open-system RLS [11]: Poisson arrivals, per-ball departures, RLS migration",
                {{"lambda", "double", "0.5", "arrivals per bin per time unit",
                  {.min = 0.0, .finite = true}},
                 {"mu", "double", "1.0", "per-ball departure (service) rate",
                  {.min = 0.0, .finite = true}},
                 {"d", "int", "1", "arrival samples d bins, joins the least loaded",
                  {.intMin = 1, .intMax = INT_MAX}},
                 {"gap", "int", "1", "RLS acceptance gap", kGap}},
                makeOpen});
}

}  // namespace

void registerBuiltinProcesses(ProcessRegistry& registry) {
  if (&registry == &ProcessRegistry::global()) {
    // makeProcess registers on first use and may be called from thread-pool
    // workers (process::runReplicated), so the global registration must be
    // race-free, not just idempotent.
    static std::once_flag once;
    std::call_once(once, [&registry] { addBuiltinProcesses(registry); });
    return;
  }
  if (registry.find("rls") != nullptr) return;  // idempotent for fresh registries
  addBuiltinProcesses(registry);
}

std::unique_ptr<Process> makeProcess(const std::string& kind,
                                     const config::Configuration& initial, std::uint64_t seed,
                                     const util::Params& params) {
  registerBuiltinProcesses();
  return ProcessRegistry::global().make(kind, initial, seed, params);
}

}  // namespace rlslb::process
