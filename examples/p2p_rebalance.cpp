// Peer-to-peer rebalancing under churn -- the load-balancing application
// from the paper's introduction ([20]: "load balancing in dynamic
// structured peer-to-peer systems").
//
// Peers (bins) hold data items (balls). The overlay experiences churn:
// peers join empty, or leave and dump their items onto a random survivor
// (the worst-case handoff). Between churn events the items run RLS. The
// demo shows that a constant churn rate keeps the system near-balanced:
// each disruption injects a Theta(avg)-size discrepancy spike and RLS
// flattens it within a few time units (Theorem 1's Phase-1 behaviour), so
// imbalance does not accumulate over the run.
//
//   $ ./example_p2p_rebalance [--peers=256] [--items_per_peer=64]
//                             [--churn_events=40] [--seed=7]
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "config/configuration.hpp"
#include "config/metrics.hpp"
#include "process/process.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/naive_engine.hpp"
#include "util/params.hpp"

namespace {

int runP2pRebalance(int argc, char** argv) {
  using namespace rlslb;
  const util::Params args(argc, argv);
  util::checkParams(args,
                    {{"peers", "int", "256", "initial peers", {.intMin = 1}},
                     {"items_per_peer", "int", "64", "items per initial peer", {.intMin = 0}},
                     {"churn_events", "int", "40", "joins and leaves", {.intMin = 1}},
                     {"seed", "int", "7", "seed"}},
                    "");
  const std::int64_t peers0 = args.getInt("peers", 256);
  const std::int64_t itemsPerPeer = args.getInt("items_per_peer", 64);
  const std::int64_t churnEvents = args.getInt("churn_events", 40);
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 7));
  args.rejectUnused();
  rng::Xoshiro256pp eng(seed);

  // Initial overlay: items spread uniformly across the peers.
  std::vector<std::int64_t> loads(static_cast<std::size_t>(peers0), 0);
  rng::multinomialUniform(eng, peers0 * itemsPerPeer, loads);

  std::printf("P2P overlay: %lld peers, %lld items, RLS interval 4.0 between churn events\n\n",
              static_cast<long long>(peers0), static_cast<long long>(peers0 * itemsPerPeer));
  std::printf("%6s  %6s  %8s  %12s  %11s\n", "event", "peers", "items", "disc(spike)",
              "disc(after)");

  double discSumAfter = 0.0;
  for (std::int64_t event = 0; event < churnEvents; ++event) {
    // Churn: join (empty peer) or leave (items dumped on one survivor).
    if (rng::bernoulli(eng, 0.5) && loads.size() > 2) {
      const auto leaver = static_cast<std::size_t>(rng::uniformIndex(eng, loads.size()));
      auto survivor = static_cast<std::size_t>(rng::uniformIndex(eng, loads.size() - 1));
      if (survivor >= leaver) ++survivor;
      loads[survivor] += loads[leaver];
      loads.erase(loads.begin() + static_cast<std::ptrdiff_t>(leaver));
    } else {
      loads.push_back(0);
    }

    const config::Configuration spiked(loads);
    const double discSpike = config::computeMetrics(spiked).discrepancy;

    // One churn interval of RLS on the labeled overlay.
    sim::NaiveEngine engine(spiked, rng::streamSeed(seed, static_cast<std::uint64_t>(event)));
    process::RunLimits limits;
    limits.maxTime = 4.0;
    process::run(engine, process::Target::perfect(), limits);
    loads = engine.loads();

    const double discAfter = engine.state().discrepancy();
    discSumAfter += discAfter;
    std::printf("%6lld  %6zu  %8lld  %12.2f  %11.2f\n", static_cast<long long>(event),
                loads.size(), static_cast<long long>(engine.state().numBalls), discSpike,
                discAfter);
  }

  std::printf("\nmean post-interval discrepancy: %.2f (flat across the run: spikes do not "
              "accumulate)\n",
              discSumAfter / static_cast<double>(churnEvents));
  return 0;
}

}  // namespace

// A usage error (an unknown flag, a malformed value, a value out of range)
// throws std::invalid_argument: a message and exit 2.
int main(int argc, char** argv) {
  try {
    return runP2pRebalance(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
