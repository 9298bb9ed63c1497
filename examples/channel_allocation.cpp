// Wireless channel allocation -- the second application from the paper's
// introduction ([19]: "balls and bins distributed load balancing algorithm
// for channel allocation").
//
// Clients (balls) attach to channels (bins); a client's interference is
// the number of clients sharing its channel. Each client occasionally
// probes a random channel and switches if the probed channel is no more
// crowded -- exactly RLS. Two regimes are compared:
//
//   * full scanning: a client can probe ANY channel (complete graph);
//   * neighbor scanning: hardware restricts probing to adjacent channels
//     (cycle topology over the spectrum), the Section-7 graph extension.
//
// The demo prints the discrepancy trajectory of both regimes from the same
// worst-case start (all clients piled on channel 0 after an outage) and
// the time each needs to reach perfect balance.
//
//   $ ./example_channel_allocation [--channels=64] [--clients=1024] [--seed=3]
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "config/generators.hpp"
#include "graph/graph_engine.hpp"
#include "graph/topology.hpp"
#include "process/process.hpp"
#include "sim/naive_engine.hpp"
#include "sim/probes.hpp"
#include "util/params.hpp"

namespace {

int runChannelAllocation(int argc, char** argv) {
  using namespace rlslb;
  const util::Params args(argc, argv);
  util::checkParams(args,
                    {{"channels", "int", "64", "channels (a cycle needs 3)", {.intMin = 3}},
                     {"clients", "int", "1024", "clients", {.intMin = 0}},
                     {"seed", "int", "3", "seed"}},
                    "");
  const std::int64_t channels = args.getInt("channels", 64);
  const std::int64_t clients = args.getInt("clients", 1024);
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 3));
  args.rejectUnused();

  const auto start = config::allInOne(channels, clients);
  std::printf("channel allocation: %lld channels, %lld clients, all on channel 0\n\n",
              static_cast<long long>(channels), static_cast<long long>(clients));

  // Regime 1: full scanning (the paper's protocol on the complete graph).
  sim::TrajectoryRecorder fullTraj(1.0);
  sim::NaiveEngine full(start, seed);
  const auto fullRun = process::run(full, process::Target::perfect(), {}, &fullTraj);

  // Regime 2: neighbor scanning (cycle over the spectrum).
  const auto spectrum = graph::Topology::cycle(channels);
  sim::TrajectoryRecorder nbrTraj(1.0);
  graph::GraphRlsEngine neighbor(start, spectrum, seed + 1);
  const auto nbrRun = process::run(neighbor, process::Target::perfect(),
                                   {.maxTime = 1e9, .maxEvents = 500'000'000}, &nbrTraj);

  std::printf("%8s  %22s  %22s\n", "time", "full-scan interference", "nbr-scan interference");
  const auto& fp = fullTraj.points();
  const auto& np = nbrTraj.points();
  for (std::size_t i = 0; i < 12; ++i) {
    const double t = static_cast<double>(i);
    const auto at = [&](const std::vector<sim::TrajectoryRecorder::Point>& pts) {
      double last = pts.front().discrepancy;
      for (const auto& p : pts) {
        if (p.time > t) break;
        last = p.discrepancy;
      }
      return last;
    };
    std::printf("%8.1f  %22.1f  %22.1f\n", t, at(fp), at(np));
  }

  std::printf("\nfull scanning reached perfect balance at t = %.2f\n", fullRun.time);
  std::printf("neighbor scanning reached perfect balance at t = %.2f (%.1fx slower)\n",
              nbrRun.time, nbrRun.time / fullRun.time);
  std::printf("\ntakeaway: RLS needs no coordination either way, but probing locality\n"
              "costs a mixing-time factor (see bench_graphs for the full sweep).\n");
  return 0;
}

}  // namespace

// A usage error (an unknown flag, a malformed value, a value out of range)
// throws std::invalid_argument: a message and exit 2.
int main(int argc, char** argv) {
  try {
    return runChannelAllocation(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
