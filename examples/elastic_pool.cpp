// Elastic worker pool -- the open-system module in its natural habitat.
//
// A fixed fleet of workers (bins) serves jobs (balls) that arrive as a
// Poisson stream and complete at rate mu each. While a job waits it may
// probe a random worker and migrate if that lowers its queue -- RLS as a
// work-stealing substitute. The demo contrasts three regimes at the same
// offered load:
//
//   1. no balancing            (arrivals land uniformly, no migration)
//   2. smart placement          (join-lesser-of-2, no migration)
//   3. RLS migration            (uniform arrivals + migration clocks)
//
// and reports the stationary spread and the p99 queue length -- the
// operational quantity an operator cares about. The simulator keeps only
// how many workers hold each queue length (workers are interchangeable),
// so the p99 is a quantile of that multiset.
//
//   $ ./example_elastic_pool [--workers=64] [--rho=32] [--seed=11]
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "dynamic/open_system.hpp"
#include "stats/summary.hpp"
#include "util/params.hpp"

namespace {

int runElasticPool(int argc, char** argv) {
  using namespace rlslb;
  const util::Params args(argc, argv);
  util::checkParams(args,
                    {{"workers", "int", "64", "workers", {.intMin = 1}},
                     {"rho", "double", "32", "mean jobs per worker", {.min = 0.0, .finite = true}},
                     {"seed", "int", "11", "seed"}},
                    "");
  const std::int64_t workers = args.getInt("workers", 64);
  const double rho = args.getDouble("rho", 32.0);  // mean jobs per worker
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 11));
  args.rejectUnused();

  const double mu = 0.25;
  const double lambda = rho * mu;

  struct Regime {
    const char* name;
    int choices;
    bool rls;
  };
  const Regime regimes[] = {
      {"no balancing", 1, false},
      {"join-lesser-of-2", 2, false},
      {"RLS migration", 1, true},
  };

  std::printf("elastic pool: %lld workers, offered load %.0f jobs/worker (lambda=%.2f, "
              "mu=%.2f)\n\n",
              static_cast<long long>(workers), rho, lambda, mu);
  std::printf("%-18s  %10s  %10s  %10s  %12s\n", "regime", "mean jobs", "spread", "p99 queue",
              "migrations/s");

  for (const auto& regime : regimes) {
    dynamic::OpenSystemOptions opts;
    opts.arrivalRatePerBin = lambda;
    opts.departureRate = mu;
    opts.arrivalChoices = regime.choices;
    opts.gap = regime.rls ? 1 : (1 << 30);  // huge gap = migrations never fire
    dynamic::OpenSystem sys(workers, opts, seed);

    sys.runUntilTime(40.0 / mu);  // warm up to stationarity

    std::vector<double> spreads;
    std::vector<double> p99s;
    const double start = sys.time();
    for (int sample = 0; sample < 120; ++sample) {
      sys.runUntilTime(sys.time() + 0.5 / mu);
      spreads.push_back(static_cast<double>(sys.spread()));
      std::vector<double> queue;
      for (std::int64_t len = sys.minLoad(); len <= sys.maxLoad(); ++len) {
        queue.insert(queue.end(), static_cast<std::size_t>(sys.levelCount(len)),
                     static_cast<double>(len));
      }
      p99s.push_back(stats::quantile(queue, 0.99));
    }
    const double elapsed = sys.time() - start;
    std::printf("%-18s  %10.1f  %10.2f  %10.1f  %12.2f\n", regime.name,
                static_cast<double>(sys.numBalls()),
                stats::summarize(spreads).mean, stats::summarize(p99s).mean,
                static_cast<double>(sys.counters().migrations) / elapsed);
  }

  std::printf("\ntakeaway: placement policies narrow the band; per-job RLS migration\n"
              "flattens it regardless of how jobs arrive, at a modest probe cost.\n");
  return 0;
}

}  // namespace

// A usage error (an unknown flag, a malformed value, a value out of range)
// throws std::invalid_argument: a message and exit 2.
int main(int argc, char** argv) {
  try {
    return runElasticPool(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
