#include "core/dml.hpp"

#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "util/assert.hpp"

namespace rlslb::core {

ReverseLastMoveAdversary::ReverseLastMoveAdversary(double probability)
    : probability_(probability) {
  RLSLB_ASSERT(probability >= 0.0 && probability <= 1.0);
}

void ReverseLastMoveAdversary::afterEvent(sim::NaiveEngine& engine, rng::Xoshiro256pp& eng) {
  const auto& last = engine.lastEvent();
  if (!last.moved) return;
  if (!rng::bernoulli(eng, probability_)) return;
  // Reversing a just-performed valid move is destructive:
  // pre-move load(src) >= load(dst) + 1 implies post-move
  // load(dst) <= load(src) + 1.
  engine.applyForcedMove(last.dst, last.src);
}

RandomPairAdversary::RandomPairAdversary(int attempts) : attempts_(attempts) {
  RLSLB_ASSERT(attempts >= 1);
}

void RandomPairAdversary::afterEvent(sim::NaiveEngine& engine, rng::Xoshiro256pp& eng) {
  const auto& loads = engine.loads();
  const auto n = static_cast<std::uint64_t>(loads.size());
  for (int k = 0; k < attempts_; ++k) {
    const auto a = static_cast<std::size_t>(rng::uniformIndex(eng, n));
    const auto b = static_cast<std::size_t>(rng::uniformIndex(eng, n));
    if (a == b) continue;
    // Move from the lower-loaded bin: load(src) <= load(dst) <= load(dst)+1,
    // destructive by definition.
    const std::size_t src = loads[a] <= loads[b] ? a : b;
    const std::size_t dst = src == a ? b : a;
    if (loads[src] == 0) continue;
    engine.applyForcedMove(src, dst);
  }
}

MinToMaxAdversary::MinToMaxAdversary(double probability) : probability_(probability) {
  RLSLB_ASSERT(probability >= 0.0 && probability <= 1.0);
}

void MinToMaxAdversary::afterEvent(sim::NaiveEngine& engine, rng::Xoshiro256pp& eng) {
  if (!rng::bernoulli(eng, probability_)) return;
  const auto& loads = engine.loads();
  std::size_t lo = 0;
  std::size_t hi = 0;
  for (std::size_t i = 1; i < loads.size(); ++i) {
    if (loads[i] < loads[lo]) lo = i;
    if (loads[i] > loads[hi]) hi = i;
  }
  if (lo == hi || loads[lo] == 0) return;
  engine.applyForcedMove(lo, hi);
}

AdversarialRls::AdversarialRls(const config::Configuration& initial, std::uint64_t seed,
                               DestructiveAdversary& adversary, int gap)
    : engine_(initial, seed, gap),
      adversary_(adversary),
      adversaryEng_(rng::streamSeed(seed, 0xadb3e25a17ULL)) {}

bool AdversarialRls::advance() {
  if (!engine_.advance() && !engine_.stepActivation()) return false;
  adversary_.afterEvent(engine_, adversaryEng_);
  return true;
}

}  // namespace rlslb::core
