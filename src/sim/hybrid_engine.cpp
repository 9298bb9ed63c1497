#include "sim/hybrid_engine.hpp"

#include "rng/splitmix64.hpp"
#include "util/assert.hpp"

namespace rlslb::sim {

HybridEngine::HybridEngine(const config::Configuration& initial, std::uint64_t seed,
                           std::int64_t levelThreshold, std::int64_t checkInterval)
    : seed_(seed),
      levelThreshold_(levelThreshold > 0 ? levelThreshold : 96),
      checkInterval_(checkInterval) {
  RLSLB_ASSERT(checkInterval_ >= 1);
  JumpEngine::requireWeightsFit(initial.numBins(), initial.numBalls());
  naive_ = std::make_unique<NaiveEngine>(initial, seed);
  maybeSwitch();
}

void HybridEngine::maybeSwitch() {
  if (jump_) return;
  if (static_cast<std::int64_t>(naive_->numDistinctLoads()) > levelThreshold_) return;

  jump_ = std::make_unique<JumpEngine>(ds::LoadMultiset::fromLoads(naive_->loads()),
                                       rng::streamSeed(seed_, 0x6a756d70ULL), naive_->time(),
                                       naive_->moves());
  switchTime_ = naive_->time();
  naive_.reset();
}

bool HybridEngine::advance() {
  if (jump_) return jump_->advance();
  const bool alive = naive_->advance();
  if (++sinceCheck_ >= checkInterval_) {
    sinceCheck_ = 0;
    maybeSwitch();
  }
  return alive;
}

}  // namespace rlslb::sim
