#include "protocols/round_protocol.hpp"

#include <algorithm>

namespace rlslb::protocols {

void RoundProtocol::refreshState() const {
  state_.numBins = numBins();
  state_.numBalls = balls_;
  const auto [mn, mx] = std::minmax_element(loads_.begin(), loads_.end());
  state_.minLoad = *mn;
  state_.maxLoad = *mx;
  const std::int64_t ceilAvg = (balls_ + numBins() - 1) / numBins();
  state_.overloadedBalls = 0;
  for (const std::int64_t v : loads_) {
    if (v > ceilAvg) state_.overloadedBalls += v - ceilAvg;
  }
  stateDirty_ = false;
}

}  // namespace rlslb::protocols
