#include "ds/level_index.hpp"

#include <bit>

#include "util/assert.hpp"

namespace rlslb::ds {

bool LevelIndex::fits(const LoadMultiset& ms, std::int64_t domainCap) {
  if (ms.numBins() < 1 || ms.numLevels() == 0) return false;
  const std::int64_t domain = ms.maxLoad() - ms.minLoad() + 1;
  if (domain > domainCap) return false;
  // totalWeight <= sum_v v*cnt(v) * n = m*n must stay well inside int64 so
  // every intermediate sum (and the uniform ticket draw) is exact.
  return weightsFit(ms.numBins(), ms.numBalls());
}

LevelIndex::LevelIndex(const LoadMultiset& ms)
    : offset_(ms.minLoad()),
      domain_(static_cast<std::size_t>(ms.maxLoad() - ms.minLoad() + 1)),
      leaves_(std::bit_ceil(domain_)),
      counts_(domain_) {
  RLSLB_ASSERT_MSG(fits(ms), "LevelIndex: configuration exceeds the index bounds");
  sumW_.assign(2 * leaves_, 0);
  sumB_.assign(2 * leaves_, 0);
  lazy_.assign(2 * leaves_, 0);

  // Leaves: B(x) = x*cnt(x), W(x) = x*cnt(x)*C(x-2) with C from a running
  // prefix over the (sparse) levels.
  std::vector<std::int64_t> cnt(domain_, 0);
  for (const LoadMultiset::Level& lv : ms.levels()) {
    cnt[static_cast<std::size_t>(lv.load - offset_)] = lv.count;
  }
  std::int64_t prefixLag2 = 0;  // sum of cnt[0 .. pos-2] entering iteration pos
  for (std::size_t pos = 0; pos < domain_; ++pos) {
    if (cnt[pos] != 0) counts_.add(pos, cnt[pos]);
    const std::int64_t load = offset_ + static_cast<std::int64_t>(pos);
    sumB_[leaves_ + pos] = load * cnt[pos];
    sumW_[leaves_ + pos] = load * cnt[pos] * prefixLag2;  // C(load-2)
    if (pos + 1 >= 2) prefixLag2 += cnt[pos - 1];
  }
  for (std::size_t i = leaves_ - 1; i >= 1; --i) {
    sumW_[i] = sumW_[2 * i] + sumW_[2 * i + 1];
    sumB_[i] = sumB_[2 * i] + sumB_[2 * i + 1];
  }
}

std::int64_t LevelIndex::countAtMost(std::int64_t load) const {
  if (load < offset_) return 0;
  std::size_t upto = static_cast<std::size_t>(load - offset_) + 1;
  if (upto > domain_) upto = domain_;
  return counts_.prefixSum(upto);
}

std::int64_t LevelIndex::countAt(std::int64_t load) const {
  if (load < offset_ || load >= offset_ + static_cast<std::int64_t>(domain_)) return 0;
  return counts_.get(static_cast<std::size_t>(load - offset_));
}

std::int64_t LevelIndex::minLoad() const {
  RLSLB_ASSERT(counts_.total() > 0);
  return offset_ + static_cast<std::int64_t>(counts_.upperBound(0));
}

std::int64_t LevelIndex::maxLoad() const {
  const std::int64_t total = counts_.total();
  RLSLB_ASSERT(total > 0);
  return offset_ + static_cast<std::int64_t>(counts_.upperBound(total - 1));
}

void LevelIndex::pushDown(std::size_t node) {
  const std::int64_t lambda = lazy_[node];
  if (lambda == 0) return;
  for (std::size_t child = 2 * node; child <= 2 * node + 1; ++child) {
    sumW_[child] += lambda * sumB_[child];
    if (child < leaves_) lazy_[child] += lambda;
  }
  lazy_[node] = 0;
}

std::int64_t LevelIndex::sampleSource(std::int64_t ticket) {
  RLSLB_ASSERT(ticket >= 0 && ticket < sumW_[1]);
  std::size_t node = 1;
  while (node < leaves_) {
    pushDown(node);
    const std::size_t left = 2 * node;
    if (ticket < sumW_[left]) {
      node = left;
    } else {
      ticket -= sumW_[left];
      node = left + 1;
    }
  }
  return offset_ + static_cast<std::int64_t>(node - leaves_);
}

std::int64_t LevelIndex::sampleDest(std::int64_t ticket) const {
  // counts_.upperBound performs inverse-CDF sampling over bin counts; the
  // caller bounds the ticket by countAtMost(v-2), so the result is always
  // a level <= v-2.
  return offset_ + static_cast<std::int64_t>(counts_.upperBound(ticket));
}

void LevelIndex::pointUpdate(std::size_t node, std::size_t lo, std::size_t hi, std::size_t pos,
                             std::int64_t wAdd, std::int64_t bAdd) {
  if (lo == hi) {
    sumW_[node] += wAdd;
    sumB_[node] += bAdd;
    return;
  }
  pushDown(node);
  const std::size_t mid = lo + (hi - lo) / 2;
  if (pos <= mid) {
    pointUpdate(2 * node, lo, mid, pos, wAdd, bAdd);
  } else {
    pointUpdate(2 * node + 1, mid + 1, hi, pos, wAdd, bAdd);
  }
  sumW_[node] = sumW_[2 * node] + sumW_[2 * node + 1];
  sumB_[node] = sumB_[2 * node] + sumB_[2 * node + 1];
}

void LevelIndex::rangeAddScaled(std::size_t node, std::size_t lo, std::size_t hi,
                                std::size_t from, std::int64_t lambda) {
  if (hi < from) return;
  if (from <= lo) {
    sumW_[node] += lambda * sumB_[node];
    if (node < leaves_) lazy_[node] += lambda;
    return;
  }
  pushDown(node);
  const std::size_t mid = lo + (hi - lo) / 2;
  rangeAddScaled(2 * node, lo, mid, from, lambda);
  rangeAddScaled(2 * node + 1, mid + 1, hi, from, lambda);
  sumW_[node] = sumW_[2 * node] + sumW_[2 * node + 1];
}

void LevelIndex::applyCountDelta(std::int64_t load, std::int64_t delta) {
  const std::size_t pos = static_cast<std::size_t>(load - offset_);
  RLSLB_ASSERT(pos < domain_);
  // W's own term x*cnt(x)*C(x-2) changes by delta*x*C(x-2); C(x-2) does not
  // include x itself, so it is unaffected by this count change.
  const std::int64_t wAdd = delta * load * countAtMost(load - 2);
  counts_.add(pos, delta);
  pointUpdate(1, 0, leaves_ - 1, pos, wAdd, delta * load);
  // Every level v >= load+2 sees C(v-2) change by delta: W(v) += delta*B(v).
  if (pos + 2 < domain_) rangeAddScaled(1, 0, leaves_ - 1, pos + 2, delta);
}

void LevelIndex::applyBallMove(std::int64_t v, std::int64_t u) {
  RLSLB_ASSERT_MSG(v >= u + 2, "LevelIndex::applyBallMove requires from >= to + 2");
  RLSLB_ASSERT(countAt(v) > 0 && countAt(u) > 0);
  applyCountDelta(v, -1);
  applyCountDelta(v - 1, +1);
  applyCountDelta(u, -1);
  applyCountDelta(u + 1, +1);
}

LoadMultiset LevelIndex::toMultiset() const {
  std::vector<LoadMultiset::Level> levels;
  for (std::size_t pos = 0; pos < domain_; ++pos) {
    const std::int64_t cnt = counts_.get(pos);
    if (cnt > 0) levels.push_back({offset_ + static_cast<std::int64_t>(pos), cnt});
  }
  return LoadMultiset::fromLevels(std::move(levels));
}

}  // namespace rlslb::ds
