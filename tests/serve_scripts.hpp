// Scripted serving traces shared by tests/test_capacity.cpp and
// tests/test_serve_differential.cpp: a record-list builder, a trace over a
// fixed record list, and the churn script aimed at the allocator's
// prefetch windows.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/xoshiro256pp.hpp"
#include "workload/event.hpp"
#include "workload/generators.hpp"

namespace rlslb::serve::scripts {

/// Builds a scripted record list: ring() counts a clock ring (only while a
/// ball is live), and the next record pushed carries the rings counted
/// since the last one, as a generator's would.
struct ScriptBuilder {
  std::vector<workload::Event> events;
  std::int32_t rings = 0;
  double t = 0.0;
  void push(workload::EventKind kind, std::int64_t slot, std::int64_t weight) {
    events.push_back({t += 1.0, kind, rings, slot, weight});
    rings = 0;
  }
};

/// A fixed record list as a trace.
class ScriptedTrace final : public workload::TraceGenerator {
 public:
  explicit ScriptedTrace(std::vector<workload::Event> events) : events_(std::move(events)) {}
  bool next(workload::Event* out) override {
    if (next_ == events_.size()) return false;
    *out = events_[next_++];
    return true;
  }
  [[nodiscard]] std::string name() const override { return "scripted"; }

 private:
  std::vector<workload::Event> events_;
  std::size_t next_ = 0;
};

/// Churn aimed at the allocator's prefetch windows (record hints 16 and 8
/// records ahead, ring hints 16 and 8 draws ahead): balls that arrive and
/// depart within a few records, the newest live ball departing, bursts of
/// rings around them (so ring hints name slots that a departure empties
/// first), and two drains to an empty system, each followed by a restart
/// whose departures are hinted while no ball is live. Balls carry labels,
/// which set their weights: `weighted` gives every ball from label 4 on a
/// weight in 2..5 (the records are otherwise the same), so the weight
/// array is allocated inside the windows, and a pair arriving in swapped
/// label order swaps its weights.
inline std::vector<workload::Event> prefetchWindowScript(bool weighted) {
  rng::Xoshiro256pp eng(16);
  ScriptBuilder script;
  std::vector<std::int64_t> live;  // the live balls' labels, in slot order
  std::int64_t nextBall = 0;
  const auto arrive = [&](std::int64_t ball) {
    script.push(workload::EventKind::kArrive, static_cast<std::int64_t>(live.size()),
                weighted && ball >= 4 ? 2 + ball % 4 : 1);
    live.push_back(ball);
  };
  const auto depart = [&](std::size_t i) {
    script.push(workload::EventKind::kDepart, static_cast<std::int64_t>(i), 0);
    live[i] = live.back();
    live.pop_back();
  };
  const auto ring = [&](int k) {
    if (!live.empty()) script.rings += k;
  };
  const auto anyLive = [&] {
    return static_cast<std::size_t>(rng::uniformIndex(eng, live.size()));
  };
  for (int round = 0; round < 2; ++round) {
    // Restart from empty: the first departures are hinted while no ball
    // is live.
    const std::int64_t b = nextBall;
    arrive(b + 1);
    depart(live.size() - 1);
    for (std::int64_t k = 2; k <= 5; ++k) {
      arrive(b + k);
      depart(live.size() - 1);
    }
    arrive(b + 6);
    arrive(b);
    depart(live.size() - 1);
    nextBall = b + 7;
    // Fill, a ring after every second arrival.
    for (int k = 0; k < 60; ++k) {
      arrive(nextBall++);
      arrive(nextBall++);
      ring(1);
    }
    // Short-lived balls, the pair arriving in swapped label order, with
    // rings before each departure.
    for (int k = 0; k < 20; ++k) {
      arrive(nextBall + 1);
      arrive(nextBall);
      nextBall += 2;
      ring(1);
      depart(live.size() - 1);
      ring(2);
      depart(live.size() - 1);
    }
    // Random churn, with runs of rings longer than the ring hints' reach.
    for (int k = 0; k < 300; ++k) {
      const std::uint64_t roll = rng::uniformIndex(eng, 10);
      if (live.empty() || roll < 4) {
        arrive(nextBall++);
      } else if (roll < 7) {
        depart(anyLive());
      } else {
        ring(1 + static_cast<int>(rng::uniformIndex(eng, 20)));
      }
    }
    // Drain to empty, ringing in between; the last live ball departs.
    while (!live.empty()) {
      if (rng::uniformIndex(eng, 2) == 0) ring(3);
      depart(anyLive());
    }
  }
  return script.events;
}

/// Units in a record list: each record plus its rings.
inline std::int64_t unitsOf(const std::vector<workload::Event>& events) {
  std::int64_t units = 0;
  for (const workload::Event& e : events) units += 1 + e.rings;
  return units;
}

}  // namespace rlslb::serve::scripts
