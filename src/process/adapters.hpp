// Adapters: every balancing dynamic in the library as a process::Process.
//
// Each adapter can wrap an existing object non-owningly (the legacy
// runUntil* entry points wrap *this on the stack) or own the underlying
// dynamic (registry-constructed processes). underlying() exposes the
// wrapped object for probes, reporting, and the equivalence tests.
//
// Event granularity per family (what one advance() means):
//   EngineProcess    one sim::Engine::step() -- an activation (naive), a
//                    multiset move (jump), whichever stage is live (hybrid),
//                    or a neighbor-restricted activation (graph)
//   RoundProcess     one synchronous round (RoundProtocol::runRound())
//   CrsProcess       one CRS pair draw (never absorbed: neutral swaps can
//                    ping-pong forever, mirroring RLS's neutral moves)
//   SpeedProcess /   one activation of the Section-7 extension engines
//   WeightedProcess  (never absorbed; the Nash test is the target)
//   OpenProcess      one change of the open system's load multiset (an
//                    arrival, a departure or a multiset-changing migration)
#pragma once

#include <algorithm>
#include <memory>
#include <utility>

#include "dynamic/open_system.hpp"
#include "ext/speed_rls.hpp"
#include "ext/weighted_rls.hpp"
#include "process/process.hpp"
#include "protocols/crs.hpp"
#include "protocols/round_protocol.hpp"
#include "sim/engine.hpp"

namespace rlslb::process {

/// Continuous-time sim::Engine family (naive / jump / hybrid / graph).
class EngineProcess final : public Process {
 public:
  /// Non-owning; `engine` must outlive the adapter.
  explicit EngineProcess(sim::Engine& engine, Capabilities caps = defaultCaps())
      : engine_(&engine), caps_(caps) {}
  /// Owning; `extra` keeps construction-time dependencies alive (the graph
  /// kind parks its Topology there).
  EngineProcess(std::unique_ptr<sim::Engine> engine, Capabilities caps,
                std::shared_ptr<void> extra = nullptr)
      : owned_(std::move(engine)), engine_(owned_.get()), extra_(std::move(extra)),
        caps_(caps) {}

  bool advance() override { return engine_->step(); }
  [[nodiscard]] Clock now() const override {
    return {Clock::Kind::Continuous, engine_->time()};
  }
  [[nodiscard]] const sim::BalanceState& state() const override { return engine_->state(); }
  [[nodiscard]] const Capabilities& capabilities() const override { return caps_; }
  [[nodiscard]] std::int64_t moves() const override { return engine_->moves(); }
  [[nodiscard]] std::int64_t activations() const override { return engine_->activations(); }

  [[nodiscard]] sim::Engine& underlying() { return *engine_; }
  [[nodiscard]] const sim::Engine& underlying() const { return *engine_; }

  static Capabilities defaultCaps() {
    Capabilities c;
    c.continuousTime = true;
    c.countsActivations = true;
    c.gapRule = true;
    return c;
  }

 private:
  std::unique_ptr<sim::Engine> owned_;
  sim::Engine* engine_;
  std::shared_ptr<void> extra_;
  Capabilities caps_;
};

/// Synchronous round protocols (selfish / EDM / threshold / repeated).
class RoundProcess final : public Process {
 public:
  explicit RoundProcess(protocols::RoundProtocol& protocol) : protocol_(&protocol) {}
  explicit RoundProcess(std::unique_ptr<protocols::RoundProtocol> protocol)
      : owned_(std::move(protocol)), protocol_(owned_.get()) {}

  bool advance() override {
    protocol_->runRound();
    return true;  // rounds always execute (a fixed point just moves nothing)
  }
  [[nodiscard]] Clock now() const override {
    return {Clock::Kind::Rounds, static_cast<double>(protocol_->roundsTaken())};
  }
  [[nodiscard]] const sim::BalanceState& state() const override { return protocol_->state(); }
  [[nodiscard]] const Capabilities& capabilities() const override { return caps_; }
  [[nodiscard]] std::int64_t moves() const override { return protocol_->moves(); }

  [[nodiscard]] protocols::RoundProtocol& underlying() { return *protocol_; }

 private:
  std::unique_ptr<protocols::RoundProtocol> owned_;
  protocols::RoundProtocol* protocol_;
  Capabilities caps_;  // defaults: synchronous, closed, no gap knob
};

/// CRS local search [9]: sequential pair draws over per-ball candidate sets.
class CrsProcess final : public Process {
 public:
  explicit CrsProcess(protocols::CrsProtocol& crs) : crs_(&crs) { caps_.equilibrium = true; }
  explicit CrsProcess(std::unique_ptr<protocols::CrsProtocol> crs)
      : owned_(std::move(crs)), crs_(owned_.get()) {
    caps_.equilibrium = true;
  }

  bool advance() override {
    crs_->step();
    return true;
  }
  [[nodiscard]] Clock now() const override {
    return {Clock::Kind::Steps, static_cast<double>(crs_->steps())};
  }
  [[nodiscard]] const sim::BalanceState& state() const override { return crs_->state(); }
  [[nodiscard]] const Capabilities& capabilities() const override { return caps_; }
  [[nodiscard]] std::int64_t moves() const override { return crs_->moves(); }

  [[nodiscard]] bool reached(const Target& target) const override {
    if (target.kind == Target::Kind::Equilibrium) return crs_->isLocallyStable();
    return Process::reached(target);
  }
  /// Local stability is an O(m) scan; keep the family's historical n/8
  /// cadence. Balance targets are O(1) on the shared state.
  [[nodiscard]] std::int64_t targetCheckStride(const Target& target) const override {
    if (target.kind == Target::Kind::Equilibrium) {
      return std::max<std::int64_t>(1, crs_->numBins() / 8);
    }
    return 1;
  }

  [[nodiscard]] protocols::CrsProtocol& underlying() { return *crs_; }

 private:
  std::unique_ptr<protocols::CrsProtocol> owned_;
  protocols::CrsProtocol* crs_;
  Capabilities caps_;
};

/// Bins-with-speeds RLS (Section 7, first extension).
class SpeedProcess final : public Process {
 public:
  /// `checkEvery` <= 0 selects the engine's historical default (n/4).
  explicit SpeedProcess(ext::SpeedRlsEngine& engine, std::int64_t checkEvery = 0)
      : engine_(&engine), checkEvery_(checkEvery) {
    initCaps();
  }
  SpeedProcess(std::unique_ptr<ext::SpeedRlsEngine> engine, std::int64_t checkEvery = 0)
      : owned_(std::move(engine)), engine_(owned_.get()), checkEvery_(checkEvery) {
    initCaps();
  }

  bool advance() override {
    engine_->step();
    return true;
  }
  [[nodiscard]] Clock now() const override {
    return {Clock::Kind::Continuous, engine_->time()};
  }
  [[nodiscard]] const sim::BalanceState& state() const override { return engine_->state(); }
  [[nodiscard]] const Capabilities& capabilities() const override { return caps_; }
  [[nodiscard]] std::int64_t moves() const override { return engine_->moves(); }
  [[nodiscard]] std::int64_t activations() const override { return engine_->activations(); }

  [[nodiscard]] bool reached(const Target& target) const override {
    if (target.kind == Target::Kind::Equilibrium) return engine_->isEquilibrium();
    return Process::reached(target);
  }
  [[nodiscard]] std::int64_t targetCheckStride(const Target& target) const override {
    if (target.kind != Target::Kind::Equilibrium) return 1;
    if (checkEvery_ > 0) return checkEvery_;
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(engine_->loads().size()) / 4);
  }

  [[nodiscard]] ext::SpeedRlsEngine& underlying() { return *engine_; }

 private:
  void initCaps() {
    caps_.continuousTime = true;
    caps_.countsActivations = true;
    caps_.weights = true;  // bin speeds weight the experienced load
    caps_.equilibrium = true;
  }

  std::unique_ptr<ext::SpeedRlsEngine> owned_;
  ext::SpeedRlsEngine* engine_;
  std::int64_t checkEvery_;
  Capabilities caps_;
};

/// Weighted-balls RLS (Section 7, second extension). The BalanceState is in
/// weight units (numBalls == total weight).
class WeightedProcess final : public Process {
 public:
  explicit WeightedProcess(ext::WeightedRlsEngine& engine, std::int64_t checkEvery = 0)
      : engine_(&engine), checkEvery_(checkEvery) {
    initCaps();
  }
  WeightedProcess(std::unique_ptr<ext::WeightedRlsEngine> engine, std::int64_t checkEvery = 0)
      : owned_(std::move(engine)), engine_(owned_.get()), checkEvery_(checkEvery) {
    initCaps();
  }

  bool advance() override {
    engine_->step();
    return true;
  }
  [[nodiscard]] Clock now() const override {
    return {Clock::Kind::Continuous, engine_->time()};
  }
  [[nodiscard]] const sim::BalanceState& state() const override { return engine_->state(); }
  [[nodiscard]] const Capabilities& capabilities() const override { return caps_; }
  [[nodiscard]] std::int64_t moves() const override { return engine_->moves(); }
  [[nodiscard]] std::int64_t activations() const override { return engine_->activations(); }

  [[nodiscard]] bool reached(const Target& target) const override {
    if (target.kind == Target::Kind::Equilibrium) return engine_->isEquilibrium();
    return Process::reached(target);
  }
  [[nodiscard]] std::int64_t targetCheckStride(const Target& target) const override {
    if (target.kind != Target::Kind::Equilibrium) return 1;
    if (checkEvery_ > 0) return checkEvery_;
    return std::max<std::int64_t>(
        1, (static_cast<std::int64_t>(engine_->loads().size()) + engine_->numBalls()) / 4);
  }

  [[nodiscard]] ext::WeightedRlsEngine& underlying() { return *engine_; }

 private:
  void initCaps() {
    caps_.continuousTime = true;
    caps_.countsActivations = true;
    caps_.weights = true;
    caps_.equilibrium = true;
  }

  std::unique_ptr<ext::WeightedRlsEngine> owned_;
  ext::WeightedRlsEngine* engine_;
  std::int64_t checkEvery_;
  Capabilities caps_;
};

/// Open-system RLS (Ganesh et al. [11]): arrivals, departures, migration.
/// run() with a maxTime stops after the first event at or past it; use
/// OpenSystem::runUntilTime for the state at a fixed time.
class OpenProcess final : public Process {
 public:
  explicit OpenProcess(dynamic::OpenSystem& system) : system_(&system) { initCaps(); }
  explicit OpenProcess(std::unique_ptr<dynamic::OpenSystem> system)
      : owned_(std::move(system)), system_(owned_.get()) {
    initCaps();
  }

  bool advance() override { return system_->step(); }
  [[nodiscard]] Clock now() const override {
    return {Clock::Kind::Continuous, system_->time()};
  }
  [[nodiscard]] const sim::BalanceState& state() const override { return system_->state(); }
  [[nodiscard]] const Capabilities& capabilities() const override { return caps_; }
  [[nodiscard]] std::int64_t moves() const override { return system_->counters().migrations; }

  [[nodiscard]] dynamic::OpenSystem& underlying() { return *system_; }

 private:
  void initCaps() {
    caps_.continuousTime = true;
    caps_.gapRule = true;
    caps_.openSystem = true;
  }

  std::unique_ptr<dynamic::OpenSystem> owned_;
  dynamic::OpenSystem* system_;
  Capabilities caps_;
};

}  // namespace rlslb::process
