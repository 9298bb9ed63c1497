#include "scenario/scenario.hpp"

#include <cstdio>
#include <stdexcept>

#include "util/assert.hpp"

namespace rlslb::scenario {

namespace {

/// {"n":"1e6","gap":"2"}: the raw strings, ordered by key, for the
/// scenario_start record.
report::Json paramsToJson(const util::Params& params) {
  report::Json j = report::Json::object();
  for (const auto& [k, v] : params.values()) j.set(k, v);
  return j;
}

}  // namespace

void ScenarioContext::emitTable(const Table& table, const std::string& title) {
  if (console != nullptr) {
    table.print(*console, title);
    *console << '\n';
    if (csv) *console << "CSV <<<\n" << table.toCsv() << ">>>\n\n";
  }
  if (sink != nullptr) sink->writeTable(activeScenario, title, table);
}

void ScenarioContext::emitTimingTable(const Table& table, const std::string& title) {
  if (console != nullptr) {
    table.print(*console, title);
    *console << '\n';
    if (csv) *console << "CSV <<<\n" << table.toCsv() << ">>>\n\n";
  }
  if (sink != nullptr) sink->writeTimingTable(activeScenario, title, table);
}

void ScenarioContext::note(const std::string& text) {
  if (console != nullptr) *console << text << '\n';
}

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::add(Scenario s) {
  RLSLB_ASSERT_MSG(!s.name.empty() && s.run != nullptr, "scenario needs a name and a body");
  const auto [it, inserted] = byName_.emplace(s.name, std::move(s));
  if (!inserted) {
    throw std::invalid_argument("duplicate scenario name: " + it->first);
  }
}

const Scenario* ScenarioRegistry::find(const std::string& name) const {
  const auto it = byName_.find(name);
  return it == byName_.end() ? nullptr : &it->second;
}

std::vector<const Scenario*> ScenarioRegistry::list() const {
  std::vector<const Scenario*> out;
  out.reserve(byName_.size());
  for (const auto& [_, s] : byName_) out.push_back(&s);  // map order = name order
  return out;
}

void ScenarioRegistry::runOne(const std::string& name, ScenarioContext& ctx) const {
  const Scenario* s = find(name);
  if (s == nullptr) {
    std::string known;
    for (const auto& [n, _] : byName_) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::out_of_range("unknown scenario '" + name + "' (known: " + known + ")");
  }
  util::checkParams(ctx.params, s->params, s->name);

  ctx.activeScenario = s->name;
  if (ctx.console != nullptr) {
    *ctx.console << "==============================================================\n"
                 << s->name << "  [" << s->paperRef << "]\n"
                 << "reproduces: " << s->description << "\n"
                 << "scale=" << ctx.scaleName << " seed=" << ctx.seed
                 << " threads=" << ctx.threads << (ctx.threads == 0 ? " (hardware)" : "")
                 << "\n==============================================================\n\n";
  }
  if (ctx.sink != nullptr) {
    ctx.sink->beginScenario(s->name, s->paperRef, paramsToJson(ctx.params));
  }

  // Per-scenario telemetry: the registry starts empty (no stale
  // instruments from the previous scenario) and its merged snapshot lands
  // right before the scenario_end record when anything registered. The
  // conformance roster follows the same lifecycle.
  ctx.metrics.reset();
  ctx.monitors.clear();

  WallTimer wall;
  s->run(ctx);
  const double seconds = wall.seconds();

  if (ctx.sink != nullptr && !ctx.metrics.empty()) {
    ctx.sink->writeMetrics(s->name, ctx.metrics.toJson());
  }
  if (!ctx.monitors.empty()) {
    ctx.monitors.finish();
    const obs::AnomalyLog& log = ctx.monitors.log();
    if (ctx.sink != nullptr) {
      for (std::size_t i = 0; i < log.size(); ++i) {
        ctx.sink->writeAnomaly(s->name, obs::anomalyToJson(log.at(i)));
      }
      ctx.sink->writeConformance(s->name, ctx.monitors.summaryJson());
    }
    ctx.conformanceChecks += ctx.monitors.checks();
    ctx.anomalyWarnings += log.warnings();
    ctx.anomalyErrors += log.errors();
    if (ctx.console != nullptr) {
      *ctx.console << "[conformance] " << ctx.monitors.checks() << " checks, "
                   << log.warnings() << " warnings, " << log.errors() << " errors";
      if (log.dropped() > 0) *ctx.console << " (" << log.dropped() << " dropped)";
      *ctx.console << '\n';
      const std::size_t shown = log.size() < 5 ? log.size() : std::size_t{5};
      for (std::size_t i = 0; i < shown; ++i) {
        const obs::Anomaly& a = log.at(i);
        *ctx.console << "  [" << obs::severityName(a.severity) << "] " << a.monitor
                     << "/" << a.metric << " step " << a.step << ": " << a.detail
                     << " (value " << a.value << ", bound " << a.bound << ")\n";
      }
      if (log.size() > shown) {
        *ctx.console << "  ... " << (log.size() - shown) << " more\n";
      }
      *ctx.console << '\n';
    }
  }
  if (ctx.sink != nullptr) ctx.sink->endScenario(s->name, seconds);
  if (ctx.console != nullptr) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "[%s done in %.1f s]\n\n", s->name.c_str(), seconds);
    *ctx.console << buf;
  }
  ctx.activeScenario.clear();
}

}  // namespace rlslb::scenario
