#include "report/result_sink.hpp"

#include <chrono>
#include <ostream>

#include "util/assert.hpp"
#include "util/table.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#ifndef RLSLB_GIT_SHA
#define RLSLB_GIT_SHA "unknown"
#endif
#ifndef RLSLB_VERSION_STRING
#define RLSLB_VERSION_STRING "0.0.0"
#endif
#ifndef RLSLB_BUILD_TYPE
#define RLSLB_BUILD_TYPE "unknown"
#endif

namespace rlslb::report {

namespace {

std::string compilerString() {
#if defined(__clang__)
  return std::string("clang ") + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." + std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return std::string("gcc ") + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__) +
         "." + std::to_string(__GNUC_PATCHLEVEL__);
#elif defined(_MSC_VER)
  return std::string("msvc ") + std::to_string(_MSC_VER);
#else
  return "unknown";
#endif
}

std::string hostString() {
#if defined(__unix__) || defined(__APPLE__)
  char buf[256];
  if (gethostname(buf, sizeof(buf)) == 0) {
    buf[sizeof(buf) - 1] = '\0';
    return buf;
  }
#endif
  return "unknown";
}

}  // namespace

RunManifest makeManifest() {
  RunManifest m;
  m.version = RLSLB_VERSION_STRING;
  m.gitSha = RLSLB_GIT_SHA;
  m.compiler = compilerString();
  m.buildType = RLSLB_BUILD_TYPE;
  m.host = hostString();
  m.startedUnixMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
  return m;
}

Json RunManifest::toJson() const {
  Json j = Json::object();
  j.set("type", "manifest");
  j.set("tool", tool);
  j.set("version", version);
  j.set("seed", seed);
  j.set("scale", scaleName);
  j.set("scale_factor", scale);
  j.set("reps", reps);
  j.set("threads_requested", threadsRequested);
  j.set("threads_resolved", threadsResolved);
  j.set("git_sha", gitSha);
  j.set("compiler", compiler);
  j.set("build_type", buildType);
  j.set("host", host);
  j.set("started_unix_ms", startedUnixMs);
  return j;
}

Json tableToJson(const Table& table, const std::string& title) {
  Json headers = Json::array();
  for (std::size_t c = 0; c < table.numCols(); ++c) headers.push(table.header(c));
  Json rows = Json::array();
  for (std::size_t r = 0; r < table.numRows(); ++r) {
    Json row = Json::array();
    for (std::size_t c = 0; c < table.numCols(); ++c) row.push(table.at(r, c));
    rows.push(std::move(row));
  }
  Json j = Json::object();
  j.set("title", title);
  j.set("headers", std::move(headers));
  j.set("rows", std::move(rows));
  return j;
}

void ResultSink::writeLine(const Json& record) {
  RLSLB_ASSERT_MSG(record.isObject() && record.find("type") != nullptr,
                   "every JSONL record is an object with a \"type\" field");
  if (out_ == nullptr) return;
  *out_ << record.dump() << '\n';
  out_->flush();  // each line is a complete record even if the run dies
}

void ResultSink::writeManifest(const RunManifest& manifest) {
  if (out_ == nullptr) return;
  writeLine(manifest.toJson());
}

void ResultSink::beginScenario(const std::string& name, const std::string& paperRef,
                               const Json& params) {
  if (out_ == nullptr) return;
  Json j = Json::object();
  j.set("type", "scenario_start");
  j.set("scenario", name);
  j.set("paper_ref", paperRef);
  j.set("params", params);
  writeLine(j);
}

void ResultSink::writeTable(const std::string& scenario, const std::string& title,
                            const Table& table) {
  if (out_ == nullptr) return;
  Json j = tableToJson(table, title);
  Json rec = Json::object();
  rec.set("type", "table");
  rec.set("scenario", scenario);
  rec.set("title", j.at("title"));
  rec.set("headers", j.at("headers"));
  rec.set("rows", j.at("rows"));
  writeLine(rec);
}

void ResultSink::writeTimingTable(const std::string& scenario, const std::string& title,
                                  const Table& table) {
  if (out_ == nullptr) return;
  Json j = tableToJson(table, title);
  Json rec = Json::object();
  rec.set("type", "timing");
  rec.set("scenario", scenario);
  rec.set("title", j.at("title"));
  rec.set("headers", j.at("headers"));
  rec.set("rows", j.at("rows"));
  writeLine(rec);
}

void ResultSink::writeThroughput(const std::string& scenario, const Json& fields) {
  if (out_ == nullptr) return;
  RLSLB_ASSERT_MSG(fields.isObject(), "throughput fields must be a JSON object");
  Json rec = Json::object();
  rec.set("type", "throughput");
  rec.set("scenario", scenario);
  for (const std::string& key : fields.keys()) rec.set(key, fields.at(key));
  writeLine(rec);
}

void ResultSink::writeMetrics(const std::string& scenario, const Json& snapshot) {
  if (out_ == nullptr) return;
  RLSLB_ASSERT_MSG(snapshot.isObject(), "metrics snapshot must be a JSON object");
  Json rec = Json::object();
  rec.set("type", "metrics");
  rec.set("scenario", scenario);
  for (const std::string& key : snapshot.keys()) rec.set(key, snapshot.at(key));
  writeLine(rec);
}

void ResultSink::writeAnomaly(const std::string& scenario, const Json& anomaly) {
  if (out_ == nullptr) return;
  RLSLB_ASSERT_MSG(anomaly.isObject(), "anomaly payload must be a JSON object");
  Json rec = Json::object();
  rec.set("type", "anomaly");
  rec.set("scenario", scenario);
  for (const std::string& key : anomaly.keys()) rec.set(key, anomaly.at(key));
  writeLine(rec);
}

void ResultSink::writeConformance(const std::string& scenario, const Json& summary) {
  if (out_ == nullptr) return;
  RLSLB_ASSERT_MSG(summary.isObject(), "conformance summary must be a JSON object");
  Json rec = Json::object();
  rec.set("type", "conformance");
  rec.set("scenario", scenario);
  for (const std::string& key : summary.keys()) rec.set(key, summary.at(key));
  writeLine(rec);
}

void ResultSink::writeFrontier(const std::string& scenario, const Json& cell) {
  if (out_ == nullptr) return;
  RLSLB_ASSERT_MSG(cell.isObject(), "frontier cell must be a JSON object");
  Json rec = Json::object();
  rec.set("type", "frontier");
  rec.set("scenario", scenario);
  for (const std::string& key : cell.keys()) rec.set(key, cell.at(key));
  writeLine(rec);
}

void ResultSink::endScenario(const std::string& name, double wallSeconds) {
  if (out_ == nullptr) return;
  Json j = Json::object();
  j.set("type", "scenario_end");
  j.set("scenario", name);
  j.set("wall_s", wallSeconds);
  writeLine(j);
}

void ResultSink::writeRecord(const Json& record) { writeLine(record); }

}  // namespace rlslb::report
