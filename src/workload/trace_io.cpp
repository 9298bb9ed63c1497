#include "workload/trace_io.hpp"

#include <bit>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "report/json.hpp"
#include "util/assert.hpp"

namespace rlslb::workload {

const char* traceFormatName(TraceFormat format) {
  switch (format) {
    case TraceFormat::kJsonl: return "jsonl";
    case TraceFormat::kCsv: return "csv";
    case TraceFormat::kBinary: return "binary";
  }
  RLSLB_ASSERT_MSG(false, "unknown TraceFormat");
  return "?";
}

TraceFormat traceFormatFromPath(const std::string& path) {
  const auto endsWith = [&path](const char* suffix) {
    const std::string s(suffix);
    return path.size() >= s.size() && path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  if (endsWith(".csv")) return TraceFormat::kCsv;
  if (endsWith(".bin")) return TraceFormat::kBinary;
  return TraceFormat::kJsonl;
}

std::string formatTraceEvent(const Event& event) {
  std::string out = "{\"t\":";
  out += report::formatJsonNumber(event.time);
  out += ",\"kind\":\"";
  out += kindName(event.kind);
  out += "\",\"ball\":";
  out += std::to_string(event.ball);
  out += ",\"w\":";
  out += std::to_string(event.weight);
  out += "}";
  return out;
}

bool parseTraceEvent(const std::string& line, Event* out, std::string* error) {
  std::string parseError;
  const report::Json rec = report::Json::parse(line, &parseError);
  if (!parseError.empty()) {
    if (error != nullptr) *error = parseError;
    return false;
  }
  const report::Json* t = rec.find("t");
  const report::Json* kind = rec.find("kind");
  const report::Json* ball = rec.find("ball");
  const report::Json* w = rec.find("w");
  if (t == nullptr || kind == nullptr || ball == nullptr || w == nullptr) {
    if (error != nullptr) *error = "trace event missing one of t/kind/ball/w: " + line;
    return false;
  }
  using Kind = report::Json::Kind;
  if ((t->kind() != Kind::Int && t->kind() != Kind::Double) ||
      kind->kind() != Kind::String || ball->kind() != Kind::Int ||
      w->kind() != Kind::Int) {
    if (error != nullptr) *error = "trace event field of the wrong type: " + line;
    return false;
  }
  EventKind kindValue{};
  if (!kindFromName(kind->asString(), &kindValue)) {
    if (error != nullptr) *error = "unknown trace event kind: " + kind->asString();
    return false;
  }
  out->time = t->asDouble();
  out->kind = kindValue;
  out->ball = ball->asInt();
  out->weight = w->asInt();
  return true;
}

std::string formatTraceEventCsv(const Event& event) {
  std::string out = report::formatJsonNumber(event.time);
  out += ',';
  out += kindName(event.kind);
  out += ',';
  out += std::to_string(event.ball);
  out += ',';
  out += std::to_string(event.weight);
  return out;
}

bool parseTraceEventCsv(const std::string& line, Event* out, std::string* error) {
  const auto fail = [&](const char* message) {
    if (error != nullptr) *error = std::string(message) + ": " + line;
    return false;
  };
  std::size_t fieldStart[4];
  std::size_t fieldEnd[4];
  std::size_t pos = 0;
  for (int f = 0; f < 4; ++f) {
    fieldStart[f] = pos;
    const std::size_t comma = line.find(',', pos);
    if (f < 3) {
      if (comma == std::string::npos) return fail("CSV trace row needs 4 fields");
      fieldEnd[f] = comma;
      pos = comma + 1;
    } else {
      if (comma != std::string::npos) return fail("CSV trace row has extra fields");
      fieldEnd[f] = line.size();
    }
  }
  const auto field = [&](int f) {
    return line.substr(fieldStart[f], fieldEnd[f] - fieldStart[f]);
  };
  const auto parseInt = [&](int f, std::int64_t* value) {
    const std::string text = field(f);
    char* end = nullptr;
    *value = std::strtoll(text.c_str(), &end, 10);
    return end != text.c_str() && *end == '\0';
  };
  {
    const std::string text = field(0);
    char* end = nullptr;
    out->time = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0') return fail("bad CSV timestamp");
  }
  if (!kindFromName(field(1), &out->kind)) return fail("unknown CSV event kind");
  if (!parseInt(2, &out->ball)) return fail("bad CSV ball id");
  if (!parseInt(3, &out->weight)) return fail("bad CSV weight");
  return true;
}

namespace {
void appendLe64(std::string* out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) out->push_back(static_cast<char>((v >> (8 * b)) & 0xff));
}
std::uint64_t readLe64(const unsigned char* bytes) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(bytes[b]) << (8 * b);
  return v;
}
}  // namespace

void appendTraceEventBinary(std::string* out, const Event& event) {
  appendLe64(out, std::bit_cast<std::uint64_t>(event.time));
  out->push_back(static_cast<char>(event.kind));
  appendLe64(out, static_cast<std::uint64_t>(event.ball));
  appendLe64(out, static_cast<std::uint64_t>(event.weight));
}

bool decodeTraceEventBinary(const unsigned char* bytes, Event* out, std::string* error) {
  out->time = std::bit_cast<double>(readLe64(bytes));
  const unsigned char kind = bytes[8];
  if (kind > static_cast<unsigned char>(EventKind::kResample)) {
    if (error != nullptr) *error = "bad binary trace kind byte " + std::to_string(kind);
    return false;
  }
  out->kind = static_cast<EventKind>(kind);
  out->ball = static_cast<std::int64_t>(readLe64(bytes + 9));
  out->weight = static_cast<std::int64_t>(readLe64(bytes + 17));
  return true;
}

RecordingTrace::RecordingTrace(TraceGenerator& inner, std::ostream& out,
                               TraceFormat format)
    : inner_(&inner), out_(&out), format_(format) {
  switch (format_) {
    case TraceFormat::kJsonl: break;
    case TraceFormat::kCsv: *out_ << kTraceCsvHeader << '\n'; break;
    case TraceFormat::kBinary: out_->write(kTraceBinaryMagic, 4); break;
  }
}

bool RecordingTrace::next(Event* out) {
  if (!inner_->next(out)) return false;
  switch (format_) {
    case TraceFormat::kJsonl:
      *out_ << formatTraceEvent(*out) << '\n';
      break;
    case TraceFormat::kCsv:
      *out_ << formatTraceEventCsv(*out) << '\n';
      break;
    case TraceFormat::kBinary: {
      std::string record;
      record.reserve(kTraceBinaryRecordBytes);
      appendTraceEventBinary(&record, *out);
      out_->write(record.data(), static_cast<std::streamsize>(record.size()));
      break;
    }
  }
  return true;
}

namespace {
/// Why a decoded record cannot be served (a negative ball id, or an arrival
/// without positive weight); nullptr when it can.
const char* recordProblem(const Event& event) {
  if (event.ball < 0) return "negative ball id";
  if (event.kind == EventKind::kArrive && event.weight < 1) return "arrive with w < 1";
  return nullptr;
}

/// A corrupt trace is a usage error, never a silent truncation: throw with
/// the position (`unit` is "line" or "byte").
[[noreturn]] void malformed(const char* unit, std::int64_t position,
                            const std::string& what) {
  std::string message = "malformed trace at ";
  message.append(unit).append(" ").append(std::to_string(position));
  message.append(": ").append(what);
  throw std::invalid_argument(message);
}
}  // namespace

bool JsonlTraceReader::next(Event* out) {
  std::string line;
  while (std::getline(*in_, line)) {
    ++line_;
    if (line.empty()) continue;
    std::string error;
    if (!parseTraceEvent(line, out, &error)) malformed("line", line_, error);
    if (const char* problem = recordProblem(*out)) malformed("line", line_, problem);
    return true;
  }
  return false;
}

bool CsvTraceReader::next(Event* out) {
  std::string line;
  while (std::getline(*in_, line)) {
    if (++line_ == 1) {
      if (line == kTraceCsvHeader) continue;
      malformed("line", 1, std::string("missing CSV header ") + kTraceCsvHeader);
    }
    if (line.empty()) continue;
    std::string error;
    if (!parseTraceEventCsv(line, out, &error)) malformed("line", line_, error);
    if (const char* problem = recordProblem(*out)) malformed("line", line_, problem);
    return true;
  }
  return false;
}

bool BinaryTraceReader::next(Event* out) {
  if (offset_ == 0) {
    char magic[4] = {};
    in_->read(magic, 4);
    if (in_->gcount() != 4 || std::string(magic, 4) != kTraceBinaryMagic) {
      malformed("byte", 0, "missing RLT1 binary magic");
    }
    offset_ = 4;
  }
  unsigned char record[kTraceBinaryRecordBytes];
  in_->read(reinterpret_cast<char*>(record), kTraceBinaryRecordBytes);
  const std::streamsize got = in_->gcount();
  if (got == 0) return false;
  if (got != static_cast<std::streamsize>(kTraceBinaryRecordBytes)) {
    std::string what = "truncated record (";
    what.append(std::to_string(got)).append(" of ");
    what.append(std::to_string(kTraceBinaryRecordBytes)).append(" bytes)");
    malformed("byte", offset_, what);
  }
  std::string error;
  if (!decodeTraceEventBinary(record, out, &error)) malformed("byte", offset_, error);
  if (const char* problem = recordProblem(*out)) malformed("byte", offset_, problem);
  offset_ += static_cast<std::int64_t>(kTraceBinaryRecordBytes);
  return true;
}

std::unique_ptr<TraceGenerator> makeTraceReader(std::istream& in, TraceFormat format) {
  switch (format) {
    case TraceFormat::kJsonl: return std::make_unique<JsonlTraceReader>(in);
    case TraceFormat::kCsv: return std::make_unique<CsvTraceReader>(in);
    case TraceFormat::kBinary: return std::make_unique<BinaryTraceReader>(in);
  }
  RLSLB_ASSERT_MSG(false, "unknown TraceFormat");
  return nullptr;
}

std::int64_t countTraceEvents(std::istream& in, TraceFormat format) {
  const std::unique_ptr<TraceGenerator> reader = makeTraceReader(in, format);
  Event event;
  std::int64_t count = 0;
  while (reader->next(&event)) ++count;
  return count;
}

}  // namespace rlslb::workload
