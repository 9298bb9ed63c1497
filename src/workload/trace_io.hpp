// Trace recording and replay in three interchangeable formats.
//
//   JSONL   one record per line, e.g.
//             {"t":1.25,"kind":"arrive","ball":7,"w":1,"rings":3}
//           ("rings" may be omitted on read; it defaults to 0)
//   CSV     "t,kind,ball,w,rings" header then one row per record — the
//           import format for externally produced workloads (spreadsheets,
//           other simulators)
//   binary  "RLT2" magic then fixed 29-byte little-endian records
//           (f64 time, u8 kind, i64 ball, i64 weight, i32 rings) — the
//           compact format for the big capacity-sweep traces
//
// `kind` is "arrive" or "depart"; `rings` counts the RLS clock rings since
// the previous record (workload/event.hpp). A reader rejects, naming the
// line (JSONL/CSV) or byte offset (binary), any record it cannot serve: an
// unparseable one, an unknown kind (including the retired "resample"), a
// negative ball id or ring count, an arrival weight outside [1, 2^31 - 1],
// and the pre-rings layouts (an "RLT1" magic, the 4-column CSV header).
//
// Every format is bit-exact: text timestamps serialize through
// report::formatJsonNumber (shortest round-trip form) and the binary format
// stores the raw f64 bits, so record -> replay reproduces the original
// stream bit-for-bit in any format and format conversions compose without
// loss (pinned by tests/test_workload_compose.cpp). RecordingTrace tees any
// generator into a stream; makeTraceReader builds the matching replay
// generator; traceFormatFromPath picks the format from a file extension.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "workload/generators.hpp"

namespace rlslb::workload {

enum class TraceFormat : std::uint8_t { kJsonl, kCsv, kBinary };

[[nodiscard]] const char* traceFormatName(TraceFormat format);

/// Format implied by a path's extension: ".csv" -> CSV, ".bin" -> binary,
/// anything else (including ".jsonl") -> JSONL.
[[nodiscard]] TraceFormat traceFormatFromPath(const std::string& path);

/// The CSV header row and the binary magic (no trailing newline on either).
inline constexpr const char* kTraceCsvHeader = "t,kind,ball,w,rings";
inline constexpr const char* kTraceBinaryMagic = "RLT2";
inline constexpr std::size_t kTraceBinaryRecordBytes = 29;  // f64 + u8 + 2*i64 + i32

/// One record as a JSONL line (no trailing newline).
[[nodiscard]] std::string formatTraceEvent(const Event& event);

/// Parse one JSONL line. On failure returns false and, when `error` is
/// non-null, stores a message.
[[nodiscard]] bool parseTraceEvent(const std::string& line, Event* out,
                                   std::string* error = nullptr);

/// One record as a CSV row (no trailing newline).
[[nodiscard]] std::string formatTraceEventCsv(const Event& event);

/// Parse one CSV row (not the header). Same error contract as
/// parseTraceEvent.
[[nodiscard]] bool parseTraceEventCsv(const std::string& line, Event* out,
                                      std::string* error = nullptr);

/// Append one fixed-width little-endian record to `out`.
void appendTraceEventBinary(std::string* out, const Event& event);

/// Decode one record from a 29-byte buffer. Returns false on a bad kind
/// byte.
[[nodiscard]] bool decodeTraceEventBinary(const unsigned char* bytes, Event* out,
                                          std::string* error = nullptr);

/// Pass-through generator that appends every emitted event to `out` in the
/// chosen format. Writes the format prologue (CSV header / binary magic) at
/// construction; binary streams must be opened in binary mode by the
/// caller.
class RecordingTrace final : public TraceGenerator {
 public:
  RecordingTrace(TraceGenerator& inner, std::ostream& out,
                 TraceFormat format = TraceFormat::kJsonl);

  bool next(Event* out) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  TraceGenerator* inner_;
  std::ostream* out_;
  TraceFormat format_;
};

/// A replay generator. A record it cannot serve throws
/// std::invalid_argument naming its position, so a corrupt trace never
/// silently truncates an experiment; reject() reports a record that parsed
/// but breaks the stream's invariants the same way.
class TraceReader : public TraceGenerator {
 public:
  [[nodiscard]] std::string name() const override { return "replay"; }
  /// Throw std::invalid_argument naming where the last record returned by
  /// next() starts ("line 7", "byte 33").
  [[noreturn]] void reject(const std::string& what) const;

 protected:
  TraceReader(std::istream& in, const char* unit) : in_(&in), unit_(unit) {}

  std::istream* in_;
  const char* unit_;        // "line" or "byte"
  std::int64_t record_ = 0; // position of the last record returned
};

/// Replay generator over a JSONL stream (blank lines skipped; positions are
/// 1-based lines).
class JsonlTraceReader final : public TraceReader {
 public:
  explicit JsonlTraceReader(std::istream& in) : TraceReader(in, "line") {}
  bool next(Event* out) override;

 private:
  std::int64_t line_ = 0;  // lines consumed
};

/// Replay generator over a CSV stream (header mandatory and verified).
class CsvTraceReader final : public TraceReader {
 public:
  explicit CsvTraceReader(std::istream& in) : TraceReader(in, "line") {}
  bool next(Event* out) override;

 private:
  std::int64_t line_ = 0;  // lines consumed; line 1 is the header
};

/// Replay generator over a binary stream (magic mandatory and verified;
/// positions are byte offsets, so a truncated record names its own).
class BinaryTraceReader final : public TraceReader {
 public:
  explicit BinaryTraceReader(std::istream& in) : TraceReader(in, "byte") {}
  bool next(Event* out) override;

 private:
  std::int64_t offset_ = 0;  // bytes consumed (0 = magic not yet read)
};

/// Replay generator for `format` over `in` (which the factory does not
/// own).
[[nodiscard]] std::unique_ptr<TraceReader> makeTraceReader(std::istream& in,
                                                           TraceFormat format);

/// Count the units in a trace stream — records plus their rings, the work a
/// replay serves — by draining a replay reader (resets nothing; pass a
/// fresh stream). Replay scenarios size their epochs from it before any
/// serving, so this pass also checks what the allocator relies on, off the
/// hot path: timestamps finite and nondecreasing, no departure of a ball
/// that is not live, no arrival of one that is, and no rings while no ball
/// is live. A malformed or invariant-breaking record throws
/// std::invalid_argument here, naming its position.
[[nodiscard]] std::int64_t countTraceEvents(std::istream& in, TraceFormat format);

}  // namespace rlslb::workload
