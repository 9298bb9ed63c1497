// Scoped tracing spans emitting Chrome trace-event JSON.
//
// A TraceWriter buffers "X" (complete) span events and "C" (counter)
// trajectory events on per-thread *tracks* and serializes them as the
// {"traceEvents":[...]} document chrome://tracing and Perfetto
// (ui.perfetto.dev) load directly. The serving loop wraps its phases
// (decide / apply / repair) in Spans on the main track;
// runner::ThreadPool records one "job" span per worker
// participation on that worker's track, so a trace shows exactly which
// worker ran which slice of which phase.
//
// Cost model:
//   - Compile-time off (RLSLB_TRACING=0, the CMake option): every class
//     below collapses to an empty inline stub -- no events, no clock
//     reads, no output; writeTo()/writeFile() report failure so drivers
//     can warn that --trace-out was ignored.
//   - Compiled in but not attached (writer pointer null): a Span is one
//     pointer test; the pool's per-job hook is one pointer test per job.
//     This is the default state of every run, so tracing support costs
//     nothing when unused (pinned by tests/test_obs.cpp).
//   - Attached: ~two steady_clock reads + one vector push per span.
//     Recording may allocate (track buffers grow); the zero-allocation
//     contract applies to the *untraced* hot path only.
//
// Threading: track t's buffer is written only by the thread whose
// thread-local current track is t (workers are assigned tracks 1..N at
// pool construction; the calling thread is track 0). One pool at a time
// per writer -- the scenario layer attaches the writer to the shared
// context pool only.
//
// All name/category/key strings passed to the writer must have static
// storage duration (string literals): events store the pointers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#ifndef RLSLB_TRACING
#define RLSLB_TRACING 1
#endif

namespace rlslb::obs {

inline constexpr bool kTracingCompiledIn = RLSLB_TRACING != 0;

/// Microseconds since a process-wide steady epoch (first use). Always
/// compiled -- the metrics layer's phase timers share this clock, so
/// phase attribution works with tracing compiled out.
[[nodiscard]] double nowUs() noexcept;

#if RLSLB_TRACING

/// Track of the calling thread (0 = main/caller; workers get 1..N).
[[nodiscard]] int currentTrack() noexcept;
void setCurrentTrack(int track) noexcept;

class TraceWriter {
 public:
  /// `maxTracks` bounds the per-thread buffers; track ids clamp into
  /// [0, maxTracks).
  explicit TraceWriter(int maxTracks = 64);

  /// obs::nowUs() -- kept on the class so call sites read naturally.
  [[nodiscard]] static double now() noexcept { return nowUs(); }

  /// Record a complete ("X") span on the calling thread's track.
  void complete(const char* name, const char* cat, double beginUs, double endUs);
  /// Record a counter ("C") sample on the calling thread's track --
  /// renders as a trajectory lane in Perfetto.
  void counter(const char* name, const char* key, double tsUs, double value);

  /// Optional display name for a track ("main", "worker 3", ...); unnamed
  /// tracks get a generated one at write time.
  void setTrackName(int track, std::string name);

  [[nodiscard]] std::size_t eventCount() const;

  /// Serialize the full trace document. Returns false when the stream is
  /// bad. Call only after all recording threads have quiesced.
  bool writeTo(std::ostream& out) const;
  /// writeTo() into `path`; false on open/IO failure.
  bool writeFile(const std::string& path) const;

  /// Drop all buffered events (registered track names survive).
  void clear();

 private:
  struct Event {
    const char* name = nullptr;
    const char* cat = nullptr;  // doubles as the counter key for 'C'
    double ts = 0.0;
    double dur = 0.0;    // 'X' only
    double value = 0.0;  // 'C' only
    char ph = 'X';
  };
  struct Track {
    std::vector<Event> events;
    std::string name;
  };
  std::vector<Track> tracks_;

  Track& trackForCurrentThread();
};

/// RAII span: records a complete event on destruction. Null writer = two
/// pointer tests and nothing else.
class Span {
 public:
  Span(TraceWriter* writer, const char* name, const char* cat = "phase") noexcept
      : writer_(writer), name_(name), cat_(cat),
        begin_(writer != nullptr ? nowUs() : 0.0) {}
  ~Span() {
    if (writer_ != nullptr) writer_->complete(name_, cat_, begin_, nowUs());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceWriter* writer_;
  const char* name_;
  const char* cat_;
  double begin_;
};

#else  // RLSLB_TRACING == 0: inline no-op stubs with the identical API.

inline int currentTrack() noexcept { return 0; }
inline void setCurrentTrack(int) noexcept {}

class TraceWriter {
 public:
  explicit TraceWriter(int = 64) {}
  [[nodiscard]] static double now() noexcept { return 0.0; }
  void complete(const char*, const char*, double, double) {}
  void counter(const char*, const char*, double, double) {}
  void setTrackName(int, std::string) {}
  [[nodiscard]] std::size_t eventCount() const { return 0; }
  bool writeTo(std::ostream&) const { return false; }
  bool writeFile(const std::string&) const { return false; }
  void clear() {}
};

class Span {
 public:
  Span(TraceWriter*, const char*, const char* = "phase") noexcept {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

#endif  // RLSLB_TRACING

}  // namespace rlslb::obs
