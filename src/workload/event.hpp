// The serving subsystem's unit of traffic: one timestamped workload record.
//
// A trace is an ordered stream of records over anonymous balls, named by
// *live slot*: the live balls form one array, appended on arrival and
// swap-removed on departure (the last live ball fills the hole).
//   - Arrive:   a new ball (job/shard/connection) takes slot = live count,
//               with an integer weight in [1, kMaxBallWeight]; the
//               allocator decides its bin.
//   - Depart:   the ball in a slot below the live count leaves (service
//               completion).
// Generators and the allocator keep the same array, so serving needs no
// ball ids; only trace files name balls (workload/trace_io.hpp).
// Every record also carries `rings`: how many RLS clocks rang since the
// previous record. In the paper each live ball has its own rate-1 clock
// (arXiv 1706.09997, Section 3), and a ring is one activation: a uniform
// live ball samples a uniform destination bin and migrates iff the local-
// search rule accepts. Which ball rang is the *allocator's* draw, not the
// trace's, so a trace only counts the rings; the serving loop runs them,
// before the record's own event, on the live set the earlier records left.
//
// The unit of work is one arrival, one departure or one activation: a
// record is 1 + rings units.
//
// Generators (workload/generators.hpp) produce these streams; the serving
// loop (serve/event_loop.hpp) consumes them. Traces can be recorded to and
// replayed from three formats (workload/trace_io.hpp), so any generated run
// is reproducible byte-for-byte offline.
#pragma once

#include <cstdint>
#include <string_view>

namespace rlslb::workload {

/// The largest ball weight a trace may carry. The allocator's balance
/// tracker walks O(w) load levels per weight-w move, so this bounds the
/// work of one move.
inline constexpr std::int64_t kMaxBallWeight = 65535;

enum class EventKind : std::uint8_t { kArrive = 0, kDepart = 1 };

struct Event {
  double time = 0.0;       // trace timestamp, nondecreasing
  EventKind kind = EventKind::kArrive;
  std::int32_t rings = 0;  // RLS clock rings since the previous record (>= 0)
  std::int64_t slot = 0;   // the ball's live slot (see above)
  std::int64_t weight = 0; // ball weight (in [1, kMaxBallWeight] on Arrive, 0 otherwise)

  friend bool operator==(const Event&, const Event&) = default;
};
// `rings` sits in the padding after `kind`: a record stays 32 bytes.
static_assert(sizeof(Event) == 32);

/// Stable wire name ("arrive" / "depart").
[[nodiscard]] const char* kindName(EventKind kind);
/// Inverse of kindName; returns false on an unknown name.
[[nodiscard]] bool kindFromName(std::string_view name, EventKind* out);

}  // namespace rlslb::workload
