// Logical time for RFID event processing.
//
// The paper treats reader observation timestamps as the only clock; the
// engine's logical clock is the timestamp of the event currently being
// processed. We represent instants (TimePoint) and spans (Duration) as
// int64 microseconds, which covers ±292k years and makes arithmetic on
// temporal constraints exact. Duration literals in the rule language
// ("0.1sec", "10min") are parsed by ParseDuration in duration.h.

#ifndef RFIDCEP_COMMON_TIME_H_
#define RFIDCEP_COMMON_TIME_H_

#include <cstdint>
#include <limits>
#include <string>

namespace rfidcep {

// Instant in microseconds since an arbitrary epoch (the simulator starts
// at 0). Comparable, totally ordered.
using TimePoint = int64_t;

// Span in microseconds. Negative spans are representable (dist() between
// out-of-order events) but never valid as constraints.
using Duration = int64_t;

inline constexpr Duration kMicrosecond = 1;
inline constexpr Duration kMillisecond = 1000 * kMicrosecond;
inline constexpr Duration kSecond = 1000 * kMillisecond;
inline constexpr Duration kMinute = 60 * kSecond;
inline constexpr Duration kHour = 60 * kMinute;

// Sentinel for "no upper bound" (SEQ+ distance, unconstrained WITHIN).
inline constexpr Duration kDurationInfinity =
    std::numeric_limits<Duration>::max();

// Sentinel for "no timestamp yet" / "until changed" end time.
inline constexpr TimePoint kTimeInfinity =
    std::numeric_limits<TimePoint>::max();

// Formats a TimePoint as seconds with microsecond precision, e.g. "12.300s".
std::string FormatTimePoint(TimePoint t);

// Formats a Duration compactly, e.g. "5sec", "0.1sec", "10min", "inf".
std::string FormatDuration(Duration d);

// Saturating addition: t + d clamped to kTimeInfinity, and
// kTimeInfinity whenever d is kDurationInfinity. Used when computing
// expiry deadlines from possibly-infinite constraints. Timestamps come
// from clients and may be negative, so the sum is computed without
// signed overflow; one that would fall below the range clamps to its
// minimum.
inline TimePoint AddSaturating(TimePoint t, Duration d) {
  TimePoint sum = 0;
  if (d == kDurationInfinity || __builtin_add_overflow(t, d, &sum)) {
    return d > 0 ? kTimeInfinity : std::numeric_limits<TimePoint>::min();
  }
  return sum;
}

}  // namespace rfidcep

#endif  // RFIDCEP_COMMON_TIME_H_
