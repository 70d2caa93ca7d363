// Simulation-time utilities.
//
// All SNB timestamps are milliseconds since the Unix epoch in simulation
// time. A standard scale factor covers three years of network activity
// (2010-01-01 .. 2013-01-01): the first 32 months are bulk-loaded and the
// final 4 months become the update stream.
#ifndef SNB_UTIL_DATETIME_H_
#define SNB_UTIL_DATETIME_H_

#include <cstdint>
#include <string>

namespace snb::util {

/// Milliseconds since the Unix epoch, simulation time.
using TimestampMs = int64_t;

inline constexpr int64_t kMillisPerSecond = 1000;
inline constexpr int64_t kMillisPerMinute = 60 * kMillisPerSecond;
inline constexpr int64_t kMillisPerHour = 60 * kMillisPerMinute;
inline constexpr int64_t kMillisPerDay = 24 * kMillisPerHour;
// Calendar-free month: the network timeline maths uses a uniform 30-day
// month, which keeps the 32-month/4-month split exact and deterministic.
inline constexpr int64_t kMillisPerMonth = 30 * kMillisPerDay;
inline constexpr int64_t kMillisPerYear = 365 * kMillisPerDay;

/// 2010-01-01T00:00:00Z — start of the simulated network.
inline constexpr TimestampMs kNetworkStartMs = 1262304000000LL;
/// Total simulated span: 36 months.
inline constexpr int kSimulationMonths = 36;
/// Months included in the bulk load; the remainder feeds the update stream.
inline constexpr int kBulkLoadMonths = 32;

/// End of the simulated timeline.
constexpr TimestampMs NetworkEndMs() {
  return kNetworkStartMs + kSimulationMonths * kMillisPerMonth;
}

/// Timestamp at which the bulk-load/update-stream split occurs.
constexpr TimestampMs UpdateStreamStartMs() {
  return kNetworkStartMs + kBulkLoadMonths * kMillisPerMonth;
}

/// Month index (0-based from network start) containing `ts`. Values outside
/// the timeline clamp to the first/last month.
inline int MonthIndex(TimestampMs ts) {
  int64_t m = (ts - kNetworkStartMs) / kMillisPerMonth;
  if (m < 0) return 0;
  if (m >= kSimulationMonths) return kSimulationMonths - 1;
  return static_cast<int>(m);
}

/// Formats a timestamp as "YYYY-MM-DD hh:mm:ss" (UTC, proleptic calendar).
std::string FormatTimestamp(TimestampMs ts);

/// Timestamp of the given calendar date at midnight UTC.
TimestampMs TimestampFromDate(int year, int month, int day);

/// Month (1-12) and day of month (1-31) of a timestamp, UTC: the fields
/// gmtime_r gives for the timestamp truncated to its second, by calendar
/// arithmetic instead (glibc's gmtime_r takes a process-wide lock).
void MonthDayOf(TimestampMs ts, int* month, int* day);

}  // namespace snb::util

#endif  // SNB_UTIL_DATETIME_H_
