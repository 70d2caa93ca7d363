#include "util/datetime.h"

#include <chrono>
#include <cstdio>
#include <ctime>

namespace snb::util {

std::string FormatTimestamp(TimestampMs ts) {
  std::time_t secs = static_cast<std::time_t>(ts / kMillisPerSecond);
  std::tm tm_utc{};
  gmtime_r(&secs, &tm_utc);
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d",
                tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday,
                tm_utc.tm_hour, tm_utc.tm_min, tm_utc.tm_sec);
  return buf;
}

TimestampMs TimestampFromDate(int year, int month, int day) {
  std::tm tm_utc{};
  tm_utc.tm_year = year - 1900;
  tm_utc.tm_mon = month - 1;
  tm_utc.tm_mday = day;
  std::time_t secs = timegm(&tm_utc);
  return static_cast<TimestampMs>(secs) * kMillisPerSecond;
}

void MonthDayOf(TimestampMs ts, int* month, int* day) {
  // Truncate to the second as the time_t conversion does, then floor to
  // the day: a second before 1970 belongs to the day it falls in.
  constexpr int64_t kSecondsPerDay = kMillisPerDay / kMillisPerSecond;
  int64_t secs = ts / kMillisPerSecond;
  int64_t days = secs / kSecondsPerDay;
  if (secs % kSecondsPerDay < 0) --days;
  std::chrono::year_month_day date{
      std::chrono::sys_days{std::chrono::days{days}}};
  *month = static_cast<int>(static_cast<unsigned>(date.month()));
  *day = static_cast<int>(static_cast<unsigned>(date.day()));
}

}  // namespace snb::util
