#include "obs/trace_buffer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "obs/report.h"

namespace snb::obs {
namespace {

/// Process-wide thread numbering for lane assignment. Deliberately
/// separate from the metrics shard counter: a buffer created mid-process
/// still lanes threads densely from wherever the counter stands, and the
/// mapping stays stable for a thread's lifetime.
std::atomic<uint32_t> g_next_lane_id{0};

uint32_t ThisLaneId() {
  thread_local uint32_t id =
      g_next_lane_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Appends one ns timestamp as Chrome-trace microseconds (3 decimals).
void AppendTsUs(std::string* out, uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(ns) / 1000.0);
  *out += buf;
}

/// One renderable span derived from a TraceEvent (either the operation's
/// execution window or its T_GC-wait prefix).
struct Span {
  const char* name;
  uint64_t begin_ns;
  uint64_t end_ns;
  int64_t sched_ns;  // -1: no schedule args.
};

void EmitBegin(std::string* out, bool* first, uint16_t lane,
               const Span& span) {
  if (!*first) *out += ",\n";
  *first = false;
  *out += R"({"ph":"B","pid":0,"tid":)";
  *out += std::to_string(lane);
  *out += ",\"ts\":";
  AppendTsUs(out, span.begin_ns);
  *out += ",\"name\":";
  AppendEscaped(out, span.name);
  if (span.sched_ns >= 0) {
    // Scheduled vs. actual start: the schedule-compliance story per op.
    char buf[96];
    double sched_ms = static_cast<double>(span.sched_ns) / 1e6;
    double lag_ms = (static_cast<double>(span.begin_ns) -
                     static_cast<double>(span.sched_ns)) /
                    1e6;
    std::snprintf(buf, sizeof(buf),
                  ",\"args\":{\"sched_ms\":%.3f,\"lag_ms\":%.3f}", sched_ms,
                  lag_ms);
    *out += buf;
  }
  *out += "}";
}

void EmitEnd(std::string* out, bool* first, uint16_t lane, uint64_t ts_ns) {
  if (!*first) *out += ",\n";
  *first = false;
  *out += R"({"ph":"E","pid":0,"tid":)";
  *out += std::to_string(lane);
  *out += ",\"ts\":";
  AppendTsUs(out, ts_ns);
  *out += "}";
}

/// Chrome-trace counter sample ("C" phase). Counter tracks are keyed by
/// (pid, name), so the lane number is folded into the name to give every
/// driver thread its own track.
void EmitCounter(std::string* out, bool* first, const std::string& name,
                 uint64_t ts_ns, double value) {
  if (!*first) *out += ",\n";
  *first = false;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", value);
  *out += R"({"ph":"C","pid":0,"name":)";
  AppendEscaped(out, name);
  *out += ",\"ts\":";
  AppendTsUs(out, ts_ns);
  *out += ",\"args\":{\"value\":";
  *out += buf;
  *out += "}}";
}

void EmitMetadata(std::string* out, bool* first, const char* name,
                  int64_t tid, const std::string& value) {
  if (!*first) *out += ",\n";
  *first = false;
  *out += R"({"ph":"M","pid":0,"name":")";
  *out += name;
  *out += "\"";
  if (tid >= 0) {
    *out += ",\"tid\":";
    *out += std::to_string(tid);
  }
  *out += R"(,"args":{"name":)";
  AppendEscaped(out, value);
  *out += "}}";
}

}  // namespace

TraceBuffer::TraceBuffer(size_t events_per_lane)
    : events_per_lane_(events_per_lane == 0 ? 1 : events_per_lane),
      base_(std::chrono::steady_clock::now()) {}

uint64_t TraceBuffer::NowNs() const {
  return static_cast<uint64_t>(std::max<int64_t>(
      0, ToBufferNs(std::chrono::steady_clock::now())));
}

int64_t TraceBuffer::ToBufferNs(
    std::chrono::steady_clock::time_point tp) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - base_)
      .count();
}

TraceBuffer::Lane& TraceBuffer::LocalLane() {
  size_t idx = ThisLaneId() & (kMaxLanes - 1);
  // Double-checked lazy construction; lanes_mu_ is touched at most once
  // per (thread, buffer) pair.
  Lane* lane = lanes_[idx].get();
  if (lane == nullptr) {
    util::MutexLock lock(&lanes_mu_);
    if (lanes_[idx] == nullptr) {
      lanes_[idx] = std::make_unique<Lane>();
      lanes_[idx]->ring.reserve(
          std::min<size_t>(events_per_lane_, 1024));
    }
    lane = lanes_[idx].get();
  }
  return *lane;
}

void TraceBuffer::Record(TraceEvent event) {
  Lane& lane = LocalLane();
  event.lane = static_cast<uint16_t>(ThisLaneId() & (kMaxLanes - 1));
  util::MutexLock lock(&lane.mu);
  ++lane.recorded;
  if (lane.ring.size() < events_per_lane_) {
    lane.ring.push_back(event);
    return;
  }
  lane.ring[lane.next] = event;  // Overwrite the oldest; keep the run's tail.
  lane.next = (lane.next + 1) % events_per_lane_;
}

uint64_t TraceBuffer::recorded() const {
  uint64_t total = 0;
  for (const auto& lane : lanes_) {
    if (lane == nullptr) continue;
    util::MutexLock lock(&lane->mu);
    total += lane->recorded;
  }
  return total;
}

uint64_t TraceBuffer::dropped() const {
  uint64_t total = 0;
  for (const auto& lane : lanes_) {
    if (lane == nullptr) continue;
    util::MutexLock lock(&lane->mu);
    total += lane->recorded - lane->ring.size();
  }
  return total;
}

std::vector<TraceBuffer::LaneStats> TraceBuffer::PerLaneStats() const {
  std::vector<LaneStats> out;
  for (size_t i = 0; i < kMaxLanes; ++i) {
    const auto& lane = lanes_[i];
    if (lane == nullptr) continue;
    util::MutexLock lock(&lane->mu);
    LaneStats stats;
    stats.lane = static_cast<uint16_t>(i);
    stats.recorded = lane->recorded;
    stats.retained = lane->ring.size();
    stats.dropped = lane->recorded - lane->ring.size();
    out.push_back(stats);
  }
  return out;
}

std::vector<TraceEvent> TraceBuffer::Events() const {
  std::vector<TraceEvent> out;
  for (const auto& lane : lanes_) {
    if (lane == nullptr) continue;
    util::MutexLock lock(&lane->mu);
    out.insert(out.end(), lane->ring.begin(), lane->ring.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.lane != b.lane) return a.lane < b.lane;
              if (a.exec_begin_ns != b.exec_begin_ns) {
                return a.exec_begin_ns < b.exec_begin_ns;
              }
              return a.end_ns > b.end_ns;  // Parents before children.
            });
  return out;
}

std::string ToChromeTraceJson(const TraceBuffer& buffer) {
  std::vector<TraceEvent> events = buffer.Events();
  std::string out;
  out.reserve(160 * events.size() + 1024);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  EmitMetadata(&out, &first, "process_name", -1, "snb-driver");

  // Per lane: expand each event into (optional gct-wait span, op span),
  // sort by (begin asc, end desc) and emit a properly nested B/E stream
  // via an open-span stack. Events recorded by one thread are nested or
  // disjoint by construction (RAII order); ring overwrites only remove
  // whole events, which preserves that. Child ends are clamped to their
  // parent defensively so the emitted stream stays well-formed even if a
  // clock tie produces a marginal overlap.
  size_t i = 0;
  while (i < events.size()) {
    uint16_t lane = events[i].lane;
    size_t lane_end = i;
    while (lane_end < events.size() && events[lane_end].lane == lane) {
      ++lane_end;
    }
    EmitMetadata(&out, &first, "thread_name", lane,
                 "driver lane " + std::to_string(lane));

    std::vector<Span> spans;
    spans.reserve(2 * (lane_end - i));
    for (size_t e = i; e < lane_end; ++e) {
      const TraceEvent& ev = events[e];
      if (ev.gct_wait_ns > 0) {
        spans.push_back(Span{OpTypeName(OpType::kGctWait), ev.gct_begin_ns,
                             ev.gct_begin_ns + ev.gct_wait_ns, -1});
      }
      spans.push_back(
          Span{OpTypeName(ev.op), ev.exec_begin_ns,
               std::max(ev.end_ns, ev.exec_begin_ns), ev.sched_ns});
    }
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
      return a.end_ns > b.end_ns;
    });

    std::vector<Span> open;
    for (Span span : spans) {
      while (!open.empty() && open.back().end_ns <= span.begin_ns) {
        EmitEnd(&out, &first, lane, open.back().end_ns);
        open.pop_back();
      }
      if (!open.empty()) span.end_ns = std::min(span.end_ns, open.back().end_ns);
      EmitBegin(&out, &first, lane, span);
      open.push_back(span);
    }
    while (!open.empty()) {
      EmitEnd(&out, &first, lane, open.back().end_ns);
      open.pop_back();
    }

    // Hardware-counter tracks: one IPC and one LLC-miss-rate sample per
    // operation that carried a valid counter delta, stamped at the
    // operation's end. Lanes without counters emit nothing, so the
    // counter-less trace is byte-identical to the pre-perf format.
    const std::string lane_tag = " lane " + std::to_string(lane);
    for (size_t e = i; e < lane_end; ++e) {
      const TraceEvent& ev = events[e];
      if (!ev.hw.valid()) continue;
      if (ev.hw.Has(perf::HwMetric::kCycles) &&
          ev.hw.Has(perf::HwMetric::kInstructions)) {
        EmitCounter(&out, &first, "hw.ipc" + lane_tag, ev.end_ns,
                    ev.hw.Ipc());
      }
      if (ev.hw.Has(perf::HwMetric::kLlcLoadMisses) &&
          ev.hw.Has(perf::HwMetric::kInstructions)) {
        EmitCounter(&out, &first, "hw.llc_miss_per_kinstr" + lane_tag,
                    ev.end_ns, ev.hw.LlcMissesPerKiloInstr());
      }
    }
    i = lane_end;
  }

  out += "\n],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace snb::obs
