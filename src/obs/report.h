// Machine-readable run reports: report.json.
//
// The LDBC SNB audit rules (arXiv:2001.02299 sec. 7; Interactive v2,
// arXiv:2307.04820) require drivers to publish per-operation-type
// percentile latencies and sustained-throughput evidence as artifacts, not
// stdout prose. RunReport is the artifact: a MetricsSnapshot (per-op
// p50/p90/p95/p99/max, counters, gauges — the layout of Tables 6/7/9),
// optionally a driver section (throughput, scheduling-lag time series), a
// schedule-compliance audit (LDBC-style on-time-fraction pass/fail with a
// lateness histogram and per-op worst offenders) and slow-query dossiers
// whose operator rows break each kept complex read down by plan operator
// (obs/trace.h spans; the Figure 4 choke point).
//
// The JSON schema ("snb-report-v5") is stable and self-validating:
// ValidateReportJson re-parses an emitted document and checks structural
// invariants (non-empty op table, monotone percentiles, compliance
// consistency), which is what the bench smoke mode in scripts/check.sh
// runs. It accepts only the tag ToJson writes, and requires only the tag
// and the "ops" table; every other section is checked when present. A
// deliberately small JSON parser is exposed for tests and validation; it
// reads RFC 8259 documents (objects, arrays, strings, numbers, bools,
// null) and rejects a number outside that grammar or beyond the range of
// a double. The writer's string escaper is exposed too: traces, golden
// sets and fuzz artifacts write their strings through it.
#ifndef SNB_OBS_REPORT_H_
#define SNB_OBS_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/dossier.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/prof.h"
#include "util/status.h"

namespace snb::obs {

// ---- Minimal JSON value / parser (for validation & tests) ----------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

/// Deepest array/object nesting ParseJson accepts. Reports, golden sets
/// and fuzz artifacts nest fewer than ten levels; the cap keeps the
/// recursive parser's stack bounded on hostile input.
inline constexpr size_t kMaxJsonDepth = 256;

/// Parses a complete JSON document. On failure returns false and describes
/// the problem in *error (byte offset + reason); a document nesting deeper
/// than kMaxJsonDepth fails with "nesting too deep".
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

// ---- JSON string writer ------------------------------------------------

/// Appends `s` as a quoted JSON string: quote, backslash, newline, tab and
/// carriage return get their two-character escapes, other control bytes
/// \u00XX. ParseJson reads every such string back byte for byte.
void AppendEscaped(std::string* out, std::string_view s);

/// Appends `"key":`.
void AppendKey(std::string* out, const char* key);

// ---- Report assembly ------------------------------------------------------

/// Driver-level outcome mirrored from driver::DriverReport (obs cannot
/// depend on the driver; the driver converts).
struct DriverSection {
  uint64_t operations_executed = 0;
  uint64_t operations_failed = 0;
  double elapsed_seconds = 0.0;
  double ops_per_second = 0.0;
  double max_schedule_lag_ms = 0.0;
  bool sustained = true;
  uint64_t dependencies_tracked = 0;
  uint64_t dependent_waits = 0;
  /// Scheduling-lag time series: (elapsed real second, max lag ms within
  /// that second). Sustained-throughput evidence over the whole run.
  std::vector<std::pair<double, double>> lag_timeline_ms;
};

/// Per-op-type compliance row ("worst offenders" table).
struct ComplianceOpEntry {
  std::string op;           // Stable dotted name ("complex.Q9").
  uint64_t scheduled = 0;   // Operations with a throttled schedule.
  uint64_t late = 0;        // Started later than the lateness window.
  double max_late_ms = 0.0; // Worst observed lateness.
};

/// Schedule-compliance audit of a throttled run: did operations start at
/// their scheduled simulation time? Mirrors the LDBC driver's validation
/// rule — a run passes when at least `required_on_time_fraction` of
/// scheduled operations start within `window_ms` of their schedule.
struct ComplianceSection {
  double window_ms = 0.0;
  double required_on_time_fraction = 0.0;
  uint64_t scheduled_ops = 0;
  uint64_t on_time_ops = 0;
  double on_time_fraction = 1.0;
  bool passed = true;
  /// Lateness histogram over all scheduled ops: (bucket lower edge in ms,
  /// count). Zero-count buckets are omitted; on-time ops land in the
  /// low buckets, so the histogram always sums to scheduled_ops.
  std::vector<std::pair<double, uint64_t>> lateness_histogram_ms;
  /// Per-op-type rows with at least one scheduled execution, sorted by
  /// max lateness descending — the worst offenders lead.
  std::vector<ComplianceOpEntry> per_op;
};

/// Outcome of a golden-set replay (tools/validate_run). Mirrors
/// snb::validate::ReplayOutcome — obs cannot depend on the validate layer,
/// so the tool converts.
struct ValidationSection {
  bool passed = false;
  std::string golden_path;
  uint64_t threads = 0;
  std::string mode;  // driver::ExecutionModeName rendering.
  uint64_t segments_compared = 0;
  uint64_t ops_compared = 0;
  uint64_t rows_compared = 0;
  uint64_t diffs = 0;
  /// Human-readable first divergence; empty when the replay passed.
  std::string first_divergence;
};

/// Build/run provenance stamped into every report so counter numbers are
/// comparable across machines and configs.
struct ProvenanceSection {
  std::string git_sha;     // HEAD at configure time; "unknown" outside git.
  std::string compiler;    // e.g. "GNU 13.2.0".
  std::string build_type;  // CMAKE_BUILD_TYPE; may be empty.
  std::string sanitizer;   // SNB_SANITIZE value or "none".
};

/// Provenance captured at build time (CMake stamps the values in as
/// compile definitions on the obs library).
ProvenanceSection BuildProvenance();

/// Hardware-counter subsystem outcome for the run.
struct PerfSection {
  std::string backend;  // perf::BackendName: disabled / noop / linux.
  bool counters_available = false;
  std::string message;  // perf::BackendMessage at report time.
};

/// PerfSection describing the perf backend's current state.
PerfSection CurrentPerfSection();

/// Trace-buffer accounting: how much of the run trace was retained and,
/// per lane, how much a wrapped ring dropped.
struct TraceStatsSection {
  uint64_t recorded = 0;
  uint64_t dropped = 0;
  struct LaneRow {
    uint32_t lane = 0;
    uint64_t recorded = 0;
    uint64_t retained = 0;
    uint64_t dropped = 0;
  };
  std::vector<LaneRow> lanes;
};

/// Sampling-CPU-profiler outcome: backend state, conserved sample
/// accounting and the hottest frames per operation type. The accounting
/// invariants (captured == attributed + unattributed + dropped,
/// self-overhead bounded by task-clock) are checked by ValidateReportJson;
/// scripts/check.sh's driver smoke and CI's profiled-run job also hold
/// the self-overhead to 2% of task clock.
struct ProfileSection {
  std::string backend;  // prof::BackendName: disabled / noop / timer.
  std::string message;  // prof::BackendMessage at report time.
  uint32_t interval_us = 0;
  uint64_t captured = 0;
  uint64_t attributed = 0;
  uint64_t unattributed = 0;
  uint64_t dropped = 0;
  uint64_t self_overhead_ns = 0;
  uint64_t task_clock_ns = 0;
  uint32_t threads = 0;
  struct FrameRow {
    std::string frame;    // Symbolized leaf frame (or operator label).
    uint64_t samples = 0;
  };
  struct OpFrames {
    std::string op;       // OpTypeName, or "(unattributed)".
    uint64_t samples = 0; // All samples under this op.
    std::vector<FrameRow> frames;  // Top-N leaf frames, descending.
  };
  /// Per-op leaf-frame ranking, ops sorted by samples descending.
  std::vector<OpFrames> top_frames;
};

/// Builds the report section from a collected profile: per-op sample
/// totals and the `top_n` hottest leaf frames of each op.
ProfileSection MakeProfileSection(const prof::FoldedProfile& profile,
                                  size_t top_n = 5);

struct RunReport {
  std::string title;
  MetricsSnapshot metrics;
  bool has_driver = false;
  DriverSection driver;
  bool has_compliance = false;
  ComplianceSection compliance;
  bool has_validation = false;
  ValidationSection validation;
  bool has_provenance = false;
  ProvenanceSection provenance;
  bool has_perf = false;
  PerfSection perf;
  /// Slow-query dossiers (emitted when non-empty).
  std::vector<SlowQueryDossier> dossiers;
  bool has_trace_stats = false;
  TraceStatsSection trace_stats;
  bool has_profile = false;
  ProfileSection profile;
};

/// Serializes the report as schema "snb-report-v5". Op types with zero
/// samples are omitted from the "ops" table; hardware-counter fields are
/// omitted per row when that row never saw live counters.
std::string ToJson(const RunReport& report);

/// Structural validation of an emitted report.json: parses, checks the
/// schema tag (snb-report-v5 only), a non-empty "ops" array, per-op monotone
/// percentiles (p50 <= p90 <= p95 <= p99 <= max), and — when present —
/// compliance-section consistency (fraction in [0,1], on-time count not
/// exceeding scheduled count), validation-section consistency (a passing
/// replay must report zero diffs), perf/provenance shape, dossiers (op
/// name + non-negative latency; every operator row a name with
/// non-negative invocations, time and rows), trace accounting (per-lane
/// recorded == retained + dropped) and profile accounting (captured ==
/// attributed + unattributed + dropped, self-overhead not exceeding the
/// task clock, samples only under the timer backend). Used by tests and
/// the check.sh smoke modes.
util::Status ValidateReportJson(const std::string& json);

/// Writes `content` to `path` atomically enough for a report artifact
/// (truncate + write + close).
util::Status WriteFileReport(const std::string& path,
                             const std::string& content);

}  // namespace snb::obs

#endif  // SNB_OBS_REPORT_H_
