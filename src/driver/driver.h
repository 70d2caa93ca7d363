// The SNB-Interactive workload driver (paper section 4.2).
//
// Executes a due-time-ordered operation stream against a Connector using one
// of two execution modes:
//
//  * kSequentialForum (the SNB default): forum-tree operations (forum,
//    membership, post, comment, like) are partitioned by forum into streams
//    executed sequentially — intra-forum dependencies need no tracking at
//    all. Person-graph operations (add person, add friendship) are the
//    Dependencies set, tracked via the Global Dependency Service; dependent
//    operations wait until T_GC passes their person-graph dependency time.
//    Which operations are dependencies, what they wait on and how they
//    partition is data on each Operation (driver/query_mix.h builds it), so
//    the paper's "excessive synchronization" strawman — every update
//    tracked through T_GC — is a rewritten stream (TrackEveryUpdate), not a
//    mode.
//
//  * kWindowed: operations are grouped into windows of T_SAFE simulation
//    time and executed window-by-window with a barrier. DATAGEN guarantees
//    every cross-stream dependency spans at least T_SAFE, so anything a
//    window depends on completed before the window started; within a window
//    forum groups run sequentially and everything else runs freely
//    parallel. T_GC needs no fine-grained synchronization at all.
//
// The driver can replay the stream as fast as possible (acceleration == 0)
// or throttle it to a fixed acceleration factor (simulation time / real
// time), reporting whether the pace was sustained — the benchmark's metric.
#ifndef SNB_DRIVER_DRIVER_H_
#define SNB_DRIVER_DRIVER_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "driver/connectors.h"
#include "driver/operation.h"
#include "obs/report.h"
#include "obs/trace_buffer.h"
#include "util/histogram.h"

namespace snb::driver {

/// How the driver schedules dependent operations.
enum class ExecutionMode {
  kSequentialForum,
  kWindowed,
};

const char* ExecutionModeName(ExecutionMode mode);

/// Driver knobs.
struct DriverConfig {
  /// Number of parallel streams (worker threads).
  uint32_t num_partitions = 4;
  ExecutionMode mode = ExecutionMode::kSequentialForum;
  /// Simulation-time / real-time ratio. 0 disables throttling (max
  /// throughput). 1.0 replays in real time; 2.0 twice as fast as the
  /// simulation timeline.
  double acceleration = 0.0;
  /// Optional metrics sink. When set, the driver records per-operation
  /// scheduling lag (driver.sched_lag) and T_GC dependent-wait time
  /// (driver.gct_wait) as latency series, and accumulates the run's
  /// executed/failed/dependency counters at the end of the run.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional full-run trace sink. When set, every driver-scheduled
  /// operation is recorded as a span (with its schedule and T_GC wait);
  /// pass the same buffer to the connector to also capture walk-spawned
  /// short reads.
  obs::TraceBuffer* trace = nullptr;
};

/// Outcome of a driver run.
struct DriverReport {
  uint64_t operations_executed = 0;
  uint64_t operations_failed = 0;
  std::string first_error;
  double elapsed_seconds = 0.0;
  double ops_per_second = 0.0;
  /// Largest observed lateness behind the throttled schedule (real ms).
  double max_schedule_lag_ms = 0.0;
  /// Operations registered with the dependency services (IT/CT traffic).
  uint64_t dependencies_tracked = 0;
  /// Operations that had to consult T_GC before executing.
  uint64_t dependent_waits = 0;
  /// False when a throttled run fell more than 1,000 ms (real time)
  /// behind its schedule.
  bool sustained = true;
  /// Scheduling-lag time series for throttled runs: (scheduled second of
  /// the run, max lag ms among operations due within that second). Empty
  /// when unthrottled; bounded — long runs are downsampled to a fixed
  /// number of slots (see LagTimeline), so the resolution coarsens but
  /// memory does not grow with run length.
  std::vector<std::pair<double, double>> lag_timeline_ms;
  /// Schedule-compliance audit; populated only for throttled runs.
  bool has_compliance = false;
  obs::ComplianceSection compliance;
};

/// Packages a report as the report.json "driver" section.
obs::DriverSection MakeDriverSection(const DriverReport& report);

/// Runs `operations` (must be sorted by due_time ascending) through
/// `connector` with the configured mode and parallelism. Blocks until every
/// operation completed.
DriverReport RunWorkload(const std::vector<Operation>& operations,
                         Connector& connector, const DriverConfig& config);

}  // namespace snb::driver

#endif  // SNB_DRIVER_DRIVER_H_
