#include "driver/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "datagen/config.h"
#include "driver/dependency_services.h"
#include "driver/run_audit.h"
#include "obs/perf_counters.h"
#include "obs/prof.h"
#include "util/mutex.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace snb::driver {
namespace {

using Clock = std::chrono::steady_clock;

/// The LDBC audit of a throttled run: it is sustained while no operation
/// starts more than kSustainedLagThresholdMs (real ms) behind its
/// schedule, and it passes the compliance audit when at least
/// kComplianceThreshold of its operations start within kComplianceWindowMs
/// of theirs.
constexpr double kSustainedLagThresholdMs = 1000.0;
constexpr double kComplianceWindowMs = 100.0;
constexpr double kComplianceThreshold = 0.95;

/// The obs series an operation's execution is attributed to (also the
/// trace span name and the compliance audit row).
obs::OpType TraceOpType(const Operation& op) {
  switch (op.type) {
    case OperationType::kComplexRead:
      return obs::ComplexOp(op.query_id);
    case OperationType::kShortRead:
      return obs::ShortOp(op.query_id);
    case OperationType::kUpdate:
      return obs::UpdateOp(op.update_kind == 0 ? 1 : op.update_kind);
  }
  return obs::OpType::kPointRead;
}

/// Maps simulation due times to wall-clock deadlines under an acceleration
/// factor and blocks until an operation's start time.
class Throttle {
 public:
  Throttle(double acceleration, util::TimestampMs base_due)
      : acceleration_(acceleration),
        base_due_(base_due),
        start_(Clock::now()) {}

  /// Wall-clock deadline `due` maps to. Only meaningful when throttled.
  Clock::time_point DeadlineFor(util::TimestampMs due) const {
    double real_ms = static_cast<double>(due - base_due_) / acceleration_;
    return start_ + std::chrono::microseconds(
                        static_cast<int64_t>(real_ms * 1000.0));
  }

  /// Waits until `due` is scheduled; returns lateness in microseconds
  /// (0 when unthrottled).
  int64_t WaitUntilDue(util::TimestampMs due) const {
    if (acceleration_ <= 0.0) return 0;
    Clock::time_point deadline = DeadlineFor(due);
    Clock::time_point now = Clock::now();
    if (now < deadline) {
      std::this_thread::sleep_until(deadline);
      return 0;
    }
    return std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                                 deadline)
        .count();
  }

  /// How many microseconds past `due`'s deadline the clock already is
  /// (0 when unthrottled or still ahead of schedule). No sleeping — the
  /// windowed mode paces at window granularity but audits per operation.
  int64_t LatenessMicros(util::TimestampMs due) const {
    if (acceleration_ <= 0.0) return 0;
    Clock::time_point deadline = DeadlineFor(due);
    Clock::time_point now = Clock::now();
    if (now <= deadline) return 0;
    return std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                                 deadline)
        .count();
  }

  /// The run-relative second `due` is scheduled into (-1 when
  /// unthrottled). Pure due-time arithmetic — no clock read — so the
  /// timeline costs nothing beyond its CAS-max.
  int64_t ScheduledSecond(util::TimestampMs due) const {
    if (acceleration_ <= 0.0) return -1;
    double real_ms = static_cast<double>(due - base_due_) / acceleration_;
    return real_ms < 0.0 ? 0 : static_cast<int64_t>(real_ms / 1000.0);
  }

  bool throttled() const { return acceleration_ > 0.0; }

 private:
  double acceleration_;
  util::TimestampMs base_due_;
  Clock::time_point start_;
};

/// One run, shared by its worker threads: where operations execute, their
/// schedule, the optional sinks, and the run's accounting.
struct RunState {
  RunState(Connector& connector, const DriverConfig& config,
           util::TimestampMs base_due)
      : connector(connector),
        throttle(config.acceleration, base_due),
        metrics(config.metrics),
        trace(config.trace) {}

  Connector& connector;
  const Throttle throttle;
  obs::MetricsRegistry* const metrics;
  obs::TraceBuffer* const trace;
  /// Run totals. A stream or window batch tallies its own operations and
  /// adds them here once, when it ends.
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> dependencies_tracked{0};
  std::atomic<uint64_t> dependent_waits{0};
  /// Counted per failed operation (RecordResult).
  std::atomic<uint64_t> failed{0};
  util::Mutex error_mu;
  std::string first_error SNB_GUARDED_BY(error_mu);
  std::atomic<int64_t> max_lag_us{0};
  /// Bounded per-second max-lag series (downsamples past 1024 seconds).
  LagTimeline lag_timeline;
  /// Schedule-compliance audit; only fed on throttled runs.
  ComplianceTracker compliance{kComplianceWindowMs};

  /// The one step of both execution modes: runs `op`, which starts
  /// `lag_us` behind its schedule. A throttled run audits that lateness
  /// (lag timeline, compliance, driver.sched_lag); an armed trace records
  /// the operation's span, whose T_GC wait `event` already carries. The
  /// caller counts the operation as executed.
  void RunScheduled(const Operation& op, int64_t lag_us,
                    obs::TraceEvent event) {
    const obs::OpType type = TraceOpType(op);
    if (throttle.throttled()) {
      FoldMax(max_lag_us, lag_us);
      lag_timeline.Record(throttle.ScheduledSecond(op.due_time), lag_us);
      compliance.Record(type, lag_us);
      if (metrics != nullptr) {
        metrics->RecordLatencyNs(obs::OpType::kSchedLag,
                                 static_cast<uint64_t>(lag_us) * 1000);
      }
    }
    if (trace == nullptr) {
      RecordResult(connector.Execute(op));
      return;
    }
    event.op = type;
    if (throttle.throttled()) {
      event.sched_ns = trace->ToBufferNs(throttle.DeadlineFor(op.due_time));
    }
    event.exec_begin_ns = trace->NowNs();
    obs::perf::ScopedHwCounts hw_scope;
    RecordResult(connector.Execute(op));
    event.hw = hw_scope.Delta();
    event.end_ns = trace->NowNs();
    trace->Record(event);
  }

  /// Counts a failed operation and keeps the run's first error.
  void RecordResult(const util::Status& status) {
    if (status.ok()) return;
    failed.fetch_add(1, std::memory_order_relaxed);
    util::MutexLock lock(&error_mu);
    if (first_error.empty()) first_error = status.ToString();
  }
};

uint32_t PartitionOf(const Operation& op, uint32_t num_partitions,
                     uint64_t index) {
  if (op.forum_partition != schema::kInvalidId) {
    return static_cast<uint32_t>(util::Mix64(op.forum_partition) %
                                 num_partitions);
  }
  return static_cast<uint32_t>(index % num_partitions);
}

/// Stream loop of the sequential-forum mode (Figure 8 of the paper).
void RunStream(const std::vector<const Operation*>& ops,
               LocalDependencyService* lds, GlobalDependencyService* gds,
               RunState* state) {
  uint64_t dependencies_tracked = 0;
  uint64_t dependent_waits = 0;
  // The highest T_GC this stream has read. T_GC never decreases, so a
  // dependency at or below it is satisfied without reading it again.
  util::TimestampMs seen_tgc = 0;
  for (const Operation* op : ops) {
    // CPU burned anywhere in this iteration — dependency wait, throttle
    // spin, execution — is on behalf of this op; attribute all of it.
    obs::prof::ScopedOpContext prof_op(
        static_cast<uint16_t>(TraceOpType(*op)));
    const util::TimestampMs wait_for = op->person_dependency_time;
    if (op->is_dependency) {
      lds->Initiate(op->due_time);
      ++dependencies_tracked;
    } else {
      lds->MarkTime(op->due_time);
    }
    obs::TraceEvent event;
    if (wait_for > 0) {
      ++dependent_waits;
      // Most dependencies are already satisfied by the time their dependent
      // op is due; the lock-free T_GC read keeps those off the waiter mutex
      // and keeps the clock out of the no-wait path entirely (kGctWait
      // records only waits that actually blocked). A blocking wait sleeps
      // on a condition variable, so timing it costs nothing measurable.
      if (wait_for > seen_tgc) seen_tgc = gds->TGC();
      if (wait_for > seen_tgc) {
        if (state->trace != nullptr) event.gct_begin_ns = state->trace->NowNs();
        util::Stopwatch wait_watch;
        gds->WaitUntilCompleted(wait_for);
        event.gct_wait_ns = wait_watch.ElapsedNanos();
        seen_tgc = gds->TGC();
        if (state->metrics != nullptr) {
          state->metrics->RecordLatencyNs(obs::OpType::kGctWait,
                                          event.gct_wait_ns);
        }
      }
    }
    state->RunScheduled(*op, state->throttle.WaitUntilDue(op->due_time),
                        event);
    if (op->is_dependency) lds->Complete(op->due_time);
  }
  lds->MarkTime(kTimeMax);
  state->executed.fetch_add(ops.size(), std::memory_order_relaxed);
  state->dependencies_tracked.fetch_add(dependencies_tracked,
                                        std::memory_order_relaxed);
  state->dependent_waits.fetch_add(dependent_waits,
                                   std::memory_order_relaxed);
}

DriverReport FinishReport(const RunState& state, double elapsed_seconds,
                          const DriverConfig& config) {
  DriverReport report;
  report.operations_executed = state.executed.load();
  report.operations_failed = state.failed.load();
  report.first_error = state.first_error;
  report.elapsed_seconds = elapsed_seconds;
  report.ops_per_second =
      elapsed_seconds > 0.0
          ? static_cast<double>(report.operations_executed) / elapsed_seconds
          : 0.0;
  report.max_schedule_lag_ms =
      static_cast<double>(state.max_lag_us.load()) / 1000.0;
  report.sustained = config.acceleration <= 0.0 ||
                     report.max_schedule_lag_ms <= kSustainedLagThresholdMs;
  report.dependencies_tracked = state.dependencies_tracked.load();
  report.dependent_waits = state.dependent_waits.load();
  report.lag_timeline_ms = state.lag_timeline.Snapshot();
  if (config.acceleration > 0.0) {
    report.has_compliance = true;
    report.compliance = state.compliance.Finish(kComplianceThreshold);
  }
  if (config.metrics != nullptr) {
    config.metrics->AddCounter(obs::Counter::kOperationsExecuted,
                               report.operations_executed);
    config.metrics->AddCounter(obs::Counter::kOperationsFailed,
                               report.operations_failed);
    config.metrics->AddCounter(obs::Counter::kDependenciesTracked,
                               report.dependencies_tracked);
    config.metrics->AddCounter(obs::Counter::kGctDependentWaits,
                               report.dependent_waits);
  }
  return report;
}

DriverReport RunStreamed(const std::vector<Operation>& operations,
                         Connector& connector, const DriverConfig& config) {
  uint32_t partitions = std::max<uint32_t>(config.num_partitions, 1);
  std::vector<std::vector<const Operation*>> streams(partitions);
  for (size_t i = 0; i < operations.size(); ++i) {
    streams[PartitionOf(operations[i], partitions, i)].push_back(
        &operations[i]);
  }

  GlobalDependencyService gds;
  std::vector<LocalDependencyService*> lds;
  lds.reserve(partitions);
  for (uint32_t p = 0; p < partitions; ++p) {
    lds.push_back(gds.AddStream());
    // Seed every stream with the workload start: dependencies older than the
    // first operation live in the bulk load and are complete by definition.
    lds.back()->MarkTime(operations.front().due_time);
  }

  RunState state(connector, config, operations.front().due_time);
  Clock::time_point start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(partitions);
  for (uint32_t p = 0; p < partitions; ++p) {
    workers.emplace_back([&, p] {
      std::string lane = "driver." + std::to_string(p);
      obs::prof::ScopedThreadRegistration prof_thread(lane.c_str());
      RunStream(streams[p], lds[p], &gds, &state);
    });
  }
  for (std::thread& t : workers) t.join();
  double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  return FinishReport(state, elapsed, config);
}

/// Runs one batch of a window on a pool worker. Each operation's lateness
/// is audited against its own due time: the pool may start it well after
/// the window barrier released.
void RunWindowBatch(const std::vector<const Operation*>& batch,
                    RunState* state) {
  // Pool workers register lazily under a shared lane (idempotent after
  // the first window) and unregister at thread exit.
  obs::prof::RegisterCurrentThread("driver.pool");
  for (const Operation* op : batch) {
    obs::prof::ScopedOpContext prof_op(
        static_cast<uint16_t>(TraceOpType(*op)));
    state->RunScheduled(*op, state->throttle.LatenessMicros(op->due_time),
                        obs::TraceEvent());
  }
  state->executed.fetch_add(batch.size(), std::memory_order_relaxed);
}

DriverReport RunWindowed(const std::vector<Operation>& operations,
                         Connector& connector, const DriverConfig& config) {
  uint32_t partitions = std::max<uint32_t>(config.num_partitions, 1);
  util::ThreadPool pool(partitions);
  util::TimestampMs base = operations.front().due_time;
  RunState state(connector, config, base);
  Clock::time_point start = Clock::now();

  // Window width must not exceed T_SAFE for cross-window dependency safety.
  const util::TimestampMs window_ms = datagen::kTSafeMs;
  size_t next = 0;
  while (next < operations.size()) {
    util::TimestampMs window_start =
        base + (operations[next].due_time - base) / window_ms * window_ms;
    util::TimestampMs window_end = window_start + window_ms;
    size_t end = next;
    while (end < operations.size() &&
           operations[end].due_time < window_end) {
      ++end;
    }

    // Throttled runs start a window no earlier than its scheduled time.
    // Lag is audited per operation (RunWindowBatch), so the wait itself
    // needs no recording.
    state.throttle.WaitUntilDue(window_start);

    // Group the window: forum-tree ops run sequentially per forum; all
    // remaining ops have >= T_SAFE-old dependencies and run freely.
    std::unordered_map<uint64_t, std::vector<const Operation*>> forum_groups;
    std::vector<std::vector<const Operation*>> free_batches(partitions);
    size_t free_index = 0;
    for (size_t i = next; i < end; ++i) {
      const Operation& op = operations[i];
      if (op.forum_partition != schema::kInvalidId) {
        forum_groups[op.forum_partition].push_back(&op);
      } else {
        free_batches[free_index++ % partitions].push_back(&op);
      }
    }
    for (auto& [_, group] : forum_groups) {
      pool.Submit([&state, group = &group] { RunWindowBatch(*group, &state); });
    }
    for (std::vector<const Operation*>& batch : free_batches) {
      if (batch.empty()) continue;
      pool.Submit([&state, batch = &batch] { RunWindowBatch(*batch, &state); });
    }
    pool.Wait();  // Window barrier.
    next = end;
  }
  double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  return FinishReport(state, elapsed, config);
}

}  // namespace

obs::DriverSection MakeDriverSection(const DriverReport& report) {
  obs::DriverSection section;
  section.operations_executed = report.operations_executed;
  section.operations_failed = report.operations_failed;
  section.elapsed_seconds = report.elapsed_seconds;
  section.ops_per_second = report.ops_per_second;
  section.max_schedule_lag_ms = report.max_schedule_lag_ms;
  section.sustained = report.sustained;
  section.dependencies_tracked = report.dependencies_tracked;
  section.dependent_waits = report.dependent_waits;
  section.lag_timeline_ms = report.lag_timeline_ms;
  return section;
}

const char* ExecutionModeName(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kSequentialForum:
      return "sequential-forum";
    case ExecutionMode::kWindowed:
      return "windowed";
  }
  return "unknown";
}

DriverReport RunWorkload(const std::vector<Operation>& operations,
                         Connector& connector, const DriverConfig& config) {
  if (operations.empty()) return DriverReport{};
  if (config.mode == ExecutionMode::kWindowed) {
    return RunWindowed(operations, connector, config);
  }
  return RunStreamed(operations, connector, config);
}

}  // namespace snb::driver
