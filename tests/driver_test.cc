// End-to-end driver tests: all execution modes must replay the update
// stream with zero dependency violations, and the full mix must run reads
// concurrently with updates.
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "driver/driver.h"
#include "driver/query_mix.h"
#include "driver/run_audit.h"
#include "obs/trace_buffer.h"
#include "queries/complex_queries.h"

namespace snb::driver {
namespace {

class DriverTest : public ::testing::Test {
 protected:
  struct World {
    datagen::Dataset dataset;
    std::unique_ptr<schema::Dictionaries> dict;
  };

  static World& world() {
    static World* w = [] {
      auto* world = new World();
      datagen::DatagenConfig config;
      config.num_persons = 250;
      world->dataset = datagen::Generate(config);
      world->dict = std::make_unique<schema::Dictionaries>(config.seed);
      return world;
    }();
    return *w;
  }

  static Workload UpdateOnlyWorkload() {
    QueryMixConfig mix;
    mix.include_complex_reads = false;
    return BuildWorkload(world().dataset, *world().dict, mix);
  }
};

TEST_F(DriverTest, WorkloadIsDueTimeSorted) {
  Workload workload = UpdateOnlyWorkload();
  ASSERT_GT(workload.operations.size(), 0u);
  for (size_t i = 1; i < workload.operations.size(); ++i) {
    EXPECT_GE(workload.operations[i].due_time,
              workload.operations[i - 1].due_time);
  }
  EXPECT_EQ(workload.num_updates, world().dataset.updates.size());
}

// The core correctness property: replaying the update stream through the
// driver in ANY mode with ANY parallelism must produce zero dependency
// violations (the store rejects an op whose dependencies are missing).
// The every-update-tracked stream (TrackEveryUpdate) replays in the
// sequential-forum mode.
enum class Replay { kSequentialForum, kEveryUpdateTracked, kWindowed };

class DriverModeTest
    : public DriverTest,
      public ::testing::WithParamInterface<std::tuple<Replay, int>> {};

TEST_P(DriverModeTest, ReplaysUpdateStreamWithoutViolations) {
  auto [replay, partitions] = GetParam();
  Workload workload = UpdateOnlyWorkload();
  if (replay == Replay::kEveryUpdateTracked) {
    workload.operations = TrackEveryUpdate(std::move(workload.operations));
  }

  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(world().dataset.bulk).ok());
  obs::MetricsRegistry metrics;
  StoreConnector connector(&store, &world().dataset.updates, world().dict.get(),
                           &metrics);

  DriverConfig config;
  config.mode = replay == Replay::kWindowed ? ExecutionMode::kWindowed
                                            : ExecutionMode::kSequentialForum;
  config.num_partitions = partitions;
  config.metrics = &metrics;
  DriverReport report =
      RunWorkload(workload.operations, connector, config);

  EXPECT_EQ(report.operations_executed, workload.operations.size());
  EXPECT_EQ(report.operations_failed, 0u) << report.first_error;
  if (replay == Replay::kEveryUpdateTracked) {
    EXPECT_EQ(report.dependencies_tracked, workload.num_updates);
  }
  // Streams tally their own counts and add them once; the totals must
  // still be exact. Windowed runs track nothing through T_GC.
  uint64_t dependencies = 0;
  uint64_t dependents = 0;
  for (const Operation& op : workload.operations) {
    if (op.is_dependency) ++dependencies;
    if (op.person_dependency_time > 0) ++dependents;
  }
  if (replay == Replay::kWindowed) {
    EXPECT_EQ(report.dependencies_tracked, 0u);
    EXPECT_EQ(report.dependent_waits, 0u);
  } else {
    EXPECT_EQ(report.dependencies_tracked, dependencies);
    EXPECT_EQ(report.dependent_waits, dependents);
    EXPECT_GT(dependents, 0u);
  }
  obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue(obs::Counter::kOperationsExecuted),
            report.operations_executed);
  EXPECT_EQ(snap.CounterValue(obs::Counter::kDependenciesTracked),
            report.dependencies_tracked);
  EXPECT_EQ(snap.CounterValue(obs::Counter::kGctDependentWaits),
            report.dependent_waits);
  // The final store state matches the full dataset.
  EXPECT_EQ(store.NumPersons(), world().dataset.stats.num_persons);
  EXPECT_EQ(store.NumKnowsEdges(), world().dataset.stats.num_knows);
  EXPECT_EQ(store.NumMessages(), world().dataset.stats.NumMessages());
  EXPECT_EQ(store.NumLikes(), world().dataset.stats.num_likes);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, DriverModeTest,
    ::testing::Combine(::testing::Values(Replay::kSequentialForum,
                                         Replay::kEveryUpdateTracked,
                                         Replay::kWindowed),
                       ::testing::Values(1, 4, 8)),
    [](const auto& info) {
      const char* replay = "Unknown";
      switch (std::get<0>(info.param)) {
        case Replay::kSequentialForum:
          replay = "SequentialForum";
          break;
        case Replay::kEveryUpdateTracked:
          replay = "EveryUpdateTracked";
          break;
        case Replay::kWindowed:
          replay = "Windowed";
          break;
      }
      return std::string(replay) + "P" +
             std::to_string(std::get<1>(info.param));
    });

TEST_F(DriverTest, FullMixRunsReadsAndWalk) {
  QueryMixConfig mix;
  // Small frequencies so a mini stream still gets reads of every type.
  for (auto& f : mix.frequencies) f = std::max<uint32_t>(1, f / 40);
  Workload workload = BuildWorkload(world().dataset, *world().dict, mix);
  EXPECT_GT(workload.num_complex_reads, 0u);
  // Each complex read brings a driver-scheduled short read due at the same
  // time, S1 to S7 in turn, on the read's person and a bulk message.
  const std::vector<schema::Message>& messages =
      world().dataset.bulk.messages;
  ASSERT_FALSE(messages.empty());
  std::vector<Operation> ops;
  uint64_t scheduled_shorts = 0;
  for (const Operation& op : workload.operations) {
    ops.push_back(op);
    if (op.type != OperationType::kComplexRead) continue;
    Operation short_read;
    short_read.type = OperationType::kShortRead;
    short_read.query_id = static_cast<uint8_t>(1 + scheduled_shorts % 7);
    short_read.due_time = op.due_time;
    short_read.person_param = op.person_param;
    short_read.aux0 = messages[scheduled_shorts % messages.size()].id;
    ops.push_back(short_read);
    ++scheduled_shorts;
  }

  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(world().dataset.bulk).ok());
  obs::MetricsRegistry metrics;
  StoreConnector connector(&store, &world().dataset.updates, world().dict.get(),
                           &metrics);
  DriverConfig config;
  config.num_partitions = 4;
  config.metrics = &metrics;
  DriverReport report = RunWorkload(ops, connector, config);

  EXPECT_EQ(report.operations_failed, 0u) << report.first_error;
  // Complex reads of several types ran.
  obs::MetricsSnapshot snap = metrics.Snapshot();
  int complex_types = 0;
  for (size_t i = obs::kComplexBegin; i < obs::kShortBegin; ++i) {
    if (snap.ops[i].count > 0) ++complex_types;
  }
  EXPECT_GE(complex_types, 10);
  // The random walk spawned short reads, and the connector counted each
  // executed short read once: every scheduled one plus every walk step,
  // which is also the number of short-read latencies recorded.
  const uint64_t walk_steps =
      snap.CounterValue(obs::Counter::kShortReadWalkSteps);
  EXPECT_GT(walk_steps, 0u);
  EXPECT_EQ(connector.short_reads_executed(), scheduled_shorts + walk_steps);
  EXPECT_EQ(snap.CountInRange(obs::kShortBegin, obs::kUpdateBegin),
            connector.short_reads_executed());
  double short_micros = snap.SumMicros(obs::kShortBegin, obs::kUpdateBegin);
  EXPECT_GT(short_micros, 0.0);
  // The run's outcome counters were folded into the registry.
  EXPECT_EQ(snap.CounterValue(obs::Counter::kOperationsExecuted),
            report.operations_executed);
  EXPECT_EQ(snap.CounterValue(obs::Counter::kOperationsFailed), 0u);
}

TEST_F(DriverTest, ThrottledRunSustainsAcceleration) {
  // Replay a slice at a pace that is easy to sustain and check the
  // sustained flag plus rough wall-clock agreement.
  Workload workload = UpdateOnlyWorkload();
  size_t slice = std::min<size_t>(workload.operations.size(), 400);
  std::vector<Operation> ops(workload.operations.begin(),
                             workload.operations.begin() + slice);

  SleepingConnector connector(0);
  DriverConfig config;
  config.num_partitions = 4;
  util::TimestampMs span = ops.back().due_time - ops.front().due_time;
  // Target ~200ms of real time for the slice.
  config.acceleration = static_cast<double>(span) / 200.0;
  DriverReport report = RunWorkload(ops, connector, config);
  EXPECT_TRUE(report.sustained) << report.max_schedule_lag_ms;
  EXPECT_GT(report.elapsed_seconds, 0.15);
  EXPECT_EQ(report.operations_failed, 0u);
}

TEST_F(DriverTest, ThrottledRunRecordsLagTimeline) {
  Workload workload = UpdateOnlyWorkload();
  size_t slice = std::min<size_t>(workload.operations.size(), 400);
  std::vector<Operation> ops(workload.operations.begin(),
                             workload.operations.begin() + slice);

  SleepingConnector connector(0);
  obs::MetricsRegistry metrics;
  DriverConfig config;
  config.num_partitions = 4;
  config.metrics = &metrics;
  util::TimestampMs span = ops.back().due_time - ops.front().due_time;
  // ~1.2s of real time so the timeline spans at least two seconds.
  config.acceleration = static_cast<double>(span) / 1200.0;
  DriverReport report = RunWorkload(ops, connector, config);

  ASSERT_FALSE(report.lag_timeline_ms.empty());
  double prev_second = -1.0;
  for (const auto& [second, lag_ms] : report.lag_timeline_ms) {
    EXPECT_GT(second, prev_second);  // Strictly increasing seconds.
    EXPECT_GE(lag_ms, 0.0);
    prev_second = second;
  }
  EXPECT_GE(report.lag_timeline_ms.back().first, 1.0);
  // The sched-lag series saw every operation.
  obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.Op(obs::OpType::kSchedLag).count, ops.size());
  // An unthrottled run has no timeline.
  config.acceleration = 0.0;
  DriverReport unthrottled = RunWorkload(ops, connector, config);
  EXPECT_TRUE(unthrottled.lag_timeline_ms.empty());
}

TEST_F(DriverTest, SleepingConnectorScalesWithPartitions) {
  // Table 5 in miniature: more partitions -> more ops/sec with a fixed
  // per-op sleep.
  Workload workload = UpdateOnlyWorkload();
  size_t slice = std::min<size_t>(workload.operations.size(), 2000);
  std::vector<Operation> ops(workload.operations.begin(),
                             workload.operations.begin() + slice);

  auto run = [&](uint32_t partitions) {
    SleepingConnector connector(500);  // 0.5 ms.
    DriverConfig config;
    config.num_partitions = partitions;
    DriverReport report = RunWorkload(ops, connector, config);
    EXPECT_EQ(report.operations_failed, 0u);
    return report.ops_per_second;
  };
  double one = run(1);
  double four = run(4);
  EXPECT_GT(four, one * 2.0);
}

TEST_F(DriverTest, FrequencyLogScaleGrows) {
  EXPECT_NEAR(FrequencyLogScale(datagen::PersonsForScaleFactor(1.0)), 1.0,
              1e-9);
  EXPECT_GT(FrequencyLogScale(datagen::PersonsForScaleFactor(300)), 1.0);
  EXPECT_LT(FrequencyLogScale(60), 1.0);
}

TEST_F(DriverTest, CalibrateMixEqualizesCpuShares) {
  // Queries with 10x cost differences must get 10x lower frequencies.
  std::array<double, 14> costs{};
  for (int q = 0; q < 14; ++q) costs[q] = 100.0;
  costs[5] = 1000.0;  // Q6 is 10x heavier.
  costs[7] = 50.0;    // Q8 is 2x lighter.
  MixCalibration cal = CalibrateMix(costs, 1000000, 50.0, 5.0);
  EXPECT_GT(cal.frequencies[5], cal.frequencies[0] * 5);
  EXPECT_LT(cal.frequencies[7] * 3, cal.frequencies[0] * 2);
  // Equal CPU per query: instances * cost equal across queries (within
  // integer rounding).
  double budget0 = 100000.0 / cal.frequencies[0] * costs[0];
  double budget5 = 100000.0 / cal.frequencies[5] * costs[5];
  EXPECT_NEAR(budget5 / budget0, 1.0, 0.25);
  // Walk fills the short-read share.
  EXPECT_GT(cal.expected_walk_length, 0.0);
  EXPECT_GT(cal.short_read_initial_probability, 0.0);
}

TEST_F(DriverTest, CalibrateMixShortWalkScalesWithShortShare) {
  std::array<double, 14> costs{};
  for (int q = 0; q < 14; ++q) costs[q] = 100.0;
  MixCalibration narrow = CalibrateMix(costs, 10000, 50.0, 5.0, 0.3, 0.6);
  MixCalibration wide = CalibrateMix(costs, 10000, 50.0, 5.0, 0.1, 0.5);
  // 40% short share needs a longer walk than 10%.
  EXPECT_GT(wide.expected_walk_length, narrow.expected_walk_length);
}

TEST_F(DriverTest, EmptyWorkloadIsNoOp) {
  SleepingConnector connector(0);
  DriverConfig config;
  DriverReport report = RunWorkload({}, connector, config);
  EXPECT_EQ(report.operations_executed, 0u);
}

// ---- LagTimeline (bounded sched-lag series) -------------------------------

TEST_F(DriverTest, LagTimelineStaysWithinSlotCap) {
  LagTimeline timeline(/*max_slots=*/8);
  // A "run" 100x longer than the slot budget at 1 s/slot.
  for (int64_t second = 0; second < 800; ++second) {
    timeline.Record(second, second * 10);
  }
  EXPECT_LE(timeline.Snapshot().size(), timeline.max_slots());
  // 800 seconds over 8 slots -> 128 s/slot (next power of two >= 100).
  EXPECT_EQ(timeline.seconds_per_slot(), 128);
  // Downsampling folds by max: the last slot keeps the run's worst lag.
  auto rows = timeline.Snapshot();
  ASSERT_FALSE(rows.empty());
  EXPECT_DOUBLE_EQ(rows.back().second, 799 * 10 / 1000.0);
  // Slot edges are strictly increasing multiples of the scale.
  double prev = -1.0;
  for (const auto& [second, lag_ms] : rows) {
    EXPECT_GT(second, prev);
    EXPECT_EQ(static_cast<int64_t>(second) % timeline.seconds_per_slot(), 0);
    prev = second;
  }
}

TEST_F(DriverTest, LagTimelineKeepsMaxUnderConcurrentRescale) {
  LagTimeline timeline(/*max_slots=*/16);
  constexpr int kThreads = 4;
  constexpr int64_t kSecondsPerThread = 4000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&timeline, t] {
      for (int64_t s = t; s < kSecondsPerThread; s += kThreads) {
        timeline.Record(s, s);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  auto rows = timeline.Snapshot();
  EXPECT_LE(rows.size(), timeline.max_slots());
  ASSERT_FALSE(rows.empty());
  // The global max lag survives every fold.
  double max_lag = 0.0;
  for (const auto& [_, lag_ms] : rows) max_lag = std::max(max_lag, lag_ms);
  EXPECT_DOUBLE_EQ(max_lag, (kSecondsPerThread - 1) / 1000.0);
}

// ---- ComplianceTracker ----------------------------------------------------

TEST_F(DriverTest, ComplianceTrackerAuditsWindow) {
  ComplianceTracker tracker(/*window_ms=*/10.0);
  // 8 on-time Q1s, 2 late ones, and a very late update.
  for (int i = 0; i < 8; ++i) tracker.Record(obs::ComplexOp(1), 500);
  tracker.Record(obs::ComplexOp(1), 15'000);
  tracker.Record(obs::ComplexOp(1), 20'000);
  tracker.Record(obs::UpdateOp(7), 2'000'000);

  obs::ComplianceSection section = tracker.Finish(/*required=*/0.95);
  EXPECT_EQ(section.scheduled_ops, 11u);
  EXPECT_EQ(section.on_time_ops, 8u);
  EXPECT_NEAR(section.on_time_fraction, 8.0 / 11.0, 1e-12);
  EXPECT_FALSE(section.passed);
  // Worst offender ordering: the 2 s update leads.
  ASSERT_EQ(section.per_op.size(), 2u);
  EXPECT_EQ(section.per_op[0].op, "update.U7");
  EXPECT_EQ(section.per_op[0].late, 1u);
  EXPECT_NEAR(section.per_op[0].max_late_ms, 2000.0, 2000.0 / 16.0);
  EXPECT_EQ(section.per_op[1].op, "complex.Q1");
  EXPECT_EQ(section.per_op[1].scheduled, 10u);
  EXPECT_EQ(section.per_op[1].late, 2u);
  // The histogram accounts for every scheduled op (on-time ones too).
  uint64_t hist_total = 0;
  for (const auto& [_, count] : section.lateness_histogram_ms) {
    hist_total += count;
  }
  EXPECT_EQ(hist_total, section.scheduled_ops);
  // A permissive bar passes the same counts.
  EXPECT_TRUE(tracker.Finish(0.5).passed);
}

// ---- Compliance + trace wired through a real run --------------------------

TEST_F(DriverTest, ThrottledRunProducesComplianceAndTrace) {
  Workload workload = UpdateOnlyWorkload();
  size_t slice = std::min<size_t>(workload.operations.size(), 400);
  std::vector<Operation> ops(workload.operations.begin(),
                             workload.operations.begin() + slice);
  util::TimestampMs span = ops.back().due_time - ops.front().due_time;

  SleepingConnector connector(0);
  // Both modes run each operation through one audited, traced step.
  for (ExecutionMode mode :
       {ExecutionMode::kSequentialForum, ExecutionMode::kWindowed}) {
    SCOPED_TRACE(ExecutionModeName(mode));
    obs::TraceBuffer trace;
    DriverConfig config;
    config.num_partitions = 2;
    config.mode = mode;
    config.trace = &trace;
    config.acceleration = static_cast<double>(span) / 200.0;
    DriverReport report = RunWorkload(ops, connector, config);

    // Compliance: present, covers every driver op, states the LDBC audit.
    ASSERT_TRUE(report.has_compliance);
    EXPECT_EQ(report.compliance.scheduled_ops, ops.size());
    EXPECT_DOUBLE_EQ(report.compliance.window_ms, 100.0);
    EXPECT_DOUBLE_EQ(report.compliance.required_on_time_fraction, 0.95);
    EXPECT_FALSE(report.compliance.per_op.empty());
    // A stream starts each op at its own deadline, so the generous window
    // passes. Windowed pacing holds starts to window boundaries, so ops
    // late in a window show lag, but each is audited at its own due time.
    if (mode == ExecutionMode::kSequentialForum) {
      EXPECT_TRUE(report.compliance.passed)
          << report.compliance.on_time_fraction;
    }

    // Trace: one event per driver op, all with a schedule attached.
    EXPECT_EQ(trace.recorded(), ops.size());
    for (const obs::TraceEvent& e : trace.Events()) {
      EXPECT_GE(e.sched_ns, 0);
      EXPECT_LE(e.exec_begin_ns, e.end_ns);
    }

    // Unthrottled runs audit nothing (there is no schedule to comply with).
    config.acceleration = 0.0;
    config.trace = nullptr;
    DriverReport unthrottled = RunWorkload(ops, connector, config);
    EXPECT_FALSE(unthrottled.has_compliance);
  }
}

}  // namespace
}  // namespace snb::driver
