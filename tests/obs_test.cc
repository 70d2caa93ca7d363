// Tests of the snb::obs subsystem: log-bucket histogram accuracy against
// exact sample statistics, lock-free registry semantics under concurrency
// (run under TSan via scripts/check.sh), the TraceSpan / OperatorProfile
// span model, the report.json writer/parser round trip and validator, and
// the Q9 plans' operator rows.
#include <array>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "queries/complex_queries.h"
#include "queries/query9_plans.h"
#include "store/graph_store.h"
#include "util/datetime.h"
#include "util/histogram.h"

namespace snb::obs {
namespace {

// ---- Log buckets ----------------------------------------------------------

TEST(LogBucketsTest, SmallValuesAreExact) {
  for (uint64_t v = 0; v < 2 * LogBuckets::kSubBuckets; ++v) {
    size_t b = LogBuckets::BucketFor(v);
    EXPECT_EQ(LogBuckets::BucketMid(b), v);
    EXPECT_EQ(LogBuckets::BucketLow(b), v);
  }
}

TEST(LogBucketsTest, MidpointWithinRelativeErrorBound) {
  // Bucket width is at most 1/16 of its lower edge, so the midpoint is
  // within 1/32 (~3.2%) of any sample in the bucket.
  for (uint64_t v = 32; v < (uint64_t{1} << 40); v = v * 29 / 16 + 3) {
    size_t b = LogBuckets::BucketFor(v);
    ASSERT_LT(b, LogBuckets::kNumBuckets);
    uint64_t low = LogBuckets::BucketLow(b);
    EXPECT_LE(low, v);
    uint64_t mid = LogBuckets::BucketMid(b);
    double rel = std::abs(static_cast<double>(mid) - static_cast<double>(v)) /
                 static_cast<double>(v);
    EXPECT_LE(rel, 1.0 / 32.0 + 1e-9) << "v=" << v << " bucket=" << b;
  }
}

TEST(LogBucketsTest, BucketsAreMonotone) {
  size_t prev = LogBuckets::BucketFor(0);
  for (uint64_t v = 1; v < (uint64_t{1} << 20); v = v + 1 + v / 7) {
    size_t b = LogBuckets::BucketFor(v);
    EXPECT_GE(b, prev);
    prev = b;
  }
  // Saturation: absurd values land in the last bucket, not out of range.
  EXPECT_EQ(LogBuckets::BucketFor(~uint64_t{0}), LogBuckets::kNumBuckets - 1);
}

// ---- Registry exactness ---------------------------------------------------

TEST(MetricsRegistryTest, CountSumMinMaxExact) {
  MetricsRegistry registry;
  registry.RecordLatencyNs(OpType::kComplexQ1, 100);
  registry.RecordLatencyNs(OpType::kComplexQ1, 900);
  registry.RecordLatencyNs(OpType::kComplexQ1, 500);
  MetricsSnapshot snap = registry.Snapshot();
  const OpSnapshot& op = snap.Op(OpType::kComplexQ1);
  EXPECT_EQ(op.count, 3u);
  EXPECT_EQ(op.sum_ns, 1500u);
  EXPECT_EQ(op.min_ns, 100u);
  EXPECT_EQ(op.max_ns, 900u);
  EXPECT_DOUBLE_EQ(op.MeanUs(), 0.5);
  // Untouched series stay zeroed (min sentinel must not leak).
  EXPECT_EQ(snap.Op(ComplexOp(2)).count, 0u);
  EXPECT_EQ(snap.Op(ComplexOp(2)).min_ns, 0u);
}

TEST(MetricsRegistryTest, SumMicrosAndCountInRange) {
  MetricsRegistry registry;
  registry.RecordLatencyMicros(ComplexOp(1), 100.0);
  registry.RecordLatencyMicros(ComplexOp(14), 200.0);
  registry.RecordLatencyMicros(ShortOp(1), 50.0);
  registry.RecordLatencyMicros(UpdateOp(8), 25.0);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.SumMicros(kComplexBegin, kShortBegin), 300.0);
  EXPECT_DOUBLE_EQ(snap.SumMicros(kShortBegin, kUpdateBegin), 50.0);
  EXPECT_DOUBLE_EQ(snap.SumMicros(kUpdateBegin, kUpdateBegin + 8), 25.0);
  EXPECT_EQ(snap.CountInRange(kComplexBegin, kShortBegin), 2u);
  EXPECT_EQ(snap.CountInRange(0, kNumOpTypes), 4u);
}

TEST(MetricsRegistryTest, CountersAccumulateGaugesOverwrite) {
  MetricsRegistry registry;
  registry.AddCounter(Counter::kOperationsExecuted);
  registry.AddCounter(Counter::kOperationsExecuted, 41);
  registry.SetGauge(Gauge::kEpochPending, 7);
  registry.SetGauge(Gauge::kEpochPending, 3);  // Last write wins.
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue(Counter::kOperationsExecuted), 42u);
  EXPECT_EQ(snap.CounterValue(Counter::kOperationsFailed), 0u);
  EXPECT_EQ(snap.GaugeValue(Gauge::kEpochPending), 3u);
}

// Percentiles from bucket midpoints vs. the exact (sample-retaining)
// statistics the old recorder kept: within the bucket error bound, i.e.
// well under 5% relative error, across a skewed distribution.
TEST(MetricsRegistryTest, PercentilesTrackExactStatsWithin5Percent) {
  MetricsRegistry registry;
  util::SampleStats exact;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    // Latencies spanning ~1us .. ~16ms with a long tail, like a query mix.
    uint64_t ns = 1000 + (state % 1000) * (state % 16384);
    registry.RecordLatencyNs(OpType::kPointRead, ns);
    exact.Add(static_cast<double>(ns) / 1000.0);  // us.
  }
  MetricsSnapshot snap = registry.Snapshot();
  const OpSnapshot& op = snap.Op(OpType::kPointRead);
  ASSERT_EQ(op.count, 20000u);
  for (double p : {50.0, 90.0, 95.0, 99.0}) {
    double approx = op.PercentileUs(p);
    double truth = exact.Percentile(p);
    EXPECT_NEAR(approx, truth, truth * 0.05) << "p" << p;
  }
  // Percentiles are monotone and bounded by the exact extremes' buckets.
  EXPECT_LE(op.PercentileUs(50), op.PercentileUs(90));
  EXPECT_LE(op.PercentileUs(90), op.PercentileUs(99));
  EXPECT_LE(op.PercentileUs(99), op.PercentileUs(100));
  EXPECT_NEAR(op.PercentileUs(100), exact.Max(), exact.Max() * 0.05);
}

// 8 recorder threads + concurrent snapshots; every pre-join sample must be
// merged exactly once. This is the TSan target for the lock-free path.
TEST(MetricsRegistryTest, ConcurrentRecordAndSnapshot) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      OpType op = ComplexOp(1 + (t % 14));
      for (uint64_t i = 1; i <= kPerThread; ++i) {
        registry.RecordLatencyNs(op, 100 + (i & 0xff));
        registry.AddCounter(Counter::kOperationsExecuted);
      }
    });
  }
  // Snapshot while recording is in flight: totals may be partial but must
  // never be torn below what simple monotonicity allows.
  uint64_t last_total = 0;
  for (int i = 0; i < 50; ++i) {
    MetricsSnapshot mid = registry.Snapshot();
    uint64_t total = mid.CountInRange(kComplexBegin, kShortBegin);
    EXPECT_GE(total, last_total);
    last_total = total;
  }
  for (std::thread& w : workers) w.join();
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CountInRange(kComplexBegin, kShortBegin),
            kThreads * kPerThread);
  EXPECT_EQ(snap.CounterValue(Counter::kOperationsExecuted),
            kThreads * kPerThread);
  uint64_t sum = 0;
  for (size_t i = kComplexBegin; i < kShortBegin; ++i) {
    sum += snap.ops[i].sum_ns;
    if (snap.ops[i].count > 0) {
      EXPECT_EQ(snap.ops[i].min_ns, 100u);  // i & 0xff == 0 at i = 256.
      EXPECT_EQ(snap.ops[i].max_ns, 100u + 0xff);
    }
  }
  // Per-thread sum of (100 + (i & 0xff)) over i in [1, 20000].
  uint64_t expected_per_thread = 0;
  for (uint64_t i = 1; i <= kPerThread; ++i) expected_per_thread += 100 + (i & 0xff);
  EXPECT_EQ(sum, kThreads * expected_per_thread);
}

TEST(MetricsRegistryTest, NamesAreStable) {
  EXPECT_STREQ(OpTypeName(ComplexOp(9)), "complex.Q9");
  EXPECT_STREQ(OpTypeName(ShortOp(2)), "short.S2");
  EXPECT_STREQ(OpTypeName(UpdateOp(8)), "update.U8");
  EXPECT_STREQ(OpTypeName(OpType::kSchedLag), "driver.sched_lag");
  EXPECT_STREQ(CounterName(Counter::kGctDependentWaits),
               "driver.gct_dependent_waits");
  EXPECT_STREQ(GaugeName(Gauge::kMessageSlotsAllocated),
               "store.message_slots_allocated");
}

// ---- TraceSpan ------------------------------------------------------------

TEST(TraceSpanTest, RecordsIntoTheInstalledProfile) {
  OperatorProfile profile;
  {
    ScopedOperatorProfile profiling(&profile);
    {
      TraceSpan span("scan");
      span.AddRows(5);
      span.AddRows(2);
    }
    {
      TraceSpan span("sort");
      span.AddRows(1);
    }
    {
      TraceSpan span("scan");
      span.AddRows(3);
    }
  }
  // One row per label, in first-seen order; repeated labels accumulate.
  ASSERT_EQ(profile.rows().size(), 2u);
  EXPECT_STREQ(profile.rows()[0].label, "scan");
  EXPECT_STREQ(profile.rows()[1].label, "sort");
  const OperatorStats* scan = profile.Find("scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->invocations, 2u);
  EXPECT_EQ(scan->rows, 10u);
  EXPECT_GT(scan->time_ns, 0u);
  EXPECT_EQ(profile.Find("sort")->invocations, 1u);
  EXPECT_EQ(profile.Find("missing"), nullptr);

  std::vector<OperatorRow> rows = profile.TakeRows();
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_TRUE(profile.rows().empty());
}

TEST(TraceSpanTest, RecordsNothingWithoutAProfile) {
  OperatorProfile profile;
  {
    TraceSpan span("scan");
    span.AddRows(7);
  }
  {
    // Closing the scope uninstalls the profile: later spans miss it.
    ScopedOperatorProfile profiling(&profile);
  }
  {
    TraceSpan span("scan");
    span.AddRows(7);
  }
  EXPECT_TRUE(profile.rows().empty());
}

TEST(TraceSpanTest, NestedScopeRestoresTheOuterProfile) {
  OperatorProfile outer;
  OperatorProfile inner;
  {
    ScopedOperatorProfile outer_scope(&outer);
    { TraceSpan span("before"); }
    {
      ScopedOperatorProfile inner_scope(&inner);
      TraceSpan span("nested");
    }
    { TraceSpan span("after"); }
  }
  ASSERT_EQ(outer.rows().size(), 2u);
  EXPECT_STREQ(outer.rows()[0].label, "before");
  EXPECT_STREQ(outer.rows()[1].label, "after");
  ASSERT_EQ(inner.rows().size(), 1u);
  EXPECT_STREQ(inner.rows()[0].label, "nested");
  { TraceSpan span("unprofiled"); }
  EXPECT_EQ(outer.rows().size(), 2u);
}

TEST(TraceSpanTest, OuterSpanSurvivesInnerSpansAddingRows) {
  // Labels need static storage; these strings live for the process.
  static const std::array<std::string, 200> kLabels = [] {
    std::array<std::string, 200> labels;
    for (size_t i = 0; i < labels.size(); ++i) {
      labels[i] = "inner_" + std::to_string(i);
    }
    return labels;
  }();
  OperatorProfile profile;
  {
    ScopedOperatorProfile profiling(&profile);
    TraceSpan outer("outer");
    outer.AddRows(1);
    // Each inner span adds a row while the outer one is open, so the
    // profile grows far past any small initial capacity under it.
    for (const std::string& label : kLabels) {
      TraceSpan inner(label.c_str());
      inner.AddRows(2);
    }
    outer.AddRows(1);
  }
  ASSERT_EQ(profile.rows().size(), kLabels.size() + 1);
  EXPECT_STREQ(profile.rows()[0].label, "outer");
  EXPECT_EQ(profile.rows()[0].stats.invocations, 1u);
  EXPECT_EQ(profile.rows()[0].stats.rows, 2u);
  for (size_t i = 0; i < kLabels.size(); ++i) {
    EXPECT_EQ(profile.rows()[i + 1].stats.invocations, 1u) << i;
    EXPECT_EQ(profile.rows()[i + 1].stats.rows, 2u) << i;
  }
}

// ---- JSON parser ----------------------------------------------------------

TEST(JsonParserTest, ParsesWriterSubset) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"({"s":"a\"b\nc","n":[1,2.5,-3e2],"t":true,"f":false,"z":null})", &v,
      &error))
      << error;
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  const JsonValue* s = v.Find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->string, "a\"b\nc");
  const JsonValue* n = v.Find("n");
  ASSERT_NE(n, nullptr);
  ASSERT_EQ(n->array.size(), 3u);
  EXPECT_DOUBLE_EQ(n->array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(n->array[2].number, -300.0);
  EXPECT_TRUE(v.Find("t")->boolean);
  EXPECT_EQ(v.Find("z")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParserTest, RejectsMalformedInput) {
  JsonValue v;
  std::string error;
  for (const char* bad :
       {"{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "{}extra", ""}) {
    EXPECT_FALSE(ParseJson(bad, &v, &error)) << bad;
    EXPECT_FALSE(error.empty());
  }
}

// ---- Report round trip ----------------------------------------------------

RunReport MakeSampleReport() {
  MetricsRegistry registry;
  for (int i = 1; i <= 200; ++i) {
    registry.RecordLatencyMicros(ComplexOp(9), 100.0 * i);
    registry.RecordLatencyMicros(ShortOp(1), 5.0);
  }
  registry.AddCounter(Counter::kOperationsExecuted, 400);
  registry.SetGauge(Gauge::kEpochAdvances, 12);

  RunReport report;
  report.title = "unit-test run";
  report.metrics = registry.Snapshot();
  report.has_driver = true;
  report.driver.operations_executed = 400;
  report.driver.elapsed_seconds = 1.5;
  report.driver.ops_per_second = 400 / 1.5;
  report.driver.max_schedule_lag_ms = 42.0;
  report.driver.sustained = true;
  report.driver.lag_timeline_ms = {{0.0, 1.0}, {1.0, 42.0}};
  SlowQueryDossier dossier;
  dossier.op = ComplexOp(9);
  dossier.seq = 7;
  dossier.latency_ns = 20'000'000;
  OperatorRow row;
  row.label = "join1";
  row.stats.invocations = 1;
  row.stats.time_ns = 5'000'000;
  row.stats.rows = 24;
  dossier.operators.push_back(row);
  report.dossiers.push_back(dossier);
  return report;
}

TEST(ReportTest, JsonRoundTripPreservesStructure) {
  RunReport report = MakeSampleReport();
  std::string json = ToJson(report);

  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &v, &error)) << error;
  EXPECT_EQ(v.Find("schema")->string, "snb-report-v5");
  EXPECT_EQ(v.Find("title")->string, "unit-test run");

  const JsonValue* ops = v.Find("ops");
  ASSERT_NE(ops, nullptr);
  ASSERT_EQ(ops->array.size(), 2u);  // Zero-count ops omitted.
  const JsonValue& q9 = ops->array[0];
  EXPECT_EQ(q9.Find("op")->string, "complex.Q9");
  EXPECT_DOUBLE_EQ(q9.Find("count")->number, 200.0);
  // p50 of 100us..20000us uniform ~ 10000us = 10ms (bucket error only).
  EXPECT_NEAR(q9.Find("p50_ms")->number, 10.0, 0.5);
  EXPECT_NEAR(q9.Find("max_ms")->number, 20.0, 1.0);

  const JsonValue* driver = v.Find("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_DOUBLE_EQ(driver->Find("operations_executed")->number, 400.0);
  EXPECT_TRUE(driver->Find("sustained")->boolean);
  ASSERT_EQ(driver->Find("lag_timeline_ms")->array.size(), 2u);

  const JsonValue* dossiers = v.Find("dossiers");
  ASSERT_NE(dossiers, nullptr);
  ASSERT_EQ(dossiers->array.size(), 1u);
  const JsonValue* operators = dossiers->array[0].Find("operators");
  ASSERT_NE(operators, nullptr);
  ASSERT_EQ(operators->array.size(), 1u);
  EXPECT_EQ(operators->array[0].Find("name")->string, "join1");
  EXPECT_DOUBLE_EQ(operators->array[0].Find("invocations")->number, 1.0);
  EXPECT_DOUBLE_EQ(operators->array[0].Find("time_ms")->number, 5.0);
  EXPECT_DOUBLE_EQ(operators->array[0].Find("rows")->number, 24.0);

  EXPECT_TRUE(ValidateReportJson(json).ok());
}

TEST(ReportTest, CountersAndGaugesSerialized) {
  std::string json = ToJson(MakeSampleReport());
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &v, &error)) << error;
  const JsonValue* counters = v.Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* executed = counters->Find("driver.operations_executed");
  ASSERT_NE(executed, nullptr);
  EXPECT_DOUBLE_EQ(executed->number, 400.0);
  const JsonValue* gauges = v.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->Find("epoch.advances")->number, 12.0);
}

TEST(ReportTest, ValidationCatchesBrokenReports) {
  // Not the schema.
  EXPECT_FALSE(ValidateReportJson("{\"schema\":\"other\"}").ok());
  // Parse error.
  EXPECT_FALSE(ValidateReportJson("{").ok());
  // Empty ops table.
  EXPECT_FALSE(
      ValidateReportJson("{\"schema\":\"snb-report-v5\",\"ops\":[]}").ok());
  // Non-monotone percentiles.
  EXPECT_FALSE(ValidateReportJson(
                   "{\"schema\":\"snb-report-v5\",\"ops\":[{\"op\":\"x\","
                   "\"count\":2,\"p50_ms\":5.0,\"p90_ms\":1.0,"
                   "\"p95_ms\":6.0,\"p99_ms\":7.0,\"max_ms\":8.0}]}")
                   .ok());
  // Zero-count row.
  EXPECT_FALSE(ValidateReportJson(
                   "{\"schema\":\"snb-report-v5\",\"ops\":[{\"op\":\"x\","
                   "\"count\":0,\"p50_ms\":1.0,\"p90_ms\":1.0,"
                   "\"p95_ms\":1.0,\"p99_ms\":1.0,\"max_ms\":1.0}]}")
                   .ok());
}

// Every dossier operator row must carry a name and non-negative counts;
// an empty operators array (short reads, updates) stays valid.
TEST(ReportTest, ValidatorChecksOperatorRowsInDossiers) {
  std::string json = ToJson(MakeSampleReport());
  ASSERT_TRUE(ValidateReportJson(json).ok());

  auto with = [&json](const std::string& from, const std::string& to) {
    size_t at = json.find(from, json.find("\"operators\""));
    EXPECT_NE(at, std::string::npos) << from;
    std::string mutated = json;
    if (at != std::string::npos) mutated.replace(at, from.size(), to);
    return mutated;
  };
  // A negative time: the old value survives under another key, so the
  // document still parses and only time_ms is wrong.
  util::Status negative_time =
      ValidateReportJson(with("\"time_ms\":", "\"time_ms\":-1,\"was\":"));
  EXPECT_FALSE(negative_time.ok());
  EXPECT_NE(negative_time.message().find("operator row"), std::string::npos)
      << negative_time.ToString();
  EXPECT_FALSE(
      ValidateReportJson(with("\"rows\":", "\"rows\":-1,\"was\":")).ok());
  EXPECT_FALSE(ValidateReportJson(
                   with("\"invocations\":", "\"invocations\":-1,\"was\":"))
                   .ok());
  // No name.
  EXPECT_FALSE(ValidateReportJson(with("\"name\":", "\"label\":")).ok());
  // A name that is not a string.
  EXPECT_FALSE(
      ValidateReportJson(with("\"name\":\"join1\"", "\"name\":1")).ok());

  RunReport report = MakeSampleReport();
  report.dossiers[0].operators.clear();
  EXPECT_TRUE(ValidateReportJson(ToJson(report)).ok());
}

// ---- Compliance section ---------------------------------------------------

ComplianceSection MakeCompliance() {
  ComplianceSection c;
  c.window_ms = 100.0;
  c.required_on_time_fraction = 0.95;
  c.scheduled_ops = 1000;
  c.on_time_ops = 970;
  c.on_time_fraction = 0.97;
  c.passed = true;
  c.lateness_histogram_ms = {{0.0, 900}, {50.0, 70}, {200.0, 30}};
  c.per_op = {{"update.U7", 600, 25, 350.5}, {"complex.Q9", 400, 5, 120.0}};
  return c;
}

TEST(ReportTest, ComplianceSectionRoundTrip) {
  RunReport report = MakeSampleReport();
  report.has_compliance = true;
  report.compliance = MakeCompliance();
  std::string json = ToJson(report);
  EXPECT_TRUE(ValidateReportJson(json).ok());

  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &v, &error)) << error;
  const JsonValue* c = v.Find("compliance");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->Find("window_ms")->number, 100.0);
  EXPECT_DOUBLE_EQ(c->Find("required_on_time_fraction")->number, 0.95);
  EXPECT_DOUBLE_EQ(c->Find("scheduled_ops")->number, 1000.0);
  EXPECT_DOUBLE_EQ(c->Find("on_time_ops")->number, 970.0);
  EXPECT_TRUE(c->Find("passed")->boolean);
  const JsonValue* hist = c->Find("lateness_histogram_ms");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->array.size(), 3u);
  EXPECT_DOUBLE_EQ(hist->array[1].array[0].number, 50.0);
  EXPECT_DOUBLE_EQ(hist->array[1].array[1].number, 70.0);
  const JsonValue* worst = c->Find("worst_offenders");
  ASSERT_NE(worst, nullptr);
  ASSERT_EQ(worst->array.size(), 2u);
  EXPECT_EQ(worst->array[0].Find("op")->string, "update.U7");
  EXPECT_DOUBLE_EQ(worst->array[0].Find("max_late_ms")->number, 350.5);
}

TEST(ReportTest, ValidationChecksComplianceConsistency) {
  RunReport report = MakeSampleReport();
  report.has_compliance = true;

  // On-time count exceeding the scheduled count is structural corruption.
  report.compliance = MakeCompliance();
  report.compliance.on_time_ops = 2000;
  EXPECT_FALSE(ValidateReportJson(ToJson(report)).ok());

  // Fraction outside [0, 1].
  report.compliance = MakeCompliance();
  report.compliance.on_time_fraction = 1.5;
  EXPECT_FALSE(ValidateReportJson(ToJson(report)).ok());

  // Histogram must account for every scheduled operation.
  report.compliance = MakeCompliance();
  report.compliance.lateness_histogram_ms = {{0.0, 1}};
  EXPECT_FALSE(ValidateReportJson(ToJson(report)).ok());
}

TEST(ReportTest, ValidatorAcceptsOnlyTheV5Tag) {
  // The writer emits v5 and nothing reads an older report, so the same
  // document under an earlier (or later) tag is rejected.
  auto with_schema = [](const std::string& tag) {
    return ValidateReportJson("{\"schema\":\"" + tag +
                              "\",\"ops\":[{\"op\":\"x\","
                              "\"count\":2,\"p50_ms\":1.0,\"p90_ms\":2.0,"
                              "\"p95_ms\":3.0,\"p99_ms\":4.0,"
                              "\"max_ms\":5.0}]}");
  };
  EXPECT_TRUE(with_schema("snb-report-v5").ok());
  for (const char* tag : {"snb-report-v1", "snb-report-v2", "snb-report-v3",
                          "snb-report-v4", "snb-report-v6"}) {
    util::Status s = with_schema(tag);
    EXPECT_FALSE(s.ok()) << tag;
    EXPECT_NE(s.message().find("schema tag"), std::string::npos) << tag;
  }
}

// ---- Profile section (v5) -------------------------------------------------

/// A structurally valid v5 profile section to perturb per invariant.
ProfileSection MakeProfile() {
  ProfileSection p;
  p.backend = "timer";
  p.message = "sampling live";
  p.interval_us = 997;
  p.captured = 100;
  p.attributed = 90;
  p.unattributed = 8;
  p.dropped = 2;
  p.self_overhead_ns = 50'000;
  p.task_clock_ns = 500'000'000;
  p.threads = 5;
  ProfileSection::OpFrames op;
  op.op = "complex.Q9";
  op.samples = 90;
  op.frames.push_back({"snb::queries::Query9WithPlan", 60});
  op.frames.push_back({"snb::store::MessageIndex::Scan", 30});
  p.top_frames.push_back(op);
  return p;
}

TEST(ReportTest, ProfileSectionRoundTrip) {
  RunReport report = MakeSampleReport();
  report.has_profile = true;
  report.profile = MakeProfile();
  std::string json = ToJson(report);
  ASSERT_TRUE(ValidateReportJson(json).ok()) << json.substr(0, 300);

  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &v, &error)) << error;
  const JsonValue* profile = v.Find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->Find("backend")->string, "timer");
  EXPECT_DOUBLE_EQ(profile->Find("captured")->number, 100.0);
  EXPECT_DOUBLE_EQ(profile->Find("self_overhead_ns")->number, 50'000.0);
  const JsonValue* top = profile->Find("top_frames");
  ASSERT_NE(top, nullptr);
  ASSERT_EQ(top->array.size(), 1u);
  EXPECT_EQ(top->array[0].Find("op")->string, "complex.Q9");
  ASSERT_EQ(top->array[0].Find("frames")->array.size(), 2u);
  EXPECT_EQ(top->array[0].Find("frames")->array[0].Find("frame")->string,
            "snb::queries::Query9WithPlan");
}

TEST(ReportTest, ValidatorRejectsUnconservedProfileAccounting) {
  RunReport report = MakeSampleReport();
  report.has_profile = true;
  report.profile = MakeProfile();
  report.profile.attributed = 50;  // 50 + 8 + 2 != 100.
  util::Status status = ValidateReportJson(ToJson(report));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("captured == attributed"),
            std::string::npos)
      << status.ToString();
}

TEST(ReportTest, ValidatorRejectsOverheadExceedingTaskClock) {
  RunReport report = MakeSampleReport();
  report.has_profile = true;
  report.profile = MakeProfile();
  // Handler time is a subset of sampled CPU time; more is impossible.
  report.profile.self_overhead_ns = report.profile.task_clock_ns + 1;
  util::Status status = ValidateReportJson(ToJson(report));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("task clock"), std::string::npos)
      << status.ToString();
}

TEST(ReportTest, ValidatorRejectsUnknownProfileBackend) {
  RunReport report = MakeSampleReport();
  report.has_profile = true;
  report.profile = MakeProfile();
  report.profile.backend = "quantum";
  EXPECT_FALSE(ValidateReportJson(ToJson(report)).ok());
}

TEST(ReportTest, ValidatorRejectsSamplesUnderNoopBackend) {
  RunReport report = MakeSampleReport();
  report.has_profile = true;
  report.profile = MakeProfile();
  // A no-op backend cannot have captured anything: fabricated samples.
  report.profile.backend = "noop";
  util::Status status = ValidateReportJson(ToJson(report));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("non-timer"), std::string::npos)
      << status.ToString();

  // The degradation shape CI actually produces — noop with all-zero
  // accounting — stays valid.
  report.profile = ProfileSection();
  report.profile.backend = "noop";
  report.profile.message = "forced no-op (SNB_PROF_FORCE_NOOP)";
  EXPECT_TRUE(ValidateReportJson(ToJson(report)).ok());
}

TEST(ReportTest, ValidatorRejectsMalformedTopFrames) {
  RunReport report = MakeSampleReport();
  report.has_profile = true;
  report.profile = MakeProfile();
  report.profile.top_frames[0].frames.clear();  // Op row with no frames.
  EXPECT_FALSE(ValidateReportJson(ToJson(report)).ok());
}

TEST(ReportTest, MakeProfileSectionRanksLeafFramesPerOp) {
  prof::FoldedProfile folded;
  folded.backend = prof::Backend::kTimer;
  folded.message = "sampling live";
  folded.interval_us = 997;
  folded.accounting.captured = 60;
  folded.accounting.attributed = 50;
  folded.accounting.unattributed = 10;
  folded.accounting.threads = 2;
  auto stack = [](const char* lane, const char* op,
                  std::vector<std::string> frames, uint64_t count) {
    prof::FoldedStack s;
    s.lane = lane;
    s.op = op;
    s.frames = std::move(frames);
    s.count = count;
    return s;
  };
  // Two stacks share the leaf "Scan" under Q9 (different callers), so
  // its self-samples merge: 20 + 15 = 35, ranking above "Sort" (15).
  folded.stacks.push_back(stack("d.0", "complex.Q9", {"main", "Scan"}, 20));
  folded.stacks.push_back(stack("d.1", "complex.Q9", {"run", "Scan"}, 15));
  folded.stacks.push_back(stack("d.0", "complex.Q9", {"main", "Sort"}, 15));
  folded.stacks.push_back(stack("d.0", "", {"main", "Wait"}, 10));

  ProfileSection p = MakeProfileSection(folded, /*top_n=*/2);
  EXPECT_EQ(p.backend, "timer");
  EXPECT_EQ(p.captured, 60u);
  ASSERT_EQ(p.top_frames.size(), 2u);
  // Ops ranked by total samples: Q9 (50) before unattributed (10).
  EXPECT_EQ(p.top_frames[0].op, "complex.Q9");
  EXPECT_EQ(p.top_frames[0].samples, 50u);
  ASSERT_EQ(p.top_frames[0].frames.size(), 2u);
  EXPECT_EQ(p.top_frames[0].frames[0].frame, "Scan");
  EXPECT_EQ(p.top_frames[0].frames[0].samples, 35u);
  EXPECT_EQ(p.top_frames[0].frames[1].frame, "Sort");
  EXPECT_EQ(p.top_frames[0].frames[1].samples, 15u);
  EXPECT_EQ(p.top_frames[1].op, "(unattributed)");

  // The emitted JSON validates as a v5 document end to end.
  RunReport report = MakeSampleReport();
  report.has_profile = true;
  report.profile = p;
  EXPECT_TRUE(ValidateReportJson(ToJson(report)).ok());
}

// ---- TraceBuffer ----------------------------------------------------------

// Chrome-trace validation helper: walks traceEvents and checks, per lane,
// strictly matched B/E pairs with non-decreasing timestamps.
void CheckChromeTrace(const std::string& json, size_t* out_spans) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &v, &error)) << error;
  const JsonValue* events = v.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  std::map<int, int> open_per_lane;
  std::map<int, double> last_ts;
  size_t spans = 0;
  for (const JsonValue& e : events->array) {
    const std::string& ph = e.Find("ph")->string;
    if (ph == "M") continue;  // Metadata carries no timestamp.
    ASSERT_TRUE(ph == "B" || ph == "E") << ph;
    int lane = static_cast<int>(e.Find("tid")->number);
    double ts = e.Find("ts")->number;
    auto [it, fresh] = last_ts.emplace(lane, ts);
    if (!fresh) {
      EXPECT_GE(ts, it->second) << "lane " << lane;
      it->second = ts;
    }
    if (ph == "B") {
      ASSERT_NE(e.Find("name"), nullptr);
      ++open_per_lane[lane];
      ++spans;
    } else {
      ASSERT_GT(open_per_lane[lane], 0) << "E without B on lane " << lane;
      --open_per_lane[lane];
    }
  }
  for (const auto& [lane, open] : open_per_lane) {
    EXPECT_EQ(open, 0) << "unclosed span on lane " << lane;
  }
  if (out_spans != nullptr) *out_spans = spans;
}

TEST(TraceBufferTest, MultiThreadExportIsWellFormedChromeTrace) {
  TraceBuffer buffer;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&buffer, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        TraceEvent event;
        event.op = ComplexOp(1 + ((t + i) % 14));
        event.exec_begin_ns = buffer.NowNs();
        if (i % 3 == 0) {
          // Simulate a T_GC wait preceding execution.
          event.gct_begin_ns =
              event.exec_begin_ns > 500 ? event.exec_begin_ns - 500 : 0;
          event.gct_wait_ns = 400;
        }
        if (i % 2 == 0) {
          event.sched_ns = static_cast<int64_t>(event.exec_begin_ns) - 100;
        }
        event.end_ns = event.exec_begin_ns + 1000 + i;
        buffer.Record(event);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(buffer.recorded(), kThreads * kOpsPerThread);
  EXPECT_EQ(buffer.dropped(), 0u);
  ASSERT_EQ(buffer.Events().size(), kThreads * kOpsPerThread);

  size_t spans = 0;
  CheckChromeTrace(ToChromeTraceJson(buffer), &spans);
  // Every op span, plus one gct_wait sub-span per i%3==0 event.
  size_t gct_spans = 0;
  for (const TraceEvent& e : buffer.Events()) {
    if (e.gct_wait_ns > 0) ++gct_spans;
  }
  EXPECT_EQ(spans, kThreads * kOpsPerThread + gct_spans);
}

TEST(TraceBufferTest, RingBoundOverwritesOldestAndCounts) {
  TraceBuffer buffer(/*events_per_lane=*/16);
  for (int i = 0; i < 100; ++i) {
    TraceEvent event;
    event.op = ShortOp(1);
    event.exec_begin_ns = static_cast<uint64_t>(i) * 10;
    event.end_ns = event.exec_begin_ns + 5;
    buffer.Record(event);
  }
  EXPECT_EQ(buffer.recorded(), 100u);
  EXPECT_EQ(buffer.dropped(), 84u);  // 100 - 16 retained.
  std::vector<TraceEvent> events = buffer.Events();
  ASSERT_EQ(events.size(), 16u);
  // The retained window is the *tail* of the run.
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.exec_begin_ns, 84u * 10);
  }
  CheckChromeTrace(ToChromeTraceJson(buffer), nullptr);
}

TEST(TraceBufferTest, PerLaneStatsAccountForEveryRecordedEvent) {
  TraceBuffer buffer(/*events_per_lane=*/8);
  constexpr int kThreads = 3;
  const int counts[kThreads] = {4, 8, 30};  // Under, at, past the ring bound.
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&buffer, n = counts[t]] {
      for (int i = 0; i < n; ++i) {
        TraceEvent event;
        event.op = ShortOp(1);
        event.exec_begin_ns = static_cast<uint64_t>(i) * 10;
        event.end_ns = event.exec_begin_ns + 5;
        buffer.Record(event);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  std::vector<TraceBuffer::LaneStats> lanes = buffer.PerLaneStats();
  ASSERT_EQ(lanes.size(), static_cast<size_t>(kThreads));
  uint64_t recorded = 0;
  uint64_t dropped = 0;
  for (const TraceBuffer::LaneStats& lane : lanes) {
    EXPECT_EQ(lane.recorded, lane.retained + lane.dropped)
        << "lane " << lane.lane;
    EXPECT_LE(lane.retained, 8u);
    recorded += lane.recorded;
    dropped += lane.dropped;
  }
  // Lane rows must sum to the aggregate counters: no event unaccounted.
  EXPECT_EQ(recorded, buffer.recorded());
  EXPECT_EQ(dropped, buffer.dropped());
  EXPECT_EQ(recorded, 42u);
  EXPECT_EQ(dropped, 22u);  // Only the 30-event lane wraps: 30 - 8.
}

TEST(TraceBufferTest, SchedArgsOnlyOnScheduledOps) {
  TraceBuffer buffer;
  TraceEvent scheduled;
  scheduled.op = UpdateOp(7);
  scheduled.sched_ns = 1'000'000;
  scheduled.exec_begin_ns = 3'500'000;
  scheduled.end_ns = 4'000'000;
  buffer.Record(scheduled);
  TraceEvent unscheduled;
  unscheduled.op = ShortOp(2);
  unscheduled.exec_begin_ns = 5'000'000;
  unscheduled.end_ns = 6'000'000;
  buffer.Record(unscheduled);

  std::string json = ToChromeTraceJson(buffer);
  CheckChromeTrace(json, nullptr);
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &v, &error)) << error;
  int with_args = 0;
  for (const JsonValue& e : v.Find("traceEvents")->array) {
    if (e.Find("ph")->string != "B") continue;
    const JsonValue* args = e.Find("args");
    if (e.Find("name")->string == OpTypeName(UpdateOp(7))) {
      ASSERT_NE(args, nullptr);
      // 3.5ms actual - 1.0ms scheduled = 2.5ms lag (exact at the %.3f
      // precision the exporter prints args with).
      EXPECT_NEAR(args->Find("lag_ms")->number, 2.5, 1e-9);
      EXPECT_NEAR(args->Find("sched_ms")->number, 1.0, 1e-9);
      ++with_args;
    } else {
      EXPECT_EQ(args, nullptr) << e.Find("name")->string;
    }
  }
  EXPECT_EQ(with_args, 1);
}

// ---- Q9 plans' operator rows -------------------------------------------

class Q9ProfileTest : public ::testing::Test {
 protected:
  static store::GraphStore& Store() {
    static store::GraphStore* store = [] {
      datagen::DatagenConfig config;
      config.num_persons = 250;
      config.split_update_stream = false;
      datagen::Dataset dataset = datagen::Generate(config);
      auto* s = new store::GraphStore();
      EXPECT_TRUE(s->BulkLoad(dataset.bulk).ok());
      return s;
    }();
    return *store;
  }

  static std::vector<schema::PersonId> Persons() {
    std::vector<schema::PersonId> ids;
    auto pin = Store().ReadLock();
    for (schema::PersonId p : Store().PersonIds(pin)) {
      if (p % 23 == 0) ids.push_back(p);
    }
    return ids;
  }

  /// The rows of one plan's spans over every sampled person.
  static OperatorProfile RunPlan(queries::JoinStrategy j1,
                                 queries::JoinStrategy j2,
                                 queries::JoinStrategy j3) {
    OperatorProfile profile;
    ScopedOperatorProfile profiling(&profile);
    for (schema::PersonId p : Persons()) {
      (void)queries::Query9WithPlan(Store(), p, kMaxDate, 20, j1, j2, j3);
    }
    return profile;
  }

  static constexpr util::TimestampMs kMaxDate =
      util::kNetworkStartMs + 30 * util::kMillisPerMonth;
};

TEST_F(Q9ProfileTest, InlAndHashPlansAgreeOnJoinRows) {
  using queries::JoinStrategy;
  const size_t runs = Persons().size();
  ASSERT_GT(runs, 0u);
  OperatorProfile inl = RunPlan(JoinStrategy::kIndexNestedLoop,
                                JoinStrategy::kIndexNestedLoop,
                                JoinStrategy::kIndexNestedLoop);
  OperatorProfile hash =
      RunPlan(JoinStrategy::kHash, JoinStrategy::kHash, JoinStrategy::kHash);
  for (const char* join : {"join1", "join2", "join3"}) {
    ASSERT_NE(inl.Find(join), nullptr) << join;
    ASSERT_NE(hash.Find(join), nullptr) << join;
    EXPECT_EQ(inl.Find(join)->invocations, runs) << join;
    EXPECT_EQ(hash.Find(join)->invocations, runs) << join;
    EXPECT_EQ(inl.Find(join)->rows, hash.Find(join)->rows) << join;
  }
  EXPECT_GT(inl.Find("join1")->rows, 0u);
  EXPECT_GE(inl.Find("join2")->rows, inl.Find("join1")->rows);
  ASSERT_NE(inl.Find("sort_limit"), nullptr);
  EXPECT_EQ(inl.Find("sort_limit")->invocations, runs);
}

TEST_F(Q9ProfileTest, HashBuildAppearsExactlyWithAHashJoin) {
  using queries::JoinStrategy;
  for (JoinStrategy j1 : {JoinStrategy::kIndexNestedLoop, JoinStrategy::kHash}) {
    for (JoinStrategy j2 :
         {JoinStrategy::kIndexNestedLoop, JoinStrategy::kHash}) {
      for (JoinStrategy j3 :
           {JoinStrategy::kIndexNestedLoop, JoinStrategy::kHash}) {
        bool any_hash = j1 == JoinStrategy::kHash ||
                        j2 == JoinStrategy::kHash ||
                        j3 == JoinStrategy::kHash;
        OperatorProfile profile = RunPlan(j1, j2, j3);
        const OperatorStats* build = profile.Find("hash_build");
        EXPECT_EQ(build != nullptr, any_hash)
            << static_cast<int>(j1) << static_cast<int>(j2)
            << static_cast<int>(j3);
        if (build != nullptr) {
          EXPECT_GT(build->rows, 0u);
        }
      }
    }
  }
}

TEST_F(Q9ProfileTest, DossierWithProductionRowsRoundTrips) {
  OperatorProfile profile;
  {
    ScopedOperatorProfile profiling(&profile);
    (void)queries::Query9(Store(), Persons().front(), kMaxDate, 20);
  }
  SlowQueryDossier dossier;
  dossier.op = ComplexOp(9);
  dossier.latency_ns = 123'000;
  dossier.operators = profile.TakeRows();
  ASSERT_EQ(dossier.operators.size(), 4u);

  RunReport report;
  report.title = "q9 profile test";
  MetricsRegistry registry;
  registry.RecordLatencyMicros(ComplexOp(9), 123.0);
  report.metrics = registry.Snapshot();
  report.dossiers.push_back(dossier);
  std::string json = ToJson(report);
  ASSERT_TRUE(ValidateReportJson(json).ok());

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  const JsonValue* operators =
      doc.Find("dossiers")->array[0].Find("operators");
  ASSERT_NE(operators, nullptr);
  ASSERT_EQ(operators->array.size(), dossier.operators.size());
  for (size_t i = 0; i < dossier.operators.size(); ++i) {
    const JsonValue& row = operators->array[i];
    EXPECT_EQ(row.Find("name")->string, dossier.operators[i].label);
    EXPECT_DOUBLE_EQ(row.Find("invocations")->number, 1.0);
    EXPECT_DOUBLE_EQ(row.Find("rows")->number,
                     static_cast<double>(dossier.operators[i].stats.rows));
  }
}

}  // namespace
}  // namespace snb::obs
