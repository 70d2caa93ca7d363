// Figure 4 reproduction: the intended execution plan of Query 9 and the
// choke point behind it — join-type choice. The paper reports that
// replacing the index-nested-loop joins of the intended plan with hash
// joins costs ~50% in HyPer/Virtuoso. We execute Q9 under the join-type
// plan variants of queries/query9_plans.h AND the production plan
// (queries::Query9: bitmap two-hop circle, each member's post and comment
// lists walked newest-first into a top-k heap, each walk stopping at the
// first rejected row older than the heap's worst row), and report
// runtime, de-facto intermediate cardinalities, a per-operator wall-time
// profile (where inside each plan the time goes), and the production
// plan's speedup over the intended plan. Each plan's parameter loop runs
// under one obs::ScopedOperatorProfile: the cardinality columns and the
// operator rows are that profile's span rows.
// The production plan's rows are cross-checked against the intended
// plan's on every parameter — a mismatch fails the bench.
//
// Usage:
//   bench_fig4_q9_plan_ablation [--report <path>] [--params N]
//                               [--perf-counters] [--cpu-profile <path>]
// With --report the bench also writes a self-validated report.json
// carrying the Q9 latencies and build provenance — the smoke artifact
// checked by scripts/check.sh. Exits nonzero when the emitted report
// fails validation. With --perf-counters the per-operator rows gain
// hardware-counter columns (IPC, LLC misses per kilo instruction) from
// the perf_event group each TraceSpan scopes, so the hash-vs-INL
// penalty can be located micro-architecturally. Degrades to
// wall-clock-only where perf_event_open is denied. With --cpu-profile the
// sampling profiler runs across the ablation and the folded stacks land
// at <path> (operator labels from the same TraceSpans), plus a report
// "profile" section when --report is given.
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "curation/parameter_curation.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/prof.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "queries/complex_queries.h"
#include "queries/query9_plans.h"
#include "util/histogram.h"
#include "util/stopwatch.h"

namespace snb::bench {
namespace {

using queries::JoinStrategy;

const char* Short(JoinStrategy s) {
  return s == JoinStrategy::kIndexNestedLoop ? "INL " : "HASH";
}

struct Options {
  std::string report_path;       // Empty = no report.
  std::string cpu_profile_path;  // Empty = no sampling profiler.
  size_t num_params = 20;
  bool perf_counters = false;
};

/// The per-operator profile rows: wall time, rows, and — when the
/// invocations ran with live counters — IPC and LLC miss rate.
void PrintOperatorRows(const obs::OperatorProfile& profile) {
  for (const obs::OperatorRow& row : profile.rows()) {
    const obs::OperatorStats& s = row.stats;
    std::printf("    %-26s %10.3f ms %12llu rows", row.label, s.TimeMs(),
                (unsigned long long)s.rows);
    if (s.hw.valid() && s.hw_invocations > 0) {
      std::printf("   ipc=%.2f llc/ki=%.2f", s.hw.Ipc(),
                  s.hw.LlcMissesPerKiloInstr());
    }
    std::printf("\n");
  }
}

/// `label`'s rows per execution (0 when no span carried it).
unsigned long long RowsPerRun(const obs::OperatorProfile& profile,
                              const char* label, size_t runs) {
  const obs::OperatorStats* s = profile.Find(label);
  return s == nullptr ? 0 : s->rows / runs;
}

int Run(const Options& options) {
  PrintHeader("Figure 4 — Query 9 intended plan & join-type ablation");
  if (options.perf_counters) EnablePerfCounters();
  if (!options.cpu_profile_path.empty()) EnableCpuProfiler();
  // Every Q9 execution below runs on this thread; the lane registration
  // gives the profiler thread attribution across the whole bench (opr:
  // labels come from the TraceSpans inside the plans themselves).
  obs::prof::ScopedThreadRegistration prof_main("bench.main");
  std::unique_ptr<BenchWorld> world = MakeWorld(kMediumSf);
  curation::PcTable table =
      curation::BuildTwoHopTable(world->dataset.stats);
  std::vector<uint64_t> params =
      curation::CurateParameters(table, options.num_params);
  util::TimestampMs max_date =
      util::kNetworkStartMs + 30 * util::kMillisPerMonth;

  struct Plan {
    JoinStrategy j1, j2, j3;
    const char* note;
  };
  // The intended plan is INL-INL-HASH (Figure 4): the last join's input is
  // too large for index lookups per tuple in the paper's systems.
  std::vector<Plan> plans = {
      {JoinStrategy::kIndexNestedLoop, JoinStrategy::kIndexNestedLoop,
       JoinStrategy::kHash, "intended plan (Fig. 4)"},
      {JoinStrategy::kIndexNestedLoop, JoinStrategy::kIndexNestedLoop,
       JoinStrategy::kIndexNestedLoop, "all-INL (creator index)"},
      {JoinStrategy::kHash, JoinStrategy::kIndexNestedLoop,
       JoinStrategy::kHash, "hash join1 (paper: ~50% penalty)"},
      {JoinStrategy::kHash, JoinStrategy::kHash, JoinStrategy::kHash,
       "all-hash"},
  };

  obs::MetricsRegistry metrics;
  std::printf("  %-16s %10s %10s %10s %10s %10s  %s\n", "plan(j1,j2,j3)",
              "mean ms", "|join1|", "|join2|", "|join3|", "build",
              "note");
  double intended_ms = 0;
  // The intended plan's rows per parameter: the production plan must match.
  std::vector<std::vector<queries::Q9Result>> intended_rows;
  double production_ms = 0;
  {
    // The complex.Q9 op context covers only the measured executions:
    // samples taken during MakeWorld/parameter curation above (and
    // report assembly below) stay unattributed instead of skewing the
    // profile's attributed counts and top frames.
    obs::prof::ScopedOpContext prof_q9(
        static_cast<uint16_t>(obs::ComplexOp(9)));
    for (const Plan& plan : plans) {
      util::SampleStats stats;
      obs::OperatorProfile profile;
      {
        obs::ScopedOperatorProfile profiling(&profile);
        for (uint64_t p : params) {
          util::Stopwatch watch;
          std::vector<queries::Q9Result> rows = queries::Query9WithPlan(
              world->store, p, max_date, 20, plan.j1, plan.j2, plan.j3);
          double micros = watch.ElapsedMicros();
          stats.Add(micros / 1000.0);
          metrics.RecordLatencyMicros(obs::ComplexOp(9), micros);
          if (plan.note[0] == 'i') intended_rows.push_back(std::move(rows));
        }
      }
      char name[32];
      std::snprintf(name, sizeof(name), "%s-%s-%s", Short(plan.j1),
                    Short(plan.j2), Short(plan.j3));
      std::printf("  %-16s %10.3f %10llu %10llu %10llu %10llu  %s\n", name,
                  stats.Mean(), RowsPerRun(profile, "join1", params.size()),
                  RowsPerRun(profile, "join2", params.size()),
                  RowsPerRun(profile, "join3", params.size()),
                  RowsPerRun(profile, "hash_build", params.size()),
                  plan.note);
      PrintOperatorRows(profile);
      if (plan.note[0] == 'i') intended_ms = stats.Mean();
    }
    // The production plan: bitmap circle, then each member's two lists
    // walked newest-first into a bounded top-k heap until a rejected row
    // is older than the heap's worst. Cross-checked against the intended
    // plan's rows on every parameter.
    util::SampleStats stats;
    obs::OperatorProfile profile;
    {
      obs::ScopedOperatorProfile profiling(&profile);
      for (size_t i = 0; i < params.size(); ++i) {
        uint64_t p = params[i];
        util::Stopwatch watch;
        std::vector<queries::Q9Result> rows =
            queries::Query9(world->store, p, max_date, 20);
        double micros = watch.ElapsedMicros();
        stats.Add(micros / 1000.0);
        metrics.RecordLatencyMicros(obs::ComplexOp(9), micros);
        const std::vector<queries::Q9Result>& expect = intended_rows[i];
        bool same = rows.size() == expect.size();
        for (size_t r = 0; same && r < rows.size(); ++r) {
          same = rows[r].message_id == expect[r].message_id &&
                 rows[r].creator_id == expect[r].creator_id &&
                 rows[r].creation_date == expect[r].creation_date;
        }
        if (!same) {
          std::fprintf(stderr,
                       "production/intended Q9 divergence at person %llu\n",
                       (unsigned long long)p);
          return 1;
        }
      }
    }
    production_ms = stats.Mean();
    std::printf("  %-16s %10.3f %10llu %10llu %10llu %10s  %s\n", "Query9",
                production_ms, RowsPerRun(profile, "join1", params.size()),
                RowsPerRun(profile, "join2", params.size()),
                RowsPerRun(profile, "join3", params.size()), "-",
                "production plan (src/exec)");
    PrintOperatorRows(profile);
  }

  std::printf(
      "\n  Cardinality profile of the intended plan (paper: 120 friends ->\n"
      "  ~thousands of fof -> millions of messages): |join1| << |join2| <<\n"
      "  messages scanned; picking hash for join1/join2 pays a full\n"
      "  Friends-table build for a ~120-tuple input. The operator rows\n"
      "  show the penalty's location: hash plans sink their time into\n"
      "  hash_build, INL plans into the joins themselves. The production\n"
      "  plan's |join3| counts the rows it pushes: it walks each circle\n"
      "  member's post and comment lists newest-first into the top-k heap\n"
      "  and stops each walk at the first rejected row older than the\n"
      "  heap's worst row.\n");
  std::printf("  intended-plan mean: %.3f ms\n", intended_ms);
  std::printf("  production-plan mean: %.3f ms\n", production_ms);
  std::printf("  production vs intended plan speedup: %.2fx\n\n",
              production_ms > 0 ? intended_ms / production_ms : 0.0);

  obs::RunReport report;
  report.title = "fig4 q9 plan ablation (" + std::to_string(params.size()) +
                 " curated params/plan)";
  StampProvenance(&report);
  if (!options.cpu_profile_path.empty()) {
    StampProfile(&report, options.cpu_profile_path);
  }
  if (options.report_path.empty()) return 0;

  report.metrics = metrics.Snapshot();
  std::string json = obs::ToJson(report);
  util::Status valid = obs::ValidateReportJson(json);
  if (!valid.ok()) {
    std::fprintf(stderr, "report self-validation failed: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  util::Status wrote = obs::WriteFileReport(options.report_path, json);
  if (!wrote.ok()) {
    std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
    return 1;
  }
  std::printf("  wrote validated %s\n\n", options.report_path.c_str());
  return 0;
}

}  // namespace
}  // namespace snb::bench

int main(int argc, char** argv) {
  snb::bench::Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      options.report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--params") == 0 && i + 1 < argc) {
      options.num_params = static_cast<size_t>(std::atoi(argv[++i]));
      if (options.num_params == 0) options.num_params = 1;
    } else if (std::strcmp(argv[i], "--perf-counters") == 0) {
      options.perf_counters = true;
    } else if (std::strcmp(argv[i], "--cpu-profile") == 0 && i + 1 < argc) {
      options.cpu_profile_path = argv[++i];
    } else if (std::strncmp(argv[i], "--cpu-profile=", 14) == 0) {
      options.cpu_profile_path = argv[i] + 14;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--report <path>] [--params N] "
                   "[--perf-counters] [--cpu-profile <path>]\n",
                   argv[0]);
      return 1;
    }
  }
  return snb::bench::Run(options);
}
