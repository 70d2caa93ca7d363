// perfbench: the LDBC SNB Interactive benchmark of this repository.
//
// One invocation runs one workload on one seed. perfbench/run.py builds
// this binary and passes the workload's definition from workloads.json:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
//             --scale-factor <sf> --complex-reads 0|1
//             --frequencies <f1,...,f14> --log-scale 0|1
//             --params-per-query <n> --walk <P>,<decay> --operations <n>
//             --latency-acceleration <a> [--spans <path>]
//   perfbench --calibrate <the same workload flags>
//   perfbench --self-test
//
// --trace 0 measures the end-to-end metrics with every piece of program
// instrumentation off: set-up time, memory, and unthrottled trials for
// CPU per operation. --trace 1 instead measures capacity, searches
// max_acceleration, makes the paced (open-loop) latency run at the
// workload's fixed acceleration and the traced replay, and reports them
// with the per-layer ledger. Both finish with the output check. The last
// line on stdout is the result, {"correct", "attempted", "failed",
// "metrics"}; the exit code is 0 only when no operation failed and the
// check passed.
//
// --calibrate re-derives a calibrated mix (frequencies and walk) for the
// given dataset, the bench_table4 procedure without dispatch overhead.
// --self-test shows that the output check fails against a wrong reference.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "check.h"
#include "harness.h"
#include "ledger.h"

namespace snb::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// End-to-end phase. Set-up runs kSetUps times (setup_s is their median) and
// each set-up's store serves one unthrottled capacity trial; more trials on
// fresh bulk loads follow until --seconds have passed, up to
// kMaxCapacityTrials in all.
constexpr int kSetUps = 3;
constexpr size_t kMaxCapacityTrials = 9;
// Ledger phase: untraced replays give capacity (the bisection's bracket)
// and obs.trace_overhead_pct's base. The bisection brackets
// max_acceleration between kLowBound and kHighBound times the acceleration
// whose average pace equals that capacity, and narrows the bracket
// kBisectSteps times.
constexpr int kUntracedTrials = 3;
constexpr double kLowBound = 0.6;
constexpr double kHighBound = 1.6;
constexpr int kBisectSteps = 5;

struct Options {
  WorkloadSpec spec;
  uint64_t seed = 0x5eedULL;
  double seconds = 20.0;
  int trace = 0;
  std::string spans_path;
  bool self_test = false;
  bool calibrate = false;
};

/// Operations attempted and failed over a whole run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const driver::DriverReport& report) {
    attempted += report.operations_executed;
    failed += report.operations_failed;
    if (report.operations_failed > 0) {
      std::fprintf(stderr, "perfbench: replay failure: %s\n",
                   report.first_error.c_str());
    }
  }
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Parses "a,b,c" into doubles; false on an empty or malformed entry.
bool ParseNumbers(const std::string& text, std::vector<double>* out) {
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    std::string item = text.substr(pos, comma - pos);
    char* end = nullptr;
    double value = std::strtod(item.c_str(), &end);
    if (item.empty() || *end != '\0' || !std::isfinite(value)) return false;
    out->push_back(value);
    pos = comma + 1;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      o->self_test = true;
      continue;
    }
    if (flag == "--calibrate") {
      o->calibrate = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    std::string value = argv[++i];
    std::vector<double> numbers;
    if (flag == "--spans") {
      o->spans_path = value;
      continue;
    }
    if (flag == "--workload") {
      o->spec.name = value;
      continue;
    }
    if (!ParseNumbers(value, &numbers)) {
      std::fprintf(stderr, "perfbench: bad value '%s' for %s\n", value.c_str(),
                   flag.c_str());
      return false;
    }
    const double first = numbers.front();
    if (flag == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 0);
    } else if (flag == "--seconds") {
      o->seconds = first;
    } else if (flag == "--trace") {
      o->trace = static_cast<int>(first);
    } else if (flag == "--scale-factor") {
      o->spec.scale_factor = first;
    } else if (flag == "--complex-reads") {
      o->spec.complex_reads = first != 0.0;
    } else if (flag == "--log-scale") {
      o->spec.log_scale = first != 0.0;
    } else if (flag == "--operations") {
      o->spec.operation_count = static_cast<size_t>(first);
    } else if (flag == "--params-per-query" && first >= 1.0) {
      o->spec.params_per_query = static_cast<size_t>(first);
    } else if (flag == "--latency-acceleration") {
      o->spec.latency_acceleration = first;
    } else if (flag == "--walk" && numbers.size() == 2) {
      o->spec.walk.initial_probability = numbers[0];
      o->spec.walk.decay = numbers[1];
    } else if (flag == "--frequencies" && numbers.size() == 14) {
      for (size_t q = 0; q < 14; ++q) {
        o->spec.frequencies[q] = static_cast<uint32_t>(numbers[q]);
      }
    } else {
      std::fprintf(stderr, "perfbench: unknown or malformed flag %s\n",
                   flag.c_str());
      return false;
    }
  }
  return true;
}

/// Prints each metric as a line for people, then the result line.
void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) +
                     ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), value, m.unit.c_str());
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("operations attempted %llu, failed %llu; output check %s\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              correct ? "PASSED" : "FAILED");
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Builds the reference, checks `actual` against it and folds the outcome
/// into the tally; true when the check passed.
bool CheckRun(const World& world, const store::GraphStore& actual,
              Tally* tally) {
  std::unique_ptr<store::GraphStore> reference =
      BuildReference(world, /*skip_friendships=*/false);
  CheckResult check = CheckOutputs(world, actual, *reference);
  tally->attempted += check.attempted;
  tally->failed += check.failed;
  std::printf("output check: %llu comparisons, %llu mismatches\n",
              static_cast<unsigned long long>(check.attempted),
              static_cast<unsigned long long>(check.failed));
  for (const std::string& m : check.mismatches) {
    std::printf("  mismatch: %s\n", m.c_str());
  }
  return check.passed();
}

void PrintWorld(const Options& o, const World& world) {
  std::printf("workload %s, seed %llu: %zu driver ops per replay (%zu updates,"
              " %llu complex reads), %llu persons\n",
              o.spec.name.c_str(), static_cast<unsigned long long>(o.seed),
              world.operations.size(), world.num_updates,
              static_cast<unsigned long long>(world.num_complex_reads),
              static_cast<unsigned long long>(world.dataset.stats.num_persons));
}

/// Response times at the fixed acceleration, in ms, from each operation's
/// due time to the end of its Execute call.
struct Latencies {
  std::vector<double> all, updates, reads;
};

/// The throttle's wall-clock origin is private to the driver; every
/// operation starts no earlier than origin + its schedule offset, so the
/// smallest (start - offset) bounds the origin from above by the shortest
/// wake-up delay, a few microseconds against millisecond latencies.
Latencies ScheduleLatencies(const World& world, const TimingConnector& timing,
                            double acceleration, Tally* tally) {
  const std::vector<driver::Operation>& ops = world.operations;
  const util::TimestampMs base = ops.front().due_time;
  auto offset_ns = [&](size_t i) {
    return static_cast<double>(ops[i].due_time - base) / acceleration * 1e6;
  };
  double origin = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (timing.begin_ns()[i] == 0) continue;
    origin = std::min(origin,
                      static_cast<double>(timing.begin_ns()[i]) - offset_ns(i));
  }
  Latencies out;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (timing.end_ns()[i] == 0) {
      ++tally->failed;  // Never executed.
      continue;
    }
    double ms =
        (static_cast<double>(timing.end_ns()[i]) - origin - offset_ns(i)) / 1e6;
    out.all.push_back(ms);
    if (ops[i].type == driver::OperationType::kUpdate) {
      out.updates.push_back(ms);
    } else {
      out.reads.push_back(ms);
    }
  }
  return out;
}

/// The acceleration whose average pace equals `capacity` ops/s.
double AccelerationAtCapacity(const World& world, double capacity) {
  return world.span_ms() * capacity /
         (1000.0 * static_cast<double>(world.operations.size()));
}

/// The highest acceleration at which a throttled replay is valid the way
/// benchmark_run judges one (DriverReport::sustained and the compliance
/// audit at DriverConfig defaults), by bisection between bounds taken from
/// the run's capacity. Each step replays on a fresh store.
double FindMaxAcceleration(const World& world, const WorkloadSpec& spec,
                           double capacity, Tally* tally) {
  auto passes = [&](double acceleration) {
    std::unique_ptr<store::GraphStore> store = LoadStore(world.dataset);
    std::unique_ptr<driver::StoreConnector> connector =
        MakeConnector(world, spec, store.get(), nullptr);
    Replay r = RunReplay(world, *connector, acceleration);
    tally->Add(r.report);
    const driver::DriverReport& rep = r.report;
    bool ok = rep.operations_failed == 0 && rep.sustained &&
              rep.has_compliance && rep.compliance.passed;
    std::printf("  acceleration %.0f: %s (%.2f%% on time, max lag %.1f ms)\n",
                acceleration, ok ? "valid" : "not valid",
                rep.has_compliance ? 100.0 * rep.compliance.on_time_fraction
                                   : 0.0,
                rep.max_schedule_lag_ms);
    return ok;
  };
  const double at_capacity = AccelerationAtCapacity(world, capacity);
  double lo = kLowBound * at_capacity;
  double hi = kHighBound * at_capacity;
  bool found = false;
  for (int i = 0; i < kBisectSteps; ++i) {
    double mid = std::sqrt(lo * hi);
    if (passes(mid)) {
      lo = mid;
      found = true;
    } else {
      hi = mid;
    }
  }
  for (int i = 0; !found && i < 4; ++i) {
    if (passes(lo)) {
      found = true;
    } else {
      lo /= 2.0;
    }
  }
  if (!found) {
    std::fprintf(stderr, "perfbench: no acceleration kept the schedule\n");
    ++tally->failed;
  }
  return lo;
}

/// One unthrottled trial: the driver's closed loop of four streams, each
/// issuing its next operation when the previous one returns.
struct Trial {
  double ops_s = 0.0;
  double cpu_us_per_op = 0.0;
};

Trial RunCapacityTrial(const World& world, const WorkloadSpec& spec,
                       store::GraphStore* store, Tally* tally) {
  std::unique_ptr<driver::StoreConnector> connector =
      MakeConnector(world, spec, store, nullptr);
  Replay r = RunReplay(world, *connector, 0.0);
  tally->Add(r.report);
  Trial trial;
  trial.ops_s = r.report.ops_per_second;
  trial.cpu_us_per_op =
      r.cpu_s * 1e6 /
      std::max<double>(1.0, static_cast<double>(r.report.operations_executed));
  std::printf("  trial: %.0f ops/s, %.3f us CPU per op\n", trial.ops_s,
              trial.cpu_us_per_op);
  return trial;
}

int RunEndToEnd(const Options& o) {
  const WorkloadSpec& spec = o.spec;
  Tally tally;
  const Clock::time_point start = Clock::now();
  std::unique_ptr<World> world;
  std::unique_ptr<store::GraphStore> store;
  std::vector<double> setup_s, rates, cpu_us;
  auto add = [&](const Trial& t) {
    rates.push_back(t.ops_s);
    cpu_us.push_back(t.cpu_us_per_op);
  };
  for (int i = 0; i < kSetUps; ++i) {
    store.reset();
    world.reset();
    world = SetUp(spec, o.seed, &store);
    setup_s.push_back(world->setup_s());
    add(RunCapacityTrial(*world, spec, store.get(), &tally));
  }
  PrintWorld(o, *world);
  while (rates.size() < kMaxCapacityTrials &&
         SecondsSince(start) < o.seconds) {
    store = LoadStore(world->dataset);
    add(RunCapacityTrial(*world, spec, store.get(), &tally));
  }
  const double peak_rss_mb = PeakRssMb();
  std::printf("capacity trials: %zu in %.1f s; median %.0f ops/s, %.3f us"
              " CPU per op\n",
              rates.size(), SecondsSince(start), Median(rates),
              Median(cpu_us));

  // The last trial's store is the one checked.
  bool correct = CheckRun(*world, *store, &tally);
  correct = correct && tally.failed == 0;
  // Capacity is printed above but reported only by the ledger run: on a
  // shared machine wall throughput moves with the CPU the hypervisor
  // steals, too widely from run to run to gate a change on. CPU per
  // operation is its twin that steal does not reach.
  std::vector<Metric> metrics = {
      {"cpu_us_per_op", Median(cpu_us), "us"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  PrintResult(correct, tally, metrics);
  return correct ? 0 : 1;
}

/// The open loop at the workload's fixed acceleration: each driver-scheduled
/// operation timed from its due time to the end of its Execute call, so
/// start lateness counts.
std::vector<Metric> RunPacedLatency(const World& world,
                                    const WorkloadSpec& spec, double capacity,
                                    Tally* tally) {
  // Without a recorded acceleration (while deriving one for workloads.json)
  // the run offers half of the pace the measured capacity keeps.
  const double acceleration =
      spec.latency_acceleration > 0.0
          ? spec.latency_acceleration
          : AccelerationAtCapacity(world, capacity) / 2.0;
  std::unique_ptr<store::GraphStore> store = LoadStore(world.dataset);
  std::unique_ptr<driver::StoreConnector> connector =
      MakeConnector(world, spec, store.get(), nullptr);
  TimingConnector timing(connector.get(), world.operations);
  Replay run = RunReplay(world, timing, acceleration);
  tally->Add(run.report);
  Latencies lat = ScheduleLatencies(world, timing, acceleration, tally);
  std::printf("paced run at acceleration %.0f: %zu ops (%zu updates, %zu"
              " complex reads with their walks), %.1f%% on time\n",
              acceleration, lat.all.size(), lat.updates.size(),
              lat.reads.size(),
              run.report.has_compliance
                  ? 100.0 * run.report.compliance.on_time_fraction
                  : 0.0);
  return {
      {"driver.paced_op_p50_ms", Percentile(lat.all, 50), "ms"},
      {"driver.paced_op_p99_ms", Percentile(lat.all, 99), "ms"},
      {"driver.paced_read_p50_ms", Percentile(lat.reads, 50), "ms"},
      {"driver.paced_read_p99_ms", Percentile(lat.reads, 99), "ms"},
      {"driver.paced_update_p50_ms", Percentile(lat.updates, 50), "ms"},
      {"driver.paced_update_p99_ms", Percentile(lat.updates, 99), "ms"},
  };
}

int RunLedger(const Options& o) {
  Tally tally;
  std::unique_ptr<store::GraphStore> store;
  std::unique_ptr<World> world = SetUp(o.spec, o.seed, &store);
  PrintWorld(o, *world);
  std::vector<double> cpu_us, rates;
  for (int i = 0; i < kUntracedTrials; ++i) {
    if (store == nullptr) store = LoadStore(world->dataset);
    Trial t = RunCapacityTrial(*world, o.spec, store.get(), &tally);
    rates.push_back(t.ops_s);
    cpu_us.push_back(t.cpu_us_per_op);
    store.reset();
  }
  const double capacity = Median(rates);
  const double max_acceleration =
      FindMaxAcceleration(*world, o.spec, capacity, &tally);
  std::vector<Metric> paced = RunPacedLatency(*world, o.spec, capacity, &tally);
  TracedRun traced = RunTraced(*world, o.spec, LoadStore(world->dataset),
                               Median(cpu_us), o.spans_path);
  tally.attempted += traced.attempted;
  tally.failed += traced.failed;
  traced.metrics.push_back({"driver.capacity_ops_s", capacity, "ops/s"});
  traced.metrics.push_back(
      {"driver.max_acceleration", max_acceleration, "x"});
  traced.metrics.insert(traced.metrics.end(), paced.begin(), paced.end());
  if (!o.spans_path.empty()) {
    std::printf("spans written to %s\n", o.spans_path.c_str());
  }
  bool correct = CheckRun(*world, *traced.store, &tally);
  correct = correct && tally.failed == 0;
  PrintResult(correct, tally, traced.metrics);
  return correct ? 0 : 1;
}

int RunSelfTest() {
  WorkloadSpec spec;
  spec.name = "self-test";
  spec.scale_factor = 0.1;
  for (size_t q = 0; q < 14; ++q) {
    spec.frequencies[q] = std::max<uint32_t>(1, spec.frequencies[q] / 10);
  }
  spec.log_scale = true;
  spec.operation_count = 20000;
  std::unique_ptr<store::GraphStore> store;
  std::unique_ptr<World> world = SetUp(spec, 0x5eedULL, &store);
  std::unique_ptr<driver::StoreConnector> connector =
      MakeConnector(*world, spec, store.get(), nullptr);
  Replay r = RunReplay(*world, *connector, 0.0);

  CheckResult right = CheckOutputs(
      *world, *store, *BuildReference(*world, /*skip_friendships=*/false));
  CheckResult wrong = CheckOutputs(
      *world, *store, *BuildReference(*world, /*skip_friendships=*/true));
  std::printf("replay: %llu ops, %llu failed\n",
              static_cast<unsigned long long>(r.report.operations_executed),
              static_cast<unsigned long long>(r.report.operations_failed));
  std::printf("true reference: %llu comparisons, %llu mismatches\n",
              static_cast<unsigned long long>(right.attempted),
              static_cast<unsigned long long>(right.failed));
  std::printf("reference without friendship updates: %llu comparisons, %llu"
              " mismatches\n",
              static_cast<unsigned long long>(wrong.attempted),
              static_cast<unsigned long long>(wrong.failed));
  for (const std::string& m : wrong.mismatches) {
    std::printf("  mismatch: %s\n", m.c_str());
  }
  bool ok = r.report.operations_failed == 0 && right.passed() &&
            !wrong.passed();
  std::printf("self-test %s\n", ok ? "PASSED" : "FAILED");
  return ok ? 0 : 1;
}

/// One unthrottled replay of `spec` with the registry wired to the
/// connector, as the calibration measures costs.
obs::MetricsSnapshot MeasureCosts(const WorkloadSpec& spec, uint64_t seed,
                                  uint64_t* num_updates) {
  std::unique_ptr<store::GraphStore> store;
  std::unique_ptr<World> world = SetUp(spec, seed, &store);
  obs::MetricsRegistry registry;
  std::unique_ptr<driver::StoreConnector> connector =
      MakeConnector(*world, spec, store.get(), &registry);
  Replay r = RunReplay(*world, *connector, 0.0, &registry);
  if (r.report.operations_failed > 0) {
    std::fprintf(stderr, "perfbench: calibration replay failed: %s\n",
                 r.report.first_error.c_str());
    std::exit(1);
  }
  *num_updates = world->num_updates;
  return registry.Snapshot();
}

/// The bench_table4 procedure at the workload's own scale, without
/// dispatch overhead: rounds of replaying the mix and re-calibrating
/// driver::CalibrateMix against the costs measured in that replay, for the
/// paper's 10/50/40 split. Unlike bench_table4 the update cost comes from
/// the mix itself: an update-only replay at full speed inflates it with
/// writer-lock waits, which would pin the update share far below 10%.
int RunCalibration(const Options& o) {
  constexpr int kRounds = 4;
  constexpr size_t kUpdateEnd = obs::kUpdateBegin + 8;
  WorkloadSpec spec = o.spec;
  spec.log_scale = false;
  spec.complex_reads = true;
  // The whole update stream: an operation-count prefix would shrink the
  // number of updates whenever a round adds reads.
  spec.operation_count = 0;
  driver::MixCalibration cal;
  for (size_t q = 0; q < 14; ++q) {
    cal.frequencies[q] =
        std::max<uint32_t>(1, driver::kTable4Frequencies[q] / 12);
  }
  double shares[3] = {0.0, 0.0, 0.0};
  for (int round = 0; round <= kRounds; ++round) {
    spec.frequencies = cal.frequencies;
    spec.walk.initial_probability = cal.short_read_initial_probability;
    spec.walk.decay = cal.short_read_decay;
    uint64_t num_updates = 0;
    obs::MetricsSnapshot snap = MeasureCosts(spec, o.seed, &num_updates);
    const double complex_us = snap.SumMicros(obs::kComplexBegin,
                                             obs::kShortBegin);
    const double short_us = snap.SumMicros(obs::kShortBegin,
                                           obs::kUpdateBegin);
    const double updates_us = snap.SumMicros(obs::kUpdateBegin, kUpdateEnd);
    const double total = complex_us + short_us + updates_us;
    shares[0] = updates_us / total;
    shares[1] = complex_us / total;
    shares[2] = short_us / total;
    std::printf("round %d: split %.1f%% / %.1f%% / %.1f%% (update/complex/"
                "short)\n",
                round, 100 * shares[0], 100 * shares[1], 100 * shares[2]);
    if (round == kRounds) break;
    std::array<double, 14> complex_cost{};
    for (int q = 1; q <= 14; ++q) {
      complex_cost[q - 1] = snap.Op(obs::ComplexOp(q)).MeanUs();
    }
    const uint64_t shorts =
        snap.CountInRange(obs::kShortBegin, obs::kUpdateBegin);
    const uint64_t updates = snap.CountInRange(obs::kUpdateBegin, kUpdateEnd);
    cal = driver::CalibrateMix(
        complex_cost, num_updates,
        updates > 0 ? updates_us / static_cast<double>(updates) : 1.0,
        shorts > 0 ? short_us / static_cast<double>(shorts) : 1.0);
  }
  std::printf("{\"frequencies\": [");
  for (size_t q = 0; q < 14; ++q) {
    std::printf("%s%u", q == 0 ? "" : ", ", spec.frequencies[q]);
  }
  std::printf("], \"walk\": {\"initial_probability\": %.6g, \"decay\": %.6g},"
              " \"achieved_split\": {\"update\": %.3f, \"complex\": %.3f,"
              " \"short\": %.3f}}\n",
              spec.walk.initial_probability, spec.walk.decay, shares[0],
              shares[1], shares[2]);
  return 0;
}

}  // namespace
}  // namespace snb::perfbench

int main(int argc, char** argv) {
  using namespace snb::perfbench;
  Options options;
  if (!ParseArgs(argc, argv, &options)) return 2;
  if (options.self_test) return RunSelfTest();
  if (options.spec.name.empty() || options.spec.scale_factor <= 0.0) {
    std::fprintf(stderr, "perfbench: --workload and --scale-factor are"
                         " required\n");
    return 2;
  }
  if (options.calibrate) return RunCalibration(options);
  return options.trace != 0 ? RunLedger(options) : RunEndToEnd(options);
}
