#include "ledger.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <utility>
#include <variant>

#include "exec/intersect.h"
#include "queries/complex_queries.h"

namespace snb::perfbench {
namespace {

/// Probe results land here so the timed loops cannot be optimized away.
std::atomic<uint64_t> probe_sink{0};

std::atomic<uint64_t> next_generation{1};

double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// Percentile of a registry histogram, interpolated inside the bucket that
/// holds the rank (the registry keeps bucket counts, not samples). 0 for an
/// empty series.
double HistogramPercentileUs(const obs::OpSnapshot& op, double p) {
  if (op.count == 0) return 0.0;
  double rank = p / 100.0 * static_cast<double>(op.count - 1);
  uint64_t below = 0;
  for (size_t b = 0; b < obs::LogBuckets::kNumBuckets; ++b) {
    uint64_t n = op.buckets[b];
    if (n == 0) continue;
    if (static_cast<double>(below + n) > rank) {
      double low = static_cast<double>(obs::LogBuckets::BucketLow(b));
      double high = b + 1 < obs::LogBuckets::kNumBuckets
                        ? static_cast<double>(obs::LogBuckets::BucketLow(b + 1))
                        : low + 1.0;
      double within = (rank - static_cast<double>(below) + 0.5) /
                      static_cast<double>(n);
      return (low + std::min(within, 1.0) * (high - low)) / 1000.0;
    }
    below += n;
  }
  return op.MaxUs();
}

/// The registry series of [begin, end) merged into one.
obs::OpSnapshot MergeSeries(const obs::MetricsSnapshot& snap, size_t begin,
                            size_t end) {
  obs::OpSnapshot merged;
  for (size_t i = begin; i < end; ++i) {
    const obs::OpSnapshot& op = snap.ops[i];
    merged.count += op.count;
    merged.sum_ns += op.sum_ns;
    merged.max_ns = std::max(merged.max_ns, op.max_ns);
    for (size_t b = 0; b < obs::LogBuckets::kNumBuckets; ++b) {
      merged.buckets[b] += op.buckets[b];
    }
  }
  return merged;
}

double SumNs(const obs::MetricsSnapshot& snap, size_t begin, size_t end) {
  return static_cast<double>(MergeSeries(snap, begin, end).sum_ns);
}

constexpr size_t kUpdateEnd = obs::kUpdateBegin + 8;

void AddQueryMetrics(const obs::MetricsSnapshot& snap,
                     std::vector<Metric>* out) {
  double complex_ns = SumNs(snap, obs::kComplexBegin, obs::kShortBegin);
  double short_ns = SumNs(snap, obs::kShortBegin, obs::kUpdateBegin);
  double update_ns = SumNs(snap, obs::kUpdateBegin, kUpdateEnd);
  double sut_ns = complex_ns + short_ns + update_ns;
  for (int q = 1; q <= 14; ++q) {
    const obs::OpSnapshot& op = snap.Op(obs::ComplexOp(q));
    std::string name = "queries.Q" + std::to_string(q);
    out->push_back({name + ".p50_us", HistogramPercentileUs(op, 50), "us"});
    out->push_back({name + ".p99_us", HistogramPercentileUs(op, 99), "us"});
    out->push_back({name + ".sut_share",
                    Share(static_cast<double>(op.sum_ns), sut_ns), "share"});
  }
  for (int s = 1; s <= 7; ++s) {
    out->push_back({"queries.S" + std::to_string(s) + ".p50_us",
                    HistogramPercentileUs(snap.Op(obs::ShortOp(s)), 50),
                    "us"});
  }
  for (int u = 1; u <= 8; ++u) {
    out->push_back({"queries.U" + std::to_string(u) + ".p50_us",
                    HistogramPercentileUs(snap.Op(obs::UpdateOp(u)), 50),
                    "us"});
  }
  out->push_back(
      {"queries.update.p99_us",
       HistogramPercentileUs(MergeSeries(snap, obs::kUpdateBegin, kUpdateEnd),
                             99),
       "us"});
  out->push_back({"queries.complex.count",
                  static_cast<double>(snap.CountInRange(obs::kComplexBegin,
                                                        obs::kShortBegin)),
                  "count"});
  out->push_back({"queries.short.count",
                  static_cast<double>(snap.CountInRange(obs::kShortBegin,
                                                        obs::kUpdateBegin)),
                  "count"});
  out->push_back(
      {"queries.update.count",
       static_cast<double>(snap.CountInRange(obs::kUpdateBegin, kUpdateEnd)),
       "count"});
  out->push_back({"queries.complex.sut_share", Share(complex_ns, sut_ns),
                  "share"});
  out->push_back({"queries.short.sut_share", Share(short_ns, sut_ns),
                  "share"});
  out->push_back({"queries.update.sut_share", Share(update_ns, sut_ns),
                  "share"});
}

/// Endpoints of the first `limit` friendship updates the stream applies:
/// the persons a stream without reads names.
std::vector<std::pair<schema::PersonId, schema::PersonId>> FriendshipPairs(
    const World& world, size_t limit) {
  std::vector<std::pair<schema::PersonId, schema::PersonId>> pairs;
  for (size_t i = 0; i < world.num_updates && pairs.size() < limit; ++i) {
    const auto* knows =
        std::get_if<schema::Knows>(&world.dataset.updates[i].payload);
    if (knows != nullptr) {
      pairs.emplace_back(knows->person1_id, knows->person2_id);
    }
  }
  return pairs;
}

/// Persons the workload's operations name: complex-read parameters, or,
/// on a stream without reads, the endpoints of its friendship updates.
std::vector<schema::PersonId> ParameterPersons(const World& world) {
  std::set<schema::PersonId> persons;
  for (const driver::Operation& op : world.operations) {
    if (op.type != driver::OperationType::kComplexRead) continue;
    persons.insert(op.person_param);
    if (op.person_param2 != schema::kInvalidId) {
      persons.insert(op.person_param2);
    }
  }
  if (persons.empty()) {
    for (const auto& [a, b] : FriendshipPairs(world, 128)) {
      persons.insert(a);
      persons.insert(b);
    }
  }
  return {persons.begin(), persons.end()};
}

/// Person pairs for the exec kernels: the Q13/Q14 parameter pairs, or the
/// friendship updates' endpoints on a stream without reads.
std::vector<std::pair<schema::PersonId, schema::PersonId>> ParameterPairs(
    const World& world) {
  std::set<std::pair<schema::PersonId, schema::PersonId>> pairs;
  for (const driver::Operation& op : world.operations) {
    if (op.type == driver::OperationType::kComplexRead &&
        (op.query_id == 13 || op.query_id == 14)) {
      pairs.emplace(op.person_param, op.person_param2);
    }
  }
  if (pairs.empty()) {
    for (const auto& pair : FriendshipPairs(world, 128)) pairs.insert(pair);
  }
  return {pairs.begin(), pairs.end()};
}

constexpr int kProbeCalls = 400'000;

void AddStoreProbes(const store::GraphStore& store,
                    const std::vector<schema::PersonId>& persons,
                    std::vector<Metric>* out) {
  double read_lock_ns = 0.0, find_ns = 0.0, friends_ns = 0.0;
  if (!persons.empty()) {
    // Each pin publishes into the epoch domain, so the loop has effects
    // the compiler must keep.
    int64_t start = NowNs();
    for (int i = 0; i < kProbeCalls; ++i) {
      auto pin = store.ReadLock();
    }
    read_lock_ns = static_cast<double>(NowNs() - start) / kProbeCalls;

    auto pin = store.ReadLock();
    uint64_t found = 0;
    start = NowNs();
    for (int i = 0; i < kProbeCalls; ++i) {
      found += store.FindPerson(pin, persons[i % persons.size()]) != nullptr;
    }
    find_ns = static_cast<double>(NowNs() - start) / kProbeCalls;

    // Pairs of parameter persons: mostly misses, like the queries' own
    // friendship tests between candidates.
    uint64_t friends = 0;
    start = NowNs();
    for (int i = 0; i < kProbeCalls; ++i) {
      size_t a = static_cast<size_t>(i) % persons.size();
      size_t b = (a * 7 + 1) % persons.size();
      friends += store.AreFriends(pin, persons[a], persons[b]);
    }
    friends_ns = static_cast<double>(NowNs() - start) / kProbeCalls;
    probe_sink.fetch_add(found + friends, std::memory_order_relaxed);
  }
  out->push_back({"store.read_lock_ns", read_lock_ns, "ns"});
  out->push_back({"store.find_person_ns", find_ns, "ns"});
  out->push_back({"store.are_friends_ns", friends_ns, "ns"});
}

void AddExecProbes(
    const store::GraphStore& store,
    const std::vector<std::pair<schema::PersonId, schema::PersonId>>& pairs,
    std::vector<Metric>* out) {
  std::vector<std::pair<std::vector<uint64_t>, std::vector<uint64_t>>> lists;
  size_t elements = 0;
  for (const auto& [a, b] : pairs) {
    lists.emplace_back(queries::FriendIds(store, a),
                       queries::FriendIds(store, b));
    elements += lists.back().first.size() + lists.back().second.size();
  }
  double intersect_ns = 0.0, count_ns = 0.0, difference_ns = 0.0;
  if (elements > 0) {
    const size_t reps = std::max<size_t>(1, 4'000'000 / elements);
    const double total = static_cast<double>(elements * reps);
    std::vector<uint64_t> buffer;
    uint64_t sink = 0;
    int64_t start = NowNs();
    for (size_t r = 0; r < reps; ++r) {
      for (const auto& [x, y] : lists) {
        buffer.resize(std::max(x.size(), y.size()));
        sink += exec::Intersect(x.data(), x.size(), y.data(), y.size(),
                                buffer.data());
      }
    }
    intersect_ns = static_cast<double>(NowNs() - start) / total;
    start = NowNs();
    for (size_t r = 0; r < reps; ++r) {
      for (const auto& [x, y] : lists) {
        sink += exec::IntersectCount(x.data(), x.size(), y.data(), y.size());
      }
    }
    count_ns = static_cast<double>(NowNs() - start) / total;
    start = NowNs();
    for (size_t r = 0; r < reps; ++r) {
      for (const auto& [x, y] : lists) {
        buffer.resize(std::max(x.size(), y.size()));
        sink += exec::DifferenceSorted(x.data(), x.size(), y.data(), y.size(),
                                       buffer.data());
      }
    }
    difference_ns = static_cast<double>(NowNs() - start) / total;
    probe_sink.fetch_add(sink, std::memory_order_relaxed);
  }
  out->push_back({"exec.intersect_ns_per_elem", intersect_ns, "ns"});
  out->push_back({"exec.intersect_count_ns_per_elem", count_ns, "ns"});
  out->push_back({"exec.difference_ns_per_elem", difference_ns, "ns"});
}

obs::OpType SpanOpType(const driver::Operation& op) {
  switch (op.type) {
    case driver::OperationType::kComplexRead:
      return obs::ComplexOp(op.query_id);
    case driver::OperationType::kShortRead:
      return obs::ShortOp(op.query_id);
    case driver::OperationType::kUpdate:
      break;
  }
  return obs::UpdateOp(op.update_kind == 0 ? 1 : op.update_kind);
}

/// Writes the spans as a Chrome trace (chrome://tracing, Perfetto): lane 0
/// is the RunWorkload root, lanes 1.. the driver workers.
void WriteSpans(const std::string& path, const World& world,
                const std::vector<std::vector<Span>>& lanes,
                int64_t root_begin, int64_t root_end) {
  std::filesystem::path file(path);
  if (file.has_parent_path()) {
    std::filesystem::create_directories(file.parent_path());
  }
  std::ofstream os(path);
  auto us = [root_begin](int64_t ns) {
    return static_cast<double>(ns - root_begin) / 1000.0;
  };
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"traceEvents\":[\n{\"name\":\"RunWorkload\",\"ph\":\"X\","
                "\"pid\":1,\"tid\":0,\"ts\":0,\"dur\":%.3f}",
                us(root_end));
  os << buf;
  for (const std::vector<Span>& lane : lanes) {
    for (const Span& s : lane) {
      std::snprintf(
          buf, sizeof(buf),
          ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,\"cpu_us\":%.3f}}",
          obs::OpTypeName(SpanOpType(world.operations[s.op_index])),
          s.lane + 1, us(s.begin_ns),
          static_cast<double>(s.end_ns - s.begin_ns) / 1000.0, s.op_index,
          static_cast<double>(s.cpu_ns) / 1000.0);
      os << buf;
    }
  }
  os << "\n]}\n";
  if (!os) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

}  // namespace

SpanConnector::SpanConnector(driver::Connector* inner,
                             const std::vector<driver::Operation>& operations)
    : inner_(inner),
      operations_(&operations),
      generation_(next_generation.fetch_add(1)) {}

std::vector<Span>* SpanConnector::LocalLane() {
  thread_local uint64_t owner = 0;
  thread_local std::vector<Span>* lane = nullptr;
  if (owner != generation_) {
    util::MutexLock lock(&mu_);
    lanes_.push_back(std::make_unique<std::vector<Span>>());
    lanes_.back()->reserve(operations_->size() / kPartitions + 1024);
    lane = lanes_.back().get();
    owner = generation_;
  }
  return lane;
}

util::Status SpanConnector::Execute(const driver::Operation& op) {
  std::vector<Span>* lane = LocalLane();
  Span span;
  span.begin_ns = NowNs();
  int64_t cpu_before = ThreadCpuNs();
  util::Status status = inner_->Execute(op);
  span.cpu_ns = ThreadCpuNs() - cpu_before;
  span.end_ns = NowNs();
  size_t index = OperationIndex(*operations_, op);
  if (index == operations_->size()) {
    return util::Status::Internal("operation not from the replayed stream");
  }
  span.op_index = static_cast<uint32_t>(index);
  lane->push_back(span);
  return status;
}

std::vector<std::vector<Span>> SpanConnector::TakeLanes() {
  util::MutexLock lock(&mu_);
  std::vector<std::vector<Span>> out;
  for (auto& lane : lanes_) {
    for (Span& s : *lane) s.lane = static_cast<uint32_t>(out.size());
    out.push_back(std::move(*lane));
  }
  lanes_.clear();
  return out;
}

TracedRun RunTraced(const World& world, const WorkloadSpec& spec,
                    std::unique_ptr<store::GraphStore> store,
                    double untraced_cpu_us_per_op,
                    const std::string& spans_path) {
  TracedRun run;
  std::vector<Metric>& m = run.metrics;
  m.push_back({"datagen.generate_s", world.generate_s, "s"});
  m.push_back({"driver.build_workload_s", world.build_workload_s, "s"});
  m.push_back({"store.bulk_load_s", world.bulk_load_s, "s"});

  obs::MetricsRegistry registry;
  std::unique_ptr<driver::StoreConnector> connector =
      MakeConnector(world, spec, store.get(), &registry);
  SpanConnector spans(connector.get(), world.operations);
  int64_t root_begin = NowNs();
  Replay replay = RunReplay(world, spans, 0.0, &registry);
  int64_t root_end = NowNs();
  run.attempted += replay.report.operations_executed;
  run.failed += replay.report.operations_failed;
  if (replay.report.operations_failed > 0) {
    std::fprintf(stderr, "perfbench: traced replay failed: %s\n",
                 replay.report.first_error.c_str());
  }
  std::vector<std::vector<Span>> lanes = spans.TakeLanes();
  obs::MetricsSnapshot snap = registry.Snapshot();

  m.push_back({"store.bytes_mb",
               static_cast<double>(store->ComputeStorageBreakdown().Total()) /
                   1e6,
               "MB"});
  m.push_back({"store.epoch_pending",
               static_cast<double>(store->AggregateEpochStats().pending),
               "count"});
  AddStoreProbes(*store, ParameterPersons(world), &m);
  AddQueryMetrics(snap, &m);
  AddExecProbes(*store, ParameterPairs(world), &m);

  // Worker time runs from RunWorkload's entry to each worker's last
  // Execute exit: Execute spans, T_GC waits (the registry's driver.gct_wait
  // series) and the driver's own scheduling work. After it the worker
  // idles until the slowest stream ends.
  const double ops = static_cast<double>(replay.report.operations_executed);
  const double worker_ns = static_cast<double>(kPartitions) *
                           static_cast<double>(root_end - root_begin);
  double execute_ns = 0.0, active_ns = 0.0;
  for (const std::vector<Span>& lane : lanes) {
    int64_t last_exit = root_begin;
    for (const Span& s : lane) {
      execute_ns += static_cast<double>(s.end_ns - s.begin_ns);
      last_exit = std::max(last_exit, s.end_ns);
    }
    active_ns += static_cast<double>(last_exit - root_begin);
  }
  const obs::OpSnapshot& gct = snap.Op(obs::OpType::kGctWait);
  const double gct_ns = static_cast<double>(gct.sum_ns);
  m.push_back({"driver.execute_share", Share(execute_ns, worker_ns), "share"});
  m.push_back({"driver.overhead_us_per_op",
               ops > 0 ? (active_ns - execute_ns - gct_ns) / ops / 1000.0 : 0.0,
               "us"});
  m.push_back({"driver.gct_wait_share", Share(gct_ns, worker_ns), "share"});
  m.push_back({"driver.gct_waits", static_cast<double>(gct.count), "count"});
  m.push_back({"driver.dependencies_tracked",
               static_cast<double>(replay.report.dependencies_tracked),
               "count"});
  m.push_back({"driver.tail_idle_share",
               Share(worker_ns - active_ns, worker_ns), "share"});

  const double sut_ns = SumNs(snap, obs::kComplexBegin, kUpdateEnd);
  m.push_back({"driver.connector_overhead_share",
               Share(execute_ns - sut_ns, execute_ns), "share"});
  const uint64_t complex_reads =
      snap.CountInRange(obs::kComplexBegin, obs::kShortBegin);
  m.push_back({"driver.walk_steps_per_read",
               complex_reads > 0
                   ? static_cast<double>(connector->short_reads_executed()) /
                         static_cast<double>(complex_reads)
                   : 0.0,
               "count"});
  const double traced_cpu_us_per_op = ops > 0 ? replay.cpu_s * 1e6 / ops : 0.0;
  m.push_back({"obs.trace_overhead_pct",
               untraced_cpu_us_per_op > 0.0
                   ? 100.0 * (traced_cpu_us_per_op / untraced_cpu_us_per_op -
                              1.0)
                   : 0.0,
               "%"});

  // The driver-only ceiling: the same stream at zero service time.
  std::vector<double> noop_rates;
  for (int i = 0; i < 3; ++i) {
    NoopConnector noop;
    Replay r = RunReplay(world, noop, 0.0);
    run.attempted += r.report.operations_executed;
    run.failed += r.report.operations_failed;
    noop_rates.push_back(r.report.ops_per_second);
  }
  m.push_back({"driver.noop_ops_s", Median(noop_rates), "ops/s"});

  if (!spans_path.empty()) {
    WriteSpans(spans_path, world, lanes, root_begin, root_end);
  }
  run.store = std::move(store);
  return run;
}

}  // namespace snb::perfbench
