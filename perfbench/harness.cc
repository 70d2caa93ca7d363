#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>

namespace snb::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The mix BuildWorkload receives for `spec` on `dataset`.
driver::QueryMixConfig MixFor(const WorkloadSpec& spec,
                              const datagen::Dataset& dataset, uint64_t seed) {
  driver::QueryMixConfig mix;
  mix.frequencies = spec.frequencies;
  mix.frequency_scale =
      spec.log_scale ? driver::FrequencyLogScale(dataset.stats.num_persons)
                     : 1.0;
  mix.params_per_query = spec.params_per_query;
  mix.include_complex_reads = spec.complex_reads;
  mix.seed = seed;
  return mix;
}

}  // namespace

std::unique_ptr<store::GraphStore> LoadStore(const datagen::Dataset& dataset,
                                             double* seconds) {
  Clock::time_point start = Clock::now();
  auto store = std::make_unique<store::GraphStore>();
  util::Status status = store->BulkLoad(dataset.bulk);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: bulk load failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  if (seconds != nullptr) *seconds = SecondsSince(start);
  return store;
}

std::unique_ptr<World> SetUp(const WorkloadSpec& spec, uint64_t seed,
                             std::unique_ptr<store::GraphStore>* store) {
  auto world = std::make_unique<World>();

  Clock::time_point start = Clock::now();
  datagen::DatagenConfig config =
      datagen::DatagenConfig::ForScaleFactor(spec.scale_factor);
  config.seed = seed;
  world->dictionaries = std::make_unique<schema::Dictionaries>(seed);
  world->dataset = datagen::Generate(config, *world->dictionaries);
  world->generate_s = SecondsSince(start);

  *store = LoadStore(world->dataset, &world->bulk_load_s);

  start = Clock::now();
  driver::Workload workload = driver::BuildWorkload(
      world->dataset, *world->dictionaries,
      MixFor(spec, world->dataset, seed));
  world->build_workload_s = SecondsSince(start);

  world->operations = std::move(workload.operations);
  if (spec.operation_count > 0 &&
      spec.operation_count < world->operations.size()) {
    world->operations.resize(spec.operation_count);
  }
  if (world->operations.empty()) {
    std::fprintf(stderr, "perfbench: workload %s built no operations\n",
                 spec.name.c_str());
    std::exit(1);
  }
  // The stream is due-time ordered and updates enter it in stream order,
  // so the prefix applies exactly updates[0, max index + 1).
  for (const driver::Operation& op : world->operations) {
    if (op.type == driver::OperationType::kUpdate) {
      world->num_updates =
          std::max<size_t>(world->num_updates, op.update_index + size_t{1});
    } else if (op.type == driver::OperationType::kComplexRead) {
      ++world->num_complex_reads;
    }
  }
  return world;
}

std::unique_ptr<driver::StoreConnector> MakeConnector(
    const World& world, const WorkloadSpec& spec, store::GraphStore* store,
    obs::MetricsRegistry* metrics) {
  return std::make_unique<driver::StoreConnector>(
      store, &world.dataset.updates, world.dictionaries.get(), metrics,
      spec.walk);
}

Replay RunReplay(const World& world, driver::Connector& connector,
                 double acceleration, obs::MetricsRegistry* metrics) {
  driver::DriverConfig config;
  config.num_partitions = kPartitions;
  config.mode = driver::ExecutionMode::kSequentialForum;
  config.acceleration = acceleration;
  config.metrics = metrics;
  Replay replay;
  double cpu_before = ProcessCpuSeconds();
  replay.report = driver::RunWorkload(world.operations, connector, config);
  replay.cpu_s = ProcessCpuSeconds() - cpu_before;
  return replay;
}

util::Status NoopConnector::Execute(const driver::Operation& /*op*/) {
  return util::Status::Ok();
}

TimingConnector::TimingConnector(
    driver::Connector* inner, const std::vector<driver::Operation>& operations)
    : inner_(inner),
      operations_(&operations),
      begin_ns_(operations.size(), 0),
      end_ns_(operations.size(), 0) {}

util::Status TimingConnector::Execute(const driver::Operation& op) {
  int64_t begin = NowNs();
  util::Status status = inner_->Execute(op);
  int64_t end = NowNs();
  size_t i = OperationIndex(*operations_, op);
  // The driver handing over a copy would leave nothing to time against
  // the schedule; the run then fails instead of timing the wrong slot.
  if (i == operations_->size()) {
    return util::Status::Internal("operation not from the replayed stream");
  }
  begin_ns_[i] = begin;
  end_ns_[i] = end;
  return status;
}

size_t OperationIndex(const std::vector<driver::Operation>& operations,
                      const driver::Operation& op) {
  std::less<const driver::Operation*> before;
  const driver::Operation* first = operations.data();
  const driver::Operation* last = first + operations.size();
  if (before(&op, first) || !before(&op, last)) return operations.size();
  return static_cast<size_t>(&op - first);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace snb::perfbench
