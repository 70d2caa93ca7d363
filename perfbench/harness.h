// Set-up and replay plumbing shared by every phase of a benchmark run.
//
// A run drives the unmodified production path: datagen::Generate ->
// store::GraphStore::BulkLoad -> driver::BuildWorkload -> driver::RunWorkload
// over a driver::StoreConnector, in the default sequential-forum mode with
// four partitions. Everything here only calls the program's public API; the
// connectors defined below wrap the program's connector from outside.
#ifndef SNB_PERFBENCH_HARNESS_H_
#define SNB_PERFBENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "driver/connectors.h"
#include "driver/driver.h"
#include "driver/query_mix.h"
#include "obs/metrics.h"
#include "schema/dictionaries.h"
#include "store/graph_store.h"
#include "util/status.h"

namespace snb::perfbench {

/// Driver partitions (worker streams) of every replay, one per core of the
/// 4-core machine the workloads were sized on.
inline constexpr uint32_t kPartitions = 4;

/// One workload, as run.py passes it from perfbench/workloads.json.
struct WorkloadSpec {
  std::string name;
  double scale_factor = 0.4;
  bool complex_reads = true;
  /// Complex-read frequencies (one instance per N updates).
  std::array<uint32_t, 14> frequencies = driver::kTable4Frequencies;
  /// Scales the frequencies by driver::FrequencyLogScale, as benchmark_run
  /// does; off for frequencies calibrated at the workload's own scale.
  bool log_scale = false;
  /// Curated parameter bindings per query template.
  size_t params_per_query = 20;
  driver::ShortReadWalkConfig walk;
  /// Driver operations replayed: a due-time prefix of the built stream, as
  /// the LDBC driver's operation count bounds a run (0 replays all).
  size_t operation_count = 0;
  /// Fixed acceleration of the paced latency run (the same offered load on
  /// every commit).
  double latency_acceleration = 0.0;
};

/// The generated inputs of one seed.
struct World {
  std::unique_ptr<schema::Dictionaries> dictionaries;
  datagen::Dataset dataset;
  /// The replayed operation stream, sorted by due time.
  std::vector<driver::Operation> operations;
  /// Updates the stream applies: dataset.updates[0, num_updates).
  size_t num_updates = 0;
  uint64_t num_complex_reads = 0;
  double generate_s = 0.0;
  double bulk_load_s = 0.0;
  double build_workload_s = 0.0;

  double setup_s() const { return generate_s + bulk_load_s + build_workload_s; }
  /// Simulation milliseconds the replayed stream spans.
  double span_ms() const {
    return static_cast<double>(operations.back().due_time -
                               operations.front().due_time);
  }
};

/// Generate + BulkLoad + BuildWorkload, each timed. `*store` receives the
/// bulk-loaded store. Aborts the process on a load error (the inputs are
/// generated, so that is a program bug).
std::unique_ptr<World> SetUp(const WorkloadSpec& spec, uint64_t seed,
                             std::unique_ptr<store::GraphStore>* store);

/// A fresh default store holding the dataset's bulk portion.
std::unique_ptr<store::GraphStore> LoadStore(const datagen::Dataset& dataset,
                                             double* seconds = nullptr);

/// The production connector over `store`: no dispatch overhead, no trace
/// buffer and no dossier collector. `metrics` is null in measured replays.
std::unique_ptr<driver::StoreConnector> MakeConnector(
    const World& world, const WorkloadSpec& spec, store::GraphStore* store,
    obs::MetricsRegistry* metrics);

/// One RunWorkload call and the process CPU time it burned.
struct Replay {
  driver::DriverReport report;
  double cpu_s = 0.0;
};

/// Replays the world's stream through `connector` with four partitions in
/// sequential-forum mode; `acceleration` 0 is unthrottled.
Replay RunReplay(const World& world, driver::Connector& connector,
                 double acceleration, obs::MetricsRegistry* metrics = nullptr);

/// Returns OK at once: the driver-only ceiling (paper Table 5 at zero
/// service time).
class NoopConnector : public driver::Connector {
 public:
  util::Status Execute(const driver::Operation& op) override;
};

/// Records when each driver-scheduled operation entered and left the
/// wrapped connector, indexed by its position in the stream. Each slot is
/// written by the one worker that runs the operation and read only after
/// RunWorkload has joined its workers.
class TimingConnector : public driver::Connector {
 public:
  TimingConnector(driver::Connector* inner,
                  const std::vector<driver::Operation>& operations);

  util::Status Execute(const driver::Operation& op) override;

  /// steady_clock ns; 0 for operations never executed.
  const std::vector<int64_t>& begin_ns() const { return begin_ns_; }
  const std::vector<int64_t>& end_ns() const { return end_ns_; }

 private:
  driver::Connector* inner_;
  const std::vector<driver::Operation>* operations_;
  std::vector<int64_t> begin_ns_;
  std::vector<int64_t> end_ns_;
};

/// Position of `op` in `operations`, or operations.size() when the driver
/// handed over a copy instead of the stream's own element.
size_t OperationIndex(const std::vector<driver::Operation>& operations,
                      const driver::Operation& op);

int64_t NowNs();
double ProcessCpuSeconds();
int64_t ThreadCpuNs();

double Median(std::vector<double> values);
/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

}  // namespace snb::perfbench

#endif  // SNB_PERFBENCH_HARNESS_H_
