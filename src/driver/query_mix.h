// Query-mix construction (paper section 4, Table 4).
//
// The overall SNB-Interactive mix is calibrated so that ~10% of runtime is
// updates, ~50% complex reads and ~40% short reads. Updates come from the
// pre-generated stream; complex reads are woven in at the Table 4 relative
// frequencies ("Query 1 once every 132 update operations"), and short reads
// are spawned by the connector's random walk over complex-read results.
// As the scale factor grows, complex reads get heavier by the logarithmic
// index factor (O(D^k log n)), so their frequencies are scaled down
// accordingly ("Scaling the workload").
#ifndef SNB_DRIVER_QUERY_MIX_H_
#define SNB_DRIVER_QUERY_MIX_H_

#include <array>
#include <cstdint>
#include <vector>

#include "curation/parameter_curation.h"
#include "datagen/datagen.h"
#include "driver/operation.h"
#include "schema/dictionaries.h"

namespace snb::driver {

/// Table 4: number of update operations between two instances of each
/// complex query, at the calibration scale.
inline constexpr std::array<uint32_t, 14> kTable4Frequencies = {
    132, 240, 550, 161, 534, 1615, 144, 13, 1425, 217, 133, 238, 57, 144};

/// Frequency multiplier for a scale with `num_persons` members relative to
/// the SF1 calibration point: complex reads cost an extra log(n) factor, so
/// they run log(n)/log(n_SF1) times less often.
double FrequencyLogScale(uint64_t num_persons);

/// Knobs for workload construction.
struct QueryMixConfig {
  std::array<uint32_t, 14> frequencies = kTable4Frequencies;
  /// Multiplies every frequency (>= 1 slows reads down). Use
  /// FrequencyLogScale() to follow the paper's scaling rule.
  double frequency_scale = 1.0;
  /// Curated parameter bindings per query template.
  size_t params_per_query = 20;
  bool include_updates = true;
  bool include_complex_reads = true;
  uint64_t seed = 0x5eedULL;
};

/// A fully instantiated workload: operations sorted by due time, ready for
/// the driver.
struct Workload {
  std::vector<Operation> operations;
  uint64_t num_updates = 0;
  uint64_t num_complex_reads = 0;
};

/// The driver operation for update `index` of an update stream: its due and
/// dependency times and forum partition, and whether other operations
/// depend on it. Person-graph updates (add person, add friendship) are the
/// dependencies other streams wait on; forum-tree dependencies are captured
/// by sequential per-forum execution.
Operation MakeUpdateOperation(const datagen::UpdateOperation& update,
                              uint32_t index);

/// The "excessive synchronization" strawman of section 4.2 as a stream:
/// every update becomes a dependency, every operation waits on its full
/// dependency_time and none keeps a forum partition, so the
/// sequential-forum driver orders all updates through T_GC. Table 5's
/// execution-mode ablation replays it.
std::vector<Operation> TrackEveryUpdate(std::vector<Operation> operations);

/// Builds the interleaved update + complex-read operation stream for
/// `dataset`. Complex-read person parameters are curated from the dataset's
/// generation statistics (section 4.1); date/tag/country parameters derive
/// deterministically from the seed and due times.
Workload BuildWorkload(const datagen::Dataset& dataset,
                       const schema::Dictionaries& dictionaries,
                       const QueryMixConfig& config);

/// Result of calibrating the mix for a concrete SUT (the paper performed
/// this step with Virtuoso; we perform it against the measured costs of
/// whatever connector will run the workload).
struct MixCalibration {
  /// Per-complex-query frequency (one instance per N updates).
  std::array<uint32_t, 14> frequencies{};
  /// Random-walk parameters (P and decay) hitting the short-read share.
  double short_read_initial_probability = 0.5;
  double short_read_decay = 0.08;
  /// Expected walk length implied by the parameters.
  double expected_walk_length = 0.0;
};

/// Calibrates frequencies and walk parameters so that, given the measured
/// mean costs (microseconds), the run spends `update_share` of its CPU time
/// on updates, `complex_share` on complex reads (equal time per query type)
/// and the rest on short reads — the paper's 10% / 50% / 40% target.
///
/// `complex_cost_us[q-1]` is the mean cost of query q; `num_updates` and
/// `mean_update_cost_us` describe the update stream; `mean_short_cost_us`
/// the average short-read cost.
MixCalibration CalibrateMix(const std::array<double, 14>& complex_cost_us,
                            uint64_t num_updates,
                            double mean_update_cost_us,
                            double mean_short_cost_us,
                            double update_share = 0.10,
                            double complex_share = 0.50);

}  // namespace snb::driver

#endif  // SNB_DRIVER_QUERY_MIX_H_
