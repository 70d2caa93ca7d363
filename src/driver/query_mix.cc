#include "driver/query_mix.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/rng.h"

namespace snb::driver {
namespace {

using curation::PcTable;
using util::RandomPurpose;
using util::Rng;

// Picks a curated parameter for instance number `n` of a query, cycling.
schema::PersonId Cycle(const std::vector<uint64_t>& params, uint64_t n) {
  if (params.empty()) return schema::kInvalidId;
  return params[n % params.size()];
}

}  // namespace

MixCalibration CalibrateMix(const std::array<double, 14>& complex_cost_us,
                            uint64_t num_updates,
                            double mean_update_cost_us,
                            double mean_short_cost_us, double update_share,
                            double complex_share) {
  MixCalibration out;
  double short_share = 1.0 - update_share - complex_share;
  double update_total_us =
      static_cast<double>(num_updates) * std::max(mean_update_cost_us, 1e-3);
  double complex_total_us = update_total_us * complex_share / update_share;
  double short_total_us = update_total_us * short_share / update_share;

  // Equal CPU time per complex query type ("queries that touch more data
  // run less frequently").
  double per_query_us = complex_total_us / 14.0;
  double total_instances = 0.0;
  for (int q = 0; q < 14; ++q) {
    double cost = std::max(complex_cost_us[q], 1e-3);
    double instances = per_query_us / cost;
    uint64_t freq = instances >= 1.0
                        ? static_cast<uint64_t>(
                              static_cast<double>(num_updates) / instances)
                        : num_updates;
    out.frequencies[q] =
        static_cast<uint32_t>(std::clamp<uint64_t>(freq, 1, num_updates));
    total_instances += static_cast<double>(num_updates) / out.frequencies[q];
  }

  // Short reads are spawned by the random walk after every complex read;
  // choose the expected walk length to fill the remaining share. With
  // p starting at P=1 and decreasing by `decay` per step, the expected
  // number of steps is ~sqrt(pi / (2 * decay)).
  double walk_length = short_total_us /
                       std::max(mean_short_cost_us, 1e-3) /
                       std::max(total_instances, 1.0);
  walk_length = std::clamp(walk_length, 0.1, 10000.0);
  out.expected_walk_length = walk_length;
  if (walk_length <= 1.0) {
    out.short_read_initial_probability = walk_length;
    out.short_read_decay = 1.0;  // At most one step.
  } else {
    out.short_read_initial_probability = 1.0;
    out.short_read_decay =
        std::numbers::pi / (2.0 * walk_length * walk_length);
  }
  return out;
}

double FrequencyLogScale(uint64_t num_persons) {
  double base = std::log10(static_cast<double>(
      datagen::PersonsForScaleFactor(1.0)));
  double now = std::log10(static_cast<double>(std::max<uint64_t>(
      num_persons, 10)));
  return std::max(now / base, 0.1);
}

Operation MakeUpdateOperation(const datagen::UpdateOperation& update,
                              uint32_t index) {
  Operation op;
  op.type = OperationType::kUpdate;
  op.update_index = index;
  op.update_kind = static_cast<uint8_t>(update.kind);
  op.due_time = update.due_time;
  op.dependency_time = update.dependency_time;
  op.person_dependency_time = update.person_dependency_time;
  op.forum_partition = update.forum_partition;
  op.is_dependency = update.kind == datagen::UpdateKind::kAddPerson ||
                     update.kind == datagen::UpdateKind::kAddFriendship;
  return op;
}

std::vector<Operation> TrackEveryUpdate(std::vector<Operation> operations) {
  for (Operation& op : operations) {
    if (op.type == OperationType::kUpdate) op.is_dependency = true;
    op.person_dependency_time = op.dependency_time;
    op.forum_partition = schema::kInvalidId;
  }
  return operations;
}

Workload BuildWorkload(const datagen::Dataset& dataset,
                       const schema::Dictionaries& dictionaries,
                       const QueryMixConfig& config) {
  Workload workload;

  // Curate person parameters once per parameter profile (section 4.1).
  PcTable q2_table = curation::BuildQuery2Table(dataset.stats);
  PcTable two_hop_table = curation::BuildTwoHopTable(dataset.stats);
  std::vector<uint64_t> one_hop_params =
      curation::CurateParameters(q2_table, config.params_per_query);
  std::vector<uint64_t> two_hop_params =
      curation::CurateParameters(two_hop_table, config.params_per_query);

  // Per-query choice of parameter profile: queries over the 1-hop circle
  // use the Q2 table, 2..3-hop queries the two-hop table.
  auto params_for_query = [&](int q) -> const std::vector<uint64_t>& {
    switch (q) {
      case 2:
      case 4:
      case 7:
      case 8:
      case 12:
        return one_hop_params;
      default:
        return two_hop_params;
    }
  };

  // Scaled frequencies.
  std::array<uint64_t, 14> freq;
  for (int q = 0; q < 14; ++q) {
    freq[q] = std::max<uint64_t>(
        1, static_cast<uint64_t>(config.frequencies[q] *
                                 config.frequency_scale));
  }

  Rng aux_rng(config.seed, 0x417, RandomPurpose::kQueryMix);
  std::array<uint64_t, 14> instance_count{};

  auto make_read = [&](int q, util::TimestampMs due) {
    Operation op;
    op.type = OperationType::kComplexRead;
    op.query_id = static_cast<uint8_t>(q);
    op.due_time = due;
    uint64_t n = instance_count[q - 1]++;
    op.person_param = Cycle(params_for_query(q), n);
    switch (q) {
      case 1:
        // A skewed-popular first name.
        op.aux0 = aux_rng.NextBounded(40);
        break;
      case 2:
      case 9:
        // "Created before": just before the operation's own simulation time.
        op.aux0 = static_cast<uint64_t>(due - util::kMillisPerDay);
        break;
      case 3: {
        op.aux0 = aux_rng.NextBounded(dictionaries.countries().size()) |
                  (aux_rng.NextBounded(dictionaries.countries().size())
                   << 8);
        op.aux1 = static_cast<uint64_t>(due - 90 * util::kMillisPerDay);
        break;
      }
      case 4:
        op.aux0 = static_cast<uint64_t>(due - 30 * util::kMillisPerDay);
        op.aux1 = 30;  // Duration days.
        break;
      case 5:
        op.aux0 = static_cast<uint64_t>(due - 60 * util::kMillisPerDay);
        break;
      case 6:
        op.aux0 = aux_rng.NextBounded(dictionaries.tags().size());
        break;
      case 10:
        op.aux0 = 1 + aux_rng.NextBounded(12);  // Horoscope month.
        break;
      case 11:
        op.aux0 = aux_rng.NextBounded(dictionaries.countries().size());
        op.aux1 = 2013;
        break;
      case 12:
        op.aux0 = aux_rng.NextBounded(dictionaries.tag_classes().size());
        break;
      case 13:
      case 14:
        op.person_param2 = Cycle(params_for_query(q), n + 7);
        break;
      default:
        break;
    }
    workload.operations.push_back(op);
    ++workload.num_complex_reads;
  };

  if (config.include_updates) {
    for (size_t i = 0; i < dataset.updates.size(); ++i) {
      const datagen::UpdateOperation& u = dataset.updates[i];
      workload.operations.push_back(
          MakeUpdateOperation(u, static_cast<uint32_t>(i)));
      ++workload.num_updates;

      if (config.include_complex_reads) {
        for (int q = 1; q <= 14; ++q) {
          if ((i + 1) % freq[q - 1] == 0) {
            make_read(q, u.due_time + 1);
          }
        }
      }
    }
  } else if (config.include_complex_reads) {
    // Read-only workload: schedule each query at its frequency over the
    // update-stream window even without executing updates.
    util::TimestampMs start = util::UpdateStreamStartMs();
    uint64_t virtual_updates = 20000;
    for (uint64_t i = 0; i < virtual_updates; ++i) {
      util::TimestampMs due =
          start + static_cast<util::TimestampMs>(i) * 1000;
      for (int q = 1; q <= 14; ++q) {
        if ((i + 1) % freq[q - 1] == 0) make_read(q, due);
      }
    }
  }

  std::stable_sort(workload.operations.begin(), workload.operations.end(),
                   [](const Operation& a, const Operation& b) {
                     return a.due_time < b.due_time;
                   });
  return workload;
}

}  // namespace snb::driver
