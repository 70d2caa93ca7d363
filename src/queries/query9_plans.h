// Query 9 under explicit physical plans — the Figure 4 choke point.
//
// The paper's intended plan for Q9 is
//     ((person INL friends) INL friends) HASH messages, then sort/top-20,
// and it reports that replacing the index-nested-loop joins with hash joins
// costs ~50% in HyPer/Virtuoso. This module executes Q9 with a selectable
// join strategy per join so the ablation bench can reproduce that
// sensitivity, and counts the de-facto intermediate result sizes (the
// paper's Cout) produced by each join. The production plan is Query9 in
// queries/complex_queries.h; these variants serve only the Figure 4 bench
// and the tests.
#ifndef SNB_QUERIES_QUERY9_PLANS_H_
#define SNB_QUERIES_QUERY9_PLANS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/report.h"
#include "obs/trace.h"
#include "queries/complex_queries.h"

namespace snb::queries {

/// Physical join algorithm choice.
enum class JoinStrategy {
  /// Per-input-tuple index lookup (the store's adjacency lists are the PK
  /// index on Friends; the per-person message list is the creator index).
  kIndexNestedLoop,
  /// Build a hash table by scanning the *entire* base relation, then probe.
  kHash,
};

/// De-facto intermediate result cardinalities (Cout) and work counters.
struct Q9PlanStats {
  uint64_t join1_output = 0;  // |friends of start|.
  uint64_t join2_output = 0;  // Friend-of-friend tuples (pre-dedup).
  uint64_t join3_output = 0;  // Qualifying (person, message) tuples.
  /// Tuples scanned to build hash tables (0 for pure-INL plans).
  uint64_t build_tuples = 0;
};

/// Per-operator wall-time profile of one (or several merged) plan
/// executions. Cardinalities (Q9PlanStats) say how much each join produced;
/// this says where the time went — the dimension Figure 4's INL-vs-hash
/// comparison actually turns on. Filled only when passed to Query9 or
/// Query9WithPlan; the null-profile path takes no timestamps.
struct Q9OperatorProfile {
  obs::OperatorStats hash_build;  // FriendsHashTable construction.
  obs::OperatorStats join1;       // person |>< friends.
  obs::OperatorStats join2;       // friends |>< friends.
  obs::OperatorStats join3;       // circle |>< messages.
  obs::OperatorStats sort_limit;  // Final sort + top-`limit` cut.

  void Merge(const Q9OperatorProfile& other) {
    hash_build.Merge(other.hash_build);
    join1.Merge(other.join1);
    join2.Merge(other.join2);
    join3.Merge(other.join3);
    sort_limit.Merge(other.sort_limit);
  }
};

/// Fixed operator order: (name, stats) rows for reports/tables. Rows with
/// zero invocations are skipped (e.g. hash_build in a pure-INL plan).
std::vector<std::pair<std::string, obs::OperatorStats>> ProfileRows(
    const Q9OperatorProfile& profile);

/// Packages a profile as the report.json "q9_profile" section.
obs::Q9ProfileSection MakeQ9ProfileSection(const Q9OperatorProfile& profile,
                                           std::string plan_label);

/// Q9 with explicit join strategies; result is identical to Query9() for
/// every strategy combination. When `profile` is non-null each operator is
/// timed via obs::TraceSpan and accumulated into it.
std::vector<Q9Result> Query9WithPlan(const GraphStore& store,
                                     schema::PersonId start,
                                     TimestampMs max_date, int limit,
                                     JoinStrategy join1, JoinStrategy join2,
                                     JoinStrategy join3,
                                     Q9PlanStats* stats = nullptr,
                                     Q9OperatorProfile* profile = nullptr);

}  // namespace snb::queries

#endif  // SNB_QUERIES_QUERY9_PLANS_H_
