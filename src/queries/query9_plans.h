// Query 9 under explicit physical plans — the Figure 4 choke point.
//
// The paper's intended plan for Q9 is
//     ((person INL friends) INL friends) HASH messages, then sort/top-20,
// and it reports that replacing the index-nested-loop joins with hash joins
// costs ~50% in HyPer/Virtuoso. This module executes Q9 with a selectable
// join strategy per join so the ablation bench can reproduce that
// sensitivity. Each join runs under an obs::TraceSpan whose rows are the
// de-facto intermediate result size (the paper's Cout) it produced, with
// the same labels the production Query9 uses (join1, join2, join3,
// sort_limit) plus hash_build for the tuples a hash join scans to build.
// The production plan is Query9 in queries/complex_queries.h; these
// variants serve only the Figure 4 bench and the tests.
#ifndef SNB_QUERIES_QUERY9_PLANS_H_
#define SNB_QUERIES_QUERY9_PLANS_H_

#include <vector>

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

/// Q9 with explicit join strategies; result is identical to Query9() for
/// every strategy combination. Spans: hash_build (once per plan when join1
/// or join2 is a hash join, rows = Friends tuples scanned; once more when
/// join3 is, rows = the circle it hashes), join1 (friends), join2
/// (friend-of-friend tuples before deduplication), join3 (qualifying
/// (person, message) tuples, not cut per person) and sort_limit.
std::vector<Q9Result> Query9WithPlan(const GraphStore& store,
                                     schema::PersonId start,
                                     TimestampMs max_date, int limit,
                                     JoinStrategy join1, JoinStrategy join2,
                                     JoinStrategy join3);

}  // namespace snb::queries

#endif  // SNB_QUERIES_QUERY9_PLANS_H_
