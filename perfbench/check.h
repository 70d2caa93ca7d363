// Output check: the store a replay left behind against a serial reference.
//
// The reference is the golden emitter's ground truth: the same dataset bulk
// loaded, then every replayed update applied with queries::ApplyUpdate in
// stream order on one thread. The check compares the entity counts of the
// two stores, then runs a deterministic sample of the workload's own
// complex reads (with their exact parameters) and S1-S7 on entities from
// their results against both, comparing rows in canonical form
// (validate/canonical.h).
#ifndef SNB_PERFBENCH_CHECK_H_
#define SNB_PERFBENCH_CHECK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace snb::perfbench {

struct CheckResult {
  /// Comparisons made (entity counts and sampled reads).
  uint64_t attempted = 0;
  /// Comparisons that differed; each is one failed operation of the run.
  uint64_t failed = 0;
  /// The first few differences, for the run's log.
  std::vector<std::string> mismatches;

  bool passed() const { return failed == 0 && attempted > 0; }
};

/// Bulk-loads the dataset and applies updates[0, world.num_updates) in
/// order. `skip_friendships` builds a deliberately wrong reference for the
/// check's own test.
std::unique_ptr<store::GraphStore> BuildReference(const World& world,
                                                  bool skip_friendships);

CheckResult CheckOutputs(const World& world, const store::GraphStore& actual,
                         const store::GraphStore& reference);

}  // namespace snb::perfbench

#endif  // SNB_PERFBENCH_CHECK_H_
