// Mutation fixture: a pinned read that allocates. The read touches only
// plain memory and takes no lock — its sole violation is the allocation,
// which a pinned reader must never make (an allocator that blocks extends
// every writer's grace period). The checker must report the denylist hit
// with the path BadPinnedGather -> operator new[].
#include <cstdint>

#include "util/invariant_root.h"

namespace fixture {

// A toy table and adjacency: each slot holds the index of another slot.
uint64_t g_slots[8];
uint64_t* volatile g_sink = nullptr;

__attribute__((noinline, used)) uint64_t BadPinnedGather(uint64_t id) {
  SNB_INVARIANT_ROOT("pinned_read");
  // Look up a slot, then follow its "edge" to a second slot.
  uint64_t local = g_slots[id % 8];
  uint64_t remote = g_slots[local % 8];
  // The violation: gathering the results into a fresh buffer while
  // pinned.
  uint64_t* gathered = new uint64_t[2];
  gathered[0] = local;
  gathered[1] = remote;
  g_sink = gathered;
  uint64_t sum = gathered[0] + gathered[1];
  delete[] gathered;
  return sum;
}

}  // namespace fixture

uint64_t (*volatile g_gather)(uint64_t) = &fixture::BadPinnedGather;

int main(int argc, char**) {
  return static_cast<int>(g_gather(static_cast<uint64_t>(argc)) & 1);
}
