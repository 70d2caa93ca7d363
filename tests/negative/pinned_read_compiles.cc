// Positive control for the negative-compilation suite: the sanctioned
// pinned-read pattern must compile. If this case ever fails, the WILL_FAIL
// cases are passing for the wrong reason (broken include paths, bad
// flags), not because the API rejected the misuse.
#include "store/graph_store.h"

const snb::store::PersonRecord* Lookup(const snb::store::GraphStore& store,
                                       snb::schema::PersonId id) {
  auto pin = store.ReadLock();
  return store.FindPerson(pin, id);
}

// Moving a pin transfers ownership; returning one from a helper is the
// supported way to hold a snapshot open across scopes.
snb::util::EpochPin HoldSnapshot() {
  snb::util::EpochPin pin = snb::util::EpochManager::Global().pin();
  return pin;
}
