// Probe binary for tools/snb_invariants.
//
// The invariant checker analyzes machine code, and at -O2 the epoch-pinned
// store accessors (inline member functions in graph_store.h) are inlined
// into every caller — no standalone symbol, nothing to disassemble. This
// translation unit forces an out-of-line copy of each tagged inline root
// by taking its member-function address into a volatile global: the
// compiler must materialize the real body, and that body (with the exact
// code a caller would inline) is what the checker traverses.
//
// The remaining roots (the SIGPROF handler, the metrics record paths, the
// profiler's ring drain) live in .cc files; referencing any symbol from
// prof.cc / metrics.cc / graph_store.cc pulls those objects out of the
// static libraries, and the roots inside come along.
//
// The binary is built to be *disassembled*, not run — main() exists only
// to satisfy the linker and to keep every reference an odr-use.
#include <cstdio>

#include "obs/metrics.h"
#include "obs/prof.h"
#include "store/graph_store.h"

namespace {

// Volatile stops the compiler from constant-folding the pointers away,
// which is what forces the out-of-line copies to exist.
volatile auto g_find_person = &snb::store::GraphStore::FindPerson;
volatile auto g_find_forum = &snb::store::GraphStore::FindForum;
volatile auto g_find_message = &snb::store::GraphStore::FindMessage;
volatile auto g_are_friends = &snb::store::GraphStore::AreFriends;
volatile auto g_persons_by_first_name =
    &snb::store::GraphStore::PersonsByFirstName;
volatile auto g_record_latency = &snb::obs::MetricsRegistry::RecordLatencyNs;
volatile auto g_add_counter = &snb::obs::MetricsRegistry::AddCounter;
volatile auto g_record_hw = &snb::obs::MetricsRegistry::RecordHwCounts;

}  // namespace

int main() {
  // Pulls prof.cc (and with it the SIGPROF handler, which is
  // address-taken inside Enable()'s sigaction call) into the link.
  std::printf("backend=%s find_person=%d\n",
              snb::obs::prof::BackendName(snb::obs::prof::ActiveBackend()),
              static_cast<int>(g_find_person != nullptr));
  return 0;
}
