// Table 9 reproduction: mean runtime of the 8 transactional update types,
// measured by replaying the pre-generated update stream through the driver.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "relational/rel_queries.h"
#include "driver/driver.h"
#include "driver/query_mix.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace snb::bench {
namespace {

void MeasureUpdates(double sf, const char* graph_label,
                    const char* rel_label) {
  std::unique_ptr<BenchWorld> world = MakeWorld(sf, false);
  driver::QueryMixConfig mix;
  mix.include_complex_reads = false;
  driver::Workload workload =
      driver::BuildWorkload(world->dataset, *world->dictionaries, mix);

  obs::MetricsRegistry metrics;
  driver::StoreConnector connector(&world->store, &world->dataset.updates,
                                   world->dictionaries.get(), &metrics);
  driver::DriverConfig config;
  config.num_partitions = 4;
  driver::DriverReport report =
      driver::RunWorkload(workload.operations, connector, config);

  obs::MetricsSnapshot snap = metrics.Snapshot();
  std::printf("  %-20s", graph_label);
  for (int u = 1; u <= 8; ++u) {
    std::printf("%9.4f", snap.Op(obs::UpdateOp(u)).MeanUs() / 1000.0);
  }
  std::printf("   (%llu ops, %llu failed)\n",
              (unsigned long long)report.operations_executed,
              (unsigned long long)report.operations_failed);

  // Relational baseline: replay the same stream single-threaded (the
  // sorted-vector engine pays O(n) per insert; what matters is the per-type
  // profile).
  rel::RelationalDb relational;
  if (!relational.BulkLoad(world->dataset.bulk).ok()) std::abort();
  obs::MetricsRegistry rel_metrics;
  uint64_t failed = 0;
  for (const datagen::UpdateOperation& op : world->dataset.updates) {
    util::Stopwatch watch;
    util::Status status = rel::ApplyUpdate(relational, op);
    rel_metrics.RecordLatencyNs(obs::UpdateOp(static_cast<int>(op.kind)),
                                watch.ElapsedNanos());
    if (!status.ok()) ++failed;
  }
  obs::MetricsSnapshot rel_snap = rel_metrics.Snapshot();
  std::printf("  %-20s", rel_label);
  for (int u = 1; u <= 8; ++u) {
    std::printf("%9.4f", rel_snap.Op(obs::UpdateOp(u)).MeanUs() / 1000.0);
  }
  std::printf("   (%zu ops, %llu failed)\n", world->dataset.updates.size(),
              (unsigned long long)failed);
}

void Run() {
  PrintHeader("Table 9 — mean runtime of transactional updates (ms)");
  std::printf("  %-20s", "system,scale");
  for (int u = 1; u <= 8; ++u) {
    std::printf("%9s", ("U" + std::to_string(u)).c_str());
  }
  std::printf("\n  (U1 person, U2 like-post, U3 like-comment, U4 forum,\n"
              "   U5 membership, U6 post, U7 comment, U8 friendship)\n");
  MeasureUpdates(kSmallSf, "graph,SF0.05", "relational,SF0.05");
  MeasureUpdates(kLargeSf, "graph,SF0.4", "relational,SF0.4");
  std::printf(
      "\n  Paper (ms): Sparksee,SF10 : 492 309 307 239 317 190 324 273\n"
      "              Virtuoso,SF300: 35 198 85 55 16 118 141 15\n"
      "  Shape to check: every update type is a point insert of O(log n)\n"
      "  cost, within an order of magnitude of each other and far cheaper\n"
      "  than the complex reads of Table 6 at the same scale.\n\n");
}

}  // namespace
}  // namespace snb::bench

int main() {
  snb::bench::Run();
  return 0;
}
