// Google-benchmark microbenchmarks of the store's primitive operations —
// the building blocks whose costs compose into Tables 6/7/9 — plus the
// snb::obs record path, and a closing dump of the store's health gauges
// (epoch reclamation, table occupancy) with the 2-hop recycler's
// hit/miss/eviction counts.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "driver/connectors.h"
#include "obs/metrics.h"
#include "queries/complex_queries.h"
#include "queries/recycler.h"
#include "queries/short_queries.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace snb::bench {
namespace {

BenchWorld& SharedWorld() {
  static BenchWorld* world = MakeWorld(kMediumSf).release();
  return *world;
}

// Per-operation snapshot acquisition: epoch pin vs. a global reader lock
// taken shared on top of it (the bench's own util::SharedMutex; the store
// has no lock that readers share). Run with ->Threads(8) this is the
// read-path scalability ablation in miniature (bench_table5 has the
// end-to-end version with a live writer).
void BM_ReadLockEpoch(benchmark::State& state) {
  BenchWorld& world = SharedWorld();
  for (auto _ : state) {
    auto pin = world.store.ReadLock();
    benchmark::DoNotOptimize(world.store.FindPerson(pin, 7));
  }
}
BENCHMARK(BM_ReadLockEpoch)->Threads(1)->Threads(8);

void BM_ReadLockGlobal(benchmark::State& state) {
  BenchWorld& world = SharedWorld();
  static util::SharedMutex global_mu;
  for (auto _ : state) {
    auto pin = world.store.ReadLock();
    util::ReaderMutexLock lock(&global_mu);
    benchmark::DoNotOptimize(world.store.FindPerson(pin, 7));
  }
}
BENCHMARK(BM_ReadLockGlobal)->Threads(1)->Threads(8);

void BM_FindPerson(benchmark::State& state) {
  BenchWorld& world = SharedWorld();
  util::Rng rng(1, 1, util::RandomPurpose::kParameterPick);
  uint64_t n = world.dataset.stats.num_persons;
  auto pin = world.store.ReadLock();
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.store.FindPerson(pin, rng.NextBounded(n)));
  }
}
BENCHMARK(BM_FindPerson);

void BM_AreFriends(benchmark::State& state) {
  BenchWorld& world = SharedWorld();
  util::Rng rng(2, 1, util::RandomPurpose::kParameterPick);
  uint64_t n = world.dataset.stats.num_persons;
  auto pin = world.store.ReadLock();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        world.store.AreFriends(pin, rng.NextBounded(n), rng.NextBounded(n)));
  }
}
BENCHMARK(BM_AreFriends);

void BM_FindMessage(benchmark::State& state) {
  BenchWorld& world = SharedWorld();
  util::Rng rng(3, 1, util::RandomPurpose::kParameterPick);
  uint64_t n = world.store.MessageIdBound();
  auto pin = world.store.ReadLock();
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.store.FindMessage(pin, rng.NextBounded(n)));
  }
}
BENCHMARK(BM_FindMessage);

void BM_TwoHopCircle(benchmark::State& state) {
  BenchWorld& world = SharedWorld();
  util::Rng rng(4, 1, util::RandomPurpose::kParameterPick);
  uint64_t n = world.dataset.stats.num_persons;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        queries::TwoHopCircle(world.store, rng.NextBounded(n)));
  }
}
BENCHMARK(BM_TwoHopCircle);

void BM_ShortRead_Profile(benchmark::State& state) {
  BenchWorld& world = SharedWorld();
  util::Rng rng(5, 1, util::RandomPurpose::kParameterPick);
  uint64_t n = world.dataset.stats.num_persons;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        queries::ShortQuery1PersonProfile(world.store, rng.NextBounded(n)));
  }
}
BENCHMARK(BM_ShortRead_Profile);

void BM_ComplexQuery2(benchmark::State& state) {
  BenchWorld& world = SharedWorld();
  util::Rng rng(6, 1, util::RandomPurpose::kParameterPick);
  uint64_t n = world.dataset.stats.num_persons;
  util::TimestampMs mid = util::kNetworkStartMs + 24 * util::kMillisPerMonth;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        queries::Query2(world.store, rng.NextBounded(n), mid));
  }
}
BENCHMARK(BM_ComplexQuery2);

void BM_ComplexQuery9(benchmark::State& state) {
  BenchWorld& world = SharedWorld();
  util::Rng rng(7, 1, util::RandomPurpose::kParameterPick);
  uint64_t n = world.dataset.stats.num_persons;
  util::TimestampMs mid = util::kNetworkStartMs + 24 * util::kMillisPerMonth;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        queries::Query9(world.store, rng.NextBounded(n), mid));
  }
}
BENCHMARK(BM_ComplexQuery9);

void BM_ShortestPath(benchmark::State& state) {
  BenchWorld& world = SharedWorld();
  util::Rng rng(8, 1, util::RandomPurpose::kParameterPick);
  uint64_t n = world.dataset.stats.num_persons;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        queries::Query13(world.store, rng.NextBounded(n), rng.NextBounded(n)));
  }
}
BENCHMARK(BM_ShortestPath);

// The metrics record path in isolation: one histogram sample = one bucket
// index computation plus a handful of relaxed atomic RMWs on the calling
// thread's shard. Threads(8) shows the sharding working — per-thread cost
// should be flat, not 8x (a single shared histogram would bounce its cache
// lines between all recorders).
obs::MetricsRegistry& SharedRegistry() {
  static obs::MetricsRegistry* registry = new obs::MetricsRegistry();
  return *registry;
}

void BM_MetricsRecordLatency(benchmark::State& state) {
  obs::MetricsRegistry& registry = SharedRegistry();
  uint64_t fake_ns = 100;
  for (auto _ : state) {
    registry.RecordLatencyNs(obs::OpType::kPointRead, fake_ns);
    fake_ns = (fake_ns + 37) & 0xffff;  // Walk the low buckets.
  }
}
BENCHMARK(BM_MetricsRecordLatency)->Threads(1)->Threads(8);

// Store-health dump: exercise the recycler a little and print its counts,
// then publish epoch and occupancy gauges into a registry and print each by
// name — the same gauges report.json carries after a driver run.
void DumpStoreGauges() {
  BenchWorld& world = SharedWorld();
  queries::TwoHopRecycler recycler(64);
  util::Rng rng(9, 1, util::RandomPurpose::kParameterPick);
  uint64_t n = world.dataset.stats.num_persons;
  util::TimestampMs mid = util::kNetworkStartMs + 24 * util::kMillisPerMonth;
  for (int i = 0; i < 256; ++i) {
    // Skewed picks so the clock cache sees hits, misses, and evictions.
    uint64_t p = (i % 3 == 0) ? rng.NextBounded(n) : rng.NextBounded(16);
    benchmark::DoNotOptimize(
        queries::Query9Recycled(world.store, recycler, p, mid, 20));
  }

  std::printf("\n--- 2-hop recycler ---\n"
              "hits %llu misses %llu evictions %llu\n",
              static_cast<unsigned long long>(recycler.hits()),
              static_cast<unsigned long long>(recycler.misses()),
              static_cast<unsigned long long>(recycler.evictions()));

  obs::MetricsRegistry registry;
  driver::PublishStoreMetrics(world.store, &registry);
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  std::printf("\n--- store health gauges ---\n");
  for (size_t g = 0; g < obs::kNumGauges; ++g) {
    std::printf("%s %llu\n", obs::GaugeName(static_cast<obs::Gauge>(g)),
                static_cast<unsigned long long>(snapshot.gauges[g]));
  }
}

}  // namespace
}  // namespace snb::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  snb::bench::DumpStoreGauges();
  return 0;
}
