// Table 5 reproduction: driver ops/second vs. number of partitions with a
// sleeping dummy connector (1 ms and 100 us per op), updates only.
// Also runs the execution-mode ablation the paper motivates: per-forum
// sequential streams vs. tracking every dependency through T_GC.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "driver/driver.h"
#include "driver/query_mix.h"
#include "obs/metrics.h"
#include "queries/short_queries.h"
#include "util/mutex.h"

namespace snb::bench {
namespace {

/// Read-path ablation: N reader threads hammer point reads (FindPerson +
/// friend probe — the primitive under every short read) while one writer
/// continuously inserts likes. Measures sustained reads/second per
/// snapshot: the store's epoch pin (ReadLock) alone, or the pin plus a
/// global reader-writer lock that readers take shared and the writer takes
/// exclusively around each AddLike. The lock is the bench's own: the
/// store's writers no longer share one. The paper's premise (section 4.2)
/// is that the driver is only as fast as the SUT lets concurrent clients
/// be; a global reader lock caps exactly this number.
std::atomic<uint64_t> ablation_sink{0};

double RunReadAblation(bool global_lock, int reader_threads,
                       std::chrono::milliseconds window) {
  std::unique_ptr<BenchWorld> world = MakeWorld(kMediumSf, true, true);
  store::GraphStore& store = world->store;
  util::SharedMutex global_mu;
  std::vector<schema::PersonId> persons;
  {
    auto pin = store.ReadLock();
    persons = store.PersonIds(pin);
  }
  const schema::MessageId message_bound = store.MessageIdBound();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < reader_threads; ++t) {
    readers.emplace_back([&, t] {
      // Point lookups over a small window of persons: the loop body is a
      // FindPerson (directory + chunk + ready check), so per-op snapshot
      // acquisition is what the measurement weighs — the same cost every
      // short read pays once per driver operation.
      size_t kWindowMask = 1;
      while ((kWindowMask << 1) <= persons.size() && kWindowMask < 64) {
        kWindowMask <<= 1;
      }
      --kWindowMask;
      uint64_t reads = 0;
      uint64_t sink = 0;
      size_t cursor = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_acquire)) {
        schema::PersonId pid = persons[cursor & kWindowMask];
        ++cursor;
        if (global_lock) {
          auto pin = store.ReadLock();
          util::ReaderMutexLock lock(&global_mu);
          sink += store.FindPerson(pin, pid) != nullptr;
        } else {
          auto pin = store.ReadLock();
          sink += store.FindPerson(pin, pid) != nullptr;
        }
        ++reads;
      }
      ablation_sink.fetch_add(sink & 1, std::memory_order_relaxed);
      total_reads.fetch_add(reads, std::memory_order_relaxed);
    });
  }

  // Writer: sustained like insertions (duplicates still pay the full
  // write-lock round trip, so pressure is constant once the space fills).
  auto start = std::chrono::steady_clock::now();
  uint64_t writes = 0;
  while (std::chrono::steady_clock::now() - start < window) {
    schema::Like like;
    like.person_id = persons[writes % persons.size()];
    like.message_id = (writes * 7) % (message_bound == 0 ? 1 : message_bound);
    like.creation_date = 4102444800000 + static_cast<int64_t>(writes);
    if (global_lock) {
      util::WriterMutexLock lock(&global_mu);
      (void)store.AddLike(like);
    } else {
      (void)store.AddLike(like);
    }
    ++writes;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return static_cast<double>(total_reads.load()) / seconds;
}

/// Metrics-overhead ablation: the same read+update workload replayed
/// through the real StoreConnector at 8 partitions (8 worker threads),
/// with the full instrumentation enabled (per-operation Stopwatch +
/// histogram sample, driver counters, lag recording) vs with metrics
/// disconnected. This is the end-to-end question the 5%-budget answers:
/// does observing the benchmark change the benchmark? The record path in
/// isolation (~20ns, flat from 1 to 8 threads) is in bench_micro_store.
struct AblationSample {
  double ops_per_second = 0;
  double cpu_us_per_op = 0;
};

/// One ablation sample: replays a prepared (read-only, so the store is
/// immutable and the workload reusable) operation stream through the real
/// StoreConnector at 8 partitions, metrics wired or disconnected.
AblationSample RunStoreMetricsAblation(BenchWorld& world,
                                       const std::vector<driver::Operation>& ops,
                                       bool with_metrics) {
  obs::MetricsRegistry metrics;
  driver::StoreConnector connector(&world.store, &world.dataset.updates,
                                   world.dictionaries.get(),
                                   with_metrics ? &metrics : nullptr);
  driver::DriverConfig config;
  config.num_partitions = 8;
  if (with_metrics) config.metrics = &metrics;
  // std::clock() sums CPU across all threads of the process; on a box where
  // worker threads outnumber cores, CPU-per-op is the stable measure of
  // added work (wall throughput is dominated by scheduler noise).
  std::clock_t cpu_before = std::clock();
  driver::DriverReport report = driver::RunWorkload(ops, connector, config);
  std::clock_t cpu_after = std::clock();
  if (report.operations_failed != 0) {
    std::fprintf(stderr, "failures: %s\n", report.first_error.c_str());
  }
  AblationSample sample;
  sample.ops_per_second = report.ops_per_second;
  double cpu_us = 1e6 * static_cast<double>(cpu_after - cpu_before) /
                  CLOCKS_PER_SEC;
  sample.cpu_us_per_op =
      report.operations_executed == 0
          ? 0
          : cpu_us / static_cast<double>(report.operations_executed);
  return sample;
}

double RunOnce(const std::vector<driver::Operation>& ops,
               int64_t sleep_micros, uint32_t partitions) {
  driver::SleepingConnector connector(sleep_micros);
  driver::DriverConfig config;
  config.num_partitions = partitions;
  driver::DriverReport report =
      driver::RunWorkload(ops, connector, config);
  if (report.operations_failed != 0) {
    std::fprintf(stderr, "failures: %s\n", report.first_error.c_str());
  }
  return report.ops_per_second;
}

void RunMetricsOverheadSection() {
  PrintHeader("Ablation — metrics overhead, read workload at 8 partitions");
  constexpr int kTrials = 3;
  // Read-only mix: the store stays immutable, so one world and one
  // operation stream serve every sample, and the stream can be replicated
  // until a sample runs long enough to average out scheduler phases
  // (reads carry no dependency times, so replaying past due times is safe
  // — MarkTime is monotone and ignores stale marks).
  std::unique_ptr<BenchWorld> world = MakeWorld(kMediumSf, false, true);
  driver::QueryMixConfig mix;
  mix.include_updates = false;
  driver::Workload workload =
      driver::BuildWorkload(world->dataset, *world->dictionaries, mix);
  std::vector<driver::Operation> ops = workload.operations;
  constexpr size_t kMinOpsPerSample = 60000;
  while (!workload.operations.empty() && ops.size() < kMinOpsPerSample) {
    ops.insert(ops.end(), workload.operations.begin(),
               workload.operations.end());
  }
  // One discarded warmup run (allocator growth, page faults), then
  // alternate which mode goes first each trial: slow drift (heap reuse,
  // frequency scaling) would otherwise systematically favor whichever
  // side always ran second.
  (void)RunStoreMetricsAblation(*world, ops, false);
  double off_rate = 0, on_rate = 0;
  double off_cpu = 1e18, on_cpu = 1e18;
  double off_cpu_max = 0, on_cpu_max = 0;
  for (int i = 0; i < 2 * kTrials; ++i) {
    bool with = (i % 4 == 1 || i % 4 == 2);  // off,on,on,off,off,on,...
    AblationSample s = RunStoreMetricsAblation(*world, ops, with);
    std::printf("  sample %d (%s): %8.0f ops/s  %6.2f cpu-us/op\n", i,
                with ? "on " : "off", s.ops_per_second, s.cpu_us_per_op);
    if (with) {
      on_rate = std::max(on_rate, s.ops_per_second);
      on_cpu = std::min(on_cpu, s.cpu_us_per_op);
      on_cpu_max = std::max(on_cpu_max, s.cpu_us_per_op);
    } else {
      off_rate = std::max(off_rate, s.ops_per_second);
      off_cpu = std::min(off_cpu, s.cpu_us_per_op);
      off_cpu_max = std::max(off_cpu_max, s.cpu_us_per_op);
    }
  }
  double overhead_pct = 100.0 * (on_cpu - off_cpu) / off_cpu;
  // The samples' own spread on each side (max over min): an overhead
  // smaller than it is not resolved by this many samples.
  double off_spread_pct = 100.0 * (off_cpu_max / off_cpu - 1.0);
  double on_spread_pct = 100.0 * (on_cpu_max / on_cpu - 1.0);
  std::printf("  %-22s %14s %14s\n", "metrics", "driver ops/s", "cpu-us/op");
  std::printf("  %-22s %14.0f %14.2f\n", "off", off_rate, off_cpu);
  std::printf("  %-22s %14.0f %14.2f\n", "on (full instr.)", on_rate, on_cpu);
  std::printf(
      "  overhead (cpu/op): %.1f%%  (acceptance ceiling: 5%%; sample spread"
      " off %.1f%%, on %.1f%%)\n",
      overhead_pct, off_spread_pct, on_spread_pct);
  std::printf(
      "  Shape to check: the full per-operation instrumentation (one\n"
      "  Stopwatch plus one lock-free histogram sample per op, driver\n"
      "  counters, lag recording) is invisible next to microsecond-scale\n"
      "  operations — well under the 5%% budget, i.e. observing the\n"
      "  benchmark does not change the benchmark. The gate is CPU cost\n"
      "  per operation (min over trials per side): with more worker\n"
      "  threads than cores, wall throughput swings +/-8%% run to run on\n"
      "  scheduler noise alone, while added work shows up in CPU time\n"
      "  regardless of interleaving. bench_micro_store has the isolated\n"
      "  record path (~20ns, flat from 1 to 8 threads).\n\n");
}

void Run() {
  PrintHeader("Table 5 — driver op/second vs #partitions (sleep connector)");

  // Update-only workload, as in the paper ("the chosen workload consists
  // only of the SNB-Interactive updates").
  std::unique_ptr<BenchWorld> world = MakeWorld(kLargeSf, false, true);
  driver::QueryMixConfig mix;
  mix.include_complex_reads = false;
  driver::Workload workload =
      driver::BuildWorkload(world->dataset, *world->dictionaries, mix);
  std::printf("  update stream: %zu operations\n\n",
              workload.operations.size());

  std::vector<uint32_t> partition_counts = {1, 2, 4, 8, 12};
  std::printf("  %-12s", "partitions:");
  for (uint32_t p : partition_counts) std::printf("%9u", p);
  std::printf("\n");
  for (int64_t sleep_us : {1000, 100}) {
    // Cap the replayed prefix so the single-partition run stays ~5 s.
    size_t cap = sleep_us == 1000 ? 5000 : 40000;
    std::vector<driver::Operation> ops(
        workload.operations.begin(),
        workload.operations.begin() +
            std::min(cap, workload.operations.size()));
    std::printf("  %-12s",
                sleep_us == 1000 ? "1ms" : "100us");
    for (uint32_t p : partition_counts) {
      double rate = RunOnce(ops, sleep_us, p);
      std::printf("%9.0f", rate);
    }
    std::printf("\n");
  }
  std::printf(
      "\n  Paper Table 5 (SF10, 32M ops):\n"
      "    1ms   :   997  1990  3969  7836  11298\n"
      "    100us :  9745 19245 38285 78913 110837\n"
      "  Shape to check: near-linear scaling with partition count at both\n"
      "  sleep durations despite inter-partition dependencies.\n");

  PrintHeader("Ablation — execution mode at 8 partitions, 100us connector");
  std::vector<driver::Operation> ablation_ops(
      workload.operations.begin(),
      workload.operations.begin() +
          std::min<size_t>(40000, workload.operations.size()));
  // The strawman — every update tracked through T_GC — is the same
  // stream rewritten, replayed by the sequential-forum driver.
  const std::vector<driver::Operation> every_update_ops =
      driver::TrackEveryUpdate(ablation_ops);
  struct ModeRow {
    const char* name;
    driver::ExecutionMode mode;
    const std::vector<driver::Operation>* ops;
  };
  const ModeRow rows[] = {
      {"sequential-forum", driver::ExecutionMode::kSequentialForum,
       &ablation_ops},
      {"every-update-gct", driver::ExecutionMode::kSequentialForum,
       &every_update_ops},
      {"windowed", driver::ExecutionMode::kWindowed, &ablation_ops},
  };
  std::printf("  %-18s %10s %14s %14s\n", "mode", "ops/s",
              "deps tracked", "T_GC waits");
  for (const ModeRow& row : rows) {
    driver::SleepingConnector connector(100);
    driver::DriverConfig config;
    config.num_partitions = 8;
    config.mode = row.mode;
    driver::DriverReport r = driver::RunWorkload(*row.ops, connector, config);
    std::printf("  %-18s %10.0f %14llu %14llu\n", row.name, r.ops_per_second,
                (unsigned long long)r.dependencies_tracked,
                (unsigned long long)r.dependent_waits);
  }
  std::printf(
      "  Shape to check: per-forum sequential streams capture intra-forum\n"
      "  dependencies implicitly, so they register orders of magnitude\n"
      "  fewer operations with the dependency services than tracking every\n"
      "  update through T_GC; windowed execution removes per-op T_GC waits\n"
      "  entirely (one barrier per T_SAFE of simulation time).\n\n");

  PrintHeader("Ablation — read-path snapshot mode, 8 readers + live writer");
  constexpr int kReaderThreads = 8;
  constexpr int kTrials = 3;  // Best-of: scheduler noise dwarfs run cost.
  constexpr std::chrono::milliseconds kWindow(1500);
  double epoch_rate = 0, lock_rate = 0;
  for (int i = 0; i < kTrials; ++i) {
    epoch_rate = std::max(epoch_rate, RunReadAblation(/*global_lock=*/false,
                                                      kReaderThreads, kWindow));
    lock_rate = std::max(lock_rate, RunReadAblation(/*global_lock=*/true,
                                                    kReaderThreads, kWindow));
  }
  std::printf("  %-22s %14s\n", "mode", "point reads/s");
  std::printf("  %-22s %14.0f\n", "epoch (default)", epoch_rate);
  std::printf("  %-22s %14.0f\n", "global shared_mutex", lock_rate);
  std::printf("  speedup: %.2fx  (acceptance floor: 1.50x)\n",
              epoch_rate / lock_rate);
  std::printf(
      "  Shape to check: with the global reader-writer lock every point\n"
      "  read pays two contended RMWs plus futex blocking whenever the\n"
      "  writer holds the mutex; the epoch pin is two uncontended stores\n"
      "  on a thread-private cache line, so read throughput no longer\n"
      "  collapses under a live update stream.\n\n");

  RunMetricsOverheadSection();
}

}  // namespace
}  // namespace snb::bench

int main(int argc, char** argv) {
  // --only-metrics: run just the metrics-overhead ablation (iteration aid;
  // the full run takes minutes).
  if (argc > 1 && std::string_view(argv[1]) == "--only-metrics") {
    snb::bench::RunMetricsOverheadSection();
    return 0;
  }
  snb::bench::Run();
  return 0;
}
