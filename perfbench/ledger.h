// The per-layer ledger: one traced replay on a fresh store, then probes of
// the store and exec primitives on the store it leaves behind.
//
// Spans are recorded from outside the program, around the calls into each
// layer's public functions: a decorator around the StoreConnector times
// every driver-scheduled Execute (op type, op index, worker, start, end,
// thread CPU) under a root span for RunWorkload, and the connector times
// each query into an obs::MetricsRegistry. Spans stay in memory and are
// written once, after the replay.
#ifndef SNB_PERFBENCH_LEDGER_H_
#define SNB_PERFBENCH_LEDGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace snb::perfbench {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One driver-scheduled Execute call.
struct Span {
  uint32_t op_index = 0;
  uint32_t lane = 0;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;
};

/// Decorator recording a Span per Execute into a per-worker lane. Lanes
/// are claimed under a mutex on a worker's first call; after that each
/// worker appends only to its own lane. Read the lanes only after
/// RunWorkload has joined its workers.
class SpanConnector : public driver::Connector {
 public:
  SpanConnector(driver::Connector* inner,
                const std::vector<driver::Operation>& operations);

  util::Status Execute(const driver::Operation& op) override;

  /// One vector per worker thread that executed operations.
  std::vector<std::vector<Span>> TakeLanes();

 private:
  std::vector<Span>* LocalLane();

  driver::Connector* inner_;
  const std::vector<driver::Operation>* operations_;
  /// Tells this decorator's lanes apart from those a thread cached for an
  /// earlier decorator.
  const uint64_t generation_;
  util::Mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> lanes_ SNB_GUARDED_BY(mu_);
};

/// Everything the traced phase measured, plus the final store for the
/// output check.
struct TracedRun {
  std::vector<Metric> metrics;
  std::unique_ptr<store::GraphStore> store;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Runs the traced replay of `world` on `store` (freshly loaded), the probes
/// and the no-op driver ceiling. `untraced_cpu_us_per_op` is the same run's
/// instrumentation-off figure, for obs.trace_overhead_pct. Writes the spans
/// as a Chrome trace to `spans_path` (skipped when empty).
TracedRun RunTraced(const World& world, const WorkloadSpec& spec,
                    std::unique_ptr<store::GraphStore> store,
                    double untraced_cpu_us_per_op,
                    const std::string& spans_path);

}  // namespace snb::perfbench

#endif  // SNB_PERFBENCH_LEDGER_H_
