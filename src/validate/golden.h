// Golden validation sets: record-and-replay correctness checking.
//
// A golden set captures, for a fixed datagen seed, the canonical results of
// a deterministic read battery executed at several points along the update
// stream ("segments"): once against the freshly bulk-loaded store and once
// after each contiguous chunk of updates has been applied. Emission runs
// everything serially — one thread, updates applied in stream order via
// queries::ApplyUpdate — so the recorded rows are the ground truth the
// single-writer store semantics define.
//
// Replay regenerates the same dataset, re-executes each update segment
// through the real driver at any thread count and execution mode, re-runs
// the identical battery (optionally on a thread pool) and diffs every
// canonical row against the recording. Any divergence — a row lost to a
// racy adjacency publish, an out-of-order update application changing a
// sort key, a nondeterministic tie-break — is reported with full context:
// segment, operation, parameter rendering, row index, expected vs actual.
//
// The golden file ("snb-validation-v1") stores only canonical strings plus
// the generation parameters, so it is stable across platforms and versions
// as long as query semantics are unchanged; a semantic change shows up as a
// reviewable diff of the regenerated file.
#ifndef SNB_VALIDATE_GOLDEN_H_
#define SNB_VALIDATE_GOLDEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "driver/driver.h"
#include "obs/metrics.h"
#include "schema/dictionaries.h"
#include "util/status.h"

namespace snb::validate {

/// One recorded battery operation: a dotted op name, a human-readable
/// parameter rendering, and the canonical result rows in returned order.
struct GoldenOp {
  std::string op;      // "complex.Q1", "short.S4", ...
  std::string params;  // "person=42 name=Hans" — diagnostic only.
  std::vector<std::string> rows;
};

/// Battery recording at one point of the update stream.
struct GoldenSegment {
  /// Updates [0, updates_end) of the stream were applied before recording.
  uint64_t updates_end = 0;
  // Store occupancy digest at recording time: catches lost or duplicated
  // updates even when no battery probe happens to touch them.
  uint64_t num_persons = 0;
  uint64_t num_knows = 0;
  uint64_t num_forums = 0;
  uint64_t num_memberships = 0;
  uint64_t num_messages = 0;
  uint64_t num_likes = 0;
  std::vector<GoldenOp> operations;
};

/// A complete versioned golden validation set.
struct GoldenSet {
  uint64_t seed = 0;
  uint64_t num_persons = 0;
  std::vector<GoldenSegment> segments;
};

/// Emission knobs.
struct GoldenEmitOptions {
  uint64_t seed = 0x5eedULL;
  uint64_t num_persons = 200;
  /// Number of update segments; the emitted set has this many plus the
  /// bulk-only segment 0.
  int num_segments = 4;
};

/// Runs the serial reference execution and fills `*out`.
util::Status EmitGoldenSet(const GoldenEmitOptions& options, GoldenSet* out);

/// Serialization round-trip ("snb-validation-v1").
std::string GoldenSetToJson(const GoldenSet& golden);
util::Status GoldenSetFromJson(const std::string& json, GoldenSet* out);
util::Status WriteGoldenSet(const GoldenSet& golden, const std::string& path);
util::Status ReadGoldenSet(const std::string& path, GoldenSet* out);

/// Replay knobs.
struct ReplayOptions {
  /// Driver partitions for update segments and battery pool width.
  uint32_t threads = 1;
  driver::ExecutionMode mode = driver::ExecutionMode::kSequentialForum;
  /// Optional: update-operation latencies of the replayed segments are
  /// recorded here (feeds the report.json "ops" table of validate_run).
  obs::MetricsRegistry* metrics = nullptr;
  /// Testing hook (mutation test): every replayed result for this dotted op
  /// name is corrupted before diffing, so the replay MUST report a
  /// divergence. Empty = disabled.
  std::string mutate_op;
};

/// First recorded divergence of a replay.
struct Divergence {
  int segment = 0;
  uint64_t op_index = 0;
  std::string op;
  std::string params;
  /// Row index of the first differing row (min of the two row counts when
  /// one side has extra rows).
  uint64_t row = 0;
  std::string expected;  // "<absent>" when the replay produced extra rows.
  std::string actual;    // "<absent>" when the replay lost rows.
};

/// Outcome of a replay; `error` is non-empty only for setup/driver
/// failures (not result mismatches).
struct ReplayOutcome {
  bool passed = false;
  uint64_t segments_compared = 0;
  uint64_t ops_compared = 0;
  uint64_t rows_compared = 0;
  uint64_t diffs = 0;
  Divergence first;  // Meaningful only when diffs > 0.
  std::string error;
};

/// Regenerates the dataset from the golden set's parameters and replays.
util::Status ReplayGoldenSet(const GoldenSet& golden,
                             const ReplayOptions& options,
                             ReplayOutcome* out);

/// Replay against a caller-provided dataset/dictionaries pair (must come
/// from the golden set's seed and person count — checked). Lets tests
/// amortize generation across several replays.
util::Status ReplayGoldenSetWith(const GoldenSet& golden,
                                 const datagen::Dataset& dataset,
                                 const schema::Dictionaries& dictionaries,
                                 const ReplayOptions& options,
                                 ReplayOutcome* out);

}  // namespace snb::validate

#endif  // SNB_VALIDATE_GOLDEN_H_
