// Process-wide execution-mode switch: scalar vs batched query plans.
//
// Q5 and Q9 exist in two physically different but result-identical
// implementations: the original row-at-a-time plans in
// queries/complex_queries.cc and the block-at-a-time ports in
// queries/batched_queries.cc built on snb::exec. The public Query5/9
// entry points dispatch on the process default mode, so every existing
// caller — the driver connectors, the golden-set replay, the benches —
// switches engine with one flag (`--exec=batched`) and zero call-site
// churn. Both paths must produce byte-identical canonical rows; the golden
// replay and the differential fuzzer enforce exactly that (see
// DESIGN.md "Execution engine").
//
// The default is read with one relaxed atomic load per query invocation;
// tools set it once at startup, tests may flip it around a scoped block.
#ifndef SNB_EXEC_EXEC_MODE_H_
#define SNB_EXEC_EXEC_MODE_H_

#include <atomic>
#include <string_view>

namespace snb::exec {

/// Physical execution engine for the ported complex queries.
enum class ExecMode {
  /// Row-at-a-time handwritten plans (the original implementation).
  kScalar,
  /// Block-at-a-time operators over column batches (snb::exec).
  kBatched,
};

namespace internal {
inline std::atomic<ExecMode> g_default_exec_mode{ExecMode::kScalar};
}  // namespace internal

/// The mode Query5/9 dispatch on when called without an explicit engine.
inline ExecMode DefaultExecMode() {
  return internal::g_default_exec_mode.load(std::memory_order_relaxed);
}

inline void SetDefaultExecMode(ExecMode mode) {
  internal::g_default_exec_mode.store(mode, std::memory_order_relaxed);
}

/// Stable rendering for report.json's "exec_mode" field and CLI output.
inline const char* ExecModeName(ExecMode mode) {
  return mode == ExecMode::kBatched ? "batched" : "scalar";
}

/// Parses "scalar"/"batched" (the spellings accepted by --exec=). Returns
/// false (and leaves *out untouched) on anything else.
inline bool ParseExecMode(std::string_view text, ExecMode* out) {
  if (text == "scalar") {
    *out = ExecMode::kScalar;
    return true;
  }
  if (text == "batched") {
    *out = ExecMode::kBatched;
    return true;
  }
  return false;
}

}  // namespace snb::exec

#endif  // SNB_EXEC_EXEC_MODE_H_
