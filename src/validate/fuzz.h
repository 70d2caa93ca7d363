// Differential query fuzzing across independent implementations.
//
// Property-based harness: generate many small random-but-correlated social
// networks, run every read query with randomized bindings against the graph
// store (snb::queries), the relational baseline (snb::rel) and the naive
// scan oracle (snb::validate::Oracle), and require canonical-row equality.
// The oracle is the arbiter: a backend whose rows differ from the oracle's
// is the mismatch, regardless of whether the other backend agrees with it.
//
// On a mismatch the failing graph is shrunk — entities are greedily removed
// (respecting referential closure) while the mismatch persists — and the
// minimal reproducer is packaged as a standalone JSON artifact
// ("snb-fuzz-regression-v1") that embeds the graph, the binding and both
// result sets, and can be re-run directly via ReadMismatch +
// MismatchReproduces.
#ifndef SNB_VALIDATE_FUZZ_H_
#define SNB_VALIDATE_FUZZ_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "schema/entities.h"
#include "util/status.h"

namespace snb::validate {

/// Fuzz campaign knobs.
struct FuzzConfig {
  uint64_t seed = 0xF0221ULL;
  /// Number of random graphs; each gets a full query battery.
  int num_graphs = 200;
  /// Upper bound on persons per graph (at least 2 are generated).
  int max_persons = 12;
};

/// First names of generated persons and of Q1 bindings ("Ada" twice, so it
/// is the most common). "Marco" and "Ravi" share a first-name index bucket
/// of the store, so Q1 must tell them apart by the record's name
/// (validate_fuzz_test asserts the collision).
inline constexpr const char* kFuzzFirstNames[] = {"Ada",  "Bela",  "Chen",
                                                  "Ada",  "Marco", "Ravi"};

/// One query binding — a superset of every query's parameters so bindings
/// serialize uniformly into regression artifacts.
struct FuzzBinding {
  std::string op;        // "complex.Q1".."complex.Q14", "short.S1".."S7".
  uint64_t person = 0;   // Start person (or person1 for Q13/Q14).
  uint64_t person2 = 0;  // Q13/Q14 only.
  uint64_t message = 0;  // Short reads S4-S7.
  int64_t date = 0;      // max_date / start_date / min_date.
  int days = 0;          // Q3/Q4 window length.
  uint64_t a = 0;        // tag / country_x / month / tag class / work year.
  uint64_t b = 0;        // country_y.
  std::string name;      // Q1 first name.
};

/// A (possibly shrunk) reproducing counterexample.
struct FuzzMismatch {
  uint64_t graph_seed = 0;  // Seed the original graph came from.
  std::string backend;      // "store" or "relational".
  FuzzBinding binding;
  std::vector<std::string> expected;  // Oracle rows.
  std::vector<std::string> actual;    // Mismatching backend's rows.
  schema::SocialNetwork graph;        // Minimal graph after shrinking.
};

/// Campaign outcome.
struct FuzzOutcome {
  int graphs_run = 0;
  uint64_t comparisons = 0;  // (binding, backend) pairs checked.
  int mismatches = 0;        // Campaign stops at the first one.
  FuzzMismatch first;        // Shrunk; valid when mismatches > 0.
};

/// Testing hook: mutates the graph store's canonical rows before comparison
/// (simulating a store-side query bug) so harness tests can drive the
/// mismatch/shrink/dump machinery deterministically.
using StorePerturbation =
    std::function<void(const std::string& op, std::vector<std::string>* rows)>;

/// Runs the campaign. A non-OK status means harness failure (e.g. a graph
/// that fails to bulk-load); mismatches are reported via `out`, not status.
util::Status RunDifferentialFuzz(const FuzzConfig& config, FuzzOutcome* out);

/// Same, with a store perturbation applied (tests only).
util::Status RunDifferentialFuzz(const FuzzConfig& config,
                                 const StorePerturbation& perturb,
                                 FuzzOutcome* out);

/// Deterministic random-network generator used by the campaign (exposed for
/// tests). `seed` fully determines the graph.
schema::SocialNetwork GenerateFuzzNetwork(uint64_t seed, int max_persons);

/// Re-executes a mismatch artifact on its embedded graph. Returns true when
/// the named backend still disagrees with the oracle on the binding.
bool MismatchReproduces(const FuzzMismatch& mismatch,
                        const StorePerturbation& perturb = nullptr);

/// Regression-artifact round-trip. Writes "snb-fuzz-regression-v1";
/// reading also accepts v2, whose store shard count is ignored.
std::string MismatchToJson(const FuzzMismatch& mismatch);
util::Status MismatchFromJson(const std::string& json, FuzzMismatch* out);
util::Status WriteMismatch(const FuzzMismatch& mismatch,
                           const std::string& path);
util::Status ReadMismatch(const std::string& path, FuzzMismatch* out);

}  // namespace snb::validate

#endif  // SNB_VALIDATE_FUZZ_H_
