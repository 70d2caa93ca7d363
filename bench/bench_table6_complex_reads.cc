// Table 6 reproduction: mean runtime of the 14 complex read-only queries —
// two systems (native graph store vs relational baseline) at two (mini)
// scale factors, with curated parameters. Mirrors the paper's
// Sparksee@SF10 / Virtuoso@SF300 structure. Ends with the graph store's
// operator rows at SF0.4 (µs per call, share of the query, rows per call)
// from a second, untimed pass over the same calls.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "curation/parameter_curation.h"
#include "obs/trace.h"
#include "queries/complex_queries.h"
#include "relational/rel_queries.h"
#include "util/histogram.h"
#include "util/stopwatch.h"
#include "util/rng.h"

namespace snb::bench {
namespace {

// Static dispatch shims: same query API on both SUTs.
struct GraphApi {
  using Db = store::GraphStore;
  template <typename... A>
  static auto Q1(A&&... a) { return queries::Query1(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q2(A&&... a) { return queries::Query2(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q3(A&&... a) { return queries::Query3(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q4(A&&... a) { return queries::Query4(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q5(A&&... a) { return queries::Query5(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q6(A&&... a) { return queries::Query6(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q7(A&&... a) { return queries::Query7(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q8(A&&... a) { return queries::Query8(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q9(A&&... a) { return queries::Query9(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q10(A&&... a) { return queries::Query10(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q11(A&&... a) { return queries::Query11(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q12(A&&... a) { return queries::Query12(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q13(A&&... a) { return queries::Query13(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q14(A&&... a) { return queries::Query14(std::forward<A>(a)...); }
};

struct RelApi {
  using Db = rel::RelationalDb;
  template <typename... A>
  static auto Q1(A&&... a) { return rel::Query1(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q2(A&&... a) { return rel::Query2(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q3(A&&... a) { return rel::Query3(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q4(A&&... a) { return rel::Query4(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q5(A&&... a) { return rel::Query5(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q6(A&&... a) { return rel::Query6(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q7(A&&... a) { return rel::Query7(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q8(A&&... a) { return rel::Query8(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q9(A&&... a) { return rel::Query9(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q10(A&&... a) { return rel::Query10(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q11(A&&... a) { return rel::Query11(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q12(A&&... a) { return rel::Query12(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q13(A&&... a) { return rel::Query13(std::forward<A>(a)...); }
  template <typename... A>
  static auto Q14(A&&... a) { return rel::Query14(std::forward<A>(a)...); }
};

/// The curated bindings of one Table 6 measurement. Each pass draws its
/// per-call extras (first names, countries, tags, months) from a fresh
/// `Rng(7, 7, kParameterPick)`, so two passes run the same calls.
struct Bindings {
  Bindings(const BenchWorld& world, int runs)
      : world(world),
        dict(*world.dictionaries),
        one_params(curation::CurateParameters(
            curation::BuildQuery2Table(world.dataset.stats), runs)),
        two_params(curation::CurateParameters(
            curation::BuildTwoHopTable(world.dataset.stats), runs)),
        mid(util::kNetworkStartMs + 24 * util::kMillisPerMonth),
        tag_in_class(dict.tag_classes().size(),
                     std::vector<bool>(dict.tags().size(), false)) {
    for (size_t t = 0; t < dict.tags().size(); ++t) {
      tag_in_class[dict.tags()[t].tag_class_id][t] = true;
    }
  }

  const BenchWorld& world;
  const schema::Dictionaries& dict;
  std::vector<uint64_t> one_params;
  std::vector<uint64_t> two_params;
  util::TimestampMs mid;
  std::vector<std::vector<bool>> tag_in_class;
};

/// Runs call `r` of query `q`.
template <typename Api>
void RunComplexQuery(const typename Api::Db& db, const Bindings& b, int q,
                     int r, util::Rng& rng) {
  const schema::Dictionaries& dict = b.dict;
  const util::TimestampMs mid = b.mid;
  schema::PersonId one = b.one_params[r % b.one_params.size()];
  schema::PersonId two = b.two_params[r % b.two_params.size()];
  switch (q) {
    case 1:
      Api::Q1(db, two, dict.FirstName(rng.NextBounded(30)), 20);
      break;
    case 2:
      Api::Q2(db, one, mid, 20);
      break;
    case 3:
      Api::Q3(db, two, b.world.city_country,
              static_cast<schema::PlaceId>(rng.NextBounded(30)),
              static_cast<schema::PlaceId>(rng.NextBounded(30)),
              mid - 90 * util::kMillisPerDay, 90, 20);
      break;
    case 4:
      Api::Q4(db, one, mid - 30 * util::kMillisPerDay, 30, 10);
      break;
    case 5:
      Api::Q5(db, two, mid - 60 * util::kMillisPerDay, 20);
      break;
    case 6:
      Api::Q6(db, two,
              static_cast<schema::TagId>(rng.NextBounded(dict.tags().size())),
              10);
      break;
    case 7:
      Api::Q7(db, one, 20);
      break;
    case 8:
      Api::Q8(db, one, 20);
      break;
    case 9:
      Api::Q9(db, two, mid, 20);
      break;
    case 10:
      Api::Q10(db, two, static_cast<int>(1 + rng.NextBounded(12)), 10);
      break;
    case 11:
      Api::Q11(db, two, b.world.company_country,
               static_cast<schema::PlaceId>(rng.NextBounded(30)),
               static_cast<uint16_t>(2013), 10);
      break;
    case 12:
      Api::Q12(db, one, b.tag_in_class[rng.NextBounded(b.tag_in_class.size())],
               20);
      break;
    case 13:
      Api::Q13(db, two, b.two_params[(r + 3) % b.two_params.size()]);
      break;
    case 14:
      Api::Q14(db, two, b.two_params[(r + 3) % b.two_params.size()]);
      break;
  }
}

util::Rng BindingRng() {
  return util::Rng(7, 7, util::RandomPurpose::kParameterPick);
}

template <typename Api>
std::vector<double> MeasureComplexQueries(const typename Api::Db& db,
                                          const Bindings& bindings,
                                          int runs) {
  util::Rng rng = BindingRng();
  std::vector<double> means(15, 0.0);
  for (int q = 1; q <= 14; ++q) {
    util::SampleStats stats;
    for (int r = 0; r < runs; ++r) {
      util::Stopwatch watch;
      RunComplexQuery<Api>(db, bindings, q, r, rng);
      stats.Add(watch.ElapsedMicros() / 1000.0);
    }
    means[q] = stats.Mean();
  }
  return means;
}

/// A second, untimed pass over the same calls on the graph store with an
/// obs::OperatorProfile installed per query: each operator's µs per call,
/// its share of the pass's time for that query, and its rows per call.
/// Time outside every span (snapshot pin, record lookups between phases,
/// result copies) is the "(outside spans)" row.
void PrintOperatorBreakdown(const char* label, const store::GraphStore& store,
                            const Bindings& bindings, int runs) {
  std::printf("\n  Operator breakdown, %s (second, untimed pass under an "
              "OperatorProfile, %d calls per query):\n",
              label, runs);
  std::printf("  %-5s %-16s %10s %8s %12s\n", "query", "operator",
              "us/call", "share", "rows/call");
  util::Rng rng = BindingRng();
  for (int q = 1; q <= 14; ++q) {
    obs::OperatorProfile profile;
    util::Stopwatch watch;
    {
      obs::ScopedOperatorProfile scope(&profile);
      for (int r = 0; r < runs; ++r) {
        RunComplexQuery<GraphApi>(store, bindings, q, r, rng);
      }
    }
    const double pass_us = watch.ElapsedMicros();
    const std::string query = "Q" + std::to_string(q);
    double spanned_us = 0;
    for (const obs::OperatorRow& row : profile.rows()) {
      const double us = static_cast<double>(row.stats.time_ns) / 1e3;
      spanned_us += us;
      std::printf("  %-5s %-16s %10.2f %7.1f%% %12.1f\n", query.c_str(),
                  row.label, us / runs, 100.0 * us / pass_us,
                  static_cast<double>(row.stats.rows) / runs);
    }
    std::printf("  %-5s %-16s %10.2f %7.1f%%\n", query.c_str(),
                "(outside spans)", (pass_us - spanned_us) / runs,
                100.0 * (pass_us - spanned_us) / pass_us);
  }
}

void PrintRow(const char* label, const std::vector<double>& ms) {
  std::printf("  %-24s", label);
  for (int q = 1; q <= 14; ++q) std::printf("%8.3f", ms[q]);
  std::printf("\n");
}

constexpr int kRuns = 25;

/// Prints the two systems' rows at `sf`; returns the world for the
/// operator breakdown.
std::unique_ptr<BenchWorld> RunAt(double sf, const char* graph_label,
                                  const char* rel_label) {
  std::unique_ptr<BenchWorld> world = MakeWorld(sf);
  rel::RelationalDb relational;
  if (!relational.BulkLoad(world->dataset.bulk).ok()) std::abort();
  for (const datagen::UpdateOperation& op : world->dataset.updates) {
    if (!rel::ApplyUpdate(relational, op).ok()) std::abort();
  }
  Bindings bindings(*world, kRuns);
  PrintRow(graph_label,
           MeasureComplexQueries<GraphApi>(world->store, bindings, kRuns));
  PrintRow(rel_label,
           MeasureComplexQueries<RelApi>(relational, bindings, kRuns));
  return world;
}

void Run() {
  PrintHeader("Table 6 — mean runtime of complex read-only queries (ms)");
  std::printf("  %-24s", "system,scale");
  for (int q = 1; q <= 14; ++q) {
    std::printf("%8s", ("Q" + std::to_string(q)).c_str());
  }
  std::printf("\n");
  RunAt(kSmallSf, "graph,SF0.05", "relational,SF0.05");
  std::unique_ptr<BenchWorld> large =
      RunAt(kLargeSf, "graph,SF0.4", "relational,SF0.4");
  std::printf("\n  Paper (ms): Sparksee,SF10 : 20 44 441 31 100 41 11 38 3376 194 66 177 794 2009\n");
  std::printf("              Virtuoso,SF300: 941 1493 4232 1163 2688 16090 1000 32 18464 1257 762 1519 559 742\n");
  std::printf(
      "  Shape to check: two systems, same workload — the 2..3-hop +\n"
      "  message-scan queries (Q3/Q5/Q6/Q9) dominate on both; costs grow\n"
      "  with scale; the relational engine pays O(log n) per index probe\n"
      "  where the graph store pays O(1) adjacency chasing.\n");
  PrintOperatorBreakdown("graph,SF0.4", large->store, Bindings(*large, kRuns),
                         kRuns);
  std::printf("\n");
}

}  // namespace
}  // namespace snb::bench

int main() {
  snb::bench::Run();
  return 0;
}
