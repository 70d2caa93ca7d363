// Deterministic mutation fuzz of the JSON readers that take outside bytes:
// obs::ParseJson and the three loaders built on it — the golden-set reader
// (validate::GoldenSetFromJson), the fuzz-artifact reader
// (validate::MismatchFromJson) and the report validator
// (obs::ValidateReportJson). Real documents from each writer are cut,
// bit-flipped, spliced and nested deep under fixed seeds; every variant
// must either load or fail with an error message; hand-written numbers
// outside RFC 8259's grammar must fail. scripts/check.sh and CI
// also run this test under AddressSanitizer and UndefinedBehaviorSanitizer
// (ctest -L hostile), where an out-of-bounds read or a stack overflow
// aborts it.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "obs/report.h"
#include "util/rng.h"
#include "validate/fuzz.h"
#include "validate/golden.h"

namespace snb {
namespace {

using Loader = std::function<util::Status(const std::string&)>;

/// Mutations per (document, kind).
constexpr int kMutationsPerKind = 300;

/// Bytes the inserts draw from: JSON structure, escapes and digits (which
/// reach the deep parser states) plus arbitrary bytes.
constexpr char kJsonBytes[] = "{}[]\",:\\/0123456789.eE+-utfnal \n\x01\x7f";

std::string GoldenJson() {
  validate::GoldenEmitOptions options;
  options.num_persons = 60;
  options.num_segments = 2;
  validate::GoldenSet golden;
  util::Status s = validate::EmitGoldenSet(options, &golden);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return validate::GoldenSetToJson(golden);
}

std::string ArtifactJson() {
  validate::FuzzMismatch mismatch;
  mismatch.graph_seed = 7;
  mismatch.backend = "store";
  mismatch.binding.op = "complex.Q2";
  mismatch.binding.person = 1;
  mismatch.binding.date = 1300000000000;
  mismatch.expected = {"1|2|3", "4|5|6"};
  mismatch.actual = {"1|2|3"};
  mismatch.graph = validate::GenerateFuzzNetwork(7, 8);
  return validate::MismatchToJson(mismatch);
}

/// A report with every section the writer emits, so mutations reach each
/// branch of the validator.
std::string ReportJson() {
  obs::MetricsRegistry registry;
  for (int i = 1; i <= 50; ++i) {
    registry.RecordLatencyMicros(obs::ComplexOp(9), 100.0 * i);
    registry.RecordLatencyMicros(obs::ShortOp(1), 5.0);
  }
  obs::RunReport report;
  report.title = "parser fuzz \"seed\" run";
  report.metrics = registry.Snapshot();
  report.has_driver = true;
  report.driver.operations_executed = 100;
  report.driver.elapsed_seconds = 1.0;
  report.driver.ops_per_second = 100.0;
  report.driver.lag_timeline_ms = {{0.0, 1.0}, {1.0, 2.0}};
  report.has_compliance = true;
  report.compliance.window_ms = 100.0;
  report.compliance.required_on_time_fraction = 0.95;
  report.compliance.scheduled_ops = 100;
  report.compliance.on_time_ops = 99;
  report.compliance.on_time_fraction = 0.99;
  report.compliance.lateness_histogram_ms = {{0.0, 99}, {128.0, 1}};
  report.compliance.per_op = {{"complex.Q9", 50, 1, 130.0}};
  report.has_validation = true;
  report.validation.passed = true;
  report.validation.golden_path = "golden.json";
  report.validation.threads = 8;
  report.validation.mode = "windowed";
  report.has_provenance = true;
  report.provenance = obs::BuildProvenance();
  report.has_perf = true;
  report.perf = obs::CurrentPerfSection();
  obs::SlowQueryDossier dossier;
  dossier.op = obs::ComplexOp(9);
  dossier.seq = 3;
  dossier.latency_ns = 5000;
  obs::OperatorRow join;
  join.label = "join1";
  join.stats.invocations = 1;
  join.stats.time_ns = 1000;
  join.stats.rows = 500;
  dossier.operators.push_back(join);
  report.dossiers.push_back(dossier);
  report.has_trace_stats = true;
  report.trace_stats.recorded = 10;
  report.trace_stats.lanes = {{0, 10, 10, 0}};
  report.has_profile = true;
  report.profile.backend = "noop";
  report.profile.message = "disabled for the test";
  return obs::ToJson(report);
}

/// Runs `load` on `text`; a failure must carry a message. Returns whether
/// the text loaded.
bool LoadsOrFailsCleanly(const Loader& load, const std::string& text,
                         const std::string& what) {
  util::Status s = load(text);
  EXPECT_TRUE(s.ok() || !s.message().empty()) << what;
  return s.ok();
}

/// One seeded mutation of `doc` of the given kind.
std::string Mutate(const std::string& doc, int kind, util::Rng* rng) {
  std::string out = doc;
  switch (kind) {
    case 0:  // Truncate.
      out.resize(rng->NextBounded(doc.size() + 1));
      break;
    case 1:  // Flip a few bits.
      for (uint64_t n = 1 + rng->NextBounded(8); n > 0; --n) {
        out[rng->NextBounded(out.size())] ^=
            static_cast<char>(1u << rng->NextBounded(8));
      }
      break;
    case 2:  // Insert a few bytes.
      for (uint64_t n = 1 + rng->NextBounded(8); n > 0; --n) {
        char c = kJsonBytes[rng->NextBounded(sizeof(kJsonBytes) - 1)];
        out.insert(out.begin() + rng->NextBounded(out.size() + 1), c);
      }
      break;
    default: {  // Splice a run of openers in, up to far past the cap.
      uint64_t depth = 1 + rng->NextBounded(4 * obs::kMaxJsonDepth);
      char opener = rng->NextBounded(2) == 0 ? '[' : '{';
      out.insert(rng->NextBounded(out.size() + 1), depth, opener);
      break;
    }
  }
  return out;
}

struct Document {
  const char* name;
  std::string text;
  Loader load;
};

std::vector<Document> RealDocuments() {
  return {
      {"golden set", GoldenJson(),
       [](const std::string& text) {
         validate::GoldenSet golden;
         return validate::GoldenSetFromJson(text, &golden);
       }},
      {"fuzz artifact", ArtifactJson(),
       [](const std::string& text) {
         validate::FuzzMismatch mismatch;
         return validate::MismatchFromJson(text, &mismatch);
       }},
      {"report", ReportJson(),
       [](const std::string& text) { return obs::ValidateReportJson(text); }},
  };
}

TEST(JsonFuzzTest, MutatedRealDocumentsLoadOrFailWithAnError) {
  for (const Document& doc : RealDocuments()) {
    SCOPED_TRACE(doc.name);
    ASSERT_TRUE(LoadsOrFailsCleanly(doc.load, doc.text, "unmutated"));
    for (int kind = 0; kind < 4; ++kind) {
      util::Rng rng(0x6a73 + 1000 * kind);
      int loaded = 0;
      for (int i = 0; i < kMutationsPerKind; ++i) {
        std::string mutated = Mutate(doc.text, kind, &rng);
        std::string what =
            "kind " + std::to_string(kind) + " #" + std::to_string(i);
        if (LoadsOrFailsCleanly(doc.load, mutated, what)) ++loaded;
      }
      // Truncations and spliced openers break every document; a flip or
      // insert may land in a string and survive, but not every time.
      EXPECT_LT(loaded, kMutationsPerKind) << "kind " << kind;
    }
  }
}

TEST(JsonFuzzTest, NestingIsCappedAtTheDocumentedDepth) {
  obs::JsonValue v;
  std::string error;
  for (char open : {'[', '{'}) {
    SCOPED_TRACE(std::string(1, open));
    auto nest = [open](size_t depth) {
      // {"a":{"a":...{}...}} or [[...[]...]].
      std::string text;
      for (size_t i = 0; i < depth; ++i) {
        text += open == '[' ? "[" : (i + 1 < depth ? "{\"a\":" : "{");
      }
      text += std::string(depth, open == '[' ? ']' : '}');
      return text;
    };
    EXPECT_TRUE(obs::ParseJson(nest(obs::kMaxJsonDepth), &v, &error))
        << error;
    EXPECT_FALSE(obs::ParseJson(nest(obs::kMaxJsonDepth + 1), &v, &error));
    EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  }
  // A megabyte of openers used to overflow the stack.
  error.clear();
  EXPECT_FALSE(obs::ParseJson(std::string(1 << 20, '['), &v, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  std::string objects;
  while (objects.size() < (1 << 20)) objects += "{\"a\":";
  validate::GoldenSet golden;
  util::Status s = validate::GoldenSetFromJson(objects, &golden);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("nesting too deep"), std::string::npos)
      << s.message();
}

// Numbers follow RFC 8259 exactly. strtod also reads NaN, infinities,
// hex, a leading '+' or '.' and leading zeros, and a value past the range
// of a double becomes infinity; each must fail to parse.
TEST(JsonFuzzTest, NumbersFollowRfc8259) {
  obs::JsonValue v;
  std::string error;
  for (const char* text :
       {"0", "-0", "7", "-12", "0.5", "-0.25", "10e3", "1E+5", "2.5e-3",
        "1.7976931348623157e308", "4.9406564584124654e-324",
        "18446744073709551615", "[0,-1.5e2,3]"}) {
    EXPECT_TRUE(obs::ParseJson(text, &v, &error)) << text << ": " << error;
  }
  for (const char* text :
       {"NaN", "-NaN", "nan", "Infinity", "-Infinity", "inf", "-inf", "0x10",
        "-0x10", "+1", ".5", "-.5", "01", "-01", "00", "1.", "1.e5", "1e",
        "1e+", "-", "1e999", "-1e999", "[1,NaN]", "{\"a\":Infinity}"}) {
    error.clear();
    bool parsed = obs::ParseJson(text, &v, &error);
    EXPECT_FALSE(parsed) << text;
    EXPECT_TRUE(parsed || !error.empty()) << text;
  }
}

// A number that is not finite would pass every range check of the report
// validator, since NaN compares false.
TEST(JsonFuzzTest, ReportsWithNonJsonNumbersAreRejected) {
  auto op_row = [](const char* count, const char* percentile) {
    std::string p = percentile;
    return std::string("{\"schema\":\"snb-report-v5\",\"ops\":[{\"op\":\"x\","
                       "\"count\":") +
           count + ",\"p50_ms\":" + p + ",\"p90_ms\":" + p +
           ",\"p95_ms\":" + p + ",\"p99_ms\":" + p + ",\"max_ms\":" + p +
           "}]}";
  };
  ASSERT_TRUE(obs::ValidateReportJson(op_row("2", "1.5")).ok());
  EXPECT_FALSE(obs::ValidateReportJson(op_row("NaN", "NaN")).ok());
  EXPECT_FALSE(obs::ValidateReportJson(op_row("Infinity", "1.5")).ok());
  EXPECT_FALSE(obs::ValidateReportJson(op_row("0x10", "1.5")).ok());

  std::string report = ReportJson();
  ASSERT_TRUE(obs::ValidateReportJson(report).ok());
  const std::string captured = "\"captured\":0";
  size_t at = report.find(captured, report.find("\"profile\""));
  ASSERT_NE(at, std::string::npos);
  report.replace(at, captured.size(), "\"captured\":NaN");
  EXPECT_FALSE(obs::ValidateReportJson(report).ok());
}

}  // namespace
}  // namespace snb
