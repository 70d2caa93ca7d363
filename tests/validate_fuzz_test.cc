// Differential query fuzzer: three independent implementations (graph
// store, relational baseline, naive oracle) must agree on every read query
// over hundreds of random graphs; any disagreement shrinks to a minimal
// standalone regression artifact.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "store/graph_store.h"
#include "validate/fuzz.h"

namespace snb::validate {
namespace {

TEST(FuzzGeneratorTest, IsDeterministicAndBounded) {
  schema::SocialNetwork a = GenerateFuzzNetwork(42, 12);
  schema::SocialNetwork b = GenerateFuzzNetwork(42, 12);
  ASSERT_EQ(a.persons.size(), b.persons.size());
  ASSERT_GE(a.persons.size(), 2u);
  ASSERT_LE(a.persons.size(), 12u);
  ASSERT_EQ(a.knows.size(), b.knows.size());
  ASSERT_EQ(a.messages.size(), b.messages.size());
  ASSERT_EQ(a.likes.size(), b.likes.size());
  for (size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].id, b.messages[i].id);
    EXPECT_EQ(a.messages[i].content, b.messages[i].content);
  }
  // A different seed produces a different graph (overwhelmingly likely).
  schema::SocialNetwork c = GenerateFuzzNetwork(43, 12);
  EXPECT_TRUE(a.persons.size() != c.persons.size() ||
              a.messages.size() != c.messages.size() ||
              a.knows.size() != c.knows.size() ||
              a.likes.size() != c.likes.size());
}

TEST(FuzzGeneratorTest, CommentsReplyToEarlierMessages) {
  for (uint64_t seed : {1ULL, 7ULL, 99ULL}) {
    schema::SocialNetwork net = GenerateFuzzNetwork(seed, 12);
    for (const schema::Message& m : net.messages) {
      if (m.kind == schema::MessageKind::kComment) {
        EXPECT_LT(m.reply_to_id, m.id);
        EXPECT_NE(m.root_post_id, schema::kInvalidId);
      } else {
        EXPECT_EQ(m.root_post_id, m.id);
      }
    }
  }
}

TEST(FuzzGeneratorTest, NamePoolSharesAFirstNameBucket) {
  // Q1 reads candidates from the store's first-name index, whose buckets
  // also hold other names that hash alike. Only a pool with two such names
  // makes the differential check Q1's test on the record's name, so a hash
  // change that separates them must change the pool too.
  int shared = 0;
  for (const char* a : kFuzzFirstNames) {
    for (const char* b : kFuzzFirstNames) {
      if (std::string(a) < b && store::GraphStore::FirstNameBucket(a) ==
                                    store::GraphStore::FirstNameBucket(b)) {
        ++shared;
      }
    }
  }
  EXPECT_GE(shared, 1);
}

// The acceptance gate: >= 200 random graphs, all 21 read queries, zero
// mismatches between the store, the relational baseline and the oracle.
TEST(DifferentialFuzzTest, TwoHundredGraphsAgreeAcrossBackends) {
  FuzzConfig config;
  config.num_graphs = 200;
  FuzzOutcome outcome;
  ASSERT_TRUE(RunDifferentialFuzz(config, &outcome).ok());
  EXPECT_EQ(outcome.graphs_run, 200);
  EXPECT_GT(outcome.comparisons, 0u);
  ASSERT_EQ(outcome.mismatches, 0)
      << "backend " << outcome.first.backend << " diverged on "
      << outcome.first.binding.op << " (graph seed "
      << outcome.first.graph_seed << "):\n"
      << MismatchToJson(outcome.first);
}

// Larger graphs (up to 40 persons and 160 messages), on a seed of their
// own: Q14's shortest paths cross several weighed pairs and Q8 reads
// longer reply lists, so both get the three-way check there too.
TEST(DifferentialFuzzTest, LargerGraphsAgreeAcrossBackends) {
  FuzzConfig config;
  config.seed = 0x40B16ULL;
  config.num_graphs = 300;
  config.max_persons = 40;
  FuzzOutcome outcome;
  ASSERT_TRUE(RunDifferentialFuzz(config, &outcome).ok());
  EXPECT_EQ(outcome.graphs_run, 300);
  ASSERT_EQ(outcome.mismatches, 0)
      << "backend " << outcome.first.backend << " diverged on "
      << outcome.first.binding.op << " (graph seed "
      << outcome.first.graph_seed << "):\n"
      << MismatchToJson(outcome.first);
}

TEST(DifferentialFuzzTest, PerturbationIsCaughtShrunkAndRoundTrips) {
  // Simulated store-side bug: Q2 drops its last row.
  StorePerturbation drop_last = [](const std::string& op,
                                   std::vector<std::string>* rows) {
    if (op == "complex.Q2" && !rows->empty()) rows->pop_back();
  };
  FuzzConfig config;
  config.num_graphs = 50;
  FuzzOutcome outcome;
  ASSERT_TRUE(RunDifferentialFuzz(config, drop_last, &outcome).ok());
  ASSERT_EQ(outcome.mismatches, 1);
  const FuzzMismatch& mismatch = outcome.first;
  EXPECT_EQ(mismatch.backend, "store");
  EXPECT_EQ(mismatch.binding.op, "complex.Q2");
  EXPECT_NE(mismatch.expected, mismatch.actual);

  // The shrunk graph still reproduces, and shrinking actually removed
  // irrelevant structure: the surviving graph is no bigger than the
  // original the seed regenerates.
  EXPECT_TRUE(MismatchReproduces(mismatch, drop_last));
  schema::SocialNetwork original =
      GenerateFuzzNetwork(mismatch.graph_seed, config.max_persons);
  size_t original_entities = original.persons.size() + original.knows.size() +
                             original.messages.size() + original.likes.size() +
                             original.memberships.size() +
                             original.forums.size();
  size_t shrunk_entities =
      mismatch.graph.persons.size() + mismatch.graph.knows.size() +
      mismatch.graph.messages.size() + mismatch.graph.likes.size() +
      mismatch.graph.memberships.size() + mismatch.graph.forums.size();
  EXPECT_LE(shrunk_entities, original_entities);

  // Artifact round-trip: write, read back, reproduce from the file alone.
  std::string path = ::testing::TempDir() + "fuzz_regression.json";
  ASSERT_TRUE(WriteMismatch(mismatch, path).ok());
  FuzzMismatch loaded;
  ASSERT_TRUE(ReadMismatch(path, &loaded).ok());
  EXPECT_EQ(loaded.backend, mismatch.backend);
  EXPECT_EQ(loaded.binding.op, mismatch.binding.op);
  EXPECT_EQ(loaded.expected, mismatch.expected);
  EXPECT_EQ(loaded.actual, mismatch.actual);
  EXPECT_EQ(loaded.graph.persons.size(), mismatch.graph.persons.size());
  EXPECT_EQ(loaded.graph.messages.size(), mismatch.graph.messages.size());
  for (size_t i = 0; i < loaded.graph.messages.size(); ++i) {
    EXPECT_EQ(loaded.graph.messages[i].content,
              mismatch.graph.messages[i].content);
    EXPECT_EQ(loaded.graph.messages[i].reply_to_id,
              mismatch.graph.messages[i].reply_to_id);
  }
  EXPECT_TRUE(MismatchReproduces(loaded, drop_last));
  // Without the simulated bug the artifact does not reproduce — the
  // mismatch lived in the perturbation, not the store.
  EXPECT_FALSE(MismatchReproduces(loaded));
  std::remove(path.c_str());
}

TEST(FuzzArtifactTest, RejectsForeignAndCorruptDocuments) {
  FuzzMismatch out;
  EXPECT_FALSE(MismatchFromJson("not json", &out).ok());
  EXPECT_FALSE(MismatchFromJson("{\"schema\":\"other-v9\"}", &out).ok());
  EXPECT_FALSE(
      MismatchFromJson("{\"schema\":\"snb-fuzz-regression-v1\"}", &out).ok());
}

// Integer fields must hold a whole number in range or a decimal string,
// tag arrays whole numbers that fit a TagId and row arrays strings; the
// loader refuses anything else, naming the field, rather than converting it.
TEST(FuzzArtifactTest, RejectsMistypedAndOutOfRangeValues) {
  FuzzMismatch m;
  m.backend = "store";
  m.binding.op = "complex.Q2";
  m.binding.person = 1;
  m.binding.date = 1300000000000;
  m.expected = {"1|2|3"};
  schema::Person p;
  p.id = 1;
  p.interests = {3, 5};
  m.graph.persons = {p};
  const std::string json = MismatchToJson(m);
  FuzzMismatch loaded;
  ASSERT_TRUE(MismatchFromJson(json, &loaded).ok());

  const std::string cases[][2] = {
      {"date", "1e30"},          {"date", "1.5"},
      {"date", "\"12abc\""},     {"days", "-1e19"},
      {"person", "\"-5\""},      {"person", "-1"},
      {"interests", "[\"x\"]"},  {"interests", "[1.5]"},
      {"interests", "[-1]"},     {"interests", "[4294967296]"},
      {"expected", "[1]"},       {"actual", "[null]"},
  };
  for (const auto& [field, value] : cases) {
    const std::string key = "\"" + field + "\":";
    std::string bad = json;
    size_t begin = bad.find(key);
    ASSERT_NE(begin, std::string::npos) << field;
    begin += key.size();
    size_t end = bad[begin] == '[' ? bad.find(']', begin) + 1
                 : bad[begin] == '"' ? bad.find('"', begin + 1) + 1
                                     : bad.find_first_of(",}", begin);
    bad.replace(begin, end - begin, value);
    util::Status st = MismatchFromJson(bad, &loaded);
    EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument)
        << field << "=" << value;
    EXPECT_NE(st.message().find("\"" + field + "\""), std::string::npos)
        << st.message();
  }
}

// Written artifacts use the v1 layout, with no store shard count. Both
// schema versions still load: v2 writers added one integer field after
// graph_seed (the store's shard count), and the reader reads only the
// fields it knows, so that field is ignored like any other extra one.
TEST(FuzzArtifactTest, WrittenArtifactRoundTripsAndV1V2StayAccepted) {
  FuzzMismatch m;
  m.graph_seed = 7;
  m.backend = "store";
  m.binding.op = "short.S3";
  m.binding.person = 1;
  m.expected = {"1|First|Last|100"};
  schema::Person a;
  a.id = 1;
  a.first_name = "First";
  a.last_name = "Last";
  schema::Person b;
  b.id = 2;
  b.first_name = "Other";
  b.last_name = "Person";
  m.graph.persons = {a, b};
  m.graph.knows = {{1, 2, 100}};

  std::string json = MismatchToJson(m);
  EXPECT_NE(json.find("\"schema\":\"snb-fuzz-regression-v1\""),
            std::string::npos);
  EXPECT_EQ(json.find("shard"), std::string::npos);
  FuzzMismatch loaded;
  ASSERT_TRUE(MismatchFromJson(json, &loaded).ok());
  EXPECT_EQ(loaded.graph_seed, 7u);
  EXPECT_EQ(loaded.backend, "store");
  EXPECT_EQ(loaded.binding.op, "short.S3");
  EXPECT_EQ(loaded.expected, m.expected);
  EXPECT_EQ(loaded.graph.persons.size(), 2u);
  EXPECT_EQ(loaded.graph.knows.size(), 1u);

  // A v2 document: the v2 tag, and an extra integer field after
  // graph_seed where v2 writers put the shard count.
  std::string v2 = json;
  size_t tag = v2.find("snb-fuzz-regression-v1");
  ASSERT_NE(tag, std::string::npos);
  v2.replace(tag, 22, "snb-fuzz-regression-v2");
  size_t backend = v2.find("\"backend\"");
  ASSERT_NE(backend, std::string::npos);
  v2.insert(backend, "\"retired_field\":4,");
  FuzzMismatch from_v2;
  ASSERT_TRUE(MismatchFromJson(v2, &from_v2).ok());
  EXPECT_EQ(from_v2.graph_seed, 7u);
  EXPECT_EQ(from_v2.backend, "store");
  EXPECT_EQ(from_v2.graph.persons.size(), 2u);
}

}  // namespace
}  // namespace snb::validate
