// Byte-identity tests for the batched engine: Query{5,9}Batched must
// return exactly the scalar engine's rows (same order) on a generated
// dataset, across persons, dates and limits — including absent persons and
// degenerate parameters. Plus the dispatch contract: the public
// Query5/Query9 follow exec::DefaultExecMode().
#include <algorithm>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "exec/exec_mode.h"
#include "queries/batched_queries.h"
#include "queries/complex_queries.h"
#include "store/graph_store.h"
#include "util/datetime.h"

namespace snb::queries {
namespace {

class BatchedQueriesTest : public ::testing::Test {
 protected:
  struct World {
    datagen::Dataset dataset;
    store::GraphStore store;
    std::vector<schema::PersonId> sample;  // Spread of person ids.
    schema::PersonId hub = 0;              // Highest-degree person.
  };

  static World& world() {
    static World* w = [] {
      auto* world = new World();
      datagen::DatagenConfig config;
      config.num_persons = 250;
      config.split_update_stream = false;
      world->dataset = datagen::Generate(config);
      EXPECT_TRUE(world->store.BulkLoad(world->dataset.bulk).ok());
      std::unordered_map<schema::PersonId, size_t> degree;
      for (const schema::Knows& k : world->dataset.bulk.knows) {
        ++degree[k.person1_id];
        ++degree[k.person2_id];
      }
      size_t best = 0;
      for (auto& [pid, d] : degree) {
        if (d > best) {
          best = d;
          world->hub = pid;
        }
      }
      const auto& persons = world->dataset.bulk.persons;
      for (size_t i = 0; i < persons.size(); i += 11) {
        world->sample.push_back(persons[i].id);
      }
      world->sample.push_back(world->hub);
      world->sample.push_back(99999999);  // Absent person.
      return world;
    }();
    return *w;
  }

  static std::vector<util::TimestampMs> Dates() {
    return {
        0,  // Before everything.
        util::kNetworkStartMs + 6 * util::kMillisPerMonth,
        util::kNetworkStartMs + 18 * util::kMillisPerMonth,
        util::kNetworkStartMs + 40 * util::kMillisPerMonth,  // After all.
    };
  }
};

TEST_F(BatchedQueriesTest, Q5BatchedMatchesScalar) {
  for (schema::PersonId p : world().sample) {
    for (util::TimestampMs date : Dates()) {
      for (int limit : {0, 3, 20}) {
        std::vector<Q5Result> scalar =
            Query5Scalar(world().store, p, date, limit);
        std::vector<Q5Result> batched =
            Query5Batched(world().store, p, date, limit);
        ASSERT_EQ(batched.size(), scalar.size())
            << "person " << p << " date " << date << " limit " << limit;
        for (size_t i = 0; i < scalar.size(); ++i) {
          EXPECT_EQ(batched[i].forum_id, scalar[i].forum_id) << i;
          EXPECT_EQ(batched[i].post_count, scalar[i].post_count) << i;
        }
      }
    }
  }
}

TEST_F(BatchedQueriesTest, Q9BatchedMatchesScalar) {
  for (schema::PersonId p : world().sample) {
    for (util::TimestampMs date : Dates()) {
      for (int limit : {0, 1, 20}) {
        std::vector<Q9Result> scalar =
            Query9Scalar(world().store, p, date, limit);
        std::vector<Q9Result> batched =
            Query9Batched(world().store, p, date, limit);
        ASSERT_EQ(batched.size(), scalar.size())
            << "person " << p << " date " << date << " limit " << limit;
        for (size_t i = 0; i < scalar.size(); ++i) {
          EXPECT_EQ(batched[i].message_id, scalar[i].message_id) << i;
          EXPECT_EQ(batched[i].creator_id, scalar[i].creator_id) << i;
          EXPECT_EQ(batched[i].creation_date, scalar[i].creation_date) << i;
        }
      }
    }
  }
}

TEST_F(BatchedQueriesTest, Q9BatchedFillsPlanStats) {
  Q9PlanStats stats;
  Q9OperatorProfile profile;
  util::TimestampMs max_date =
      util::kNetworkStartMs + 40 * util::kMillisPerMonth;
  std::vector<Q9Result> rows = Query9Batched(world().store, world().hub,
                                             max_date, 20, &stats, &profile);
  EXPECT_FALSE(rows.empty());
  EXPECT_GT(stats.join1_output, 0u);
  EXPECT_GE(stats.join2_output, stats.join1_output);
  EXPECT_GE(stats.join3_output, rows.size());
  EXPECT_GT(profile.join1.invocations, 0u);
  EXPECT_GT(profile.join3.rows, 0u);
}

TEST_F(BatchedQueriesTest, PublicEntryPointsDispatchOnExecMode) {
  ASSERT_EQ(exec::DefaultExecMode(), exec::ExecMode::kScalar)
      << "test assumes the process default";
  util::TimestampMs max_date =
      util::kNetworkStartMs + 18 * util::kMillisPerMonth;
  schema::PersonId p = world().hub;

  std::vector<Q9Result> scalar = Query9(world().store, p, max_date, 20);
  exec::SetDefaultExecMode(exec::ExecMode::kBatched);
  std::vector<Q9Result> batched = Query9(world().store, p, max_date, 20);
  exec::SetDefaultExecMode(exec::ExecMode::kScalar);

  ASSERT_EQ(batched.size(), scalar.size());
  for (size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(batched[i].message_id, scalar[i].message_id) << i;
  }
  EXPECT_EQ(exec::ExecModeName(exec::ExecMode::kBatched),
            std::string("batched"));
  EXPECT_EQ(exec::ExecModeName(exec::ExecMode::kScalar),
            std::string("scalar"));
  exec::ExecMode parsed;
  EXPECT_TRUE(exec::ParseExecMode("batched", &parsed));
  EXPECT_EQ(parsed, exec::ExecMode::kBatched);
  EXPECT_TRUE(exec::ParseExecMode("scalar", &parsed));
  EXPECT_EQ(parsed, exec::ExecMode::kScalar);
  EXPECT_FALSE(exec::ParseExecMode("vectorized", &parsed));
}

}  // namespace
}  // namespace snb::queries
