// Byte-identity tests for the batched Q5 and Q9 plans (top-k heap, forum
// dedupe by sort): Query5/Query9 must return exactly validate::Oracle's
// brute-force rows (same order) on a generated dataset, across persons,
// dates and limits — including absent persons and degenerate parameters.
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "queries/complex_queries.h"
#include "store/graph_store.h"
#include "util/datetime.h"
#include "validate/canonical.h"
#include "validate/oracle.h"

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
      world->sample.push_back(99999999);          // Absent person.
      world->sample.push_back((1ULL << 39) + 7);  // Absent, far past the ids.
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

TEST_F(BatchedQueriesTest, Q5MatchesOracle) {
  validate::Oracle oracle(world().dataset.bulk);
  size_t nonempty = 0;
  for (schema::PersonId p : world().sample) {
    for (util::TimestampMs date : Dates()) {
      for (int limit : {0, 3, 20}) {
        std::vector<Q5Result> rows = Query5(world().store, p, date, limit);
        EXPECT_EQ(validate::CanonicalRows(rows),
                  validate::CanonicalRows(oracle.Query5(p, date, limit)))
            << "person " << p << " date " << date << " limit " << limit;
        if (!rows.empty()) ++nonempty;
      }
    }
  }
  EXPECT_GT(nonempty, 0u) << "sweep never reached a non-empty result";
}

TEST_F(BatchedQueriesTest, Q9MatchesOracle) {
  validate::Oracle oracle(world().dataset.bulk);
  size_t nonempty = 0;
  for (schema::PersonId p : world().sample) {
    for (util::TimestampMs date : Dates()) {
      for (int limit : {0, 1, 20}) {
        std::vector<Q9Result> rows = Query9(world().store, p, date, limit);
        EXPECT_EQ(validate::CanonicalRows(rows),
                  validate::CanonicalRows(oracle.Query9(p, date, limit)))
            << "person " << p << " date " << date << " limit " << limit;
        if (!rows.empty()) ++nonempty;
      }
    }
  }
  EXPECT_GT(nonempty, 0u) << "sweep never reached a non-empty result";
}

}  // namespace
}  // namespace snb::queries
