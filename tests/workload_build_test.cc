// Tests for query-mix / workload construction: frequencies, parameters and
// dependency metadata of the generated operation stream.
#include <map>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "driver/query_mix.h"

namespace snb::driver {
namespace {

class WorkloadBuildTest : public ::testing::Test {
 protected:
  struct World {
    datagen::Dataset dataset;
    std::unique_ptr<schema::Dictionaries> dict;
  };

  static World& world() {
    static World* w = [] {
      auto* world = new World();
      datagen::DatagenConfig config;
      config.num_persons = 250;
      world->dataset = datagen::Generate(config);
      world->dict = std::make_unique<schema::Dictionaries>(config.seed);
      return world;
    }();
    return *w;
  }
};

TEST_F(WorkloadBuildTest, FrequenciesControlReadCounts) {
  QueryMixConfig mix;
  for (auto& f : mix.frequencies) f = 100;
  mix.frequencies[0] = 10;  // Q1 ten times as often.
  Workload workload = BuildWorkload(world().dataset, *world().dict, mix);

  std::map<int, uint64_t> counts;
  for (const Operation& op : workload.operations) {
    if (op.type == OperationType::kComplexRead) ++counts[op.query_id];
  }
  uint64_t updates = workload.num_updates;
  EXPECT_EQ(counts[1], updates / 10);
  EXPECT_EQ(counts[2], updates / 100);
  EXPECT_EQ(counts[14], updates / 100);
}

TEST_F(WorkloadBuildTest, FrequencyScaleSlowsReads) {
  QueryMixConfig mix;
  for (auto& f : mix.frequencies) f = 50;
  Workload base = BuildWorkload(world().dataset, *world().dict, mix);
  mix.frequency_scale = 2.0;
  Workload scaled = BuildWorkload(world().dataset, *world().dict, mix);
  EXPECT_NEAR(static_cast<double>(base.num_complex_reads) /
                  static_cast<double>(scaled.num_complex_reads),
              2.0, 0.2);
}

TEST_F(WorkloadBuildTest, ReadParametersAreCuratedAndPlausible) {
  QueryMixConfig mix;
  for (auto& f : mix.frequencies) f = 20;
  Workload workload = BuildWorkload(world().dataset, *world().dict, mix);

  for (const Operation& op : workload.operations) {
    if (op.type != OperationType::kComplexRead) continue;
    EXPECT_NE(op.person_param, schema::kInvalidId);
    EXPECT_LT(op.person_param, 250u);
    switch (op.query_id) {
      case 2:
      case 9:
        // "Before" dates lie just before the op's own simulation time.
        EXPECT_LT(static_cast<util::TimestampMs>(op.aux0), op.due_time);
        EXPECT_GT(static_cast<util::TimestampMs>(op.aux0),
                  util::kNetworkStartMs);
        break;
      case 10:
        EXPECT_GE(op.aux0, 1u);
        EXPECT_LE(op.aux0, 12u);
        break;
      case 13:
      case 14:
        EXPECT_NE(op.person_param2, schema::kInvalidId);
        break;
      default:
        break;
    }
    // Reads never participate in dependency tracking.
    EXPECT_FALSE(op.is_dependency);
    EXPECT_EQ(op.dependency_time, 0);
  }
}

TEST_F(WorkloadBuildTest, UpdateOpsCarryDependencyMetadata) {
  QueryMixConfig mix;
  mix.include_complex_reads = false;
  Workload workload = BuildWorkload(world().dataset, *world().dict, mix);
  ASSERT_EQ(workload.operations.size(), world().dataset.updates.size());

  uint64_t dependencies = 0, forum_ops = 0;
  for (const Operation& op : workload.operations) {
    EXPECT_EQ(op.type, OperationType::kUpdate);
    const datagen::UpdateOperation& u =
        world().dataset.updates[op.update_index];
    EXPECT_EQ(op.due_time, u.due_time);
    EXPECT_EQ(op.dependency_time, u.dependency_time);
    EXPECT_EQ(op.person_dependency_time, u.person_dependency_time);
    if (op.is_dependency) {
      ++dependencies;
      EXPECT_TRUE(u.kind == datagen::UpdateKind::kAddPerson ||
                  u.kind == datagen::UpdateKind::kAddFriendship);
    }
    if (op.forum_partition != schema::kInvalidId) ++forum_ops;
  }
  EXPECT_GT(dependencies, 0u);
  EXPECT_GT(forum_ops, dependencies);  // Forum-tree ops dominate.
}

TEST_F(WorkloadBuildTest, TrackEveryUpdateRoutesUpdatesThroughTgc) {
  QueryMixConfig mix;
  for (auto& f : mix.frequencies) f = 20;
  Workload workload = BuildWorkload(world().dataset, *world().dict, mix);
  std::vector<Operation> tracked = TrackEveryUpdate(workload.operations);
  ASSERT_EQ(tracked.size(), workload.operations.size());
  for (size_t i = 0; i < tracked.size(); ++i) {
    const Operation& before = workload.operations[i];
    const Operation& after = tracked[i];
    EXPECT_EQ(after.type, before.type);
    EXPECT_EQ(after.due_time, before.due_time);
    EXPECT_EQ(after.is_dependency, before.type == OperationType::kUpdate);
    EXPECT_EQ(after.person_dependency_time, before.dependency_time);
    EXPECT_EQ(after.forum_partition, schema::kInvalidId);
  }
}

TEST_F(WorkloadBuildTest, ReadOnlyWorkloadWithoutUpdates) {
  QueryMixConfig mix;
  mix.include_updates = false;
  for (auto& f : mix.frequencies) f = 200;
  Workload workload = BuildWorkload(world().dataset, *world().dict, mix);
  EXPECT_EQ(workload.num_updates, 0u);
  EXPECT_GT(workload.num_complex_reads, 0u);
  for (const Operation& op : workload.operations) {
    EXPECT_EQ(op.type, OperationType::kComplexRead);
  }
}

TEST_F(WorkloadBuildTest, DeterministicConstruction) {
  QueryMixConfig mix;
  for (auto& f : mix.frequencies) f = 40;
  Workload a = BuildWorkload(world().dataset, *world().dict, mix);
  Workload b = BuildWorkload(world().dataset, *world().dict, mix);
  ASSERT_EQ(a.operations.size(), b.operations.size());
  for (size_t i = 0; i < a.operations.size(); ++i) {
    EXPECT_EQ(a.operations[i].due_time, b.operations[i].due_time);
    EXPECT_EQ(a.operations[i].query_id, b.operations[i].query_id);
    EXPECT_EQ(a.operations[i].person_param, b.operations[i].person_param);
    EXPECT_EQ(a.operations[i].aux0, b.operations[i].aux0);
  }
}

}  // namespace
}  // namespace snb::driver
