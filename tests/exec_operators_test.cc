// Unit tests for the query plans' physical operators: the person bitmap
// (DenseIdSet) against std::set, the flat hash map (HashMap64) against
// std::unordered_map, the bounded TopK sink against
// full-sort-then-truncate, and the two-hop expansion (ExpandTwoHop, with
// the rows of its join1/join2 spans) against brute-force references over a
// generated dataset.
#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "exec/dense_id_set.h"
#include "exec/hash_join.h"
#include "exec/operators.h"
#include "obs/trace.h"
#include "store/graph_store.h"
#include "util/rng.h"

namespace snb::exec {
namespace {

// ---- Person bitmap -------------------------------------------------------

std::vector<uint64_t> Members(const DenseIdSet& set) {
  std::vector<uint64_t> out;
  set.ForEach([&out](uint64_t id) { out.push_back(id); });
  return out;
}

TEST(DenseIdSetTest, MatchesStdSetUnderRandomInsertsAndErases) {
  DenseIdSet set(1000);
  std::set<uint64_t> ref;
  util::Rng rng(0x4a55);
  for (int i = 0; i < 4000; ++i) {
    uint64_t id = rng.Next() % 1000;
    if (rng.Next() % 4 == 0) {
      set.Erase(id);
      ref.erase(id);
    } else {
      EXPECT_EQ(set.Insert(id), ref.insert(id).second) << id;
    }
  }
  EXPECT_EQ(set.size(), ref.size());
  EXPECT_EQ(Members(set), std::vector<uint64_t>(ref.begin(), ref.end()));
}

TEST(DenseIdSetTest, InsertPastTheSizingBoundGrows) {
  DenseIdSet set(64);  // Sized for ids 0..63; later ids must grow it.
  for (uint64_t id = 0; id < 1000; ++id) {
    EXPECT_TRUE(set.Insert(id * 7)) << id;
  }
  for (uint64_t id = 0; id < 1000; ++id) {
    EXPECT_FALSE(set.Insert(id * 7)) << id;  // Already present.
    EXPECT_TRUE(set.Contains(id * 7)) << id;
  }
  EXPECT_EQ(set.size(), 1000u);
  EXPECT_FALSE(set.Contains(1));
  DenseIdSet unsized;
  EXPECT_TRUE(unsized.Insert(100000));
  EXPECT_TRUE(unsized.Contains(100000));
  EXPECT_EQ(unsized.size(), 1u);
}

TEST(DenseIdSetTest, ForEachIsAscendingAcrossWordEdges) {
  DenseIdSet set(200);
  for (uint64_t id : {128, 0, 64, 127, 63}) EXPECT_TRUE(set.Insert(id));
  EXPECT_EQ(Members(set), (std::vector<uint64_t>{0, 63, 64, 127, 128}));
  EXPECT_TRUE(Members(DenseIdSet(500)).empty());
}

TEST(DenseIdSetTest, ContainsPastTheStoredWordsIsFalse) {
  DenseIdSet set(10);
  EXPECT_TRUE(set.Insert(5));
  EXPECT_FALSE(set.Contains(64));
  EXPECT_FALSE(set.Contains(uint64_t{1} << 39));
  EXPECT_FALSE(DenseIdSet().Contains(0));
  EXPECT_EQ(set.size(), 1u);  // Probing never inserts.
}

TEST(DenseIdSetTest, EraseRemovesOnlyMembers) {
  DenseIdSet set(128);
  for (uint64_t id : {3, 64, 65}) set.Insert(id);
  set.Erase(64);
  set.Erase(4);                    // Absent: no-op.
  set.Erase(uint64_t{1} << 39);    // Past the stored words: no-op.
  EXPECT_EQ(set.size(), 2u);
  EXPECT_FALSE(set.Contains(64));
  EXPECT_EQ(Members(set), (std::vector<uint64_t>{3, 65}));
  EXPECT_TRUE(set.Insert(64));  // Erased ids can come back.
  EXPECT_EQ(set.size(), 3u);
}

// ---- Hash map ------------------------------------------------------------

TEST(HashMap64Test, PutFindOverwriteGrow) {
  HashMap64 map;
  std::unordered_map<uint64_t, uint64_t> ref;
  util::Rng rng(0xd00d);
  for (int i = 0; i < 2000; ++i) {
    uint64_t key = rng.Next() % 500;  // Forces overwrites.
    uint64_t value = rng.Next();
    map.Put(key, value);
    ref[key] = value;
  }
  EXPECT_EQ(map.size(), ref.size());
  for (uint64_t key = 0; key < 500; ++key) {
    const uint64_t* found = map.Find(key);
    auto it = ref.find(key);
    if (it == ref.end()) {
      EXPECT_EQ(found, nullptr) << key;
    } else {
      ASSERT_NE(found, nullptr) << key;
      EXPECT_EQ(*found, it->second) << key;
    }
  }
}

TEST(HashMap64Test, InsertKeepsFirstValuePastTheSizingHint) {
  HashMap64 map(4);
  for (uint64_t key = 0; key < 1000; ++key) {
    EXPECT_TRUE(map.Insert(key, key + 1)) << key;
  }
  for (uint64_t key = 0; key < 1000; ++key) {
    EXPECT_FALSE(map.Insert(key, 0)) << key;  // Present: value untouched.
  }
  EXPECT_EQ(map.size(), 1000u);
  for (uint64_t key = 0; key < 1000; ++key) {
    const uint64_t* found = map.Find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(*found, key + 1) << key;
  }
  map.Put(5, 42);  // Put still overwrites.
  EXPECT_EQ(*map.Find(5), 42u);
  EXPECT_EQ(map.Find(1000), nullptr);
}

TEST(HashMap64Test, AtCountsAndForEachVisitsEveryEntry) {
  // Random increments through At() (the tag counters of Q4 and Q6) from
  // an unsized table, so the counts survive several doublings.
  HashMap64 map;
  std::unordered_map<uint64_t, uint64_t> ref;
  util::Rng rng(0x7a65);
  for (int i = 0; i < 5000; ++i) {
    uint64_t key = rng.Next() % 700;
    uint64_t step = 1 + rng.Next() % 3;
    map.At(key) += step;
    ref[key] += step;
  }
  EXPECT_EQ(map.At(100000), 0u);  // Claims an absent key as 0.
  ref[100000] = 0;
  EXPECT_EQ(map.size(), ref.size());
  std::unordered_map<uint64_t, uint64_t> seen;
  map.ForEach([&](uint64_t key, uint64_t value) {
    EXPECT_TRUE(seen.emplace(key, value).second) << "visited twice: " << key;
  });
  EXPECT_EQ(seen, ref);
  size_t visits = 0;
  HashMap64().ForEach([&](uint64_t, uint64_t) { ++visits; });
  EXPECT_EQ(visits, 0u);
}

// ---- TopK ----------------------------------------------------------------

struct ScoredRow {
  uint64_t score;
  uint64_t id;
};

struct ScoredLess {
  bool operator()(const ScoredRow& a, const ScoredRow& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;  // Unique id: total order.
  }
};

TEST(TopKTest, MatchesFullSortTruncate) {
  util::Rng rng(0x70bc);
  for (size_t k : {0, 1, 5, 64, 10000}) {
    std::vector<ScoredRow> rows;
    for (uint64_t i = 0; i < 500; ++i) {
      rows.push_back({rng.Next() % 50, i});  // Many score ties.
    }
    TopK<ScoredRow, ScoredLess> top(k);
    for (const ScoredRow& row : rows) top.Push(row);

    std::vector<ScoredRow> expect = rows;
    std::sort(expect.begin(), expect.end(), ScoredLess());
    if (expect.size() > k) expect.resize(k);

    std::vector<ScoredRow> got = top.Drain();
    ASSERT_EQ(got.size(), expect.size()) << "k=" << k;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].score, expect[i].score) << "k=" << k << " i=" << i;
      EXPECT_EQ(got[i].id, expect[i].id) << "k=" << k << " i=" << i;
    }
  }
}

TEST(TopKTest, PushReportsWhetherItKeptTheRowAndWorstIsTheNextEviction) {
  TopK<ScoredRow, ScoredLess> top(3);
  EXPECT_TRUE(top.Push({5, 1}));
  EXPECT_TRUE(top.Push({7, 2}));
  EXPECT_TRUE(top.Push({5, 3}));  // Full: (7, 2), (5, 1), (5, 3).
  EXPECT_EQ(top.worst().id, 3u);
  EXPECT_FALSE(top.Push({5, 4}));  // Same score, larger id: ranks worse.
  EXPECT_FALSE(top.Push({4, 0}));
  EXPECT_EQ(top.worst().id, 3u);
  EXPECT_TRUE(top.Push({5, 0}));  // Same score, smaller id: evicts (5, 3).
  EXPECT_EQ(top.worst().id, 1u);
  EXPECT_TRUE(top.Push({9, 9}));  // Evicts (5, 1).
  EXPECT_EQ(top.worst().score, 5u);
  EXPECT_EQ(top.worst().id, 0u);
  EXPECT_EQ(top.size(), 3u);

  TopK<ScoredRow, ScoredLess> none(0);
  EXPECT_FALSE(none.Push({9, 9}));
  EXPECT_EQ(none.size(), 0u);

  // Under random pushes, Push keeps a row exactly when the sink has room
  // or the row ranks before worst(), and worst() is the last row of the
  // kept set in rank order.
  util::Rng rng(0x7091);
  for (size_t k : {1, 2, 7}) {
    TopK<ScoredRow, ScoredLess> sink(k);
    std::vector<ScoredRow> kept;
    for (uint64_t i = 0; i < 300; ++i) {
      ScoredRow row{rng.Next() % 20, rng.Next() % 1000 * 1000 + i};
      bool room = sink.size() < k;
      bool better = !room && ScoredLess()(row, sink.worst());
      ASSERT_EQ(sink.Push(row), room || better) << "k=" << k << " i=" << i;
      kept.push_back(row);
      std::sort(kept.begin(), kept.end(), ScoredLess());
      if (kept.size() > k) kept.resize(k);
      ASSERT_EQ(sink.size(), kept.size());
      EXPECT_EQ(sink.worst().id, kept.back().id) << "k=" << k << " i=" << i;
    }
  }
}

// ---- Store-backed operators ----------------------------------------------

class ExecOperatorsTest : public ::testing::Test {
 protected:
  struct World {
    datagen::Dataset dataset;
    store::GraphStore store;
    std::unordered_map<uint64_t, std::vector<uint64_t>> adjacency;
  };

  static World& world() {
    static World* w = [] {
      auto* world = new World();
      datagen::DatagenConfig config;
      config.num_persons = 200;
      config.split_update_stream = false;
      world->dataset = datagen::Generate(config);
      EXPECT_TRUE(world->store.BulkLoad(world->dataset.bulk).ok());
      for (const schema::Knows& k : world->dataset.bulk.knows) {
        world->adjacency[k.person1_id].push_back(k.person2_id);
        world->adjacency[k.person2_id].push_back(k.person1_id);
      }
      for (auto& [pid, friends] : world->adjacency) {
        std::sort(friends.begin(), friends.end());
      }
      return world;
    }();
    return *w;
  }

  /// Rows of `label` in `profile`; 0 when no span carried it.
  static uint64_t Rows(const obs::OperatorProfile& profile,
                       const char* label) {
    const obs::OperatorStats* stats = profile.Find(label);
    return stats == nullptr ? 0 : stats->rows;
  }

  /// Brute-force two-hop circle: friends plus friends-of-friends, start
  /// excluded, sorted.
  static std::vector<uint64_t> ReferenceCircle(uint64_t start) {
    std::set<uint64_t> members;
    auto it = world().adjacency.find(start);
    if (it == world().adjacency.end()) return {};
    for (uint64_t f : it->second) {
      members.insert(f);
      auto fit = world().adjacency.find(f);
      if (fit == world().adjacency.end()) continue;
      for (uint64_t ff : fit->second) members.insert(ff);
    }
    members.erase(start);
    return std::vector<uint64_t>(members.begin(), members.end());
  }
};

TEST_F(ExecOperatorsTest, ExpandTwoHopMatchesBruteForce) {
  auto pin = world().store.ReadLock();
  int checked = 0;
  for (const schema::Person& p : world().dataset.bulk.persons) {
    if (checked++ >= 40) break;
    std::vector<uint64_t> circle;
    DenseIdSet members(world().store.PersonIdBound());
    obs::OperatorProfile profile;
    {
      obs::ScopedOperatorProfile profiling(&profile);
      ExpandTwoHop(world().store, pin, p.id, &circle, &members);
    }
    std::vector<uint64_t> expect = ReferenceCircle(p.id);
    EXPECT_EQ(circle, expect) << "person " << p.id;
    EXPECT_EQ(Members(members), expect) << "person " << p.id;
    std::vector<uint64_t> without_set;
    ExpandTwoHop(world().store, pin, p.id, &without_set);
    EXPECT_EQ(without_set, expect) << "person " << p.id;
    auto it = world().adjacency.find(p.id);
    uint64_t direct = it == world().adjacency.end() ? 0 : it->second.size();
    EXPECT_EQ(Rows(profile, "join1"), direct) << "person " << p.id;
    // join2's Cout: one tuple per (friend, friend-of-friend) edge scanned.
    uint64_t fof_tuples = 0;
    if (it != world().adjacency.end()) {
      for (uint64_t f : it->second) {
        auto fit = world().adjacency.find(f);
        if (fit != world().adjacency.end()) fof_tuples += fit->second.size();
      }
    }
    EXPECT_EQ(Rows(profile, "join2"), fof_tuples) << "person " << p.id;
  }
}

TEST_F(ExecOperatorsTest, ExpandTwoHopMissingPerson) {
  auto pin = world().store.ReadLock();
  std::vector<uint64_t> circle = {123};
  DenseIdSet members;
  obs::OperatorProfile profile;
  {
    obs::ScopedOperatorProfile profiling(&profile);
    ExpandTwoHop(world().store, pin, /*start=*/(uint64_t{1} << 39) + 7,
                 &circle, &members);
  }
  EXPECT_TRUE(circle.empty());
  EXPECT_EQ(members.size(), 0u);
  // No start person, no join: the spans never open.
  EXPECT_TRUE(profile.rows().empty());
}

TEST(ExpandTwoHopTest, PersonAddedAfterTheSetWasSizedJoinsTheCircle) {
  store::GraphStore store;
  auto add_person = [&store](uint64_t id) {
    schema::Person p;
    p.id = id;
    p.creation_date = 1000;
    ASSERT_TRUE(store.AddPerson(p).ok());
  };
  for (uint64_t id = 0; id < 4; ++id) add_person(id);
  for (uint64_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(store.AddFriendship({id, id + 1, 2000}).ok());
  }
  DenseIdSet members(store.PersonIdBound());
  // Person 300 lies past the bound the set was sized to.
  add_person(300);
  ASSERT_TRUE(store.AddFriendship({1, 300, 3000}).ok());
  ASSERT_EQ(store.PersonIdBound(), 301u);

  auto pin = store.ReadLock();
  std::vector<uint64_t> circle;
  obs::OperatorProfile profile;
  {
    obs::ScopedOperatorProfile profiling(&profile);
    ExpandTwoHop(store, pin, 0, &circle, &members);
  }
  std::set<uint64_t> expect = {1, 2, 300};  // 0's friend 1, and 1's friends.
  EXPECT_EQ(circle, std::vector<uint64_t>(expect.begin(), expect.end()));
  EXPECT_EQ(Members(members), circle);
  EXPECT_FALSE(members.Contains(0));
  EXPECT_FALSE(members.Contains(3));
  ASSERT_NE(profile.Find("join1"), nullptr);
  ASSERT_NE(profile.Find("join2"), nullptr);
  EXPECT_EQ(profile.Find("join1")->rows, 1u);
  EXPECT_EQ(profile.Find("join2")->rows, 3u);  // 1's friends: 0, 2, 300.
}

}  // namespace
}  // namespace snb::exec
