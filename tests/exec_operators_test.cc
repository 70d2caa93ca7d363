// Unit tests for the batched engine's physical operators: the flat hash
// tables (HashSet64/HashMap64) against std::unordered_set/map, the bounded
// TopK sink against full-sort-then-truncate, and the store-backed
// operators (ExpandTwoHopSorted, MessageScanOperator) against brute-force
// references over a generated dataset.
#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "exec/batch.h"
#include "exec/hash_join.h"
#include "exec/operators.h"
#include "store/graph_store.h"
#include "util/rng.h"

namespace snb::exec {
namespace {

// ---- Hash tables ---------------------------------------------------------

TEST(HashSet64Test, InsertContainsGrow) {
  HashSet64 set;  // Default capacity: growth path must engage.
  std::unordered_set<uint64_t> ref;
  util::Rng rng(0x4a55);
  for (int i = 0; i < 2000; ++i) {
    uint64_t key = rng.Next() % 3000;
    set.Insert(key);
    ref.insert(key);
  }
  EXPECT_EQ(set.size(), ref.size());
  for (uint64_t key = 0; key < 3000; ++key) {
    EXPECT_EQ(set.Contains(key), ref.count(key) != 0) << key;
  }
}

TEST(HashSet64Test, ProbeBatchSelectionVector) {
  HashSet64 set(8);
  for (uint64_t key : {5ULL, 10ULL, 15ULL, 20ULL}) set.Insert(key);
  uint64_t keys[] = {1, 5, 6, 10, 15, 16, 20, 21};
  uint32_t sel[8];
  size_t hits = set.ProbeBatch(keys, 8, sel);
  ASSERT_EQ(hits, 4u);
  EXPECT_EQ(sel[0], 1u);
  EXPECT_EQ(sel[1], 3u);
  EXPECT_EQ(sel[2], 4u);
  EXPECT_EQ(sel[3], 6u);
}

TEST(HashSet64Test, EmptyProbe) {
  HashSet64 set;
  uint32_t sel[4];
  EXPECT_EQ(set.ProbeBatch(nullptr, 0, sel), 0u);
  EXPECT_FALSE(set.Contains(42));
}

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

TEST(HashSet64Test, InsertReportsNewKeysPastTheSizingHint) {
  HashSet64 set(4);  // Sized for 4; the table must grow, not overflow.
  for (uint64_t key = 0; key < 1000; ++key) {
    EXPECT_TRUE(set.Insert(key * 7919)) << key;
  }
  for (uint64_t key = 0; key < 1000; ++key) {
    EXPECT_FALSE(set.Insert(key * 7919)) << key;  // Already present.
    EXPECT_TRUE(set.Contains(key * 7919)) << key;
  }
  EXPECT_EQ(set.size(), 1000u);
  EXPECT_FALSE(set.Contains(1));
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

  /// Brute-force two-hop circle: friends plus friends-of-friends, start
  /// excluded, sorted.
  static std::vector<uint64_t> ReferenceCircle(uint64_t start) {
    std::unordered_set<uint64_t> members;
    auto it = world().adjacency.find(start);
    if (it == world().adjacency.end()) return {};
    for (uint64_t f : it->second) {
      members.insert(f);
      auto fit = world().adjacency.find(f);
      if (fit == world().adjacency.end()) continue;
      for (uint64_t ff : fit->second) members.insert(ff);
    }
    members.erase(start);
    std::vector<uint64_t> out(members.begin(), members.end());
    std::sort(out.begin(), out.end());
    return out;
  }
};

TEST_F(ExecOperatorsTest, ExpandTwoHopSortedMatchesBruteForce) {
  auto pin = world().store.ReadLock();
  int checked = 0;
  for (const schema::Person& p : world().dataset.bulk.persons) {
    if (checked++ >= 40) break;
    std::vector<uint64_t> circle;
    TwoHopStats stats =
        ExpandTwoHopSorted(world().store, pin, p.id, &circle);
    std::vector<uint64_t> expect = ReferenceCircle(p.id);
    EXPECT_EQ(circle, expect) << "person " << p.id;
    auto it = world().adjacency.find(p.id);
    uint64_t direct = it == world().adjacency.end() ? 0 : it->second.size();
    EXPECT_EQ(stats.direct, direct) << "person " << p.id;
    // join2's Cout: one tuple per (friend, friend-of-friend) edge scanned.
    uint64_t fof_tuples = 0;
    if (it != world().adjacency.end()) {
      for (uint64_t f : it->second) {
        auto fit = world().adjacency.find(f);
        if (fit != world().adjacency.end()) fof_tuples += fit->second.size();
      }
    }
    EXPECT_EQ(stats.fof_tuples, fof_tuples) << "person " << p.id;
  }
}

TEST_F(ExecOperatorsTest, ExpandTwoHopSortedMissingPerson) {
  auto pin = world().store.ReadLock();
  std::vector<uint64_t> circle = {123};
  TwoHopStats stats = ExpandTwoHopSorted(world().store, pin,
                                         /*start=*/99999999, &circle);
  EXPECT_TRUE(circle.empty());
  EXPECT_EQ(stats.direct, 0u);
  EXPECT_EQ(stats.fof_tuples, 0u);
}

TEST_F(ExecOperatorsTest, MessageScanMatchesBruteForce) {
  // Per person: messages with date < max_date, date-ascending; only the
  // newest min(count, limit) emitted, persons in list order.
  auto pin = world().store.ReadLock();
  std::vector<uint64_t> persons;
  for (const schema::Person& p : world().dataset.bulk.persons) {
    persons.push_back(p.id);
  }
  persons.push_back(99999999);  // Missing person: skipped, not fatal.
  std::sort(persons.begin(), persons.end());

  int64_t mid_date = world()
                         .dataset.bulk
                         .messages[world().dataset.bulk.messages.size() / 2]
                         .creation_date;
  for (size_t limit : {size_t{3}, size_t{20}, SIZE_MAX}) {
    struct Row {
      uint64_t id, person;
      int64_t date;
    };
    std::vector<Row> expect;
    for (uint64_t pid : persons) {
      std::vector<Row> mine;
      for (const schema::Message& m : world().dataset.bulk.messages) {
        if (m.creator_id == pid && m.creation_date < mid_date) {
          mine.push_back({m.id, pid, m.creation_date});
        }
      }
      // Bulk messages are date-ascending, so `mine` already is; keep the
      // newest `limit`.
      size_t take = std::min(mine.size(), limit);
      expect.insert(expect.end(), mine.end() - take, mine.end());
    }

    MessageScanOperator scan(world().store, pin, persons, mid_date, limit);
    std::vector<Row> got;
    Batch batch;
    while (scan.Next(&batch)) {
      ASSERT_LE(batch.size, kBatchCapacity);
      for (size_t r = 0; r < batch.size; ++r) {
        got.push_back({batch.a[r], batch.b[r], batch.date[r]});
      }
    }
    EXPECT_EQ(scan.rows_emitted(), got.size());
    ASSERT_EQ(got.size(), expect.size()) << "limit=" << limit;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expect[i].id) << i;
      EXPECT_EQ(got[i].person, expect[i].person) << i;
      EXPECT_EQ(got[i].date, expect[i].date) << i;
    }
    // Exhausted operator stays exhausted.
    EXPECT_FALSE(scan.Next(&batch));
    EXPECT_EQ(batch.size, 0u);
  }
}

TEST_F(ExecOperatorsTest, MessageScanEmptyCases) {
  auto pin = world().store.ReadLock();
  Batch batch;
  std::vector<uint64_t> nobody;
  MessageScanOperator empty_list(world().store, pin, nobody, 1 << 30, 10);
  EXPECT_FALSE(empty_list.Next(&batch));

  std::vector<uint64_t> persons = {world().dataset.bulk.persons[0].id};
  MessageScanOperator no_dates(world().store, pin, persons,
                               /*max_date_exclusive=*/0, 10);
  EXPECT_FALSE(no_dates.Next(&batch));

  MessageScanOperator zero_limit(world().store, pin, persons, 1LL << 60, 0);
  EXPECT_FALSE(zero_limit.Next(&batch));
}

}  // namespace
}  // namespace snb::exec
