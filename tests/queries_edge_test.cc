// Edge-case tests for the read queries: missing entities, empty graphs,
// boundary limits, and degenerate parameters.
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "obs/trace.h"
#include "queries/complex_queries.h"
#include "queries/query9_plans.h"
#include "queries/short_queries.h"
#include "queries/update_queries.h"
#include "relational/rel_queries.h"
#include "store/graph_store.h"
#include "util/rng.h"
#include "validate/canonical.h"
#include "validate/oracle.h"

namespace snb::queries {
namespace {

schema::Person MakePerson(schema::PersonId id) {
  schema::Person p;
  p.id = id;
  p.first_name = "Solo";
  p.creation_date = 1000;
  return p;
}

TEST(QueriesEdgeTest, EmptyStoreReturnsEmptyEverywhere) {
  store::GraphStore store;
  EXPECT_TRUE(Query1(store, 0, "Karl").empty());
  EXPECT_TRUE(Query2(store, 0, 1 << 30).empty());
  EXPECT_TRUE(Query5(store, 0, 0).empty());
  EXPECT_TRUE(Query7(store, 0).empty());
  EXPECT_TRUE(Query8(store, 0).empty());
  EXPECT_TRUE(Query9(store, 0, 1 << 30).empty());
  EXPECT_TRUE(Query10(store, 0, 5).empty());
  EXPECT_EQ(Query13(store, 0, 1), -1);
  EXPECT_EQ(Query13(store, 0, 0), -1);  // Absent, even when identical.
  EXPECT_TRUE(Query14(store, 0, 1).empty());
  EXPECT_TRUE(TwoHopCircle(store, 0).empty());
  EXPECT_FALSE(ShortQuery1PersonProfile(store, 0).found);
  EXPECT_TRUE(ShortQuery3Friends(store, 0).empty());
}

TEST(QueriesEdgeTest, IsolatedPersonHasEmptyNeighbourhoodQueries) {
  store::GraphStore store;
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  EXPECT_TRUE(Query1(store, 1, "Solo").empty());  // Self is excluded.
  EXPECT_TRUE(Query2(store, 1, 1 << 30).empty());
  EXPECT_TRUE(Query9(store, 1, 1 << 30).empty());
  EXPECT_EQ(Query13(store, 1, 1), 0);
  auto self_paths = Query14(store, 1, 1);
  ASSERT_EQ(self_paths.size(), 1u);
  EXPECT_EQ(self_paths[0].weight, 0.0);
  // Short reads on the isolated person work.
  EXPECT_TRUE(ShortQuery1PersonProfile(store, 1).found);
  EXPECT_TRUE(ShortQuery2RecentMessages(store, 1).empty());
}

TEST(QueriesEdgeTest, LimitZeroAndLimitHuge) {
  datagen::DatagenConfig config;
  config.num_persons = 120;
  config.split_update_stream = false;
  datagen::Dataset ds = datagen::Generate(config);
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(ds.bulk).ok());

  EXPECT_TRUE(Query2(store, 0, util::NetworkEndMs(), 0).empty());
  EXPECT_TRUE(Query9(store, 0, util::NetworkEndMs(), 0).empty());

  auto huge = Query2(store, 0, util::NetworkEndMs(), 1 << 20);
  // With a huge limit, Q2 returns every friend message (reference count).
  std::set<schema::PersonId> friends;
  for (const schema::Knows& k : ds.bulk.knows) {
    if (k.person1_id == 0) friends.insert(k.person2_id);
    if (k.person2_id == 0) friends.insert(k.person1_id);
  }
  size_t expected = 0;
  for (const schema::Message& m : ds.bulk.messages) {
    if (friends.count(m.creator_id) > 0) ++expected;
  }
  EXPECT_EQ(huge.size(), expected);
}

TEST(QueriesEdgeTest, Q9PlanVariantsOnTinyGraph) {
  store::GraphStore store;
  for (schema::PersonId id = 0; id < 3; ++id) {
    ASSERT_TRUE(store.AddPerson(MakePerson(id)).ok());
  }
  ASSERT_TRUE(store.AddFriendship({0, 1, 2000}).ok());
  schema::Forum f;
  f.id = 9;
  f.moderator_id = 1;
  f.creation_date = 2000;
  ASSERT_TRUE(store.AddForum(f).ok());
  schema::Message m;
  m.id = 0;
  m.kind = schema::MessageKind::kPost;
  m.creator_id = 1;
  m.forum_id = 9;
  m.root_post_id = 0;
  m.creation_date = 3000;
  ASSERT_TRUE(store.AddMessage(m).ok());

  for (JoinStrategy j : {JoinStrategy::kIndexNestedLoop, JoinStrategy::kHash}) {
    obs::OperatorProfile profile;
    std::vector<Q9Result> rows;
    {
      obs::ScopedOperatorProfile profiling(&profile);
      rows = Query9WithPlan(store, 0, 10000, 20, j, j, j);
    }
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].message_id, 0u);
    ASSERT_NE(profile.Find("join1"), nullptr);
    ASSERT_NE(profile.Find("join3"), nullptr);
    EXPECT_EQ(profile.Find("join1")->rows, 1u);
    EXPECT_EQ(profile.Find("join3")->rows, 1u);
  }
  // Date cutoff excludes the message.
  EXPECT_TRUE(Query9(store, 0, 3000).empty());   // Strictly before.
  EXPECT_EQ(Query9(store, 0, 3001).size(), 1u);
}

TEST(QueriesEdgeTest, Query3ZeroDurationAndSameCountry) {
  datagen::DatagenConfig config;
  config.num_persons = 120;
  config.split_update_stream = false;
  datagen::Dataset ds = datagen::Generate(config);
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(ds.bulk).ok());
  std::vector<schema::PlaceId> city_country(200, 0);
  // Zero duration window: no posts qualify.
  EXPECT_TRUE(Query3(store, 0, city_country, 1, 2,
                     util::kNetworkStartMs, 0)
                  .empty());
}

// A dataset-loaded store shared by the boundary batteries below.
class LoadedEdgeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::DatagenConfig config;
    config.num_persons = 120;
    config.split_update_stream = false;
    dataset_ = new datagen::Dataset(datagen::Generate(config));
    store_ = new store::GraphStore();
    ASSERT_TRUE(store_->BulkLoad(dataset_->bulk).ok());
  }
  static void TearDownTestSuite() {
    delete store_;
    delete dataset_;
    store_ = nullptr;
    dataset_ = nullptr;
  }

  /// Every complex query with the given start person must come back empty.
  static void ExpectAllComplexEmpty(schema::PersonId start) {
    const store::GraphStore& store = *store_;
    std::vector<schema::PlaceId> city_country(200, 0);
    std::vector<schema::PlaceId> company_country(200, 0);
    std::vector<bool> tag_class(200, true);
    EXPECT_TRUE(Query1(store, start, "Yang").empty());
    EXPECT_TRUE(Query2(store, start, util::NetworkEndMs()).empty());
    EXPECT_TRUE(Query3(store, start, city_country, 1, 2,
                       util::kNetworkStartMs, 900)
                    .empty());
    EXPECT_TRUE(Query4(store, start, util::kNetworkStartMs, 900).empty());
    EXPECT_TRUE(Query5(store, start, util::kNetworkStartMs).empty());
    EXPECT_TRUE(Query6(store, start, 0).empty());
    EXPECT_TRUE(Query7(store, start).empty());
    EXPECT_TRUE(Query8(store, start).empty());
    EXPECT_TRUE(Query9(store, start, util::NetworkEndMs()).empty());
    EXPECT_TRUE(Query10(store, start, 6).empty());
    EXPECT_TRUE(Query11(store, start, company_country, 0, 2030).empty());
    EXPECT_TRUE(Query12(store, start, tag_class).empty());
    EXPECT_EQ(Query13(store, start, 0), -1);
    EXPECT_EQ(Query13(store, 0, start), -1);
    EXPECT_TRUE(Query14(store, start, 0).empty());
    EXPECT_TRUE(Query14(store, 0, start).empty());
  }

  static datagen::Dataset* dataset_;
  static store::GraphStore* store_;
};

datagen::Dataset* LoadedEdgeTest::dataset_ = nullptr;
store::GraphStore* LoadedEdgeTest::store_ = nullptr;

TEST_F(LoadedEdgeTest, NonexistentPersonIsEmptyForEveryComplexQuery) {
  // The second id is the golden battery's missing person. Person sets are
  // bitmaps over the id range, so a query that sized or filled one before
  // checking that its start person exists would ask for 64 GiB here.
  for (schema::PersonId ghost : {schema::PersonId{1} << 20,
                                 (schema::PersonId{1} << 39) + 7}) {
    SCOPED_TRACE(ghost);
    ExpectAllComplexEmpty(ghost);
    EXPECT_FALSE(ShortQuery1PersonProfile(*store_, ghost).found);
    EXPECT_TRUE(ShortQuery2RecentMessages(*store_, ghost).empty());
    EXPECT_TRUE(ShortQuery3Friends(*store_, ghost).empty());
  }
}

TEST_F(LoadedEdgeTest, ZeroFriendPersonIsEmptyForEveryComplexQuery) {
  // A hermit added on top of the populated graph: present, but with no
  // Knows edges, messages, or likes, so every neighbourhood query is empty.
  const schema::PersonId hermit = 555000;
  ASSERT_TRUE(store_->AddPerson(MakePerson(hermit)).ok());
  ExpectAllComplexEmpty(hermit);
  // Except the degenerate self-path, which is well-defined.
  EXPECT_EQ(Query13(*store_, hermit, hermit), 0);
  EXPECT_TRUE(ShortQuery1PersonProfile(*store_, hermit).found);
  EXPECT_TRUE(ShortQuery2RecentMessages(*store_, hermit).empty());
  EXPECT_TRUE(ShortQuery3Friends(*store_, hermit).empty());
}

TEST_F(LoadedEdgeTest, DateWindowBeforeEpochIsEmpty) {
  // Every generated message date is >= kNetworkStartMs, so windows that
  // close strictly before the epoch must match nothing for any person.
  const store::GraphStore& store = *store_;
  util::TimestampMs before = util::kNetworkStartMs - util::kMillisPerDay;
  std::vector<schema::PlaceId> city_country(200, 0);
  for (schema::PersonId p : {0u, 17u, 63u, 119u}) {
    EXPECT_TRUE(Query2(store, p, before).empty());
    EXPECT_TRUE(Query3(store, p, city_country, 1, 2,
                       before - 30 * util::kMillisPerDay, 30)
                    .empty());
    EXPECT_TRUE(Query4(store, p, before - 30 * util::kMillisPerDay, 30)
                    .empty());
    EXPECT_TRUE(Query9(store, p, before).empty());
    // Q5's window is open-ended upward, so the before-epoch boundary sits
    // on the other side: a min_date after the network end matches nothing.
    EXPECT_TRUE(Query5(store, p, util::NetworkEndMs() + 1).empty());
  }
}

TEST_F(LoadedEdgeTest, LimitZeroIsEmptyForEveryLimitedQuery) {
  const store::GraphStore& store = *store_;
  std::vector<schema::PlaceId> city_country(200, 0);
  std::vector<schema::PlaceId> company_country(200, 0);
  std::vector<bool> tag_class(200, true);
  for (schema::PersonId p : {0u, 63u}) {
    EXPECT_TRUE(Query1(store, p, "Yang", 0).empty());
    EXPECT_TRUE(Query2(store, p, util::NetworkEndMs(), 0).empty());
    EXPECT_TRUE(Query3(store, p, city_country, 1, 2, util::kNetworkStartMs,
                       900, 0)
                    .empty());
    EXPECT_TRUE(Query4(store, p, util::kNetworkStartMs, 900, 0).empty());
    EXPECT_TRUE(Query5(store, p, util::kNetworkStartMs, 0).empty());
    EXPECT_TRUE(Query6(store, p, 0, 0).empty());
    EXPECT_TRUE(Query7(store, p, 0).empty());
    EXPECT_TRUE(Query8(store, p, 0).empty());
    EXPECT_TRUE(Query9(store, p, util::NetworkEndMs(), 0).empty());
    EXPECT_TRUE(Query10(store, p, 6, 0).empty());
    EXPECT_TRUE(Query11(store, p, company_country, 0, 2030, 0).empty());
    EXPECT_TRUE(Query12(store, p, tag_class, 0).empty());
  }
}

// ---- Q1 on a hand-built graph -----------------------------------------------

TEST(QueriesEdgeTest, Q1PlacesNameCarriersByDistance) {
  // 0 - 1 - 4, 0 - 2 - 3 - 4, 2 - 5 - 6 - 7; 8 knows nobody; 9 and 10 are
  // friends of 0. Persons 0, 1, 3, 4, 6, 7 and 8 are named "Nia"; 9 is
  // "Marco" and 10 "Ravi", two names that share an index bucket.
  schema::SocialNetwork net;
  for (schema::PersonId id = 0; id <= 10; ++id) {
    schema::Person p = MakePerson(id);
    p.first_name = "Other";
    p.last_name = "L" + std::to_string(id);
    net.persons.push_back(p);
  }
  for (schema::PersonId id : {0u, 1u, 3u, 4u, 6u, 7u, 8u}) {
    net.persons[id].first_name = "Nia";
  }
  net.persons[9].first_name = "Marco";
  net.persons[10].first_name = "Ravi";
  ASSERT_EQ(store::GraphStore::FirstNameBucket("Marco"),
            store::GraphStore::FirstNameBucket("Ravi"));
  const std::pair<schema::PersonId, schema::PersonId> edges[] = {
      {0, 1}, {1, 4}, {0, 2}, {2, 3}, {3, 4},
      {2, 5}, {5, 6}, {6, 7}, {0, 9}, {0, 10}};
  for (auto [a, b] : edges) net.knows.push_back({a, b, 2000});
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(net).ok());

  auto placed = [&](const std::string& name) {
    std::vector<std::pair<schema::PersonId, uint32_t>> out;
    for (const Q1Result& r : Query1(store, 0, name)) {
      out.emplace_back(r.person_id, r.distance);
    }
    return out;
  };
  using Placed = std::vector<std::pair<schema::PersonId, uint32_t>>;
  // 1 at one hop, 3 at two, 4 at two (not three: 0-2-3-4 is longer than
  // 0-1-4), 6 at three. Excluded: the start person 0, 7 at four hops and
  // the friendless 8.
  EXPECT_EQ(placed("Nia"), (Placed{{1, 1}, {3, 2}, {4, 2}, {6, 3}}));
  {
    // knows_bfs rows are the persons one or two hops away (1, 2, 9, 10;
    // 3, 4, 5), name_probe rows the matches.
    obs::OperatorProfile profile;
    obs::ScopedOperatorProfile profiling(&profile);
    Query1(store, 0, "Nia");
    ASSERT_NE(profile.Find("knows_bfs"), nullptr);
    ASSERT_NE(profile.Find("name_probe"), nullptr);
    EXPECT_EQ(profile.Find("knows_bfs")->rows, 7u);
    EXPECT_EQ(profile.Find("name_probe")->rows, 4u);
  }
  // A shared bucket returns only the queried name.
  EXPECT_EQ(placed("Marco"), (Placed{{9, 1}}));
  EXPECT_EQ(placed("Ravi"), (Placed{{10, 1}}));
  EXPECT_TRUE(placed("Zed").empty());

  validate::Oracle oracle(net);
  for (const char* name : {"Nia", "Marco", "Ravi", "Zed", "Other"}) {
    for (schema::PersonId start : {0u, 5u, 7u, 8u}) {
      EXPECT_EQ(validate::CanonicalRows(Query1(store, start, name)),
                validate::CanonicalRows(oracle.Query1(start, name)))
          << name << " from " << start;
    }
  }
}

// ---- Q8 on a hand-built graph -----------------------------------------------

TEST(QueriesEdgeTest, Q8NewestRepliesMatchOracle) {
  // Person 1 posts 0 and 1, person 2 post 2, and person 1 comments on post
  // 2 (message 3). Replies are linked in id order, which is not date
  // order; several share a date (ties go to the lower comment id); person
  // 1 replies to its own post; comment 3 collects replies to a comment;
  // replies to other persons' messages must stay out.
  schema::SocialNetwork net;
  for (schema::PersonId id = 1; id <= 6; ++id) {
    net.persons.push_back(MakePerson(id));
  }
  schema::Forum forum;
  forum.id = 1;
  forum.moderator_id = 1;
  forum.creation_date = 500;
  net.forums.push_back(forum);
  auto add = [&](schema::PersonId creator, schema::MessageId parent,
                 util::TimestampMs date) {
    schema::Message m;
    m.id = net.messages.size();
    m.creator_id = creator;
    m.creation_date = date;
    m.forum_id = 1;
    if (parent == schema::kInvalidId) {
      m.kind = schema::MessageKind::kPost;
      m.root_post_id = m.id;
    } else {
      m.kind = schema::MessageKind::kComment;
      m.reply_to_id = parent;
      m.root_post_id = net.messages[parent].root_post_id;
    }
    net.messages.push_back(m);
    return m.id;
  };
  const schema::MessageId kNone = schema::kInvalidId;
  schema::MessageId post0 = add(1, kNone, 1000);
  schema::MessageId post1 = add(1, kNone, 1001);
  schema::MessageId post2 = add(2, kNone, 1002);
  schema::MessageId comment3 = add(1, post2, 1500);
  add(2, post0, 5000);                    // 4
  add(3, post0, 2000);                    // 5
  add(1, post0, 4000);                    // 6: a self-reply.
  schema::MessageId c7 = add(4, comment3, 4000);  // 7: ties with 6.
  add(5, post1, 3000);                    // 8
  add(2, c7, 6000);                       // 9: answers person 4.
  add(3, post2, 7000);                    // 10: answers person 2.
  add(6, comment3, 4000);                 // 11: ties with 6 and 7.
  // Twenty more, dates cycling over seven values below 3000.
  for (int k = 0; k < 20; ++k) {
    add(static_cast<schema::PersonId>(2 + k % 5), k % 2 == 0 ? post0 : comment3,
        2300 + (k % 7) * 100);
  }
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(net).ok());
  validate::Oracle oracle(net);

  std::vector<Q8Result> top = Query8(store, 1);
  ASSERT_EQ(top.size(), 20u);  // 26 replies, cut to 20.
  auto row = [](const Q8Result& r) {
    return std::tuple(r.comment_id, r.replier_id, r.creation_date);
  };
  using Row = std::tuple<schema::MessageId, schema::PersonId,
                         util::TimestampMs>;
  EXPECT_EQ(row(top[0]), Row(4, 2, 5000));
  EXPECT_EQ(row(top[1]), Row(6, 1, 4000));
  EXPECT_EQ(row(top[2]), Row(7, 4, 4000));
  EXPECT_EQ(row(top[3]), Row(11, 6, 4000));
  EXPECT_EQ(row(top[4]), Row(8, 5, 3000));
  for (schema::PersonId start = 1; start <= 7; ++start) {
    for (int limit : {1, 3, 20, 100}) {
      EXPECT_EQ(validate::CanonicalRows(Query8(store, start, limit)),
                validate::CanonicalRows(oracle.Query8(start, limit)))
          << "person " << start << ", limit " << limit;
    }
  }
  // Person 2 received the comment on its post and reply 10, nothing else.
  std::vector<Q8Result> to_two = Query8(store, 2);
  ASSERT_EQ(to_two.size(), 2u);
  EXPECT_EQ(row(to_two[0]), Row(10, 3, 7000));
  EXPECT_EQ(row(to_two[1]), Row(3, 1, 1500));
}

// ---- Q2, Q7 and Q9 on hand-built graphs --------------------------------------
//
// Message dates are set freely here, so ids need not ascend with them and
// many messages share a date: the store's top-k walks must still return
// exactly the oracle's rows.

/// Persons 1..n, one forum, and builders for knows, messages and likes.
class MessageNet {
 public:
  explicit MessageNet(schema::PersonId persons) {
    for (schema::PersonId id = 1; id <= persons; ++id) {
      net_.persons.push_back(MakePerson(id));
    }
    schema::Forum forum;
    forum.id = 1;
    forum.moderator_id = 1;
    forum.creation_date = 500;
    net_.forums.push_back(forum);
  }

  void Knows(schema::PersonId a, schema::PersonId b) {
    net_.knows.push_back({a, b, 600});
  }
  schema::MessageId Post(schema::PersonId creator, util::TimestampMs date) {
    schema::Message m = NewMessage(creator, date);
    m.kind = schema::MessageKind::kPost;
    m.root_post_id = m.id;
    net_.messages.push_back(m);
    return m.id;
  }
  schema::MessageId Comment(schema::PersonId creator,
                            schema::MessageId parent,
                            util::TimestampMs date) {
    schema::Message m = NewMessage(creator, date);
    m.kind = schema::MessageKind::kComment;
    m.reply_to_id = parent;
    m.root_post_id = net_.messages[parent].root_post_id;
    net_.messages.push_back(m);
    return m.id;
  }
  void Like(schema::PersonId person, schema::MessageId message,
            util::TimestampMs date) {
    net_.likes.push_back({person, message, date});
  }

  const schema::SocialNetwork& net() const { return net_; }

 private:
  schema::Message NewMessage(schema::PersonId creator,
                             util::TimestampMs date) {
    schema::Message m;
    m.id = net_.messages.size();
    m.creator_id = creator;
    m.creation_date = date;
    m.forum_id = 1;
    return m;
  }

  schema::SocialNetwork net_;
};

using MessageRows = std::vector<
    std::tuple<schema::MessageId, schema::PersonId, util::TimestampMs>>;

/// (message id, creator id, date) rows of Q2 or Q9.
template <typename Row>
MessageRows Rows(const std::vector<Row>& rows) {
  MessageRows out;
  for (const Row& r : rows) {
    out.emplace_back(r.message_id, r.creator_id, r.creation_date);
  }
  return out;
}

/// Q2 and Q9 of the store and of the relational backend equal the
/// oracle's for every start person, cut and limit given.
void ExpectQ2AndQ9MatchOracle(const schema::SocialNetwork& net,
                              const std::vector<util::TimestampMs>& cuts,
                              const std::vector<int>& limits) {
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(net).ok());
  rel::RelationalDb db;
  ASSERT_TRUE(db.BulkLoad(net).ok());
  validate::Oracle oracle(net);
  for (const schema::Person& p : net.persons) {
    for (util::TimestampMs cut : cuts) {
      for (int limit : limits) {
        const std::vector<std::string> q2 =
            validate::CanonicalRows(oracle.Query2(p.id, cut, limit));
        const std::vector<std::string> q9 =
            validate::CanonicalRows(oracle.Query9(p.id, cut, limit));
        EXPECT_EQ(validate::CanonicalRows(Query2(store, p.id, cut, limit)), q2)
            << "Q2 person " << p.id << ", cut " << cut << ", limit " << limit;
        EXPECT_EQ(validate::CanonicalRows(Query9(store, p.id, cut, limit)), q9)
            << "Q9 person " << p.id << ", cut " << cut << ", limit " << limit;
        EXPECT_EQ(validate::CanonicalRows(rel::Query2(db, p.id, cut, limit)),
                  q2)
            << "rel Q2 person " << p.id << ", cut " << cut << ", limit "
            << limit;
        EXPECT_EQ(validate::CanonicalRows(rel::Query9(db, p.id, cut, limit)),
                  q9)
            << "rel Q9 person " << p.id << ", cut " << cut << ", limit "
            << limit;
      }
    }
  }
}

TEST(QueriesEdgeTest, Q2AndQ9KeepSmallerIdsTiedWithTheWorstRow) {
  // Person 1 knows 2 and 3. Friend 2's posts (6000 and 5000) fill a
  // two-row heap first, so its worst row is (5000, id 2). Friend 3's
  // newest post (5000, id 3) ties it on date and ranks worse; its next one
  // (5000, id 0) ranks better and must still enter. A walk that stops at
  // the first rejected row returns message 2 instead of 0.
  MessageNet builder(3);
  builder.Knows(1, 2);
  builder.Knows(1, 3);
  schema::MessageId m0 = builder.Post(3, 5000);
  schema::MessageId m1 = builder.Post(2, 6000);
  builder.Post(2, 5000);
  builder.Post(3, 5000);
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(builder.net()).ok());

  const MessageRows expect = {{m1, 2, 6000}, {m0, 3, 5000}};
  EXPECT_EQ(Rows(Query2(store, 1, 7000, 2)), expect);
  EXPECT_EQ(Rows(Query9(store, 1, 7000, 2)), expect);
  EXPECT_EQ(Rows(Query2(store, 1, 7000, 1)), MessageRows({{m1, 2, 6000}}));
  EXPECT_TRUE(Query2(store, 1, 7000, 0).empty());
  EXPECT_TRUE(Query9(store, 1, 7000, 0).empty());
  ExpectQ2AndQ9MatchOracle(builder.net(), {4999, 5000, 5001, 6000, 7000},
                           {0, 1, 2, 3, 4, 20});
}

TEST(QueriesEdgeTest, Q2AndQ9MergePostsAndCommentsInterleavedInDate) {
  // Friend 2 posts at 1000, 3000 and 5000 and comments on each post 1000
  // later, so the newest rows alternate between its two lists.
  MessageNet builder(2);
  builder.Knows(1, 2);
  std::vector<schema::MessageId> ids;
  for (util::TimestampMs date : {1000, 3000, 5000}) {
    schema::MessageId post = builder.Post(2, date);
    ids.push_back(post);
    ids.push_back(builder.Comment(2, post, date + 1000));
  }
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(builder.net()).ok());

  // Q2 keeps dates up to its cut, Q9 only dates before it.
  EXPECT_EQ(Rows(Query2(store, 1, 10000, 3)),
            MessageRows({{ids[5], 2, 6000}, {ids[4], 2, 5000},
                         {ids[3], 2, 4000}}));
  EXPECT_EQ(Rows(Query2(store, 1, 4000, 3)),
            MessageRows({{ids[3], 2, 4000}, {ids[2], 2, 3000},
                         {ids[1], 2, 2000}}));
  EXPECT_EQ(Rows(Query9(store, 1, 4000, 2)),
            MessageRows({{ids[2], 2, 3000}, {ids[1], 2, 2000}}));
  EXPECT_EQ(Rows(Query9(store, 1, 10000, 1)),
            MessageRows({{ids[5], 2, 6000}}));
  EXPECT_TRUE(Query2(store, 1, 10000, 0).empty());
  ExpectQ2AndQ9MatchOracle(builder.net(),
                           {999, 1000, 2000, 3500, 6000, 6001},
                           {0, 1, 2, 3, 6, 7, 20});
}

TEST(QueriesEdgeTest, Q2AndQ9MatchOracleUnderHeavyDateTies) {
  // Eighty posts and comments over six dates, by random creators, with ids
  // unrelated to dates; every person's Q2, Q9 and S2 must match the
  // oracle, in the store and in the relational backend.
  MessageNet builder(9);
  const std::pair<schema::PersonId, schema::PersonId> knows[] = {
      {1, 2}, {1, 3}, {2, 4}, {3, 5}, {4, 6}, {1, 7}, {7, 8}, {5, 9}};
  for (auto [a, b] : knows) builder.Knows(a, b);
  util::Rng rng(0x0921);
  for (int k = 0; k < 80; ++k) {
    schema::PersonId creator = 2 + rng.NextBounded(8);
    util::TimestampMs date =
        1000 + 100 * static_cast<util::TimestampMs>(rng.NextBounded(6));
    if (k == 0 || rng.NextBool(0.5)) {
      builder.Post(creator, date);
    } else {
      builder.Comment(creator, rng.NextBounded(k), date);
    }
  }
  ExpectQ2AndQ9MatchOracle(builder.net(), {999, 1000, 1200, 1500, 1501},
                           {0, 1, 2, 3, 5, 20});
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(builder.net()).ok());
  rel::RelationalDb db;
  ASSERT_TRUE(db.BulkLoad(builder.net()).ok());
  validate::Oracle oracle(builder.net());
  for (const schema::Person& p : builder.net().persons) {
    for (int limit : {1, 3, 10, 100}) {
      const std::vector<std::string> s2 = validate::CanonicalRows(
          oracle.ShortQuery2RecentMessages(p.id, limit));
      EXPECT_EQ(validate::CanonicalRows(
                    ShortQuery2RecentMessages(store, p.id, limit)),
                s2)
          << "S2 person " << p.id << ", limit " << limit;
      EXPECT_EQ(validate::CanonicalRows(
                    rel::ShortQuery2RecentMessages(db, p.id, limit)),
                s2)
          << "rel S2 person " << p.id << ", limit " << limit;
    }
  }
}

TEST(QueriesEdgeTest, Q7OrdersTiedLikesByMessageId) {
  // Person 1 posts 0, comments (2) on person 2's post 1, then posts 3.
  // Person 3 likes the older comment and the newer post in the same
  // millisecond, and person 4 likes post 0 then too: the rows tie on date,
  // and on liker for person 3's two, so the message id decides. The store
  // reads posts before comments and the oracle reads by date, so without
  // that key their orders would differ.
  MessageNet builder(4);
  builder.Knows(1, 4);
  schema::MessageId post0 = builder.Post(1, 1000);
  schema::MessageId post1 = builder.Post(2, 1050);
  schema::MessageId comment2 = builder.Comment(1, post1, 1100);
  schema::MessageId post3 = builder.Post(1, 1200);
  builder.Like(3, post3, 5000);
  builder.Like(4, post0, 5000);
  builder.Like(3, comment2, 5000);
  builder.Like(2, post0, 4000);
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(builder.net()).ok());

  std::vector<std::tuple<schema::PersonId, schema::MessageId, bool>> rows;
  for (const Q7Result& r : Query7(store, 1)) {
    rows.emplace_back(r.liker_id, r.message_id, r.is_outside_friendship);
  }
  EXPECT_EQ(rows, (std::vector<std::tuple<schema::PersonId, schema::MessageId,
                                          bool>>{{3, comment2, true},
                                                 {3, post3, true},
                                                 {4, post0, false},
                                                 {2, post0, true}}));
  validate::Oracle oracle(builder.net());
  for (int limit : {1, 2, 3, 20}) {
    EXPECT_EQ(validate::CanonicalRows(Query7(store, 1, limit)),
              validate::CanonicalRows(oracle.Query7(1, limit)))
        << "limit " << limit;
  }
}

// ---- Q14 oracle battery ------------------------------------------------------
//
// Hand-built graphs on which Query14 must return validate::Oracle::Query14's
// canonical rows byte for byte, and Query13 the same distance. The oracle
// takes BFS distances over the whole graph and sorts each person's parents
// by id, so it pins down the path set, the DFS order (hence the 1000-path
// cut) and the weight of every path.

class Q14Battery {
 public:
  /// Persons 0..last_person; forum 1 (moderated by person 0) holds posts.
  explicit Q14Battery(schema::PersonId last_person) {
    for (schema::PersonId id = 0; id <= last_person; ++id) {
      net_.persons.push_back(MakePerson(id));
    }
    schema::Forum forum;
    forum.id = 1;
    forum.moderator_id = 0;
    forum.creation_date = 1000;
    net_.forums.push_back(forum);
  }

  void Knows(schema::PersonId a, schema::PersonId b) {
    net_.knows.push_back({a, b, 2000});
  }

  schema::MessageId Post(schema::PersonId creator) {
    schema::Message m = NextMessage(creator);
    m.kind = schema::MessageKind::kPost;
    m.forum_id = 1;
    m.root_post_id = m.id;
    net_.messages.push_back(m);
    return m.id;
  }

  /// A comment by `creator` replying to message `parent`.
  schema::MessageId Reply(schema::PersonId creator, schema::MessageId parent) {
    schema::Message m = NextMessage(creator);
    m.kind = schema::MessageKind::kComment;
    m.forum_id = 1;
    m.reply_to_id = parent;
    m.root_post_id = net_.messages[parent].root_post_id;
    net_.messages.push_back(m);
    return m.id;
  }

  /// Loads the graph (once) and compares Query14/Query13 with the oracle
  /// for one pair; returns the store's rows.
  std::vector<Q14Result> Check(schema::PersonId p1, schema::PersonId p2,
                               int distance) {
    if (store_ == nullptr) {
      store_ = std::make_unique<store::GraphStore>();
      EXPECT_TRUE(store_->BulkLoad(net_).ok());
    }
    validate::Oracle oracle(net_);
    std::vector<Q14Result> rows = Query14(*store_, p1, p2);
    EXPECT_EQ(validate::CanonicalRows(rows),
              validate::CanonicalRows(oracle.Query14(p1, p2)))
        << p1 << " -> " << p2;
    EXPECT_EQ(Query13(*store_, p1, p2), distance) << p1 << " -> " << p2;
    EXPECT_EQ(oracle.Query13(p1, p2), distance) << p1 << " -> " << p2;
    for (const Q14Result& r : rows) {
      EXPECT_EQ(r.path.size(), static_cast<size_t>(distance) + 1);
    }
    return rows;
  }

 private:
  schema::Message NextMessage(schema::PersonId creator) {
    schema::Message m;
    m.id = net_.messages.size();
    m.creator_id = creator;
    m.creation_date = 3000 + static_cast<int64_t>(m.id);
    return m;
  }

  schema::SocialNetwork net_;
  std::unique_ptr<store::GraphStore> store_;
};

TEST(Q14OracleBattery, ThousandPathCut) {
  // 0 -> A (1..40) -> B (41..80) -> 81 with a complete bipartite middle:
  // 40 * 40 = 1600 shortest paths, cut to the first 1000 in DFS order
  // (B ascending, then A ascending: B = 41..65). The heaviest pair, 80-81,
  // lies past the cut, so a cut that kept other paths would put it on top.
  Q14Battery g(81);
  for (schema::PersonId a = 1; a <= 40; ++a) {
    g.Knows(0, a);
    for (schema::PersonId b = 41; b <= 80; ++b) g.Knows(a, b);
  }
  for (schema::PersonId b = 41; b <= 80; ++b) g.Knows(b, 81);
  schema::MessageId post12 = g.Post(12);
  g.Reply(0, post12);   // 0-12: 1.0.
  g.Reply(45, post12);  // 12-45: 1.0.
  schema::MessageId post81 = g.Post(81);
  for (int i = 0; i < 3; ++i) g.Reply(80, post81);  // 80-81: 3.0.
  std::vector<Q14Result> rows = g.Check(0, 81, 3);
  ASSERT_EQ(rows.size(), 1000u);
  for (const Q14Result& r : rows) EXPECT_LE(r.path[2], 65u);
  EXPECT_EQ(rows.front().path, (std::vector<schema::PersonId>{0, 12, 45, 81}));
  EXPECT_EQ(rows.front().weight, 2.0);
  EXPECT_EQ(g.Check(81, 0, 3).size(), 1000u);
}

TEST(Q14OracleBattery, BothMeetingSidesAtDistancesOneToFour) {
  // A hub (0) with 30 leaves, then a ladder with two rungs per odd step:
  // 0 - {31, 32} - 33 - {34, 35} - 36. The search always expands the
  // smaller frontier, so with the hub as person1 it grows from person2 and
  // the frontiers meet in a backward expansion; with the hub as person2
  // they meet in a forward one.
  Q14Battery g(36);
  for (schema::PersonId leaf = 1; leaf <= 30; ++leaf) g.Knows(0, leaf);
  for (schema::PersonId rung : {31u, 32u}) {
    g.Knows(0, rung);
    g.Knows(rung, 33);
  }
  for (schema::PersonId rung : {34u, 35u}) {
    g.Knows(33, rung);
    g.Knows(rung, 36);
  }
  // Edges within one level: a friend at the same distance is no parent.
  g.Knows(5, 6);
  g.Knows(6, 31);
  g.Knows(31, 32);
  g.Knows(34, 35);
  schema::MessageId post = g.Post(33);
  g.Reply(32, post);
  g.Reply(35, g.Reply(36, post));
  const std::pair<schema::PersonId, int> targets[] = {
      {31, 1}, {33, 2}, {34, 3}, {36, 4}};
  for (auto [target, distance] : targets) {
    g.Check(0, target, distance);
    g.Check(target, 0, distance);
  }
  EXPECT_EQ(g.Check(0, 36, 4).size(), 4u);
}

TEST(Q14OracleBattery, DisconnectedComponentsHaveNoPath) {
  Q14Battery g(7);
  g.Knows(0, 1);
  g.Knows(1, 2);
  g.Knows(2, 3);
  g.Knows(4, 5);
  g.Knows(5, 6);
  g.Reply(1, g.Post(0));
  EXPECT_TRUE(g.Check(0, 6, -1).empty());
  EXPECT_TRUE(g.Check(6, 3, -1).empty());
  EXPECT_TRUE(g.Check(0, 7, -1).empty());  // Person 7 knows nobody.
  EXPECT_EQ(g.Check(0, 3, 3).size(), 1u);
}

TEST(Q14OracleBattery, SharedEdgeWeighsTheSameOnEveryPath) {
  // 0 -> {1..5} -> 6 -> 7 -> {8, 9, 10} -> 11: 15 paths, all through 6-7.
  // 6 and 7 reply to each other's posts (1.0) and comments (0.5) in both
  // directions, so the shared pair weighs 3.0; other pairs add small
  // distinct weights to spread the paths.
  Q14Battery g(11);
  for (schema::PersonId a = 1; a <= 5; ++a) {
    g.Knows(0, a);
    g.Knows(a, 6);
  }
  g.Knows(6, 7);
  for (schema::PersonId b = 8; b <= 10; ++b) {
    g.Knows(7, b);
    g.Knows(b, 11);
  }
  g.Knows(2, 3);  // Same-level edges.
  g.Knows(8, 9);
  schema::MessageId post6 = g.Post(6);
  schema::MessageId post7 = g.Post(7);
  schema::MessageId reply7 = g.Reply(7, post6);  // 7 -> 6: 1.0
  schema::MessageId reply6 = g.Reply(6, post7);  // 6 -> 7: 1.0
  g.Reply(6, reply7);                            // 6 -> 7: 0.5
  g.Reply(7, reply6);                            // 7 -> 6: 0.5
  g.Reply(2, g.Post(0));               // 0-2: 1.0.
  g.Reply(9, g.Reply(11, g.Post(9)));  // 9-11: 1.0 + 0.5.
  g.Reply(4, reply6);                  // 4-6: 0.5.
  std::vector<Q14Result> rows = g.Check(0, 11, 5);
  ASSERT_EQ(rows.size(), 15u);
  for (const Q14Result& r : rows) EXPECT_GE(r.weight, 3.0);
  EXPECT_EQ(rows.front().path,
            (std::vector<schema::PersonId>{0, 2, 6, 7, 9, 11}));
  EXPECT_EQ(rows.front().weight, 5.5);
  EXPECT_EQ(g.Check(11, 0, 5).size(), 15u);
}

TEST(Q14OracleBattery, WeightsDecideTheOrder) {
  // 0 - {1, 2} - {3, 4} - 5 with every edge between neighbouring levels,
  // plus same-level edges 1-2 and 3-4: four shortest paths, ranked by
  // replies between path neighbours in both directions, to posts (1.0) and
  // to comments (0.5). Replies between path persons two or three levels
  // apart, or on the same level, weigh nothing: those persons are never
  // neighbours on a path.
  Q14Battery g(5);
  for (auto [a, b] : {std::pair(0, 1), std::pair(0, 2), std::pair(1, 3),
                      std::pair(1, 4), std::pair(2, 3), std::pair(2, 4),
                      std::pair(3, 5), std::pair(4, 5), std::pair(1, 2),
                      std::pair(3, 4)}) {
    g.Knows(a, b);
  }
  schema::MessageId post0 = g.Post(0);
  schema::MessageId post1 = g.Post(1);
  schema::MessageId post3 = g.Post(3);
  schema::MessageId post4 = g.Post(4);
  g.Reply(1, post0);                  // 0-1: 1.0
  g.Reply(0, g.Reply(1, post1));      // 0-1: 0.5 (to 1's comment)
  g.Reply(2, post0);                  // 0-2: 1.0
  g.Reply(3, post1);                  // 1-3: 1.0
  g.Reply(1, g.Reply(3, post3));      // 1-3: 0.5
  g.Reply(4, g.Reply(2, post3));      // 2-3: 1.0, then 2-4: 0.5
  g.Reply(2, post4);                  // 2-4: 1.0
  g.Reply(5, post3);                  // 3-5: 1.0
  // Persons that are never neighbours on a path.
  for (int i = 0; i < 3; ++i) g.Reply(0, post3);  // Levels 0 and 2.
  g.Reply(5, post1);                               // Levels 3 and 1.
  g.Reply(5, post0);                               // Levels 3 and 0.
  g.Reply(2, post1);                               // Same level.
  g.Reply(3, post4);                               // Same level.
  std::vector<Q14Result> rows = g.Check(0, 5, 3);
  using Path = std::vector<schema::PersonId>;
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].path, (Path{0, 1, 3, 5}));  // 1.5 + 1.5 + 1.0
  EXPECT_EQ(rows[0].weight, 4.0);
  EXPECT_EQ(rows[1].path, (Path{0, 2, 3, 5}));  // 1.0 + 1.0 + 1.0
  EXPECT_EQ(rows[1].weight, 3.0);
  EXPECT_EQ(rows[2].path, (Path{0, 2, 4, 5}));  // 1.0 + 1.5 + 0
  EXPECT_EQ(rows[2].weight, 2.5);
  EXPECT_EQ(rows[3].path, (Path{0, 1, 4, 5}));  // 1.5 + 0 + 0
  EXPECT_EQ(rows[3].weight, 1.5);
  std::vector<Q14Result> back = g.Check(5, 0, 3);
  ASSERT_EQ(back.size(), 4u);
  EXPECT_EQ(back[0].path, (Path{5, 3, 1, 0}));
  EXPECT_EQ(back[0].weight, 4.0);
  // From a path's middle the levels shift, and so do the neighbours.
  g.Check(1, 5, 2);
  g.Check(3, 0, 2);
}

TEST(QueriesEdgeTest, ApplyUpdateRejectsCorruptKinds) {
  store::GraphStore store;
  datagen::UpdateOperation op;
  op.payload = schema::Like{};
  // Out-of-range kind bytes (0 is below the enum range, 99 above it).
  op.kind = static_cast<datagen::UpdateKind>(0);
  EXPECT_EQ(ApplyUpdate(store, op).code(),
            util::StatusCode::kInvalidArgument);
  op.kind = static_cast<datagen::UpdateKind>(99);
  EXPECT_EQ(ApplyUpdate(store, op).code(),
            util::StatusCode::kInvalidArgument);
  // Valid kind whose payload holds the wrong alternative.
  op.kind = datagen::UpdateKind::kAddPerson;
  util::Status st = ApplyUpdate(store, op);
  EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(st.message().empty());
  // Nothing leaked into the store.
  EXPECT_EQ(store.NumPersons(), 0u);
  EXPECT_EQ(store.NumLikes(), 0u);
}

TEST(QueriesEdgeTest, Q12EmptyTagClass) {
  datagen::DatagenConfig config;
  config.num_persons = 120;
  config.split_update_stream = false;
  datagen::Dataset ds = datagen::Generate(config);
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(ds.bulk).ok());
  std::vector<bool> empty_class(1000, false);
  EXPECT_TRUE(Query12(store, 0, empty_class).empty());
  std::vector<bool> no_tags;  // Out-of-range tag ids must not crash.
  EXPECT_TRUE(Query12(store, 0, no_tags).empty());
}

}  // namespace
}  // namespace snb::queries
