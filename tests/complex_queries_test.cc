// Correctness tests for the 14 complex queries: each is validated against an
// independent brute-force reference over the generated dataset.
#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "obs/trace.h"
#include "queries/complex_queries.h"
#include "queries/query9_plans.h"
#include "schema/dictionaries.h"
#include "store/graph_store.h"

namespace snb::queries {
namespace {

using schema::MessageId;
using schema::MessageKind;
using schema::PersonId;
using store::GraphStore;

class ComplexQueriesTest : public ::testing::Test {
 protected:
  struct World {
    datagen::Dataset dataset;
    GraphStore store;
    std::unique_ptr<schema::Dictionaries> dict;
    std::vector<schema::PlaceId> city_country;
    std::vector<schema::PlaceId> company_country;
    PersonId hub;  // A person with many friends.
    std::unordered_map<PersonId, std::vector<PersonId>> adjacency;
  };

  static World& world() {
    static World* w = [] {
      auto* world = new World();
      datagen::DatagenConfig config;
      config.num_persons = 300;
      config.split_update_stream = false;
      world->dataset = datagen::Generate(config);
      EXPECT_TRUE(world->store.BulkLoad(world->dataset.bulk).ok());
      world->dict = std::make_unique<schema::Dictionaries>(config.seed);
      for (const schema::City& c : world->dict->cities()) {
        world->city_country.push_back(c.country_id);
      }
      for (const schema::Company& c : world->dict->companies()) {
        world->company_country.push_back(c.country_id);
      }
      for (const schema::Knows& k : world->dataset.bulk.knows) {
        world->adjacency[k.person1_id].push_back(k.person2_id);
        world->adjacency[k.person2_id].push_back(k.person1_id);
      }
      world->hub = 0;
      size_t best = 0;
      for (auto& [pid, friends] : world->adjacency) {
        if (friends.size() > best) {
          best = friends.size();
          world->hub = pid;
        }
      }
      return world;
    }();
    return *w;
  }

  // Reference BFS distances from `start`, up to max_depth.
  static std::unordered_map<PersonId, int> ReferenceDistances(
      PersonId start, int max_depth) {
    std::unordered_map<PersonId, int> dist{{start, 0}};
    std::deque<PersonId> queue{start};
    while (!queue.empty()) {
      PersonId pid = queue.front();
      queue.pop_front();
      int d = dist[pid];
      if (d >= max_depth) continue;
      auto it = world().adjacency.find(pid);
      if (it == world().adjacency.end()) continue;
      for (PersonId next : it->second) {
        if (dist.emplace(next, d + 1).second) queue.push_back(next);
      }
    }
    return dist;
  }

  static const schema::Person& PersonById(PersonId id) {
    for (const schema::Person& p : world().dataset.bulk.persons) {
      if (p.id == id) return p;
    }
    static schema::Person missing;
    ADD_FAILURE() << "person " << id << " not found";
    return missing;
  }
};

// ---- Q1 ----------------------------------------------------------------

TEST_F(ComplexQueriesTest, Q1FindsCorrectDistancesAndOrder) {
  PersonId start = world().hub;
  // Use a name that exists within 3 hops to make the test meaningful.
  auto dist = ReferenceDistances(start, 3);
  std::string name;
  for (auto& [pid, d] : dist) {
    if (d >= 1 && d <= 3) {
      name = PersonById(pid).first_name;
      break;
    }
  }
  ASSERT_FALSE(name.empty());

  std::vector<Q1Result> results = Query1(world().store, start, name, 20);
  ASSERT_FALSE(results.empty());
  for (const Q1Result& r : results) {
    EXPECT_EQ(PersonById(r.person_id).first_name, name);
    auto it = dist.find(r.person_id);
    ASSERT_NE(it, dist.end());
    EXPECT_EQ(static_cast<int>(r.distance), it->second);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    const Q1Result& a = results[i - 1];
    const Q1Result& b = results[i];
    EXPECT_TRUE(a.distance < b.distance ||
                (a.distance == b.distance && a.last_name < b.last_name) ||
                (a.distance == b.distance && a.last_name == b.last_name &&
                 a.person_id < b.person_id));
  }
  // Completeness at distance <= max returned distance: every matching person
  // strictly closer than the last returned one must be in the result.
  if (results.size() < 20) {
    int matches = 0;
    for (auto& [pid, d] : dist) {
      if (d >= 1 && d <= 3 && PersonById(pid).first_name == name) ++matches;
    }
    EXPECT_EQ(static_cast<int>(results.size()), matches);
  }
}

TEST_F(ComplexQueriesTest, Q1MissingPersonReturnsEmpty) {
  EXPECT_TRUE(Query1(world().store, 999999, "Karl", 20).empty());
}

// ---- Q2 ----------------------------------------------------------------

TEST_F(ComplexQueriesTest, Q2MatchesBruteForce) {
  PersonId start = world().hub;
  util::TimestampMs max_date =
      util::kNetworkStartMs + 20 * util::kMillisPerMonth;

  std::set<PersonId> friends(world().adjacency[start].begin(),
                             world().adjacency[start].end());
  std::vector<Q2Result> expected;
  for (const schema::Message& m : world().dataset.bulk.messages) {
    if (friends.count(m.creator_id) > 0 && m.creation_date <= max_date) {
      expected.push_back({m.id, m.creator_id, m.creation_date});
    }
  }
  std::sort(expected.begin(), expected.end(),
            [](const Q2Result& a, const Q2Result& b) {
              if (a.creation_date != b.creation_date) {
                return a.creation_date > b.creation_date;
              }
              return a.message_id < b.message_id;
            });
  if (expected.size() > 20) expected.resize(20);

  std::vector<Q2Result> actual = Query2(world().store, start, max_date, 20);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].message_id, expected[i].message_id);
    EXPECT_EQ(actual[i].creator_id, expected[i].creator_id);
    EXPECT_EQ(actual[i].creation_date, expected[i].creation_date);
  }
}

// ---- Q3 ----------------------------------------------------------------

TEST_F(ComplexQueriesTest, Q3CountsForeignPosts) {
  PersonId start = world().hub;
  // Pick the two countries most posted-from by the 2-hop circle to get a
  // non-trivial result.
  std::vector<PersonId> circle = TwoHopCircle(world().store, start);
  std::set<PersonId> circle_set(circle.begin(), circle.end());
  std::map<schema::PlaceId, int> country_counts;
  for (const schema::Message& m : world().dataset.bulk.messages) {
    if (circle_set.count(m.creator_id) > 0) ++country_counts[m.country_id];
  }
  ASSERT_GE(country_counts.size(), 2u);
  std::vector<std::pair<int, schema::PlaceId>> ranked;
  for (auto [c, n] : country_counts) ranked.push_back({n, c});
  std::sort(ranked.rbegin(), ranked.rend());
  schema::PlaceId x = ranked[0].second;
  schema::PlaceId y = ranked[1].second;

  util::TimestampMs start_date = util::kNetworkStartMs;
  int days = 36 * 30;
  std::vector<Q3Result> results =
      Query3(world().store, start, world().city_country, x, y, start_date,
             days, 20);
  for (const Q3Result& r : results) {
    EXPECT_GT(r.count_x, 0u);
    EXPECT_GT(r.count_y, 0u);
    // Residents of X/Y excluded.
    schema::PlaceId home = world().city_country[PersonById(r.person_id).city_id];
    EXPECT_NE(home, x);
    EXPECT_NE(home, y);
    // Verify counts brute-force.
    uint32_t cx = 0, cy = 0;
    for (const schema::Message& m : world().dataset.bulk.messages) {
      if (m.creator_id != r.person_id) continue;
      if (m.creation_date < start_date ||
          m.creation_date >= start_date + days * util::kMillisPerDay) {
        continue;
      }
      if (m.country_id == x) ++cx;
      if (m.country_id == y) ++cy;
    }
    EXPECT_EQ(r.count_x, cx);
    EXPECT_EQ(r.count_y, cy);
  }
  // Descending by total.
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].count_x + results[i - 1].count_y,
              results[i].count_x + results[i].count_y);
  }
}

// ---- Q4 ----------------------------------------------------------------

TEST_F(ComplexQueriesTest, Q4NewTopicsExcludesOldTags) {
  PersonId start = world().hub;
  util::TimestampMs window_start =
      util::kNetworkStartMs + 12 * util::kMillisPerMonth;
  int days = 60;
  std::vector<Q4Result> results =
      Query4(world().store, start, window_start, days, 10);

  std::set<PersonId> friends(world().adjacency[start].begin(),
                             world().adjacency[start].end());
  util::TimestampMs window_end =
      window_start + days * util::kMillisPerDay;
  std::map<schema::TagId, uint32_t> in_window;
  std::set<schema::TagId> before;
  for (const schema::Message& m : world().dataset.bulk.messages) {
    if (m.kind == MessageKind::kComment) continue;
    if (friends.count(m.creator_id) == 0) continue;
    if (m.creation_date < window_start) {
      for (schema::TagId t : m.tags) before.insert(t);
    } else if (m.creation_date < window_end) {
      for (schema::TagId t : m.tags) ++in_window[t];
    }
  }
  for (const Q4Result& r : results) {
    EXPECT_EQ(before.count(r.tag), 0u);
    EXPECT_EQ(in_window[r.tag], r.post_count);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].post_count, results[i].post_count);
  }
}

// ---- Q5 ----------------------------------------------------------------

TEST_F(ComplexQueriesTest, Q5RanksForumsByCirclePosts) {
  PersonId start = world().hub;
  util::TimestampMs min_date =
      util::kNetworkStartMs + 6 * util::kMillisPerMonth;
  std::vector<Q5Result> results =
      Query5(world().store, start, min_date, 20);
  ASSERT_FALSE(results.empty());

  std::vector<PersonId> circle = TwoHopCircle(world().store, start);
  std::set<PersonId> circle_set(circle.begin(), circle.end());
  // Forum qualifies iff someone in the circle joined after min_date.
  std::set<schema::ForumId> qualifying;
  for (const schema::ForumMembership& fm : world().dataset.bulk.memberships) {
    if (fm.join_date > min_date && circle_set.count(fm.person_id) > 0) {
      qualifying.insert(fm.forum_id);
    }
  }
  for (const Q5Result& r : results) {
    EXPECT_EQ(qualifying.count(r.forum_id), 1u);
    uint32_t count = 0;
    for (const schema::Message& m : world().dataset.bulk.messages) {
      if (m.kind == MessageKind::kComment) continue;
      if (m.forum_id == r.forum_id && circle_set.count(m.creator_id) > 0) {
        ++count;
      }
    }
    EXPECT_EQ(r.post_count, count);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].post_count, results[i].post_count);
  }
}

// ---- Q6 ----------------------------------------------------------------

TEST_F(ComplexQueriesTest, Q6CoOccurrenceExcludesGivenTag) {
  PersonId start = world().hub;
  // Most common tag among circle posts.
  std::vector<PersonId> circle = TwoHopCircle(world().store, start);
  std::set<PersonId> circle_set(circle.begin(), circle.end());
  std::map<schema::TagId, int> tag_counts;
  for (const schema::Message& m : world().dataset.bulk.messages) {
    if (m.kind == MessageKind::kComment) continue;
    if (circle_set.count(m.creator_id) == 0) continue;
    for (schema::TagId t : m.tags) ++tag_counts[t];
  }
  ASSERT_FALSE(tag_counts.empty());
  schema::TagId top_tag = 0;
  int best = -1;
  for (auto [t, c] : tag_counts) {
    if (c > best) {
      best = c;
      top_tag = t;
    }
  }
  std::vector<Q6Result> results =
      Query6(world().store, start, top_tag, 10);
  for (const Q6Result& r : results) {
    EXPECT_NE(r.tag, top_tag);
    EXPECT_GT(r.post_count, 0u);
  }
  // Note: with single-tag posts co-occurrence can legitimately be empty.
}

// ---- Q7 ----------------------------------------------------------------

TEST_F(ComplexQueriesTest, Q7RecentLikesWithLatency) {
  // Find a person whose messages have likes.
  PersonId person = schema::kInvalidId;
  std::map<MessageId, const schema::Message*> by_id;
  for (const schema::Message& m : world().dataset.bulk.messages) {
    by_id[m.id] = &m;
  }
  std::map<PersonId, int> like_counts;
  for (const schema::Like& l : world().dataset.bulk.likes) {
    like_counts[by_id[l.message_id]->creator_id]++;
  }
  int best = -1;
  for (auto [pid, c] : like_counts) {
    if (c > best) {
      best = c;
      person = pid;
    }
  }
  ASSERT_NE(person, schema::kInvalidId);

  std::vector<Q7Result> results = Query7(world().store, person, 20);
  ASSERT_FALSE(results.empty());
  for (const Q7Result& r : results) {
    const schema::Message* m = by_id[r.message_id];
    EXPECT_EQ(m->creator_id, person);
    EXPECT_EQ(r.latency_minutes,
              (r.like_date - m->creation_date) / util::kMillisPerMinute);
    EXPECT_GE(r.latency_minutes, 0);
    bool is_friend = false;
    for (PersonId f : world().adjacency[person]) {
      if (f == r.liker_id) is_friend = true;
    }
    EXPECT_EQ(r.is_outside_friendship, !is_friend);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].like_date, results[i].like_date);
  }
}

// ---- Q8 ----------------------------------------------------------------

TEST_F(ComplexQueriesTest, Q8MostRecentReplies) {
  PersonId start = world().hub;
  std::vector<Q8Result> results = Query8(world().store, start, 20);

  std::map<MessageId, const schema::Message*> by_id;
  for (const schema::Message& m : world().dataset.bulk.messages) {
    by_id[m.id] = &m;
  }
  std::vector<Q8Result> expected;
  for (const schema::Message& m : world().dataset.bulk.messages) {
    if (m.kind != MessageKind::kComment) continue;
    auto parent = by_id.find(m.reply_to_id);
    if (parent == by_id.end()) continue;
    if (parent->second->creator_id != start) continue;
    expected.push_back({m.id, m.creator_id, m.creation_date});
  }
  std::sort(expected.begin(), expected.end(),
            [](const Q8Result& a, const Q8Result& b) {
              if (a.creation_date != b.creation_date) {
                return a.creation_date > b.creation_date;
              }
              return a.comment_id < b.comment_id;
            });
  if (expected.size() > 20) expected.resize(20);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].comment_id, expected[i].comment_id);
    EXPECT_EQ(results[i].replier_id, expected[i].replier_id);
  }
}

// ---- Q9 ----------------------------------------------------------------

TEST_F(ComplexQueriesTest, Q9MatchesBruteForce) {
  PersonId start = world().hub;
  util::TimestampMs max_date =
      util::kNetworkStartMs + 24 * util::kMillisPerMonth;

  std::vector<PersonId> circle = TwoHopCircle(world().store, start);
  std::set<PersonId> circle_set(circle.begin(), circle.end());
  std::vector<Q9Result> expected;
  for (const schema::Message& m : world().dataset.bulk.messages) {
    if (circle_set.count(m.creator_id) > 0 && m.creation_date < max_date) {
      expected.push_back({m.id, m.creator_id, m.creation_date});
    }
  }
  std::sort(expected.begin(), expected.end(),
            [](const Q9Result& a, const Q9Result& b) {
              if (a.creation_date != b.creation_date) {
                return a.creation_date > b.creation_date;
              }
              return a.message_id < b.message_id;
            });
  if (expected.size() > 20) expected.resize(20);

  std::vector<Q9Result> actual = Query9(world().store, start, max_date, 20);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].message_id, expected[i].message_id);
  }
}

TEST_F(ComplexQueriesTest, Q9AllPlanVariantsAgree) {
  PersonId start = world().hub;
  util::TimestampMs max_date =
      util::kNetworkStartMs + 24 * util::kMillisPerMonth;
  std::vector<Q9Result> reference =
      Query9(world().store, start, max_date, 20);

  for (JoinStrategy j1 :
       {JoinStrategy::kIndexNestedLoop, JoinStrategy::kHash}) {
    for (JoinStrategy j2 :
         {JoinStrategy::kIndexNestedLoop, JoinStrategy::kHash}) {
      for (JoinStrategy j3 :
           {JoinStrategy::kIndexNestedLoop, JoinStrategy::kHash}) {
        obs::OperatorProfile profile;
        std::vector<Q9Result> plan_result;
        {
          obs::ScopedOperatorProfile profiling(&profile);
          plan_result = Query9WithPlan(world().store, start, max_date, 20,
                                       j1, j2, j3);
        }
        ASSERT_EQ(plan_result.size(), reference.size());
        for (size_t i = 0; i < plan_result.size(); ++i) {
          EXPECT_EQ(plan_result[i].message_id, reference[i].message_id);
        }
        ASSERT_NE(profile.Find("join1"), nullptr);
        ASSERT_NE(profile.Find("join2"), nullptr);
        EXPECT_GT(profile.Find("join1")->rows, 0u);
        EXPECT_GT(profile.Find("join2")->rows, 0u);
        // Hash plans scan the base relation to build.
        const obs::OperatorStats* build = profile.Find("hash_build");
        if (j1 == JoinStrategy::kHash || j2 == JoinStrategy::kHash ||
            j3 == JoinStrategy::kHash) {
          ASSERT_NE(build, nullptr);
          EXPECT_GT(build->rows, 0u);
        } else {
          EXPECT_EQ(build, nullptr);
        }
      }
    }
  }
}

// Observing Q9 must not change its plan: an installed profile only starts
// the spans' clocks and leaves the rows untouched.
TEST_F(ComplexQueriesTest, Q9RowsDoNotDependOnAProfile) {
  util::TimestampMs max_date =
      util::kNetworkStartMs + 40 * util::kMillisPerMonth;
  for (PersonId start : {world().hub, PersonId{0}, PersonId{17}}) {
    std::vector<Q9Result> plain = Query9(world().store, start, max_date, 20);
    obs::OperatorProfile profile;
    std::vector<Q9Result> observed;
    {
      obs::ScopedOperatorProfile profiling(&profile);
      observed = Query9(world().store, start, max_date, 20);
    }
    EXPECT_FALSE(profile.rows().empty());
    ASSERT_EQ(observed.size(), plain.size()) << "person " << start;
    for (size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(observed[i].message_id, plain[i].message_id) << i;
      EXPECT_EQ(observed[i].creator_id, plain[i].creator_id) << i;
      EXPECT_EQ(observed[i].creation_date, plain[i].creation_date) << i;
    }
  }
}

TEST_F(ComplexQueriesTest, Q9SpansRunOncePerExecution) {
  util::TimestampMs max_date =
      util::kNetworkStartMs + 40 * util::kMillisPerMonth;
  obs::OperatorProfile profile;
  std::vector<Q9Result> rows;
  {
    obs::ScopedOperatorProfile profiling(&profile);
    rows = Query9(world().store, world().hub, max_date, 20);
  }
  EXPECT_FALSE(rows.empty());
  ASSERT_EQ(profile.rows().size(), 4u);
  const char* const kOrder[] = {"join1", "join2", "join3", "sort_limit"};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_STREQ(profile.rows()[i].label, kOrder[i]);
    EXPECT_EQ(profile.rows()[i].stats.invocations, 1u) << kOrder[i];
  }
  const obs::OperatorStats& join1 = *profile.Find("join1");
  const obs::OperatorStats& join2 = *profile.Find("join2");
  const obs::OperatorStats& join3 = *profile.Find("join3");
  EXPECT_EQ(join1.rows, world().adjacency[world().hub].size());
  EXPECT_GE(join2.rows, join1.rows);
  // Each member hands at most its newest 20 rows to the heap.
  EXPECT_GE(join3.rows, rows.size());
  EXPECT_LE(join3.rows, 20 * TwoHopCircle(world().store, world().hub).size());
  EXPECT_EQ(profile.Find("sort_limit")->rows, rows.size());
}

// ---- Q10 ---------------------------------------------------------------

TEST_F(ComplexQueriesTest, Q10CandidatesAreFofWithMatchingSign) {
  PersonId start = world().hub;
  std::set<PersonId> direct(world().adjacency[start].begin(),
                            world().adjacency[start].end());
  // Scan all months to find one with candidates.
  bool any = false;
  for (int month = 1; month <= 12; ++month) {
    std::vector<Q10Result> results =
        Query10(world().store, start, month, 10);
    for (const Q10Result& r : results) {
      any = true;
      EXPECT_EQ(direct.count(r.person_id), 0u);
      EXPECT_NE(r.person_id, start);
      // Must be fof.
      bool fof = false;
      for (PersonId f : world().adjacency[start]) {
        for (PersonId ff : world().adjacency[f]) {
          if (ff == r.person_id) fof = true;
        }
      }
      EXPECT_TRUE(fof);
    }
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_GE(results[i - 1].similarity, results[i].similarity);
    }
  }
  EXPECT_TRUE(any);
}

// ---- Q11 ---------------------------------------------------------------

TEST_F(ComplexQueriesTest, Q11FiltersByCountryAndYear) {
  PersonId start = world().hub;
  // Find a country that employs someone in the circle.
  std::vector<PersonId> circle = TwoHopCircle(world().store, start);
  schema::PlaceId country = schema::kInvalidId32;
  for (PersonId pid : circle) {
    const schema::Person& p = PersonById(pid);
    if (p.company_id != schema::kInvalidId32) {
      country = world().company_country[p.company_id];
      break;
    }
  }
  ASSERT_NE(country, schema::kInvalidId32);

  std::vector<Q11Result> results =
      Query11(world().store, start, world().company_country, country, 2013,
              10);
  ASSERT_FALSE(results.empty());
  for (const Q11Result& r : results) {
    EXPECT_EQ(world().company_country[r.company_id], country);
    EXPECT_LT(r.work_year, 2013);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(results[i - 1].work_year < results[i].work_year ||
                (results[i - 1].work_year == results[i].work_year &&
                 results[i - 1].person_id < results[i].person_id));
  }
}

// ---- Q12 ---------------------------------------------------------------

TEST_F(ComplexQueriesTest, Q12CountsRepliesToTaggedPosts) {
  PersonId start = world().hub;
  // Tag class covering all tags -> every reply-to-post counts.
  std::vector<bool> all_tags(world().dict->tags().size(), true);
  std::vector<Q12Result> results =
      Query12(world().store, start, all_tags, 20);

  std::map<MessageId, const schema::Message*> by_id;
  for (const schema::Message& m : world().dataset.bulk.messages) {
    by_id[m.id] = &m;
  }
  std::set<PersonId> friends(world().adjacency[start].begin(),
                             world().adjacency[start].end());
  std::map<PersonId, uint32_t> expected;
  for (const schema::Message& m : world().dataset.bulk.messages) {
    if (m.kind != MessageKind::kComment) continue;
    if (friends.count(m.creator_id) == 0) continue;
    const schema::Message* parent = by_id[m.reply_to_id];
    if (parent->kind == MessageKind::kComment) continue;
    if (!parent->tags.empty()) expected[m.creator_id]++;
  }
  for (const Q12Result& r : results) {
    EXPECT_EQ(r.reply_count, expected[r.person_id]);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].reply_count, results[i].reply_count);
  }
}

// ---- Q13 ---------------------------------------------------------------

TEST_F(ComplexQueriesTest, Q13MatchesReferenceBfs) {
  PersonId start = world().hub;
  auto dist = ReferenceDistances(start, 1000);
  // Check a spread of targets, including unreachable ones.
  int checked = 0;
  for (const schema::Person& p : world().dataset.bulk.persons) {
    if (checked >= 40) break;
    ++checked;
    int expected = -1;
    auto it = dist.find(p.id);
    if (it != dist.end()) expected = it->second;
    EXPECT_EQ(Query13(world().store, start, p.id), expected)
        << "target " << p.id;
  }
  EXPECT_EQ(Query13(world().store, start, start), 0);
  EXPECT_EQ(Query13(world().store, start, 999999), -1);
}

// ---- Q14 ---------------------------------------------------------------

TEST_F(ComplexQueriesTest, Q14AllShortestPathsValidAndSorted) {
  PersonId start = world().hub;
  // Find a target at distance 2-3.
  auto dist = ReferenceDistances(start, 4);
  PersonId target = schema::kInvalidId;
  for (auto& [pid, d] : dist) {
    if (d == 3) {
      target = pid;
      break;
    }
  }
  if (target == schema::kInvalidId) {
    for (auto& [pid, d] : dist) {
      if (d == 2) {
        target = pid;
        break;
      }
    }
  }
  ASSERT_NE(target, schema::kInvalidId);
  int expected_len = dist[target];

  std::vector<Q14Result> results =
      Query14(world().store, start, target);
  ASSERT_FALSE(results.empty());
  std::set<std::vector<PersonId>> unique_paths;
  for (const Q14Result& r : results) {
    ASSERT_EQ(static_cast<int>(r.path.size()) - 1, expected_len);
    EXPECT_EQ(r.path.front(), start);
    EXPECT_EQ(r.path.back(), target);
    // Each hop must be a real edge.
    for (size_t i = 0; i + 1 < r.path.size(); ++i) {
      auto pin = world().store.ReadLock();
      EXPECT_TRUE(world().store.AreFriends(pin, r.path[i], r.path[i + 1]));
    }
    EXPECT_TRUE(unique_paths.insert(r.path).second) << "duplicate path";
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].weight, results[i].weight);
  }
}

TEST_F(ComplexQueriesTest, Q14SelfAndUnreachable) {
  PersonId start = world().hub;
  std::vector<Q14Result> self = Query14(world().store, start, start);
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0].path.size(), 1u);
  EXPECT_TRUE(Query14(world().store, start, 999999).empty());
}

// ---- Operator profiles ----------------------------------------------------

// Every complex read runs its plan under spans, so each one yields an
// operator breakdown on a person with friends.
TEST_F(ComplexQueriesTest, EveryQueryProfilesOnTheHub) {
  const GraphStore& store = world().store;
  PersonId hub = world().hub;
  PersonId other = world().adjacency[hub].front();
  util::TimestampMs date = util::kNetworkStartMs + 24 * util::kMillisPerMonth;
  std::vector<bool> all_tags(world().dict->tags().size(), true);
  std::vector<std::function<void()>> queries = {
      [&] { Query1(store, hub, PersonById(other).first_name); },
      [&] { Query2(store, hub, date); },
      [&] {
        Query3(store, hub, world().city_country, 0, 1,
               util::kNetworkStartMs, 365);
      },
      [&] { Query4(store, hub, util::kNetworkStartMs, 365); },
      [&] { Query5(store, hub, util::kNetworkStartMs); },
      [&] { Query6(store, hub, 0); },
      [&] { Query7(store, hub); },
      [&] { Query8(store, hub); },
      [&] { Query9(store, hub, date); },
      [&] { Query10(store, hub, 1); },
      [&] { Query11(store, hub, world().company_country, 0, 2020); },
      [&] { Query12(store, hub, all_tags); },
      [&] { Query13(store, hub, other); },
      [&] { Query14(store, hub, other); },
  };
  for (size_t q = 0; q < queries.size(); ++q) {
    obs::OperatorProfile profile;
    {
      obs::ScopedOperatorProfile profiling(&profile);
      queries[q]();
    }
    EXPECT_FALSE(profile.rows().empty()) << "Q" << q + 1;
    for (const obs::OperatorRow& row : profile.rows()) {
      EXPECT_GE(row.stats.invocations, 1u) << "Q" << q + 1 << " " << row.label;
    }
  }
}

// ---- Helpers ------------------------------------------------------------

TEST_F(ComplexQueriesTest, TwoHopCircleMatchesReference) {
  PersonId start = world().hub;
  auto dist = ReferenceDistances(start, 2);
  std::set<PersonId> expected;
  for (auto& [pid, d] : dist) {
    if (d == 1 || d == 2) expected.insert(pid);
  }
  std::vector<PersonId> circle = TwoHopCircle(world().store, start);
  EXPECT_EQ(std::set<PersonId>(circle.begin(), circle.end()), expected);
}

}  // namespace
}  // namespace snb::queries
