// The 14 complex read-only queries of SNB-Interactive (paper appendix).
//
// Each function implements one query template against the GraphStore via
// one handwritten plan (the same style as the LDBC API reference
// implementations for Neo4j/Sparksee). Every query takes its own read
// snapshot and is safe to run concurrently with updates, and every query
// checks that its start person exists before it sizes or fills a person
// set. Per-query person sets are exec::DenseIdSet bitmaps; the two-hop
// circle of Q3, Q5, Q6, Q9 and Q11 comes from exec::ExpandTwoHop. The
// Figure 4 join-type variants of Q9 live in queries/query9_plans.h and
// serve only the plan-ablation bench and tests.
//
// Every plan body runs under phase-level obs::TraceSpans (obs/trace.h),
// never one per row, so a thread with an obs::OperatorProfile installed
// gets each query's operator breakdown and profiler samples carry the
// operator. One logical operator has one label in every query:
//   join1        person -> direct friends
//   join2        friends -> friends of friends (before deduplication)
//   join3        persons -> their created messages, up to the rows handed
//                to the final ranking
//   sort_limit   the final sort-and-cut (or top-k drain)
// and the rest are query-specific: knows_bfs (Q1, the persons one or two
// hops away), name_probe (Q1, the persons who carry the name and lie
// within three hops), forum_join and post_count (Q5), likes_join (Q7),
// replies_join (Q8), company_filter (Q11), shortest_path (Q13, Q14) and
// path_enum (Q14). A span's rows are the rows it hands to the next
// operator.
#ifndef SNB_QUERIES_COMPLEX_QUERIES_H_
#define SNB_QUERIES_COMPLEX_QUERIES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "schema/ids.h"
#include "store/graph_store.h"
#include "util/datetime.h"

namespace snb::queries {

using store::GraphStore;
using util::TimestampMs;

// ---- Q1: friends with a given name ------------------------------------------

struct Q1Result {
  schema::PersonId person_id = schema::kInvalidId;
  uint32_t distance = 0;  // 1..3 hops from the start person.
  std::string last_name;
  schema::PlaceId city_id = schema::kInvalidId32;
  schema::OrganizationId university_id = schema::kInvalidId32;
  schema::OrganizationId company_id = schema::kInvalidId32;
};

/// Up to 20 persons named `first_name` within 3 Knows-hops of `start`,
/// sorted by (distance, last_name, id). The plan expands two Knows levels
/// from `start` (span knows_bfs), then takes the persons who carry the name
/// from the store's first-name index and places each at distance 1 or 2 by
/// those levels, or at 3 when one of its friends lies within them (span
/// name_probe); the 3-hop ball is never walked.
std::vector<Q1Result> Query1(const GraphStore& store, schema::PersonId start,
                             const std::string& first_name, int limit = 20);

// ---- Q2: recent messages of friends -------------------------------------------

struct Q2Result {
  schema::MessageId message_id = schema::kInvalidId;
  schema::PersonId creator_id = schema::kInvalidId;
  TimestampMs creation_date = 0;
};

/// Top-`limit` most recent messages by direct friends created at or before
/// `max_date`; sorted by (date desc, message id asc). The plan walks each
/// friend's created posts and created comments newest-first from the date
/// cut (a binary search on the inline dates) into a top-`limit` heap and
/// stops a list at the first rejected row older than the heap's worst
/// (span join3, rows pushed), then drains the heap (sort_limit).
std::vector<Q2Result> Query2(const GraphStore& store, schema::PersonId start,
                             TimestampMs max_date, int limit = 20);

// ---- Q3: friends who travelled to countries X and Y ----------------------------

struct Q3Result {
  schema::PersonId person_id = schema::kInvalidId;
  uint32_t count_x = 0;
  uint32_t count_y = 0;
};

/// Friends and friends-of-friends who posted from both foreign countries
/// `country_x` and `country_y` within [start_date, start_date + days);
/// sorted by total count desc. "Foreign" excludes persons living in X or Y;
/// `city_country` maps PlaceId(city) -> PlaceId(country) (from
/// schema::Dictionaries, which the store intentionally does not know).
std::vector<Q3Result> Query3(const GraphStore& store, schema::PersonId start,
                             const std::vector<schema::PlaceId>& city_country,
                             schema::PlaceId country_x,
                             schema::PlaceId country_y,
                             TimestampMs start_date, int duration_days,
                             int limit = 20);

// ---- Q4: new topics -------------------------------------------------------------

struct Q4Result {
  schema::TagId tag = 0;
  uint32_t post_count = 0;
};

/// Tags attached to posts created by friends within the interval, excluding
/// tags those friends already used strictly before it; top 10 by count.
std::vector<Q4Result> Query4(const GraphStore& store, schema::PersonId start,
                             TimestampMs start_date, int duration_days,
                             int limit = 10);

// ---- Q5: new groups --------------------------------------------------------------

struct Q5Result {
  schema::ForumId forum_id = schema::kInvalidId;
  uint32_t post_count = 0;
};

/// Forums that friends or friends-of-friends joined after `min_date`, ranked
/// by the number of posts any of them created in the forum; top 20 by
/// (count desc, forum id asc). The plan binary-searches each circle
/// member's join-date-sorted memberships for its first join after
/// `min_date` and collects the forums from there in a bitmap over forum
/// ids (span forum_join, one row per distinct forum), then counts each
/// forum's posts by circle members in ascending forum id order into a
/// top-k heap (post_count) and drains it (sort_limit).
std::vector<Q5Result> Query5(const GraphStore& store, schema::PersonId start,
                             TimestampMs min_date, int limit = 20);

// ---- Q6: tag co-occurrence ----------------------------------------------------------

struct Q6Result {
  schema::TagId tag = 0;
  uint32_t post_count = 0;
};

/// Tags co-occurring with `tag` on posts created by friends or
/// friends-of-friends; top 10 by count.
std::vector<Q6Result> Query6(const GraphStore& store, schema::PersonId start,
                             schema::TagId tag, int limit = 10);

// ---- Q7: recent likes -----------------------------------------------------------------

struct Q7Result {
  schema::PersonId liker_id = schema::kInvalidId;
  schema::MessageId message_id = schema::kInvalidId;
  TimestampMs like_date = 0;
  /// Minutes between message creation and the like.
  int64_t latency_minutes = 0;
  /// True when the liker is not a direct friend of the start person.
  bool is_outside_friendship = false;
};

/// Most recent likes on any of the start person's messages; top 20 by
/// (like date desc, liker id asc, message id asc). The message id makes
/// the order total: one liker may like two of the messages in the same
/// millisecond.
std::vector<Q7Result> Query7(const GraphStore& store, schema::PersonId start,
                             int limit = 20);

// ---- Q8: most recent replies ------------------------------------------------------------

struct Q8Result {
  schema::MessageId comment_id = schema::kInvalidId;
  schema::PersonId replier_id = schema::kInvalidId;
  TimestampMs creation_date = 0;
};

/// The 20 most recent reply comments to any message of the start person;
/// (date desc, comment id asc). The plan reads the start person's received
/// replies (store::ReplyEdge: comment id, date and replier inline) into a
/// top-k heap (span replies_join), then drains it (sort_limit); it loads
/// no message record.
std::vector<Q8Result> Query8(const GraphStore& store, schema::PersonId start,
                             int limit = 20);

// ---- Q9: latest messages of 2-hop circle ---------------------------------------------------

struct Q9Result {
  schema::MessageId message_id = schema::kInvalidId;
  schema::PersonId creator_id = schema::kInvalidId;
  TimestampMs creation_date = 0;
};

/// Most recent messages created before `max_date` by friends or
/// friends-of-friends; top 20 by (date desc, id asc). The plan expands the
/// circle (spans join1, join2) and runs Query9OverCircle on it (join3,
/// sort_limit).
std::vector<Q9Result> Query9(const GraphStore& store, schema::PersonId start,
                             TimestampMs max_date, int limit = 20);

// ---- Q10: friend recommendation ---------------------------------------------------------------

struct Q10Result {
  schema::PersonId person_id = schema::kInvalidId;
  int32_t similarity = 0;  // Common-interest posts minus others.
};

/// Friends-of-friends (not direct friends) born around the given horoscope
/// month (birthday in [month.21, month+1.22)), ranked by the difference
/// between their posts about the start person's interests and their other
/// posts; top 10.
std::vector<Q10Result> Query10(const GraphStore& store,
                               schema::PersonId start, int horoscope_month,
                               int limit = 10);

// ---- Q11: job referral ---------------------------------------------------------------------------

struct Q11Result {
  schema::PersonId person_id = schema::kInvalidId;
  schema::OrganizationId company_id = schema::kInvalidId32;
  uint16_t work_year = 0;
};

/// Friends or friends-of-friends (excluding start) who work at a company in
/// `country` since before `max_work_year`; sorted by (work year asc, person
/// id asc); top 10. `company_country` maps OrganizationId -> country.
std::vector<Q11Result> Query11(
    const GraphStore& store, schema::PersonId start,
    const std::vector<schema::PlaceId>& company_country,
    schema::PlaceId country, uint16_t max_work_year, int limit = 10);

// ---- Q12: expert search ----------------------------------------------------------------------------

struct Q12Result {
  schema::PersonId person_id = schema::kInvalidId;
  uint32_t reply_count = 0;
};

/// Friends ranked by the number of their comments that reply to posts
/// tagged with a tag of `tag_class` (tag-class membership is supplied via
/// `tag_in_class`, a predicate over TagId); top 20.
std::vector<Q12Result> Query12(
    const GraphStore& store, schema::PersonId start,
    const std::vector<bool>& tag_in_class, int limit = 20);

// ---- Q13: single shortest path -----------------------------------------------------------------------

/// Length of the shortest Knows-path between two persons; -1 when either
/// is absent or they are unreachable, 0 when identical.
int Query13(const GraphStore& store, schema::PersonId person1,
            schema::PersonId person2);

// ---- Q14: weighted shortest paths ----------------------------------------------------------------------

struct Q14Result {
  std::vector<schema::PersonId> path;  // person1 .. person2.
  double weight = 0.0;
};

/// All shortest (by hop count) Knows-paths between two persons, each scored
/// by the message interaction weight of consecutive pairs: every comment
/// replying to the other's post adds 1.0, to the other's comment adds 0.5.
/// At most 1000 paths (the first in depth-first order from person2, parents
/// by ascending id), sorted by (weight desc, path asc). The paths come from
/// the same bidirectional BFS as Q13 (span shortest_path), which also
/// marks the path persons in a bitmap that the DFS tests before it probes
/// their levels. Pair weights come from a lazy sweep (inside path_enum):
/// the first time the DFS weighs a pair, each of its persons not swept yet
/// scans its received replies once and credits every reply from a path
/// person one level away, so each path person is read at most once.
/// Weights are sums of halves, exact in a double.
std::vector<Q14Result> Query14(const GraphStore& store,
                               schema::PersonId person1,
                               schema::PersonId person2);

// ---- Shared helpers (exposed for tests and the plan-ablation bench) ------------

/// Direct friends of `start` (sorted by id).
std::vector<schema::PersonId> FriendIds(const GraphStore& store,
                                        schema::PersonId start);

/// Friends plus friends-of-friends, excluding `start` itself (sorted).
std::vector<schema::PersonId> TwoHopCircle(const GraphStore& store,
                                           schema::PersonId start);

/// Q9 after the circle expansion: each member's created posts and created
/// comments before `max_date` (a binary search on the inline date column,
/// no record loads) go newest-first into a top-`limit` heap (span join3,
/// rows pushed), which is then drained (span sort_limit). A list's walk
/// stops at the first row the heap rejects that is older than the heap's
/// worst row: every later row of that list is older still. A rejected row
/// of the worst row's date does not stop it, because a smaller id of that
/// date still ranks better. Under the total order (date desc, id asc) the
/// heap returns exactly what sort-then-cut would, for any member order.
/// Query9Recycled runs it on a recycled circle.
std::vector<Q9Result> Query9OverCircle(
    const GraphStore& store, const store::ReadGuard& pin,
    const std::vector<schema::PersonId>& circle, TimestampMs max_date,
    int limit);

}  // namespace snb::queries

#endif  // SNB_QUERIES_COMPLEX_QUERIES_H_
