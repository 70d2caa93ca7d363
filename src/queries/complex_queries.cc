#include "queries/complex_queries.h"

#include <algorithm>
#include <array>
#include <span>

#include "exec/dense_id_set.h"
#include "exec/hash_join.h"
#include "exec/operators.h"
#include "obs/trace.h"

namespace snb::queries {
namespace {

using schema::MessageKind;
using schema::PersonId;
using store::DatedEdge;
using store::FriendEdge;
using store::MessageEdge;
using store::MessageRecord;
using store::PersonRecord;

using MessageEdges = util::RcuVector<MessageEdge>::View;

/// Direct friends of `start`, ascending (span join1).
std::vector<PersonId> FriendIdsLocked(const GraphStore& store,
                                      const store::ReadGuard& pin,
                                      PersonId start) {
  std::vector<PersonId> out;
  const PersonRecord* p = store.FindPerson(pin, start);
  if (p == nullptr) return out;
  obs::TraceSpan span("join1");
  auto friends = p->friends.view();
  out.reserve(friends.size());
  for (const FriendEdge& e : friends) out.push_back(e.other);
  span.AddRows(out.size());
  return out;  // friends are sorted by id already.
}

/// The two-hop circle of `start`, ascending (exec::ExpandTwoHop).
std::vector<PersonId> CircleOf(const GraphStore& store,
                               const store::ReadGuard& pin,
                               PersonId start) {
  std::vector<PersonId> circle;
  exec::ExpandTwoHop(store, pin, start, &circle);
  return circle;
}

/// A person's created posts and created comments, each sorted by
/// (creation date, id).
std::array<MessageEdges, 2> CreatedLists(const PersonRecord& p) {
  return {p.posts.view(), p.comments.view()};
}

/// Index of the first created-message edge with creation date > max_date.
/// Dates ride inline in the adjacency entry (ascending), so the binary
/// search touches no message records.
size_t UpperBoundByDate(const MessageEdges& messages, TimestampMs max_date) {
  auto it = std::partition_point(
      messages.begin(), messages.end(),
      [&](const MessageEdge& e) { return e.date <= max_date; });
  return static_cast<size_t>(it - messages.begin());
}

/// Index of the first created-message edge with creation date >= min_date.
size_t LowerBoundByDate(const MessageEdges& messages, TimestampMs min_date) {
  auto it = std::partition_point(
      messages.begin(), messages.end(),
      [&](const MessageEdge& e) { return e.date < min_date; });
  return static_cast<size_t>(it - messages.begin());
}

/// Pushes the edges [0, end) of one (date, id)-sorted created-message list
/// into `top`, newest first, as the rows `row(edge)`; returns how many it
/// pushed. Rows rank by (date desc, id asc), so within one date a later
/// (smaller) id ranks better: a rejected row ends the walk only when it is
/// older than the worst kept row, because every edge after it is older
/// still. An empty sink that rejects a row has k = 0 and takes nothing.
template <typename Sink, typename MakeRow>
size_t PushNewest(const MessageEdges& edges, size_t end, Sink& top,
                  MakeRow row) {
  size_t pushed = 0;
  for (size_t i = end; i-- > 0;) {
    ++pushed;
    if (top.Push(row(edges[i]))) continue;
    if (top.size() == 0 || edges[i].date < top.worst().creation_date) break;
  }
  return pushed;
}

/// A plan's final sort-and-cut (span sort_limit): `rows` ordered by `less`,
/// first `limit` kept.
template <typename Row, typename Less>
std::vector<Row> SortLimit(std::vector<Row> rows, int limit, Less less) {
  obs::TraceSpan span("sort_limit");
  std::sort(rows.begin(), rows.end(), less);
  if (static_cast<int>(rows.size()) > limit) rows.resize(limit);
  span.AddRows(rows.size());
  return rows;
}

}  // namespace

std::vector<PersonId> FriendIds(const GraphStore& store, PersonId start) {
  auto pin = store.ReadLock();
  return FriendIdsLocked(store, pin, start);
}

std::vector<PersonId> TwoHopCircle(const GraphStore& store, PersonId start) {
  auto pin = store.ReadLock();
  return CircleOf(store, pin, start);
}

// ---- Q1 -----------------------------------------------------------------------

std::vector<Q1Result> Query1(const GraphStore& store, PersonId start,
                             const std::string& first_name, int limit) {
  auto pin = store.ReadLock();
  std::vector<Q1Result> results;
  const PersonRecord* root = store.FindPerson(pin, start);
  if (root == nullptr) return results;

  // Persons within one hop and within two hops, the start person in both.
  // Friend lists are symmetric, so a person outside two hops is at
  // distance 3 exactly when one of its friends is inside.
  const schema::PersonId bound = store.PersonIdBound();
  exec::DenseIdSet one_hop(bound);
  exec::DenseIdSet two_hops(bound);
  {
    obs::TraceSpan span("knows_bfs");
    one_hop.Insert(start);
    two_hops.Insert(start);
    auto friends = root->friends.view();
    for (const FriendEdge& e : friends) {
      one_hop.Insert(e.other);
      two_hops.Insert(e.other);
    }
    for (const FriendEdge& e : friends) {
      const PersonRecord* f = store.FindPerson(pin, e.other);
      if (f == nullptr) continue;
      for (const FriendEdge& g : f->friends.view()) two_hops.Insert(g.other);
    }
    span.AddRows(two_hops.size() - 1);  // The start person is no row.
  }
  {
    // The persons who carry the name, placed by the two sets.
    obs::TraceSpan span("name_probe");
    for (PersonId pid : store.PersonsByFirstName(pin, first_name)) {
      if (pid == start) continue;
      const PersonRecord* p = store.FindPerson(pin, pid);
      if (p == nullptr || p->data.first_name != first_name) continue;
      uint32_t distance = 3;
      if (one_hop.Contains(pid)) {
        distance = 1;
      } else if (two_hops.Contains(pid)) {
        distance = 2;
      } else {
        auto friends = p->friends.view();
        if (std::none_of(friends.begin(), friends.end(),
                         [&](const FriendEdge& e) {
                           return two_hops.Contains(e.other);
                         })) {
          continue;
        }
      }
      Q1Result r;
      r.person_id = pid;
      r.distance = distance;
      r.last_name = p->data.last_name;
      r.city_id = p->data.city_id;
      r.university_id = p->data.university_id;
      r.company_id = p->data.company_id;
      results.push_back(std::move(r));
    }
    span.AddRows(results.size());
  }
  return SortLimit(std::move(results), limit,
                   [](const Q1Result& a, const Q1Result& b) {
                     if (a.distance != b.distance) {
                       return a.distance < b.distance;
                     }
                     if (a.last_name != b.last_name) {
                       return a.last_name < b.last_name;
                     }
                     return a.person_id < b.person_id;
                   });
}

// ---- Q2 -----------------------------------------------------------------------

std::vector<Q2Result> Query2(const GraphStore& store, PersonId start,
                             TimestampMs max_date, int limit) {
  auto pin = store.ReadLock();
  std::vector<PersonId> friends = FriendIdsLocked(store, pin, start);
  // The message id breaks date ties, so the top-k heap keeps exactly the
  // rows a full sort would, in the same order.
  auto less = [](const Q2Result& a, const Q2Result& b) {
    if (a.creation_date != b.creation_date) {
      return a.creation_date > b.creation_date;
    }
    return a.message_id < b.message_id;
  };
  exec::TopK<Q2Result, decltype(less)> top(static_cast<size_t>(limit), less);
  {
    obs::TraceSpan span("join3");
    for (PersonId fid : friends) {
      const PersonRecord* f = store.FindPerson(pin, fid);
      if (f == nullptr) continue;
      for (const MessageEdges& messages : CreatedLists(*f)) {
        span.AddRows(PushNewest(messages, UpperBoundByDate(messages, max_date),
                                top, [&](const MessageEdge& e) {
                                  return Q2Result{e.id, fid, e.date};
                                }));
      }
    }
  }
  obs::TraceSpan span("sort_limit");
  std::vector<Q2Result> out = top.Drain();
  span.AddRows(out.size());
  return out;
}

// ---- Q3 -----------------------------------------------------------------------

std::vector<Q3Result> Query3(const GraphStore& store, PersonId start,
                             const std::vector<schema::PlaceId>& city_country,
                             schema::PlaceId country_x,
                             schema::PlaceId country_y,
                             TimestampMs start_date, int duration_days,
                             int limit) {
  auto pin = store.ReadLock();
  TimestampMs end_date = start_date + duration_days * util::kMillisPerDay;
  std::vector<PersonId> circle = CircleOf(store, pin, start);
  std::vector<Q3Result> results;
  {
    obs::TraceSpan span("join3");
    for (PersonId pid : circle) {
      const PersonRecord* p = store.FindPerson(pin, pid);
      if (p == nullptr) continue;
      // Residents of X or Y are excluded: posting from home is not travel.
      if (p->data.city_id < city_country.size()) {
        schema::PlaceId home = city_country[p->data.city_id];
        if (home == country_x || home == country_y) continue;
      }
      // Countries ride inline in the date-ordered edges: no record loads.
      // Each list is searched once, for the window's first edge, and
      // scanned forward to the window's end.
      uint32_t count_x = 0, count_y = 0;
      for (const MessageEdges& messages : CreatedLists(*p)) {
        for (size_t i = LowerBoundByDate(messages, start_date);
             i < messages.size() && messages[i].date < end_date; ++i) {
          if (messages[i].country == country_x) {
            ++count_x;
          } else if (messages[i].country == country_y) {
            ++count_y;
          }
        }
      }
      if (count_x > 0 && count_y > 0) {
        results.push_back({pid, count_x, count_y});
      }
    }
    span.AddRows(results.size());
  }
  return SortLimit(std::move(results), limit,
                   [](const Q3Result& a, const Q3Result& b) {
                     uint64_t ta = a.count_x + a.count_y;
                     uint64_t tb = b.count_x + b.count_y;
                     if (ta != tb) return ta > tb;
                     return a.person_id < b.person_id;
                   });
}

// ---- Q4 -----------------------------------------------------------------------

std::vector<Q4Result> Query4(const GraphStore& store, PersonId start,
                             TimestampMs start_date, int duration_days,
                             int limit) {
  auto pin = store.ReadLock();
  TimestampMs end_date = start_date + duration_days * util::kMillisPerDay;
  std::vector<PersonId> friends = FriendIdsLocked(store, pin, start);
  std::vector<Q4Result> results;
  {
    obs::TraceSpan span("join3");
    exec::HashMap64 in_window;      // Tag -> posts in the window.
    exec::HashMap64 before_window;  // Tags of earlier posts (values unused).
    for (PersonId fid : friends) {
      const PersonRecord* f = store.FindPerson(pin, fid);
      if (f == nullptr) continue;
      store::CreatedMessages posts = f->created_posts();
      for (const MessageEdge& e : posts) {
        if (e.date >= end_date) break;  // Ascending dates.
        if (e.date < start_date) {
          for (schema::TagId t : posts.tags(e)) before_window.Insert(t, 0);
        } else {
          for (schema::TagId t : posts.tags(e)) ++in_window.At(t);
        }
      }
    }
    in_window.ForEach([&](uint64_t tag, uint64_t count) {
      if (before_window.Find(tag) == nullptr) {
        results.push_back({static_cast<schema::TagId>(tag),
                           static_cast<uint32_t>(count)});
      }
    });
    span.AddRows(results.size());
  }
  return SortLimit(std::move(results), limit,
                   [](const Q4Result& a, const Q4Result& b) {
                     if (a.post_count != b.post_count) {
                       return a.post_count > b.post_count;
                     }
                     return a.tag < b.tag;
                   });
}

// ---- Q5 -----------------------------------------------------------------------

std::vector<Q5Result> Query5(const GraphStore& store, PersonId start,
                             TimestampMs min_date, int limit) {
  auto pin = store.ReadLock();
  std::vector<PersonId> circle;
  exec::DenseIdSet members(store.PersonIdBound());
  exec::ExpandTwoHop(store, pin, start, &circle, &members);

  // Forums joined by circle members after min_date. Memberships are
  // sorted by join date, so each member's walk starts at its first join
  // past the cut; the bitmap deduplicates and yields ascending forum ids.
  exec::DenseIdSet forums(store.ForumIdBound());
  {
    obs::TraceSpan span("forum_join");
    for (PersonId pid : circle) {
      const PersonRecord* p = store.FindPerson(pin, pid);
      if (p == nullptr) continue;
      auto memberships = p->forums.view();
      auto joined = std::partition_point(
          memberships.begin(), memberships.end(),
          [&](const DatedEdge& m) { return m.date <= min_date; });
      for (; joined != memberships.end(); ++joined) forums.Insert(joined->id);
    }
    span.AddRows(forums.size());
  }

  // Rank by posts in the forum created by circle members. The comparator
  // is a total order (forum ids are distinct), so the top-k heap keeps
  // exactly the rows a full sort would, in the same order.
  auto less = [](const Q5Result& a, const Q5Result& b) {
    if (a.post_count != b.post_count) return a.post_count > b.post_count;
    return a.forum_id < b.forum_id;
  };
  exec::TopK<Q5Result, decltype(less)> top(static_cast<size_t>(limit), less);
  {
    obs::TraceSpan span("post_count");
    forums.ForEach([&](schema::ForumId fid) {
      const store::ForumRecord* forum = store.FindForum(pin, fid);
      if (forum == nullptr) return;
      uint32_t count = 0;
      for (const store::PostEdge& post : forum->posts.view()) {
        if (members.Contains(post.creator)) ++count;  // Inline creator.
      }
      top.Push({fid, count});
      span.AddRows(1);
    });
  }
  obs::TraceSpan span("sort_limit");
  std::vector<Q5Result> out = top.Drain();
  span.AddRows(out.size());
  return out;
}

// ---- Q6 -----------------------------------------------------------------------

std::vector<Q6Result> Query6(const GraphStore& store, PersonId start,
                             schema::TagId tag, int limit) {
  auto pin = store.ReadLock();
  std::vector<PersonId> circle = CircleOf(store, pin, start);
  std::vector<Q6Result> results;
  {
    obs::TraceSpan span("join3");
    exec::HashMap64 co_counts;  // Co-occurring tag -> posts.
    for (PersonId pid : circle) {
      const PersonRecord* p = store.FindPerson(pin, pid);
      if (p == nullptr) continue;
      store::CreatedMessages posts = p->created_posts();
      for (const MessageEdge& e : posts) {
        std::span<const schema::TagId> tags = posts.tags(e);
        if (std::find(tags.begin(), tags.end(), tag) == tags.end()) continue;
        for (schema::TagId t : tags) {
          if (t != tag) ++co_counts.At(t);
        }
      }
    }
    results.reserve(co_counts.size());
    co_counts.ForEach([&](uint64_t t, uint64_t c) {
      results.push_back(
          {static_cast<schema::TagId>(t), static_cast<uint32_t>(c)});
    });
    span.AddRows(results.size());
  }
  return SortLimit(std::move(results), limit,
                   [](const Q6Result& a, const Q6Result& b) {
                     if (a.post_count != b.post_count) {
                       return a.post_count > b.post_count;
                     }
                     return a.tag < b.tag;
                   });
}

// ---- Q7 -----------------------------------------------------------------------

std::vector<Q7Result> Query7(const GraphStore& store, PersonId start,
                             int limit) {
  auto pin = store.ReadLock();
  std::vector<Q7Result> likes;
  const PersonRecord* p = store.FindPerson(pin, start);
  if (p == nullptr) return likes;
  {
    obs::TraceSpan span("likes_join");
    for (const MessageEdges& messages : CreatedLists(*p)) {
      for (const MessageEdge& e : messages) {
        const MessageRecord* m = store.FindMessage(pin, e.id);
        if (m == nullptr) continue;
        for (const DatedEdge& like : m->likes.view()) {
          Q7Result r;
          r.liker_id = like.id;
          r.message_id = e.id;
          r.like_date = like.date;
          r.latency_minutes =
              (like.date - m->data.creation_date) / util::kMillisPerMinute;
          r.is_outside_friendship = !store.AreFriends(pin, start, like.id);
          likes.push_back(r);
        }
      }
    }
    span.AddRows(likes.size());
  }
  // One liker may like two of the messages in the same millisecond, so the
  // message id ends the key: the order is total, whatever order the lists
  // are read in.
  return SortLimit(std::move(likes), limit,
                   [](const Q7Result& a, const Q7Result& b) {
                     if (a.like_date != b.like_date) {
                       return a.like_date > b.like_date;
                     }
                     if (a.liker_id != b.liker_id) {
                       return a.liker_id < b.liker_id;
                     }
                     return a.message_id < b.message_id;
                   });
}

// ---- Q8 -----------------------------------------------------------------------

std::vector<Q8Result> Query8(const GraphStore& store, PersonId start,
                             int limit) {
  auto pin = store.ReadLock();
  const PersonRecord* p = store.FindPerson(pin, start);
  if (p == nullptr) return {};
  // The comment id breaks date ties, so the top-k heap keeps exactly the
  // rows a full sort would, in the same order.
  auto less = [](const Q8Result& a, const Q8Result& b) {
    if (a.creation_date != b.creation_date) {
      return a.creation_date > b.creation_date;
    }
    return a.comment_id < b.comment_id;
  };
  exec::TopK<Q8Result, decltype(less)> top(static_cast<size_t>(limit), less);
  {
    obs::TraceSpan span("replies_join");
    auto replies = p->replies_received.view();
    for (const store::ReplyEdge& r : replies) {
      top.Push({r.id, r.replier, r.date});  // Inline facts: no record loads.
    }
    span.AddRows(replies.size());
  }
  obs::TraceSpan span("sort_limit");
  std::vector<Q8Result> out = top.Drain();
  span.AddRows(out.size());
  return out;
}

// ---- Q9 -----------------------------------------------------------------------

std::vector<Q9Result> Query9(const GraphStore& store, PersonId start,
                             TimestampMs max_date, int limit) {
  auto pin = store.ReadLock();
  std::vector<PersonId> circle = CircleOf(store, pin, start);
  return Query9OverCircle(store, pin, circle, max_date, limit);
}

std::vector<Q9Result> Query9OverCircle(const GraphStore& store,
                                       const store::ReadGuard& pin,
                                       const std::vector<PersonId>& circle,
                                       TimestampMs max_date, int limit) {
  auto less = [](const Q9Result& a, const Q9Result& b) {
    if (a.creation_date != b.creation_date) {
      return a.creation_date > b.creation_date;
    }
    return a.message_id < b.message_id;
  };
  exec::TopK<Q9Result, decltype(less)> top(static_cast<size_t>(limit), less);
  {
    obs::TraceSpan span("join3");
    for (PersonId pid : circle) {
      const PersonRecord* p = store.FindPerson(pin, pid);
      if (p == nullptr) continue;
      // Edges [0, upper) predate max_date; push them newest first until
      // the heap rejects one older than its worst row.
      for (const MessageEdges& messages : CreatedLists(*p)) {
        span.AddRows(PushNewest(messages, LowerBoundByDate(messages, max_date),
                                top, [&](const MessageEdge& e) {
                                  return Q9Result{e.id, pid, e.date};
                                }));
      }
    }
  }
  obs::TraceSpan span("sort_limit");
  std::vector<Q9Result> out = top.Drain();
  span.AddRows(out.size());
  return out;
}

// ---- Q10 ----------------------------------------------------------------------

std::vector<Q10Result> Query10(const GraphStore& store, PersonId start,
                               int horoscope_month, int limit) {
  auto pin = store.ReadLock();
  std::vector<Q10Result> results;
  const PersonRecord* root = store.FindPerson(pin, start);
  if (root == nullptr) return results;
  // Tag ids are dense dictionary ids, so the interests fit a small bitmap.
  exec::DenseIdSet interests;
  for (schema::TagId t : root->data.interests) interests.Insert(t);
  auto root_friends = root->friends.view();
  const uint64_t bound = store.PersonIdBound();
  exec::DenseIdSet direct(bound);
  {
    obs::TraceSpan span("join1");
    direct.Insert(start);
    for (const FriendEdge& e : root_friends) direct.Insert(e.other);
    span.AddRows(root_friends.size());
  }

  exec::DenseIdSet fof(bound);
  {
    obs::TraceSpan span("join2");
    for (const FriendEdge& e : root_friends) {
      const PersonRecord* f = store.FindPerson(pin, e.other);
      if (f == nullptr) continue;
      auto friends = f->friends.view();
      for (const FriendEdge& e2 : friends) {
        if (!direct.Contains(e2.other)) fof.Insert(e2.other);
      }
      span.AddRows(friends.size());
    }
  }

  {
    obs::TraceSpan span("join3");
    const int next_month = horoscope_month % 12 + 1;
    fof.ForEach([&](PersonId pid) {
      const PersonRecord* p = store.FindPerson(pin, pid);
      if (p == nullptr) return;
      int month = 0, day = 0;
      util::MonthDayOf(p->data.birthday, &month, &day);
      bool sign_match = (month == horoscope_month && day >= 21) ||
                        (month == next_month && day < 22);
      if (!sign_match) return;
      int32_t common = 0, other = 0;
      store::CreatedMessages posts = p->created_posts();
      for (const MessageEdge& e : posts) {
        std::span<const schema::TagId> tags = posts.tags(e);
        bool about_interest =
            std::any_of(tags.begin(), tags.end(), [&](schema::TagId t) {
              return interests.Contains(t);
            });
        if (about_interest) {
          ++common;
        } else {
          ++other;
        }
      }
      results.push_back({pid, common - other});
    });
    span.AddRows(results.size());
  }
  return SortLimit(std::move(results), limit,
                   [](const Q10Result& a, const Q10Result& b) {
                     if (a.similarity != b.similarity) {
                       return a.similarity > b.similarity;
                     }
                     return a.person_id < b.person_id;
                   });
}

// ---- Q11 ----------------------------------------------------------------------

std::vector<Q11Result> Query11(const GraphStore& store, PersonId start,
                               const std::vector<schema::PlaceId>&
                                   company_country,
                               schema::PlaceId country,
                               uint16_t max_work_year, int limit) {
  auto pin = store.ReadLock();
  std::vector<PersonId> circle = CircleOf(store, pin, start);
  std::vector<Q11Result> results;
  {
    obs::TraceSpan span("company_filter");
    for (PersonId pid : circle) {
      const PersonRecord* p = store.FindPerson(pin, pid);
      if (p == nullptr) continue;
      schema::OrganizationId company = p->data.company_id;
      if (company == schema::kInvalidId32) continue;
      if (company >= company_country.size()) continue;
      if (company_country[company] != country) continue;
      if (p->data.work_year >= max_work_year) continue;
      results.push_back({pid, company, p->data.work_year});
    }
    span.AddRows(results.size());
  }
  return SortLimit(std::move(results), limit,
                   [](const Q11Result& a, const Q11Result& b) {
                     if (a.work_year != b.work_year) {
                       return a.work_year < b.work_year;
                     }
                     return a.person_id < b.person_id;
                   });
}

// ---- Q12 ----------------------------------------------------------------------

std::vector<Q12Result> Query12(const GraphStore& store, PersonId start,
                               const std::vector<bool>& tag_in_class,
                               int limit) {
  auto pin = store.ReadLock();
  std::vector<PersonId> friends = FriendIdsLocked(store, pin, start);
  std::vector<Q12Result> results;
  {
    obs::TraceSpan span("join3");
    for (PersonId fid : friends) {
      const PersonRecord* f = store.FindPerson(pin, fid);
      if (f == nullptr) continue;
      uint32_t count = 0;
      store::CreatedMessages comments = f->created_comments();
      for (const MessageEdge& e : comments) {
        // Only replies to posts (or photos) count; the parent's kind rides
        // inline, and such a reply's span holds the replied-to post's tags.
        if (e.parent_kind == MessageKind::kComment) continue;
        for (schema::TagId t : comments.tags(e)) {
          if (t < tag_in_class.size() && tag_in_class[t]) {
            ++count;
            break;
          }
        }
      }
      if (count > 0) results.push_back({fid, count});
    }
    span.AddRows(results.size());
  }
  return SortLimit(std::move(results), limit,
                   [](const Q12Result& a, const Q12Result& b) {
                     if (a.reply_count != b.reply_count) {
                       return a.reply_count > b.reply_count;
                     }
                     return a.person_id < b.person_id;
                   });
}

// ---- Q13, Q14: shortest paths -------------------------------------------------

namespace {

using FriendEdges = util::RcuVector<FriendEdge>::View;

/// Q14 enumerates at most this many shortest paths (in DFS order).
constexpr size_t kMaxPaths = 1000;

/// A person's entry in the shortest-path level table: a dense slot (its
/// insertion rank, which keys the pair-weight table) above its hop distance
/// from person1.
uint64_t PackLevel(uint64_t slot, uint64_t level) { return slot << 32 | level; }
uint64_t SlotOf(uint64_t entry) { return entry >> 32; }
uint64_t LevelOf(uint64_t entry) { return entry & 0xffffffffu; }

/// The pair-weight table key of two slots, the same in either order.
uint64_t PairKey(uint64_t slot_a, uint64_t slot_b) {
  return std::min(slot_a, slot_b) << 32 | std::max(slot_a, slot_b);
}

/// Hop distance between two distinct present persons, or -1 when they are
/// not connected, by a layered bidirectional BFS. Each side keeps one
/// DenseIdSet of the persons it has reached and a list of its layers
/// (layer d = persons first reached at depth d). Each round expands the
/// whole smaller frontier; the first round that reaches persons the other
/// side has already seen fixes the distance, and those persons are exactly
/// the shortest-path persons at that depth. When `levels` is non-null it
/// then receives every person on a shortest path, keyed to PackLevel(slot,
/// distance from person1), and `on_path` the same persons as a bitmap:
/// walking out of the meeting layer toward either endpoint, a friend in
/// that side's previous layer (tested on a bitmap of the layer) is on a
/// shortest path too.
int ShortestPathLevels(const GraphStore& store,
                       const store::ReadGuard& pin, PersonId person1,
                       PersonId person2, exec::HashMap64* levels,
                       exec::DenseIdSet* on_path) {
  obs::TraceSpan span("shortest_path");
  // Side 0 searches from person1, side 1 from person2.
  const uint64_t bound = store.PersonIdBound();
  exec::DenseIdSet seen[2] = {exec::DenseIdSet(bound),
                              exec::DenseIdSet(bound)};
  std::vector<std::vector<PersonId>> layers[2];
  for (int side : {0, 1}) {
    PersonId endpoint = side == 0 ? person1 : person2;
    seen[side].Insert(endpoint);
    layers[side].push_back({endpoint});
  }
  std::vector<PersonId> meet;
  while (meet.empty()) {
    if (layers[0].back().empty() || layers[1].back().empty()) return -1;
    int side = layers[0].back().size() <= layers[1].back().size() ? 0 : 1;
    std::vector<PersonId> next;
    for (PersonId pid : layers[side].back()) {
      const PersonRecord* p = store.FindPerson(pin, pid);
      if (p == nullptr) continue;
      for (const FriendEdge& e : p->friends.view()) {
        if (!seen[side].Insert(e.other)) continue;
        next.push_back(e.other);
        if (seen[1 - side].Contains(e.other)) meet.push_back(e.other);
      }
    }
    layers[side].push_back(std::move(next));
  }
  const uint64_t reached[2] = {layers[0].size() - 1, layers[1].size() - 1};
  const uint64_t distance = reached[0] + reached[1];
  if (levels == nullptr) return static_cast<int>(distance);

  auto place = [&](PersonId pid, uint64_t level) {
    if (!levels->Insert(pid, PackLevel(levels->size(), level))) return false;
    on_path->Insert(pid);
    return true;
  };
  for (PersonId pid : meet) place(pid, reached[0]);
  exec::DenseIdSet previous(bound);
  std::vector<PersonId> next;
  for (int side : {0, 1}) {
    std::vector<PersonId> layer = meet;
    for (uint64_t d = reached[side]; d > 0; --d) {
      const std::vector<PersonId>& closer = layers[side][d - 1];
      for (PersonId pid : closer) previous.Insert(pid);
      uint64_t level = side == 0 ? d - 1 : distance - (d - 1);
      next.clear();
      for (PersonId pid : layer) {
        const PersonRecord* p = store.FindPerson(pin, pid);
        if (p == nullptr) continue;
        for (const FriendEdge& e : p->friends.view()) {
          if (previous.Contains(e.other) && place(e.other, level)) {
            next.push_back(e.other);
          }
        }
      }
      for (PersonId pid : closer) previous.Erase(pid);
      layer.swap(next);
    }
  }
  return static_cast<int>(distance);
}

}  // namespace

int Query13(const GraphStore& store, PersonId person1, PersonId person2) {
  auto pin = store.ReadLock();
  if (store.FindPerson(pin, person1) == nullptr ||
      store.FindPerson(pin, person2) == nullptr) {
    return -1;
  }
  if (person1 == person2) return 0;
  return ShortestPathLevels(store, pin, person1, person2, nullptr, nullptr);
}

std::vector<Q14Result> Query14(const GraphStore& store, PersonId person1,
                               PersonId person2) {
  auto pin = store.ReadLock();
  std::vector<Q14Result> results;
  if (store.FindPerson(pin, person1) == nullptr ||
      store.FindPerson(pin, person2) == nullptr) {
    return results;
  }
  if (person1 == person2) {
    results.push_back({{person1}, 0.0});
    return results;
  }
  exec::HashMap64 levels;
  exec::DenseIdSet on_path(store.PersonIdBound());
  if (ShortestPathLevels(store, pin, person1, person2, &levels, &on_path) <
      0) {
    return results;
  }
  const uint64_t* top = levels.Find(person2);
  if (top == nullptr) return results;

  // Iterative DFS backwards from person2. A person's parents are its
  // friends one level closer to person1, taken in friend-list (ascending
  // id) order, so paths come out in the same order as from a parent DAG
  // with sorted parent lists, and the kMaxPaths cut lands on the same
  // paths. Each frame keeps the friends view it took when pushed: a
  // concurrent insert publishes a shifted copy, so indexing a fresh view
  // could skip or repeat a parent.
  struct Frame {
    PersonId node;
    uint64_t entry;
    FriendEdges friends;
    size_t next;
  };
  auto frame_of = [&](PersonId id, uint64_t entry) {
    const PersonRecord* p = store.FindPerson(pin, id);
    return Frame{id, entry, p == nullptr ? FriendEdges() : p->friends.view(),
                 0};
  };
  // Pair weights in half units (a reply to a comment weighs 0.5, to a post
  // or photo 1.0), keyed by the two slots. Every reply sits in the received
  // list of the person it answers, so the first time a pair is needed each
  // of its persons not yet swept scans that list once and credits every
  // reply from a path person one level away: the pair's total is complete
  // once both are swept. Halves are exact in a double, so a pair's weight
  // does not depend on the order its replies are credited in.
  exec::HashMap64 pair_halves;
  exec::DenseIdSet swept;  // Slots.
  auto sweep = [&](const Frame& f) {
    if (!swept.Insert(SlotOf(f.entry))) return;
    const PersonRecord* p = store.FindPerson(pin, f.node);
    if (p == nullptr) return;
    for (const store::ReplyEdge& r : p->replies_received.view()) {
      if (!on_path.Contains(r.replier)) continue;
      const uint64_t entry = *levels.Find(r.replier);
      if (LevelOf(entry) + 1 != LevelOf(f.entry) &&
          LevelOf(f.entry) + 1 != LevelOf(entry)) {
        continue;
      }
      pair_halves.At(PairKey(SlotOf(entry), SlotOf(f.entry))) +=
          r.parent_kind == MessageKind::kComment ? 1 : 2;
    }
  };
  auto weight = [&](const Frame& a, const Frame& b) {
    sweep(a);
    sweep(b);
    const uint64_t* halves =
        pair_halves.Find(PairKey(SlotOf(a.entry), SlotOf(b.entry)));
    return halves == nullptr ? 0.0 : 0.5 * static_cast<double>(*halves);
  };
  {
    obs::TraceSpan span("path_enum");
    std::vector<Frame> stack{frame_of(person2, *top)};
    while (!stack.empty() && results.size() < kMaxPaths) {
      Frame& frame = stack.back();
      if (frame.node == person1) {
        Q14Result r;
        r.path.reserve(stack.size());
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          if (it != stack.rbegin()) r.weight += weight(*(it - 1), *it);
          r.path.push_back(it->node);
        }
        results.push_back(std::move(r));
        stack.pop_back();
        continue;
      }
      const uint64_t* parent = nullptr;
      PersonId parent_id = 0;
      while (parent == nullptr && frame.next < frame.friends.size()) {
        parent_id = frame.friends[frame.next++].other;
        if (!on_path.Contains(parent_id)) continue;
        parent = levels.Find(parent_id);
        if (LevelOf(*parent) + 1 != LevelOf(frame.entry)) parent = nullptr;
      }
      if (parent == nullptr) {
        stack.pop_back();
      } else {
        stack.push_back(frame_of(parent_id, *parent));
      }
    }
    span.AddRows(results.size());
  }
  return SortLimit(std::move(results), static_cast<int>(kMaxPaths),
                   [](const Q14Result& a, const Q14Result& b) {
                     if (a.weight != b.weight) return a.weight > b.weight;
                     return a.path < b.path;
                   });
}

}  // namespace snb::queries
