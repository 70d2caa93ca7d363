#include "validate/oracle.h"

#include <algorithm>
#include <ctime>
#include <deque>
#include <unordered_map>
#include <unordered_set>

namespace snb::validate {
namespace {

using queries::Q10Result;
using queries::Q11Result;
using queries::Q12Result;
using queries::Q14Result;
using queries::Q1Result;
using queries::Q2Result;
using queries::Q3Result;
using queries::Q4Result;
using queries::Q5Result;
using queries::Q6Result;
using queries::Q7Result;
using queries::Q8Result;
using queries::Q9Result;
using schema::Message;
using schema::MessageKind;
using schema::Person;
using schema::PersonId;
using util::TimestampMs;

/// Month (1-12) and day (1-31) of a timestamp, UTC — same rendering the
/// store-side Q10 uses.
void MonthDayOf(TimestampMs ts, int* month, int* day) {
  std::time_t secs = static_cast<std::time_t>(ts / util::kMillisPerSecond);
  std::tm tm_utc{};
  gmtime_r(&secs, &tm_utc);
  *month = tm_utc.tm_mon + 1;
  *day = tm_utc.tm_mday;
}

bool ByDateThenId(const Message* a, const Message* b) {
  if (a->creation_date != b->creation_date) {
    return a->creation_date < b->creation_date;
  }
  return a->id < b->id;
}

}  // namespace

const Person* Oracle::FindPerson(PersonId id) const {
  for (const Person& p : net_.persons) {
    if (p.id == id) return &p;
  }
  return nullptr;
}

const Message* Oracle::FindMessage(schema::MessageId id) const {
  for (const Message& m : net_.messages) {
    if (m.id == id) return &m;
  }
  return nullptr;
}

const schema::Forum* Oracle::FindForum(schema::ForumId id) const {
  for (const schema::Forum& f : net_.forums) {
    if (f.id == id) return &f;
  }
  return nullptr;
}

std::vector<PersonId> Oracle::FriendIds(PersonId person) const {
  std::vector<PersonId> out;
  for (const schema::Knows& k : net_.knows) {
    if (k.person1_id == person) out.push_back(k.person2_id);
    if (k.person2_id == person) out.push_back(k.person1_id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PersonId> Oracle::TwoHopCircle(PersonId person) const {
  if (FindPerson(person) == nullptr) return {};
  std::unordered_set<PersonId> seen;
  seen.insert(person);
  std::vector<PersonId> out;
  std::vector<PersonId> direct = FriendIds(person);
  for (PersonId f : direct) {
    if (seen.insert(f).second) out.push_back(f);
  }
  for (PersonId f : direct) {
    for (PersonId ff : FriendIds(f)) {
      if (seen.insert(ff).second) out.push_back(ff);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool Oracle::AreFriends(PersonId a, PersonId b) const {
  for (const schema::Knows& k : net_.knows) {
    if ((k.person1_id == a && k.person2_id == b) ||
        (k.person1_id == b && k.person2_id == a)) {
      return true;
    }
  }
  return false;
}

std::vector<const Message*> Oracle::MessagesOf(PersonId person) const {
  std::vector<const Message*> out;
  for (const Message& m : net_.messages) {
    if (m.creator_id == person) out.push_back(&m);
  }
  std::sort(out.begin(), out.end(), ByDateThenId);
  return out;
}

// ---- Q1 -------------------------------------------------------------------

std::vector<Q1Result> Oracle::Query1(PersonId start,
                                     const std::string& first_name,
                                     int limit) const {
  std::vector<Q1Result> results;
  if (FindPerson(start) == nullptr) return results;
  std::unordered_map<PersonId, uint32_t> dist{{start, 0}};
  std::vector<PersonId> frontier{start};
  for (uint32_t d = 1; d <= 3 && !frontier.empty(); ++d) {
    std::vector<PersonId> next;
    for (PersonId pid : frontier) {
      for (PersonId other : FriendIds(pid)) {
        if (!dist.emplace(other, d).second) continue;
        next.push_back(other);
        const Person* candidate = FindPerson(other);
        if (candidate != nullptr && candidate->first_name == first_name) {
          results.push_back({other, d, candidate->last_name,
                             candidate->city_id, candidate->university_id,
                             candidate->company_id});
        }
      }
    }
    frontier = std::move(next);
  }
  std::sort(results.begin(), results.end(),
            [](const Q1Result& a, const Q1Result& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              if (a.last_name != b.last_name) return a.last_name < b.last_name;
              return a.person_id < b.person_id;
            });
  if (static_cast<int>(results.size()) > limit) results.resize(limit);
  return results;
}

// ---- Q2 -------------------------------------------------------------------

std::vector<Q2Result> Oracle::Query2(PersonId start, TimestampMs max_date,
                                     int limit) const {
  std::vector<Q2Result> candidates;
  if (FindPerson(start) == nullptr) return candidates;
  // Every message under the cut is a candidate: a per-friend cut at
  // `limit` would keep the larger ids of a date tied across it, and those
  // rank worse.
  for (PersonId fid : FriendIds(start)) {
    for (const Message* m : MessagesOf(fid)) {
      if (m->creation_date > max_date) break;
      candidates.push_back({m->id, fid, m->creation_date});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Q2Result& a, const Q2Result& b) {
              if (a.creation_date != b.creation_date) {
                return a.creation_date > b.creation_date;
              }
              return a.message_id < b.message_id;
            });
  if (static_cast<int>(candidates.size()) > limit) candidates.resize(limit);
  return candidates;
}

// ---- Q3 -------------------------------------------------------------------

std::vector<Q3Result> Oracle::Query3(
    PersonId start, const std::vector<schema::PlaceId>& city_country,
    schema::PlaceId country_x, schema::PlaceId country_y,
    TimestampMs start_date, int duration_days, int limit) const {
  TimestampMs end_date = start_date + duration_days * util::kMillisPerDay;
  std::vector<Q3Result> results;
  for (PersonId pid : TwoHopCircle(start)) {
    const Person* p = FindPerson(pid);
    if (p == nullptr) continue;
    if (p->city_id < city_country.size()) {
      schema::PlaceId home = city_country[p->city_id];
      if (home == country_x || home == country_y) continue;
    }
    uint32_t count_x = 0, count_y = 0;
    for (const Message* m : MessagesOf(pid)) {
      if (m->creation_date < start_date || m->creation_date >= end_date) {
        continue;
      }
      if (m->country_id == country_x) {
        ++count_x;
      } else if (m->country_id == country_y) {
        ++count_y;
      }
    }
    if (count_x > 0 && count_y > 0) results.push_back({pid, count_x, count_y});
  }
  std::sort(results.begin(), results.end(),
            [](const Q3Result& a, const Q3Result& b) {
              uint64_t ta = a.count_x + a.count_y;
              uint64_t tb = b.count_x + b.count_y;
              if (ta != tb) return ta > tb;
              return a.person_id < b.person_id;
            });
  if (static_cast<int>(results.size()) > limit) results.resize(limit);
  return results;
}

// ---- Q4 -------------------------------------------------------------------

std::vector<Q4Result> Oracle::Query4(PersonId start, TimestampMs start_date,
                                     int duration_days, int limit) const {
  if (FindPerson(start) == nullptr) return {};
  TimestampMs end_date = start_date + duration_days * util::kMillisPerDay;
  std::unordered_map<schema::TagId, uint32_t> in_window;
  std::unordered_set<schema::TagId> before_window;
  for (PersonId fid : FriendIds(start)) {
    for (const Message* m : MessagesOf(fid)) {
      if (m->creation_date >= end_date) continue;
      if (m->kind == MessageKind::kComment) continue;
      if (m->creation_date < start_date) {
        for (schema::TagId t : m->tags) before_window.insert(t);
      } else {
        for (schema::TagId t : m->tags) ++in_window[t];
      }
    }
  }
  std::vector<Q4Result> results;
  for (auto [tag, count] : in_window) {
    if (before_window.count(tag) == 0) results.push_back({tag, count});
  }
  std::sort(results.begin(), results.end(),
            [](const Q4Result& a, const Q4Result& b) {
              if (a.post_count != b.post_count) {
                return a.post_count > b.post_count;
              }
              return a.tag < b.tag;
            });
  if (static_cast<int>(results.size()) > limit) results.resize(limit);
  return results;
}

// ---- Q5 -------------------------------------------------------------------

std::vector<Q5Result> Oracle::Query5(PersonId start, TimestampMs min_date,
                                     int limit) const {
  std::vector<PersonId> circle = TwoHopCircle(start);
  std::unordered_set<PersonId> circle_set(circle.begin(), circle.end());
  std::unordered_set<schema::ForumId> new_forums;
  for (const schema::ForumMembership& fm : net_.memberships) {
    if (circle_set.count(fm.person_id) > 0 && fm.join_date > min_date) {
      new_forums.insert(fm.forum_id);
    }
  }
  std::vector<Q5Result> results;
  for (schema::ForumId fid : new_forums) {
    if (FindForum(fid) == nullptr) continue;
    uint32_t count = 0;
    for (const Message& m : net_.messages) {
      if (m.kind == MessageKind::kComment) continue;
      if (m.forum_id != fid) continue;
      if (circle_set.count(m.creator_id) > 0) ++count;
    }
    results.push_back({fid, count});
  }
  std::sort(results.begin(), results.end(),
            [](const Q5Result& a, const Q5Result& b) {
              if (a.post_count != b.post_count) {
                return a.post_count > b.post_count;
              }
              return a.forum_id < b.forum_id;
            });
  if (static_cast<int>(results.size()) > limit) results.resize(limit);
  return results;
}

// ---- Q6 -------------------------------------------------------------------

std::vector<Q6Result> Oracle::Query6(PersonId start, schema::TagId tag,
                                     int limit) const {
  std::unordered_map<schema::TagId, uint32_t> co_counts;
  for (PersonId pid : TwoHopCircle(start)) {
    for (const Message* m : MessagesOf(pid)) {
      if (m->kind == MessageKind::kComment) continue;
      bool has_tag = false;
      for (schema::TagId t : m->tags) {
        if (t == tag) {
          has_tag = true;
          break;
        }
      }
      if (!has_tag) continue;
      for (schema::TagId t : m->tags) {
        if (t != tag) ++co_counts[t];
      }
    }
  }
  std::vector<Q6Result> results;
  results.reserve(co_counts.size());
  for (auto [t, c] : co_counts) results.push_back({t, c});
  std::sort(results.begin(), results.end(),
            [](const Q6Result& a, const Q6Result& b) {
              if (a.post_count != b.post_count) {
                return a.post_count > b.post_count;
              }
              return a.tag < b.tag;
            });
  if (static_cast<int>(results.size()) > limit) results.resize(limit);
  return results;
}

// ---- Q7 -------------------------------------------------------------------

std::vector<Q7Result> Oracle::Query7(PersonId start, int limit) const {
  std::vector<Q7Result> likes;
  if (FindPerson(start) == nullptr) return likes;
  for (const Message* m : MessagesOf(start)) {
    for (const schema::Like& like : net_.likes) {
      if (like.message_id != m->id) continue;
      Q7Result r;
      r.liker_id = like.person_id;
      r.message_id = m->id;
      r.like_date = like.creation_date;
      r.latency_minutes =
          (like.creation_date - m->creation_date) / util::kMillisPerMinute;
      r.is_outside_friendship = !AreFriends(start, like.person_id);
      likes.push_back(r);
    }
  }
  std::sort(likes.begin(), likes.end(),
            [](const Q7Result& a, const Q7Result& b) {
              if (a.like_date != b.like_date) return a.like_date > b.like_date;
              if (a.liker_id != b.liker_id) return a.liker_id < b.liker_id;
              return a.message_id < b.message_id;
            });
  if (static_cast<int>(likes.size()) > limit) likes.resize(limit);
  return likes;
}

// ---- Q8 -------------------------------------------------------------------

std::vector<Q8Result> Oracle::Query8(PersonId start, int limit) const {
  std::vector<Q8Result> replies;
  if (FindPerson(start) == nullptr) return replies;
  for (const Message* m : MessagesOf(start)) {
    for (const Message& reply : net_.messages) {
      if (reply.kind != MessageKind::kComment || reply.reply_to_id != m->id) {
        continue;
      }
      replies.push_back({reply.id, reply.creator_id, reply.creation_date});
    }
  }
  std::sort(replies.begin(), replies.end(),
            [](const Q8Result& a, const Q8Result& b) {
              if (a.creation_date != b.creation_date) {
                return a.creation_date > b.creation_date;
              }
              return a.comment_id < b.comment_id;
            });
  if (static_cast<int>(replies.size()) > limit) replies.resize(limit);
  return replies;
}

// ---- Q9 -------------------------------------------------------------------

std::vector<Q9Result> Oracle::Query9(PersonId start, TimestampMs max_date,
                                     int limit) const {
  std::vector<Q9Result> candidates;
  for (PersonId pid : TwoHopCircle(start)) {
    for (const Message* m : MessagesOf(pid)) {
      if (m->creation_date >= max_date) break;
      candidates.push_back({m->id, pid, m->creation_date});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Q9Result& a, const Q9Result& b) {
              if (a.creation_date != b.creation_date) {
                return a.creation_date > b.creation_date;
              }
              return a.message_id < b.message_id;
            });
  if (static_cast<int>(candidates.size()) > limit) candidates.resize(limit);
  return candidates;
}

// ---- Q10 ------------------------------------------------------------------

std::vector<Q10Result> Oracle::Query10(PersonId start, int horoscope_month,
                                       int limit) const {
  std::vector<Q10Result> results;
  const Person* root = FindPerson(start);
  if (root == nullptr) return results;
  std::unordered_set<schema::TagId> interests(root->interests.begin(),
                                              root->interests.end());
  std::vector<PersonId> direct_ids = FriendIds(start);
  std::unordered_set<PersonId> direct(direct_ids.begin(), direct_ids.end());
  direct.insert(start);
  std::unordered_set<PersonId> fof;
  for (PersonId f : direct_ids) {
    for (PersonId ff : FriendIds(f)) {
      if (direct.count(ff) == 0) fof.insert(ff);
    }
  }
  for (PersonId pid : fof) {
    const Person* p = FindPerson(pid);
    if (p == nullptr) continue;
    int month = 0, day = 0;
    MonthDayOf(p->birthday, &month, &day);
    int next_month = horoscope_month % 12 + 1;
    bool sign_match = (month == horoscope_month && day >= 21) ||
                      (month == next_month && day < 22);
    if (!sign_match) continue;
    int32_t common = 0, other = 0;
    for (const Message* m : MessagesOf(pid)) {
      if (m->kind == MessageKind::kComment) continue;
      bool about_interest = false;
      for (schema::TagId t : m->tags) {
        if (interests.count(t) > 0) {
          about_interest = true;
          break;
        }
      }
      if (about_interest) {
        ++common;
      } else {
        ++other;
      }
    }
    results.push_back({pid, common - other});
  }
  std::sort(results.begin(), results.end(),
            [](const Q10Result& a, const Q10Result& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.person_id < b.person_id;
            });
  if (static_cast<int>(results.size()) > limit) results.resize(limit);
  return results;
}

// ---- Q11 ------------------------------------------------------------------

std::vector<Q11Result> Oracle::Query11(
    PersonId start, const std::vector<schema::PlaceId>& company_country,
    schema::PlaceId country, uint16_t max_work_year, int limit) const {
  std::vector<Q11Result> results;
  for (PersonId pid : TwoHopCircle(start)) {
    const Person* p = FindPerson(pid);
    if (p == nullptr) continue;
    schema::OrganizationId company = p->company_id;
    if (company == schema::kInvalidId32) continue;
    if (company >= company_country.size()) continue;
    if (company_country[company] != country) continue;
    if (p->work_year >= max_work_year) continue;
    results.push_back({pid, company, p->work_year});
  }
  std::sort(results.begin(), results.end(),
            [](const Q11Result& a, const Q11Result& b) {
              if (a.work_year != b.work_year) return a.work_year < b.work_year;
              return a.person_id < b.person_id;
            });
  if (static_cast<int>(results.size()) > limit) results.resize(limit);
  return results;
}

// ---- Q12 ------------------------------------------------------------------

std::vector<Q12Result> Oracle::Query12(PersonId start,
                                       const std::vector<bool>& tag_in_class,
                                       int limit) const {
  std::vector<Q12Result> results;
  if (FindPerson(start) == nullptr) return results;
  for (PersonId fid : FriendIds(start)) {
    uint32_t count = 0;
    for (const Message* m : MessagesOf(fid)) {
      if (m->kind != MessageKind::kComment) continue;
      const Message* parent = FindMessage(m->reply_to_id);
      if (parent == nullptr || parent->kind == MessageKind::kComment) {
        continue;
      }
      for (schema::TagId t : parent->tags) {
        if (t < tag_in_class.size() && tag_in_class[t]) {
          ++count;
          break;
        }
      }
    }
    if (count > 0) results.push_back({fid, count});
  }
  std::sort(results.begin(), results.end(),
            [](const Q12Result& a, const Q12Result& b) {
              if (a.reply_count != b.reply_count) {
                return a.reply_count > b.reply_count;
              }
              return a.person_id < b.person_id;
            });
  if (static_cast<int>(results.size()) > limit) results.resize(limit);
  return results;
}

// ---- Q13 ------------------------------------------------------------------

int Oracle::Query13(PersonId person1, PersonId person2) const {
  if (FindPerson(person1) == nullptr || FindPerson(person2) == nullptr) {
    return -1;
  }
  if (person1 == person2) return 0;
  std::unordered_map<PersonId, int> dist{{person1, 0}};
  std::deque<PersonId> queue{person1};
  while (!queue.empty()) {
    PersonId pid = queue.front();
    queue.pop_front();
    int d = dist[pid];
    for (PersonId other : FriendIds(pid)) {
      if (dist.emplace(other, d + 1).second) {
        if (other == person2) return d + 1;
        queue.push_back(other);
      }
    }
  }
  return -1;
}

// ---- Q14 ------------------------------------------------------------------

namespace {

/// Comment-interaction weight of a person pair: each comment by one
/// replying to a post or photo of the other adds 1.0, to a comment 0.5.
double OraclePairWeight(const Oracle& oracle, PersonId a, PersonId b) {
  double weight = 0.0;
  for (PersonId from : {a, b}) {
    PersonId to = from == a ? b : a;
    for (const Message* m : oracle.MessagesOf(from)) {
      if (m->kind != MessageKind::kComment) continue;
      const Message* parent = oracle.FindMessage(m->reply_to_id);
      if (parent == nullptr || parent->creator_id != to) continue;
      weight += parent->kind == MessageKind::kComment ? 0.5 : 1.0;
    }
  }
  return weight;
}

}  // namespace

std::vector<Q14Result> Oracle::Query14(PersonId person1,
                                       PersonId person2) const {
  std::vector<Q14Result> results;
  if (FindPerson(person1) == nullptr || FindPerson(person2) == nullptr) {
    return results;
  }
  if (person1 == person2) {
    results.push_back({{person1}, 0.0});
    return results;
  }
  // Full BFS distances from person1.
  std::unordered_map<PersonId, int> dist{{person1, 0}};
  std::deque<PersonId> queue{person1};
  while (!queue.empty()) {
    PersonId pid = queue.front();
    queue.pop_front();
    int d = dist[pid];
    for (PersonId other : FriendIds(pid)) {
      if (dist.emplace(other, d + 1).second) queue.push_back(other);
    }
  }
  auto it2 = dist.find(person2);
  if (it2 == dist.end()) return results;

  // Enumerate shortest paths backwards from person2, parents in ascending
  // order, bounded like the SUT implementations.
  constexpr size_t kMaxPaths = 1000;
  std::vector<std::vector<PersonId>> paths;
  struct Frame {
    PersonId node;
    size_t next_parent;
  };
  std::vector<Frame> stack{{person2, 0}};
  while (!stack.empty() && paths.size() < kMaxPaths) {
    Frame& frame = stack.back();
    if (frame.node == person1) {
      std::vector<PersonId> path;
      path.reserve(stack.size());
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        path.push_back(it->node);
      }
      paths.push_back(std::move(path));
      stack.pop_back();
      continue;
    }
    std::vector<PersonId> parents;
    int d = dist[frame.node];
    for (PersonId other : FriendIds(frame.node)) {
      auto it = dist.find(other);
      if (it != dist.end() && it->second == d - 1) parents.push_back(other);
    }
    if (frame.next_parent >= parents.size()) {
      stack.pop_back();
      continue;
    }
    PersonId parent = parents[frame.next_parent++];
    stack.push_back({parent, 0});
  }

  results.reserve(paths.size());
  for (std::vector<PersonId>& path : paths) {
    Q14Result r;
    r.weight = 0.0;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      r.weight += OraclePairWeight(*this, path[i], path[i + 1]);
    }
    r.path = std::move(path);
    results.push_back(std::move(r));
  }
  std::sort(results.begin(), results.end(),
            [](const Q14Result& a, const Q14Result& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.path < b.path;
            });
  return results;
}

// ---- Short reads ----------------------------------------------------------

queries::S1Result Oracle::ShortQuery1PersonProfile(PersonId person) const {
  queries::S1Result r;
  const Person* p = FindPerson(person);
  if (p == nullptr) return r;
  r.found = true;
  r.first_name = p->first_name;
  r.last_name = p->last_name;
  r.birthday = p->birthday;
  r.city_id = p->city_id;
  r.browser = p->browser;
  r.location_ip = p->location_ip;
  r.gender = p->gender;
  r.creation_date = p->creation_date;
  return r;
}

std::vector<queries::S2Result> Oracle::ShortQuery2RecentMessages(
    PersonId person, int limit) const {
  std::vector<queries::S2Result> results;
  if (FindPerson(person) == nullptr) return results;
  std::vector<const Message*> msgs = MessagesOf(person);
  size_t n = msgs.size();
  size_t take = std::min<size_t>(n, static_cast<size_t>(limit));
  for (size_t i = 0; i < take; ++i) {
    const Message* m = msgs[n - 1 - i];
    queries::S2Result r;
    r.message_id = m->id;
    r.creation_date = m->creation_date;
    r.root_post_id = m->root_post_id;
    const Message* root = FindMessage(m->root_post_id);
    r.root_author_id =
        root == nullptr ? schema::kInvalidId : root->creator_id;
    results.push_back(std::move(r));
  }
  return results;
}

std::vector<queries::S3Result> Oracle::ShortQuery3Friends(
    PersonId person) const {
  std::vector<queries::S3Result> results;
  if (FindPerson(person) == nullptr) return results;
  for (const schema::Knows& k : net_.knows) {
    if (k.person1_id == person) {
      results.push_back({k.person2_id, k.creation_date});
    } else if (k.person2_id == person) {
      results.push_back({k.person1_id, k.creation_date});
    }
  }
  std::sort(results.begin(), results.end(),
            [](const queries::S3Result& a, const queries::S3Result& b) {
              if (a.since != b.since) return a.since > b.since;
              return a.friend_id < b.friend_id;
            });
  return results;
}

queries::S4Result Oracle::ShortQuery4MessageContent(
    schema::MessageId message) const {
  queries::S4Result r;
  const Message* m = FindMessage(message);
  if (m == nullptr) return r;
  r.found = true;
  r.creation_date = m->creation_date;
  r.content = m->content;
  return r;
}

queries::S5Result Oracle::ShortQuery5MessageCreator(
    schema::MessageId message) const {
  queries::S5Result r;
  const Message* m = FindMessage(message);
  if (m == nullptr) return r;
  const Person* p = FindPerson(m->creator_id);
  if (p == nullptr) return r;
  r.found = true;
  r.creator_id = m->creator_id;
  r.first_name = p->first_name;
  r.last_name = p->last_name;
  return r;
}

queries::S6Result Oracle::ShortQuery6MessageForum(
    schema::MessageId message) const {
  queries::S6Result r;
  const Message* m = FindMessage(message);
  if (m == nullptr) return r;
  const Message* root = FindMessage(m->root_post_id);
  if (root == nullptr) return r;
  const schema::Forum* forum = FindForum(root->forum_id);
  if (forum == nullptr) return r;
  r.found = true;
  r.forum_id = root->forum_id;
  r.forum_title = forum->title;
  r.moderator_id = forum->moderator_id;
  return r;
}

std::vector<queries::S7Result> Oracle::ShortQuery7MessageReplies(
    schema::MessageId message) const {
  std::vector<queries::S7Result> results;
  const Message* m = FindMessage(message);
  if (m == nullptr) return results;
  for (const Message& reply : net_.messages) {
    if (reply.kind != MessageKind::kComment || reply.reply_to_id != m->id) {
      continue;
    }
    queries::S7Result r;
    r.comment_id = reply.id;
    r.replier_id = reply.creator_id;
    r.creation_date = reply.creation_date;
    r.replier_knows_author = AreFriends(m->creator_id, reply.creator_id);
    results.push_back(r);
  }
  std::sort(results.begin(), results.end(),
            [](const queries::S7Result& a, const queries::S7Result& b) {
              if (a.creation_date != b.creation_date) {
                return a.creation_date > b.creation_date;
              }
              return a.comment_id < b.comment_id;
            });
  return results;
}

}  // namespace snb::validate
