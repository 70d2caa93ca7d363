#include "relational/rel_queries.h"

#include <algorithm>
#include <ctime>
#include <deque>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <variant>

namespace snb::rel {
namespace {

using schema::MessageKind;
using schema::TagId;

std::vector<PersonId> FriendIdsLocked(const RelationalDb& db,
                                      PersonId start) {
  std::vector<PersonId> out;
  auto [lo, hi] = db.FriendsOf(start);
  for (const KnowsRow* k = lo; k != hi; ++k) out.push_back(k->dst);
  return out;
}

/// Two-hop circle of `start`, ascending; the caller holds the read lock.
std::vector<PersonId> CircleOf(const RelationalDb& db, PersonId start) {
  std::vector<PersonId> out;
  std::unordered_set<PersonId> seen{start};
  auto [lo, hi] = db.FriendsOf(start);
  for (const KnowsRow* k = lo; k != hi; ++k) {
    if (seen.insert(k->dst).second) out.push_back(k->dst);
  }
  size_t direct = out.size();
  for (size_t i = 0; i < direct; ++i) {
    auto [flo, fhi] = db.FriendsOf(out[i]);
    for (const KnowsRow* k = flo; k != fhi; ++k) {
      if (seen.insert(k->dst).second) out.push_back(k->dst);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void MonthDayOf(TimestampMs ts, int* month, int* day) {
  std::time_t secs = static_cast<std::time_t>(ts / util::kMillisPerSecond);
  std::tm tm_utc{};
  gmtime_r(&secs, &tm_utc);
  *month = tm_utc.tm_mon + 1;
  *day = tm_utc.tm_mday;
}

}  // namespace

std::vector<PersonId> TwoHopCircle(const RelationalDb& db, PersonId start) {
  auto lock = db.ReadLock();
  return CircleOf(db, start);
}

std::vector<Q1Result> Query1(const RelationalDb& db, PersonId start,
                             const std::string& first_name, int limit) {
  auto lock = db.ReadLock();
  std::vector<Q1Result> results;
  if (db.FindPerson(start) == nullptr) return results;
  std::unordered_set<PersonId> visited{start};
  std::vector<PersonId> frontier{start};
  for (uint32_t distance = 1; distance <= 3 && !frontier.empty();
       ++distance) {
    std::vector<PersonId> next;
    for (PersonId pid : frontier) {
      auto [lo, hi] = db.FriendsOf(pid);
      for (const KnowsRow* k = lo; k != hi; ++k) {
        if (!visited.insert(k->dst).second) continue;
        next.push_back(k->dst);
        const schema::Person* p = db.FindPerson(k->dst);
        if (p != nullptr && p->first_name == first_name) {
          results.push_back({k->dst, distance, p->last_name, p->city_id,
                             p->university_id, p->company_id});
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

std::vector<Q2Result> Query2(const RelationalDb& db, PersonId start,
                             TimestampMs max_date, int limit) {
  auto lock = db.ReadLock();
  std::vector<Q2Result> candidates;
  for (PersonId fid : FriendIdsLocked(db, start)) {
    auto [lo, hi] = db.MessagesBy(fid);
    for (const CreatorIndexRow* it = lo; it != hi; ++it) {
      const schema::Message* m = db.FindMessage(it->message);
      if (m == nullptr || m->creation_date > max_date) continue;
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

std::vector<Q3Result> Query3(const RelationalDb& db, PersonId start,
                             const std::vector<schema::PlaceId>& city_country,
                             schema::PlaceId country_x,
                             schema::PlaceId country_y,
                             TimestampMs start_date, int duration_days,
                             int limit) {
  auto lock = db.ReadLock();
  TimestampMs end_date = start_date + duration_days * util::kMillisPerDay;
  std::vector<Q3Result> results;
  for (PersonId pid : CircleOf(db, start)) {
    const schema::Person* p = db.FindPerson(pid);
    if (p == nullptr) continue;
    if (p->city_id < city_country.size()) {
      schema::PlaceId home = city_country[p->city_id];
      if (home == country_x || home == country_y) continue;
    }
    uint32_t count_x = 0, count_y = 0;
    auto [lo, hi] = db.MessagesBy(pid);
    for (const CreatorIndexRow* it = lo; it != hi; ++it) {
      const schema::Message* m = db.FindMessage(it->message);
      if (m == nullptr || m->creation_date < start_date ||
          m->creation_date >= end_date) {
        continue;
      }
      if (m->country_id == country_x) ++count_x;
      if (m->country_id == country_y) ++count_y;
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

std::vector<Q4Result> Query4(const RelationalDb& db, PersonId start,
                             TimestampMs start_date, int duration_days,
                             int limit) {
  auto lock = db.ReadLock();
  TimestampMs end_date = start_date + duration_days * util::kMillisPerDay;
  std::unordered_map<TagId, uint32_t> in_window;
  std::unordered_set<TagId> before;
  for (PersonId fid : FriendIdsLocked(db, start)) {
    auto [lo, hi] = db.MessagesBy(fid);
    for (const CreatorIndexRow* it = lo; it != hi; ++it) {
      const schema::Message* m = db.FindMessage(it->message);
      if (m == nullptr || m->kind == MessageKind::kComment) continue;
      if (m->creation_date >= end_date) break;
      if (m->creation_date < start_date) {
        for (TagId t : m->tags) before.insert(t);
      } else {
        for (TagId t : m->tags) ++in_window[t];
      }
    }
  }
  std::vector<Q4Result> results;
  for (auto [tag, count] : in_window) {
    if (before.count(tag) == 0) results.push_back({tag, count});
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

std::vector<Q5Result> Query5(const RelationalDb& db, PersonId start,
                             TimestampMs min_date, int limit) {
  auto lock = db.ReadLock();
  std::vector<PersonId> circle = CircleOf(db, start);
  std::unordered_set<PersonId> circle_set(circle.begin(), circle.end());
  std::unordered_set<ForumId> new_forums;
  for (PersonId pid : circle) {
    auto [lo, hi] = db.ForumsOf(pid);
    for (const MemberRow* it = lo; it != hi; ++it) {
      if (it->date > min_date) new_forums.insert(it->forum);
    }
  }
  std::vector<Q5Result> results;
  results.reserve(new_forums.size());
  for (ForumId fid : new_forums) {
    uint32_t count = 0;
    auto [lo, hi] = db.PostsIn(fid);
    for (const ForumPostRow* it = lo; it != hi; ++it) {
      const schema::Message* m = db.FindMessage(it->post);
      if (m != nullptr && circle_set.count(m->creator_id) > 0) ++count;
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

std::vector<Q6Result> Query6(const RelationalDb& db, PersonId start,
                             TagId tag, int limit) {
  auto lock = db.ReadLock();
  std::unordered_map<TagId, uint32_t> co_counts;
  for (PersonId pid : CircleOf(db, start)) {
    auto [lo, hi] = db.MessagesBy(pid);
    for (const CreatorIndexRow* it = lo; it != hi; ++it) {
      const schema::Message* m = db.FindMessage(it->message);
      if (m == nullptr || m->kind == MessageKind::kComment) continue;
      bool has_tag = false;
      for (TagId t : m->tags) {
        if (t == tag) {
          has_tag = true;
          break;
        }
      }
      if (!has_tag) continue;
      for (TagId t : m->tags) {
        if (t != tag) ++co_counts[t];
      }
    }
  }
  std::vector<Q6Result> results;
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

std::vector<Q7Result> Query7(const RelationalDb& db, PersonId start,
                             int limit) {
  auto lock = db.ReadLock();
  std::vector<Q7Result> likes;
  auto [mlo, mhi] = db.MessagesBy(start);
  for (const CreatorIndexRow* it = mlo; it != mhi; ++it) {
    const schema::Message* m = db.FindMessage(it->message);
    if (m == nullptr) continue;
    auto [llo, lhi] = db.LikesOf(it->message);
    for (const LikeRow* l = llo; l != lhi; ++l) {
      Q7Result r;
      r.liker_id = l->person;
      r.message_id = it->message;
      r.like_date = l->date;
      r.latency_minutes =
          (l->date - m->creation_date) / util::kMillisPerMinute;
      r.is_outside_friendship = !db.AreFriends(start, l->person);
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

std::vector<Q8Result> Query8(const RelationalDb& db, PersonId start,
                             int limit) {
  auto lock = db.ReadLock();
  std::vector<Q8Result> replies;
  auto [mlo, mhi] = db.MessagesBy(start);
  for (const CreatorIndexRow* it = mlo; it != mhi; ++it) {
    auto [rlo, rhi] = db.RepliesTo(it->message);
    for (const ReplyIndexRow* r = rlo; r != rhi; ++r) {
      const schema::Message* reply = db.FindMessage(r->child);
      if (reply == nullptr) continue;
      replies.push_back({r->child, reply->creator_id, reply->creation_date});
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

std::vector<Q9Result> Query9(const RelationalDb& db, PersonId start,
                             TimestampMs max_date, int limit) {
  auto lock = db.ReadLock();
  std::vector<Q9Result> candidates;
  for (PersonId pid : CircleOf(db, start)) {
    auto [lo, hi] = db.MessagesBy(pid);
    for (const CreatorIndexRow* it = lo; it != hi; ++it) {
      const schema::Message* m = db.FindMessage(it->message);
      if (m == nullptr || m->creation_date >= max_date) continue;
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

std::vector<Q10Result> Query10(const RelationalDb& db, PersonId start,
                               int horoscope_month, int limit) {
  auto lock = db.ReadLock();
  std::vector<Q10Result> results;
  const schema::Person* root = db.FindPerson(start);
  if (root == nullptr) return results;
  std::unordered_set<TagId> interests(root->interests.begin(),
                                      root->interests.end());
  std::unordered_set<PersonId> direct{start};
  auto [flo, fhi] = db.FriendsOf(start);
  for (const KnowsRow* k = flo; k != fhi; ++k) direct.insert(k->dst);
  std::unordered_set<PersonId> fof;
  for (const KnowsRow* k = flo; k != fhi; ++k) {
    auto [f2lo, f2hi] = db.FriendsOf(k->dst);
    for (const KnowsRow* k2 = f2lo; k2 != f2hi; ++k2) {
      if (direct.count(k2->dst) == 0) fof.insert(k2->dst);
    }
  }
  for (PersonId pid : fof) {
    const schema::Person* p = db.FindPerson(pid);
    if (p == nullptr) continue;
    int month = 0, day = 0;
    MonthDayOf(p->birthday, &month, &day);
    int next_month = horoscope_month % 12 + 1;
    bool sign_match = (month == horoscope_month && day >= 21) ||
                      (month == next_month && day < 22);
    if (!sign_match) continue;
    int32_t common = 0, other = 0;
    auto [mlo, mhi] = db.MessagesBy(pid);
    for (const CreatorIndexRow* it = mlo; it != mhi; ++it) {
      const schema::Message* m = db.FindMessage(it->message);
      if (m == nullptr || m->kind == MessageKind::kComment) continue;
      bool about = false;
      for (TagId t : m->tags) {
        if (interests.count(t) > 0) {
          about = true;
          break;
        }
      }
      about ? ++common : ++other;
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

std::vector<Q11Result> Query11(
    const RelationalDb& db, PersonId start,
    const std::vector<schema::PlaceId>& company_country,
    schema::PlaceId country, uint16_t max_work_year, int limit) {
  auto lock = db.ReadLock();
  std::vector<Q11Result> results;
  for (PersonId pid : CircleOf(db, start)) {
    const schema::Person* p = db.FindPerson(pid);
    if (p == nullptr || p->company_id == schema::kInvalidId32) continue;
    if (p->company_id >= company_country.size()) continue;
    if (company_country[p->company_id] != country) continue;
    if (p->work_year >= max_work_year) continue;
    results.push_back({pid, p->company_id, p->work_year});
  }
  std::sort(results.begin(), results.end(),
            [](const Q11Result& a, const Q11Result& b) {
              if (a.work_year != b.work_year) return a.work_year < b.work_year;
              return a.person_id < b.person_id;
            });
  if (static_cast<int>(results.size()) > limit) results.resize(limit);
  return results;
}

std::vector<Q12Result> Query12(const RelationalDb& db, PersonId start,
                               const std::vector<bool>& tag_in_class,
                               int limit) {
  auto lock = db.ReadLock();
  std::vector<Q12Result> results;
  for (PersonId fid : FriendIdsLocked(db, start)) {
    uint32_t count = 0;
    auto [mlo, mhi] = db.MessagesBy(fid);
    for (const CreatorIndexRow* it = mlo; it != mhi; ++it) {
      const schema::Message* m = db.FindMessage(it->message);
      if (m == nullptr || m->kind != MessageKind::kComment) continue;
      const schema::Message* parent = db.FindMessage(m->reply_to_id);
      if (parent == nullptr || parent->kind == MessageKind::kComment) {
        continue;
      }
      for (TagId t : parent->tags) {
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

int Query13(const RelationalDb& db, PersonId person1, PersonId person2) {
  auto lock = db.ReadLock();
  if (person1 == person2) {
    return db.FindPerson(person1) == nullptr ? -1 : 0;
  }
  if (db.FindPerson(person1) == nullptr ||
      db.FindPerson(person2) == nullptr) {
    return -1;
  }
  std::unordered_map<PersonId, int> dist{{person1, 0}};
  std::deque<PersonId> queue{person1};
  while (!queue.empty()) {
    PersonId pid = queue.front();
    queue.pop_front();
    int d = dist[pid];
    auto [lo, hi] = db.FriendsOf(pid);
    for (const KnowsRow* k = lo; k != hi; ++k) {
      if (k->dst == person2) return d + 1;
      if (dist.emplace(k->dst, d + 1).second) queue.push_back(k->dst);
    }
  }
  return -1;
}

namespace {

double PairWeight(const RelationalDb& db, PersonId a, PersonId b) {
  double weight = 0.0;
  for (PersonId from : {a, b}) {
    PersonId to = from == a ? b : a;
    auto [mlo, mhi] = db.MessagesBy(from);
    for (const CreatorIndexRow* it = mlo; it != mhi; ++it) {
      const schema::Message* m = db.FindMessage(it->message);
      if (m == nullptr || m->kind != MessageKind::kComment) continue;
      const schema::Message* parent = db.FindMessage(m->reply_to_id);
      if (parent == nullptr || parent->creator_id != to) continue;
      weight += parent->kind == MessageKind::kComment ? 0.5 : 1.0;
    }
  }
  return weight;
}

}  // namespace

std::vector<Q14Result> Query14(const RelationalDb& db, PersonId person1,
                               PersonId person2) {
  auto lock = db.ReadLock();
  std::vector<Q14Result> results;
  if (db.FindPerson(person1) == nullptr ||
      db.FindPerson(person2) == nullptr) {
    return results;
  }
  if (person1 == person2) {
    results.push_back({{person1}, 0.0});
    return results;
  }
  std::unordered_map<PersonId, int> dist{{person1, 0}};
  std::unordered_map<PersonId, std::vector<PersonId>> parents;
  std::deque<PersonId> queue{person1};
  int target_dist = -1;
  while (!queue.empty()) {
    PersonId pid = queue.front();
    queue.pop_front();
    int d = dist[pid];
    if (target_dist >= 0 && d >= target_dist) break;
    auto [lo, hi] = db.FriendsOf(pid);
    for (const KnowsRow* k = lo; k != hi; ++k) {
      auto it = dist.find(k->dst);
      if (it == dist.end()) {
        dist[k->dst] = d + 1;
        parents[k->dst].push_back(pid);
        queue.push_back(k->dst);
        if (k->dst == person2) target_dist = d + 1;
      } else if (it->second == d + 1) {
        parents[k->dst].push_back(pid);
      }
    }
  }
  if (target_dist < 0) return results;

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
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        path.push_back(it->node);
      }
      paths.push_back(std::move(path));
      stack.pop_back();
      continue;
    }
    std::vector<PersonId>& ps = parents[frame.node];
    std::sort(ps.begin(), ps.end());
    if (frame.next_parent >= ps.size()) {
      stack.pop_back();
      continue;
    }
    stack.push_back({ps[frame.next_parent++], 0});
  }
  results.reserve(paths.size());
  for (std::vector<PersonId>& path : paths) {
    Q14Result r;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      r.weight += PairWeight(db, path[i], path[i + 1]);
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

// ---- Short reads -------------------------------------------------------------

queries::S1Result ShortQuery1PersonProfile(const RelationalDb& db,
                                           PersonId person) {
  auto lock = db.ReadLock();
  queries::S1Result r;
  const schema::Person* p = db.FindPerson(person);
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

std::vector<queries::S2Result> ShortQuery2RecentMessages(
    const RelationalDb& db, PersonId person, int limit) {
  auto lock = db.ReadLock();
  // The creator index is in id order; rank by (date desc, id desc).
  std::vector<const schema::Message*> messages;
  auto [lo, hi] = db.MessagesBy(person);
  for (const CreatorIndexRow* it = lo; it != hi; ++it) {
    const schema::Message* m = db.FindMessage(it->message);
    if (m != nullptr) messages.push_back(m);
  }
  size_t take = std::min(messages.size(),
                         static_cast<size_t>(std::max(limit, 0)));
  std::partial_sort(messages.begin(), messages.begin() + take,
                    messages.end(),
                    [](const schema::Message* a, const schema::Message* b) {
                      return std::tie(a->creation_date, a->id) >
                             std::tie(b->creation_date, b->id);
                    });
  messages.resize(take);
  std::vector<queries::S2Result> results;
  for (const schema::Message* m : messages) {
    queries::S2Result r;
    r.message_id = m->id;
    r.creation_date = m->creation_date;
    r.root_post_id = m->root_post_id;
    const schema::Message* root = db.FindMessage(m->root_post_id);
    r.root_author_id =
        root == nullptr ? schema::kInvalidId : root->creator_id;
    results.push_back(std::move(r));
  }
  return results;
}

std::vector<queries::S3Result> ShortQuery3Friends(const RelationalDb& db,
                                                  PersonId person) {
  auto lock = db.ReadLock();
  std::vector<queries::S3Result> results;
  auto [lo, hi] = db.FriendsOf(person);
  for (const KnowsRow* k = lo; k != hi; ++k) {
    results.push_back({k->dst, k->date});
  }
  std::sort(results.begin(), results.end(),
            [](const queries::S3Result& a, const queries::S3Result& b) {
              if (a.since != b.since) return a.since > b.since;
              return a.friend_id < b.friend_id;
            });
  return results;
}

queries::S4Result ShortQuery4MessageContent(const RelationalDb& db,
                                            MessageId message) {
  auto lock = db.ReadLock();
  queries::S4Result r;
  const schema::Message* m = db.FindMessage(message);
  if (m == nullptr) return r;
  r.found = true;
  r.creation_date = m->creation_date;
  r.content = m->content;
  return r;
}

queries::S5Result ShortQuery5MessageCreator(const RelationalDb& db,
                                            MessageId message) {
  auto lock = db.ReadLock();
  queries::S5Result r;
  const schema::Message* m = db.FindMessage(message);
  if (m == nullptr) return r;
  const schema::Person* p = db.FindPerson(m->creator_id);
  if (p == nullptr) return r;
  r.found = true;
  r.creator_id = m->creator_id;
  r.first_name = p->first_name;
  r.last_name = p->last_name;
  return r;
}

queries::S6Result ShortQuery6MessageForum(const RelationalDb& db,
                                          MessageId message) {
  auto lock = db.ReadLock();
  queries::S6Result r;
  const schema::Message* m = db.FindMessage(message);
  if (m == nullptr) return r;
  const schema::Message* root = db.FindMessage(m->root_post_id);
  if (root == nullptr) return r;
  const schema::Forum* forum = db.FindForum(root->forum_id);
  if (forum == nullptr) return r;
  r.found = true;
  r.forum_id = root->forum_id;
  r.forum_title = forum->title;
  r.moderator_id = forum->moderator_id;
  return r;
}

std::vector<queries::S7Result> ShortQuery7MessageReplies(
    const RelationalDb& db, MessageId message) {
  auto lock = db.ReadLock();
  std::vector<queries::S7Result> results;
  const schema::Message* m = db.FindMessage(message);
  if (m == nullptr) return results;
  auto [lo, hi] = db.RepliesTo(message);
  for (const ReplyIndexRow* it = lo; it != hi; ++it) {
    const schema::Message* reply = db.FindMessage(it->child);
    if (reply == nullptr) continue;
    queries::S7Result r;
    r.comment_id = it->child;
    r.replier_id = reply->creator_id;
    r.creation_date = reply->creation_date;
    r.replier_knows_author = db.AreFriends(m->creator_id, reply->creator_id);
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

util::Status ApplyUpdate(RelationalDb& db,
                         const datagen::UpdateOperation& op) {
  using datagen::UpdateKind;
  // std::get_if (not std::get) throughout — same contract as
  // queries::ApplyUpdate: corrupt kinds and kind/payload mismatches come
  // back as InvalidArgument, never as a thrown bad_variant_access.
  switch (op.kind) {
    case UpdateKind::kAddPerson:
      if (const auto* p = std::get_if<schema::Person>(&op.payload)) {
        return db.AddPerson(*p);
      }
      break;
    case UpdateKind::kAddFriendship:
      if (const auto* k = std::get_if<schema::Knows>(&op.payload)) {
        return db.AddFriendship(*k);
      }
      break;
    case UpdateKind::kAddForum:
      if (const auto* f = std::get_if<schema::Forum>(&op.payload)) {
        return db.AddForum(*f);
      }
      break;
    case UpdateKind::kAddForumMembership:
      if (const auto* m = std::get_if<schema::ForumMembership>(&op.payload)) {
        return db.AddForumMembership(*m);
      }
      break;
    case UpdateKind::kAddPost:
    case UpdateKind::kAddComment:
      if (const auto* m = std::get_if<schema::Message>(&op.payload)) {
        return db.AddMessage(*m);
      }
      break;
    case UpdateKind::kAddLikePost:
    case UpdateKind::kAddLikeComment:
      if (const auto* l = std::get_if<schema::Like>(&op.payload)) {
        return db.AddLike(*l);
      }
      break;
    default:
      return util::Status::InvalidArgument(
          "unknown update kind " +
          std::to_string(static_cast<unsigned>(op.kind)));
  }
  return util::Status::InvalidArgument(
      "update kind " + std::to_string(static_cast<unsigned>(op.kind)) +
      " does not match its payload type");
}

}  // namespace snb::rel
