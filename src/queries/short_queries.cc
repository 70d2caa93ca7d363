#include "queries/short_queries.h"

#include <algorithm>
#include <tuple>

namespace snb::queries {

using store::FriendEdge;
using store::MessageEdge;
using store::MessageRecord;
using store::PersonRecord;

S1Result ShortQuery1PersonProfile(const GraphStore& store,
                                  schema::PersonId person) {
  auto pin = store.ReadLock();
  S1Result r;
  const PersonRecord* p = store.FindPerson(pin, person);
  if (p == nullptr) return r;
  r.found = true;
  r.first_name = p->data.first_name;
  r.last_name = p->data.last_name;
  r.birthday = p->data.birthday;
  r.city_id = p->data.city_id;
  r.browser = p->data.browser;
  r.location_ip = p->data.location_ip;
  r.gender = p->data.gender;
  r.creation_date = p->data.creation_date;
  return r;
}

std::vector<S2Result> ShortQuery2RecentMessages(const GraphStore& store,
                                                schema::PersonId person,
                                                int limit) {
  auto pin = store.ReadLock();
  std::vector<S2Result> results;
  const PersonRecord* p = store.FindPerson(pin, person);
  if (p == nullptr) return results;
  // Merge the creator's posts and comments newest-first: both lists are
  // sorted by (date, id), so the larger of the two tails comes next, the
  // order of one list over both.
  auto posts = p->posts.view();
  auto comments = p->comments.view();
  size_t i = posts.size(), j = comments.size();
  size_t take = std::min<size_t>(i + j, static_cast<size_t>(limit));
  auto newer = [](const MessageEdge& a, const MessageEdge& b) {
    return std::tie(a.date, a.id) > std::tie(b.date, b.id);
  };
  for (; take > 0; --take) {
    bool post_next = j == 0 || (i > 0 && newer(posts[i - 1], comments[j - 1]));
    const MessageEdge& edge = post_next ? posts[--i] : comments[--j];
    const MessageRecord* m = store.FindMessage(pin, edge.id);
    if (m == nullptr) continue;
    S2Result r;
    r.message_id = edge.id;
    r.creation_date = edge.date;
    r.root_post_id = m->data.root_post_id;
    const MessageRecord* root = store.FindMessage(pin, m->data.root_post_id);
    r.root_author_id =
        root == nullptr ? schema::kInvalidId : root->data.creator_id;
    results.push_back(std::move(r));
  }
  return results;
}

std::vector<S3Result> ShortQuery3Friends(const GraphStore& store,
                                         schema::PersonId person) {
  auto pin = store.ReadLock();
  std::vector<S3Result> results;
  const PersonRecord* p = store.FindPerson(pin, person);
  if (p == nullptr) return results;
  auto friends = p->friends.view();
  results.reserve(friends.size());
  for (const FriendEdge& e : friends) {
    results.push_back({e.other, e.since});
  }
  std::sort(results.begin(), results.end(),
            [](const S3Result& a, const S3Result& b) {
              if (a.since != b.since) return a.since > b.since;
              return a.friend_id < b.friend_id;
            });
  return results;
}

S4Result ShortQuery4MessageContent(const GraphStore& store,
                                   schema::MessageId message) {
  auto pin = store.ReadLock();
  S4Result r;
  const MessageRecord* m = store.FindMessage(pin, message);
  if (m == nullptr) return r;
  r.found = true;
  r.creation_date = m->data.creation_date;
  r.content = m->data.content;
  return r;
}

S5Result ShortQuery5MessageCreator(const GraphStore& store,
                                   schema::MessageId message) {
  auto pin = store.ReadLock();
  S5Result r;
  const MessageRecord* m = store.FindMessage(pin, message);
  if (m == nullptr) return r;
  const PersonRecord* p = store.FindPerson(pin, m->data.creator_id);
  if (p == nullptr) return r;
  r.found = true;
  r.creator_id = m->data.creator_id;
  r.first_name = p->data.first_name;
  r.last_name = p->data.last_name;
  return r;
}

S6Result ShortQuery6MessageForum(const GraphStore& store,
                                 schema::MessageId message) {
  auto pin = store.ReadLock();
  S6Result r;
  const MessageRecord* m = store.FindMessage(pin, message);
  if (m == nullptr) return r;
  const MessageRecord* root = store.FindMessage(pin, m->data.root_post_id);
  if (root == nullptr) return r;
  const store::ForumRecord* forum = store.FindForum(pin, root->data.forum_id);
  if (forum == nullptr) return r;
  r.found = true;
  r.forum_id = root->data.forum_id;
  r.forum_title = forum->data.title;
  r.moderator_id = forum->data.moderator_id;
  return r;
}

std::vector<S7Result> ShortQuery7MessageReplies(const GraphStore& store,
                                                schema::MessageId message) {
  auto pin = store.ReadLock();
  std::vector<S7Result> results;
  const MessageRecord* m = store.FindMessage(pin, message);
  if (m == nullptr) return results;
  schema::PersonId author = m->data.creator_id;
  auto replies = m->replies.view();
  results.reserve(replies.size());
  for (schema::MessageId rid : replies) {
    const MessageRecord* reply = store.FindMessage(pin, rid);
    if (reply == nullptr) continue;
    S7Result r;
    r.comment_id = rid;
    r.replier_id = reply->data.creator_id;
    r.creation_date = reply->data.creation_date;
    r.replier_knows_author = store.AreFriends(pin, author, reply->data.creator_id);
    results.push_back(r);
  }
  std::sort(results.begin(), results.end(),
            [](const S7Result& a, const S7Result& b) {
              if (a.creation_date != b.creation_date) {
                return a.creation_date > b.creation_date;
              }
              return a.comment_id < b.comment_id;
            });
  return results;
}

}  // namespace snb::queries
