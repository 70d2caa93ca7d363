// Tests for the transactional graph store.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "queries/complex_queries.h"
#include "queries/short_queries.h"
#include "queries/update_queries.h"
#include "relational/rel_queries.h"
#include "store/graph_store.h"
#include "validate/canonical.h"

namespace snb::store {
namespace {

using schema::Forum;
using schema::ForumMembership;
using schema::Knows;
using schema::Like;
using schema::Message;
using schema::MessageKind;
using schema::Person;
using util::StatusCode;

Person MakePerson(schema::PersonId id) {
  Person p;
  p.id = id;
  p.first_name = "First" + std::to_string(id);
  p.last_name = "Last" + std::to_string(id);
  p.creation_date = 1000 + static_cast<int64_t>(id);
  return p;
}

Forum MakeForum(schema::ForumId id, schema::PersonId moderator) {
  Forum f;
  f.id = id;
  f.title = "Forum" + std::to_string(id);
  f.moderator_id = moderator;
  f.creation_date = 2000;
  return f;
}

Message MakePost(schema::MessageId id, schema::PersonId creator,
                 schema::ForumId forum, util::TimestampMs date = 3000) {
  Message m;
  m.id = id;
  m.kind = MessageKind::kPost;
  m.creator_id = creator;
  m.forum_id = forum;
  m.root_post_id = id;
  m.creation_date = date;
  m.content = "hello world";
  return m;
}

Message MakeComment(schema::MessageId id, schema::PersonId creator,
                    schema::MessageId parent, schema::MessageId root,
                    schema::ForumId forum, util::TimestampMs date) {
  Message m;
  m.id = id;
  m.kind = MessageKind::kComment;
  m.creator_id = creator;
  m.forum_id = forum;
  m.reply_to_id = parent;
  m.root_post_id = root;
  m.creation_date = date;
  m.content = "reply";
  return m;
}

/// True when `tags` holds exactly `expected`.
bool SpanEquals(std::span<const schema::TagId> tags,
                const std::vector<schema::TagId>& expected) {
  return std::equal(tags.begin(), tags.end(), expected.begin(),
                    expected.end());
}

/// True when every inline fact of a created-message edge of `messages`
/// equals the records behind it: the message's date and country, and its
/// kind with the list it sits in (`comments` for the comment list, posts
/// and photos otherwise); for a comment, its parent's kind (a sentinel for
/// posts); and the tag span (a post's own tags, the parent post's for a
/// comment on a post, none for a reply to a comment), which must lie
/// inside the pool.
bool EdgeMatchesRecords(const GraphStore& store, const ReadGuard& pin,
                        const CreatedMessages& messages, const MessageEdge& e,
                        bool comments) {
  const MessageRecord* m = store.FindMessage(pin, e.id);
  if (m == nullptr || m->data.creation_date != e.date ||
      (m->data.kind == MessageKind::kComment) != comments ||
      m->data.country_id != e.country ||
      uint64_t{e.tags_begin} + e.tags_count > messages.pool_size()) {
    return false;
  }
  if (m->data.kind != MessageKind::kComment) {
    return e.parent_kind == MessageKind::kPost &&
           SpanEquals(messages.tags(e), m->data.tags);
  }
  const MessageRecord* parent = store.FindMessage(pin, m->data.reply_to_id);
  if (parent == nullptr || e.parent_kind != parent->data.kind) return false;
  return parent->data.kind == MessageKind::kComment
             ? e.tags_count == 0
             : SpanEquals(messages.tags(e), parent->data.tags);
}

/// True when a received-reply entry of `owner` equals the records behind
/// it: a comment with that date and creator, replying to a message that
/// `owner` created, of kind `r.parent_kind`.
bool ReplyMatchesRecords(const GraphStore& store, const ReadGuard& pin,
                         schema::PersonId owner, const ReplyEdge& r) {
  const MessageRecord* m = store.FindMessage(pin, r.id);
  if (m == nullptr || m->data.kind != MessageKind::kComment ||
      m->data.creation_date != r.date || m->data.creator_id != r.replier) {
    return false;
  }
  const MessageRecord* parent = store.FindMessage(pin, m->data.reply_to_id);
  return parent != nullptr && parent->data.creator_id == owner &&
         parent->data.kind == r.parent_kind;
}

TEST(GraphStoreTest, AddAndFindPerson) {
  GraphStore store;
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  auto pin = store.ReadLock();
  const PersonRecord* p = store.FindPerson(pin, 1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->data.first_name, "First1");
  EXPECT_EQ(store.FindPerson(pin, 2), nullptr);
}

TEST(GraphStoreTest, DuplicatePersonRejected) {
  GraphStore store;
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  EXPECT_EQ(store.AddPerson(MakePerson(1)).code(),
            StatusCode::kAlreadyExists);
}

TEST(GraphStoreTest, FriendshipRequiresBothEndpoints) {
  GraphStore store;
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  Knows k{1, 2, 5000};
  EXPECT_EQ(store.AddFriendship(k).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.AddPerson(MakePerson(2)).ok());
  EXPECT_TRUE(store.AddFriendship(k).ok());
  auto pin = store.ReadLock();
  EXPECT_TRUE(store.AreFriends(pin, 1, 2));
  EXPECT_TRUE(store.AreFriends(pin, 2, 1));
  EXPECT_FALSE(store.AreFriends(pin, 1, 3));
  EXPECT_EQ(store.NumKnowsEdges(), 1u);
}

TEST(GraphStoreTest, FriendListsStaySorted) {
  GraphStore store;
  for (schema::PersonId id = 0; id < 10; ++id) {
    ASSERT_TRUE(store.AddPerson(MakePerson(id)).ok());
  }
  // Insert in scrambled order.
  for (schema::PersonId other : {7, 2, 9, 1, 4}) {
    ASSERT_TRUE(store.AddFriendship({0, other, 100}).ok());
  }
  auto pin = store.ReadLock();
  const PersonRecord* p = store.FindPerson(pin, 0);
  ASSERT_NE(p, nullptr);
  for (size_t i = 1; i < p->friends.size(); ++i) {
    EXPECT_LT(p->friends[i - 1].other, p->friends[i].other);
  }
}

TEST(GraphStoreTest, ForumRequiresModerator) {
  GraphStore store;
  EXPECT_EQ(store.AddForum(MakeForum(10, 1)).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  EXPECT_TRUE(store.AddForum(MakeForum(10, 1)).ok());
  EXPECT_EQ(store.AddForum(MakeForum(10, 1)).code(),
            StatusCode::kAlreadyExists);
}

TEST(GraphStoreTest, MembershipLinksBothSides) {
  GraphStore store;
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  ASSERT_TRUE(store.AddForum(MakeForum(10, 1)).ok());
  EXPECT_EQ(store.AddForumMembership({11, 1, 2500}).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(store.AddForumMembership({10, 1, 2500}).ok());
  auto pin = store.ReadLock();
  EXPECT_EQ(store.FindPerson(pin, 1)->forums.size(), 1u);
  EXPECT_EQ(store.FindForum(pin, 10)->members.size(), 1u);
  EXPECT_EQ(store.FindForum(pin, 10)->members[0].date, 2500);
}

TEST(GraphStoreTest, PostRequiresForumCommentRequiresParent) {
  GraphStore store;
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  EXPECT_EQ(store.AddMessage(MakePost(0, 1, 10)).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(store.AddForum(MakeForum(10, 1)).ok());
  ASSERT_TRUE(store.AddMessage(MakePost(0, 1, 10)).ok());

  Message comment;
  comment.id = 1;
  comment.kind = MessageKind::kComment;
  comment.creator_id = 1;
  comment.forum_id = 10;
  comment.reply_to_id = 99;  // Missing parent.
  comment.root_post_id = 0;
  comment.creation_date = 3100;
  EXPECT_EQ(store.AddMessage(comment).code(), StatusCode::kNotFound);
  comment.reply_to_id = 0;
  EXPECT_TRUE(store.AddMessage(comment).ok());

  auto pin = store.ReadLock();
  const MessageRecord* post = store.FindMessage(pin, 0);
  ASSERT_NE(post, nullptr);
  ASSERT_EQ(post->replies.size(), 1u);
  EXPECT_EQ(post->replies[0], 1u);
  EXPECT_EQ(store.FindForum(pin, 10)->posts.size(), 1u);
  // The post and the comment each land in their creator's list of their
  // kind.
  const PersonRecord* creator = store.FindPerson(pin, 1);
  ASSERT_EQ(creator->posts.size(), 1u);
  EXPECT_EQ(creator->posts[0].id, 0u);
  ASSERT_EQ(creator->comments.size(), 1u);
  EXPECT_EQ(creator->comments[0].id, 1u);
}

TEST(GraphStoreTest, OutOfOrderLinksLandSortedInTheirLists) {
  // Memberships, posts, a photo and comments applied out of date order (as
  // the windowed driver may apply them) land sorted: memberships by (join
  // date, forum id), posts and comments each by (date, id) in the list of
  // their kind, and every tag span still the message's own.
  GraphStore store;
  constexpr schema::PersonId kMember = 1;
  ASSERT_TRUE(store.AddPerson(MakePerson(kMember)).ok());
  for (schema::ForumId f : {10, 11, 12, 13}) {
    ASSERT_TRUE(store.AddForum(MakeForum(f, kMember)).ok());
  }
  EXPECT_EQ(store.ForumIdBound(), 14u);
  // Forums 13 and 11 share a join date, and 13 is applied first.
  const std::pair<schema::ForumId, util::TimestampMs> joins[] = {
      {12, 2700}, {13, 2600}, {10, 2900}, {11, 2600}};
  for (auto [forum, date] : joins) {
    ASSERT_TRUE(store.AddForumMembership({forum, kMember, date}).ok());
  }
  // Posts 4, 5 and 7 share a date and are applied as 5, 7, 4.
  auto post = [&](schema::MessageId id, util::TimestampMs date,
                  MessageKind kind) {
    Message m = MakePost(id, kMember, 10, date);
    m.kind = kind;
    m.tags = {static_cast<schema::TagId>(id), 100};
    ASSERT_TRUE(store.AddMessage(m).ok()) << id;
  };
  auto comment = [&](schema::MessageId id, schema::MessageId parent,
                     schema::MessageId root, util::TimestampMs date) {
    Message m = MakeComment(id, kMember, parent, root, 10, date);
    m.tags = {200};
    ASSERT_TRUE(store.AddMessage(m).ok()) << id;
  };
  post(5, 3400, MessageKind::kPost);
  post(2, 3100, MessageKind::kPhoto);
  post(7, 3400, MessageKind::kPost);
  comment(9, 5, 5, 3600);
  comment(6, 2, 2, 3500);
  post(4, 3400, MessageKind::kPost);
  comment(8, 6, 2, 3550);
  comment(3, 2, 2, 3200);

  auto pin = store.ReadLock();
  const PersonRecord* p = store.FindPerson(pin, kMember);
  std::vector<std::pair<schema::ForumId, util::TimestampMs>> forums;
  for (const DatedEdge& e : p->forums.view()) forums.emplace_back(e.id, e.date);
  EXPECT_EQ(forums, (std::vector<std::pair<schema::ForumId, util::TimestampMs>>{
                        {11, 2600}, {13, 2600}, {12, 2700}, {10, 2900}}));
  auto ids = [](const CreatedMessages& messages) {
    std::vector<schema::MessageId> out;
    for (const MessageEdge& e : messages) out.push_back(e.id);
    return out;
  };
  CreatedMessages posts = p->created_posts();
  CreatedMessages comments = p->created_comments();
  EXPECT_EQ(ids(posts), (std::vector<schema::MessageId>{2, 4, 5, 7}));
  EXPECT_EQ(ids(comments), (std::vector<schema::MessageId>{3, 6, 8, 9}));
  for (const MessageEdge& e : posts) {
    EXPECT_TRUE(EdgeMatchesRecords(store, pin, posts, e, false)) << e.id;
  }
  for (const MessageEdge& e : comments) {
    EXPECT_TRUE(EdgeMatchesRecords(store, pin, comments, e, true)) << e.id;
  }
  // Two tags per post and per comment on a post or photo; none for 8.
  EXPECT_EQ(posts.pool_size(), 14u);
}

TEST(GraphStoreTest, LikeRequiresPersonAndMessage) {
  GraphStore store;
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  ASSERT_TRUE(store.AddForum(MakeForum(10, 1)).ok());
  ASSERT_TRUE(store.AddMessage(MakePost(0, 1, 10)).ok());
  EXPECT_EQ(store.AddLike({2, 0, 3200}).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.AddLike({1, 5, 3200}).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.AddLike({1, 0, 3200}).ok());
  auto pin = store.ReadLock();
  EXPECT_EQ(store.FindMessage(pin, 0)->likes.size(), 1u);
  EXPECT_EQ(store.FindPerson(pin, 1)->likes.size(), 1u);
  EXPECT_EQ(store.NumLikes(), 1u);
}

TEST(GraphStoreTest, BulkLoadRequiresEmptyStore) {
  GraphStore store;
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  schema::SocialNetwork network;
  EXPECT_EQ(store.BulkLoad(network).code(),
            StatusCode::kFailedPrecondition);
}

TEST(GraphStoreTest, BulkLoadFullDataset) {
  datagen::DatagenConfig config;
  config.num_persons = 120;
  datagen::Dataset ds = datagen::Generate(config);
  GraphStore store;
  ASSERT_TRUE(store.BulkLoad(ds.bulk).ok());
  EXPECT_EQ(store.NumPersons(), ds.bulk.persons.size());
  EXPECT_EQ(store.NumKnowsEdges(), ds.bulk.knows.size());
  EXPECT_EQ(store.NumMessages(), ds.bulk.messages.size());
  EXPECT_EQ(store.NumLikes(), ds.bulk.likes.size());
  EXPECT_EQ(store.NumMemberships(), ds.bulk.memberships.size());
  EXPECT_EQ(store.NumForums(), ds.bulk.forums.size());
}

TEST(GraphStoreTest, UpdateStreamAppliesInOrder) {
  datagen::DatagenConfig config;
  config.num_persons = 120;
  datagen::Dataset ds = datagen::Generate(config);
  GraphStore store;
  ASSERT_TRUE(store.BulkLoad(ds.bulk).ok());
  ASSERT_GT(ds.updates.size(), 0u);
  for (const datagen::UpdateOperation& op : ds.updates) {
    util::Status s = queries::ApplyUpdate(store, op);
    ASSERT_TRUE(s.ok()) << datagen::UpdateKindName(op.kind) << ": "
                        << s.ToString();
  }
  EXPECT_EQ(store.NumPersons(), ds.stats.num_persons);
  EXPECT_EQ(store.NumKnowsEdges(), ds.stats.num_knows);
  EXPECT_EQ(store.NumMessages(), ds.stats.NumMessages());
}

TEST(GraphStoreTest, MessageIdsAreDateOrdered) {
  datagen::DatagenConfig config;
  config.num_persons = 100;
  config.split_update_stream = false;
  datagen::Dataset ds = datagen::Generate(config);
  GraphStore store;
  ASSERT_TRUE(store.BulkLoad(ds.bulk).ok());
  auto pin = store.ReadLock();
  util::TimestampMs last = 0;
  for (schema::MessageId id = 0; id < store.MessageIdBound(); ++id) {
    const MessageRecord* m = store.FindMessage(pin, id);
    if (m == nullptr) continue;
    EXPECT_GE(m->data.creation_date, last);
    last = m->data.creation_date;
  }
}

TEST(GraphStoreTest, StorageBreakdownAccountsMajorStructures) {
  datagen::DatagenConfig config;
  config.num_persons = 100;
  config.split_update_stream = false;
  datagen::Dataset ds = datagen::Generate(config);
  GraphStore store;
  ASSERT_TRUE(store.BulkLoad(ds.bulk).ok());
  StorageBreakdown b = store.ComputeStorageBreakdown();
  // The message table is the records, their reply lists and content, plus
  // each person's created-message edges, tag pool and received replies.
  uint64_t message_table = 0, received_replies = 0;
  {
    auto pin = store.ReadLock();
    for (schema::MessageId id = 0; id < store.MessageIdBound(); ++id) {
      const MessageRecord* m = store.FindMessage(pin, id);
      if (m == nullptr) continue;
      message_table += sizeof(MessageRecord) + m->data.content.capacity() +
                       m->data.tags.capacity() * sizeof(schema::TagId) +
                       m->replies.capacity_bytes();
    }
    for (schema::PersonId id : store.PersonIds(pin)) {
      const PersonRecord* p = store.FindPerson(pin, id);
      received_replies += p->replies_received.capacity_bytes();
      message_table += p->posts.capacity_bytes() +
                       p->comments.capacity_bytes() +
                       p->tags.capacity_bytes() +
                       p->replies_received.capacity_bytes();
    }
  }
  EXPECT_GE(received_replies, sizeof(ReplyEdge));
  EXPECT_EQ(b.message_bytes, message_table);
  EXPECT_GT(b.message_bytes, 0u);
  EXPECT_GT(b.message_content_bytes, 0u);
  EXPECT_GT(b.likes_bytes, 0u);
  EXPECT_GT(b.membership_bytes, 0u);
  EXPECT_GT(b.friends_bytes, 0u);
  EXPECT_GT(b.person_bytes, 0u);
  // The message table (with content) dominates, as in Table 8.
  EXPECT_GT(b.message_bytes, b.friends_bytes);
  EXPECT_EQ(b.Total(), b.message_bytes + b.likes_bytes + b.membership_bytes +
                           b.friends_bytes + b.person_bytes + b.forum_bytes);
}

// The first names of the atomicity tests' persons. "Marco" and "Ravi" share
// an index bucket, so counting a name's carriers needs the record's name,
// not the bucket's size.
const std::string kAtomicityNames[] = {"Ada", "Marco", "Ravi"};

Person NamedPerson(schema::PersonId id) {
  Person p = MakePerson(id);
  p.first_name = kAtomicityNames[id % std::size(kAtomicityNames)];
  return p;
}

/// Failed cross-list sums, one counter per kind of update.
struct SumErrors {
  std::atomic<uint64_t> index{0};
  std::atomic<uint64_t> friends{0};
  std::atomic<uint64_t> likes{0};
  std::atomic<uint64_t> members{0};
  std::atomic<uint64_t> messages{0};
};

/// Checks, in one snapshot of a store whose only forum is `forum`, the sums
/// that hold between updates, each of which writes both sides: every
/// indexed id resolves and the named persons number NumPersons(); friend
/// lists hold two entries per friendship; person and message likes, and
/// person and forum memberships, agree with each other and their counters;
/// created posts match the forum's posts, created comments the replies and
/// the received replies, and the two together NumMessages().
void CheckFrozenSums(const GraphStore& store, const ReadGuard& pin,
                     schema::ForumId forum_id, SumErrors* errors) {
  uint64_t named = 0;
  for (const std::string& name : kAtomicityNames) {
    for (schema::PersonId id : store.PersonsByFirstName(pin, name)) {
      const PersonRecord* p = store.FindPerson(pin, id);
      if (p == nullptr) {
        errors->index.fetch_add(1);
      } else if (p->data.first_name == name) {
        ++named;
      }
    }
  }
  if (named != store.NumPersons()) errors->index.fetch_add(1);
  uint64_t friends = 0, person_likes = 0, person_forums = 0;
  uint64_t created_posts = 0, created_comments = 0, replies_received = 0;
  for (schema::PersonId id = 0; id < store.PersonIdBound(); ++id) {
    const PersonRecord* p = store.FindPerson(pin, id);
    if (p == nullptr) continue;
    friends += p->friends.size();
    person_likes += p->likes.size();
    person_forums += p->forums.size();
    created_posts += p->posts.size();
    created_comments += p->comments.size();
    replies_received += p->replies_received.size();
  }
  uint64_t message_likes = 0, replies = 0;
  for (schema::MessageId id = 0; id < store.MessageIdBound(); ++id) {
    const MessageRecord* m = store.FindMessage(pin, id);
    if (m == nullptr) continue;
    message_likes += m->likes.size();
    replies += m->replies.size();
  }
  const ForumRecord* forum = store.FindForum(pin, forum_id);
  const uint64_t members = forum->members.size();
  const uint64_t posts = forum->posts.size();
  if (friends != 2 * store.NumKnowsEdges()) errors->friends.fetch_add(1);
  if (person_likes != message_likes || person_likes != store.NumLikes()) {
    errors->likes.fetch_add(1);
  }
  if (person_forums != members || members != store.NumMemberships()) {
    errors->members.fetch_add(1);
  }
  if (created_posts != posts || created_comments != replies ||
      created_posts + created_comments != store.NumMessages() ||
      replies_received != replies) {
    errors->messages.fetch_add(1);
  }
}

TEST(GraphStoreTest, ConcurrentReadersDuringWritesGlobalLock) {
  // Atomicity of every two-sided Add*: a frozen snapshot, which only
  // FrozenReadLock() provides, must see each update whole or not at all,
  // so both sides of every edge, the first-name index and the counters
  // agree. The epoch pin's weaker per-object guarantees are covered by
  // the test below and by concurrency_stress_test.
  GraphStore store;
  constexpr schema::PersonId kPersons = 50;
  constexpr schema::ForumId kForum = 1000;
  ASSERT_EQ(GraphStore::FirstNameBucket(kAtomicityNames[1]),
            GraphStore::FirstNameBucket(kAtomicityNames[2]));
  for (schema::PersonId id = 0; id < kPersons; ++id) {
    ASSERT_TRUE(store.AddPerson(NamedPerson(id)).ok());
  }
  ASSERT_TRUE(store.AddForum(MakeForum(kForum, 0)).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  SumErrors errors;
  std::thread reader([&] {
    // The last pass starts after the writer is done, so the final state
    // is checked even when the writer outruns the reader.
    for (bool done = false; !done;) {
      done = stop.load();
      auto pin = store.FrozenReadLock();
      CheckFrozenSums(store, pin, kForum, &errors);
      reads.fetch_add(1);
    }
  });
  // Each round adds a person, a friendship, a post, a membership, a comment
  // on the post and three likes. The writer starts once the reader is
  // running.
  while (reads.load() == 0) std::this_thread::yield();
  for (schema::PersonId id = 1; id < kPersons; ++id) {
    util::TimestampMs date = 3000 + 2 * static_cast<int64_t>(id);
    ASSERT_TRUE(store.AddPerson(NamedPerson(kPersons + id)).ok());
    ASSERT_TRUE(store.AddFriendship({0, id, 100}).ok());
    ASSERT_TRUE(store.AddMessage(MakePost(id, id, kForum, date)).ok());
    ASSERT_TRUE(store.AddForumMembership({kForum, id, date}).ok());
    Message comment = MakeComment(100 + id, id - 1, id, id, kForum, date + 1);
    ASSERT_TRUE(store.AddMessage(comment).ok());
    ASSERT_TRUE(store.AddLike({id, id, date + 1}).ok());
    ASSERT_TRUE(store.AddLike({id - 1, id, date + 1}).ok());
    ASSERT_TRUE(store.AddLike({id, 100 + id, date + 1}).ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_GE(reads.load(), 2u);
  EXPECT_EQ(errors.friends.load(), 0u);
  EXPECT_EQ(errors.likes.load(), 0u);
  EXPECT_EQ(errors.members.load(), 0u);
  EXPECT_EQ(errors.messages.load(), 0u);
  EXPECT_EQ(errors.index.load(), 0u);
  EXPECT_EQ(store.NumPersons(), 99u);
  EXPECT_EQ(store.NumKnowsEdges(), 49u);
  EXPECT_EQ(store.NumMessages(), 98u);
  EXPECT_EQ(store.NumMemberships(), 49u);
  EXPECT_EQ(store.NumLikes(), 147u);
}

TEST(GraphStoreTest, ConcurrentWritersStayAtomicUnderFrozenReads) {
  // Atomicity with parallel writers: four writer threads apply updates
  // that share persons, one forum, parent messages and a first-name
  // bucket, while a FrozenReadLock() reader checks the sums above. In each
  // round a writer comments on the posts two other writers publish in the
  // same round, retrying while a post is not there yet.
  //
  // A writer starts round r + 1 only after the reader has finished r + 1
  // snapshots: glibc's shared_mutex lets shared holders (the writers)
  // overtake an exclusive waiter (the reader), so without this pacing the
  // reader might get no snapshot while writers run.
  GraphStore store;
  constexpr int kWriters = 4;
  constexpr uint64_t kRounds = 300;
  constexpr schema::PersonId kShared = 4;  // Persons every writer links to.
  constexpr schema::ForumId kForum = 1000;
  constexpr schema::MessageId kCommentBase = 100000;
  for (schema::PersonId id = 0; id < kShared; ++id) {
    ASSERT_TRUE(store.AddPerson(NamedPerson(id)).ok());
  }
  ASSERT_TRUE(store.AddForum(MakeForum(kForum, 0)).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> write_errors{0};
  SumErrors errors;
  std::thread reader([&] {
    // The last pass starts after the writers are done, so it checks the
    // final state.
    for (bool done = false; !done;) {
      done = stop.load();
      {
        auto pin = store.FrozenReadLock();
        CheckFrozenSums(store, pin, kForum, &errors);
      }
      reads.fetch_add(1);
    }
  });
  auto writer = [&](uint64_t w) {
    for (uint64_t r = 0; r < kRounds; ++r) {
      const uint64_t slot = r * kWriters + w;
      const schema::PersonId person = kShared + slot;
      const schema::PersonId shared = (r + w) % kShared;
      const util::TimestampMs date = 3000 + static_cast<int64_t>(r);
      bool ok = store.AddPerson(NamedPerson(person)).ok();
      // Every writer befriends every shared person in every round, even
      // writers naming it first and odd ones second, so the writers of a
      // round insert into the same friend lists at once.
      for (schema::PersonId friend_id = 0; friend_id < kShared; ++friend_id) {
        ok &= (w % 2 == 0 ? store.AddFriendship({friend_id, person, date})
                          : store.AddFriendship({person, friend_id, date}))
                  .ok();
      }
      ok &= store.AddMessage(MakePost(slot, shared, kForum, date)).ok();
      ok &= store.AddForumMembership({kForum, person, date}).ok();
      for (uint64_t k = 1; k <= 2; ++k) {
        const schema::MessageId parent = r * kWriters + (w + k) % kWriters;
        const Message comment =
            MakeComment(kCommentBase + 2 * slot + k - 1, person, parent,
                        parent, kForum, date + 1);
        util::Status status;
        while ((status = store.AddMessage(comment)).code() ==
               StatusCode::kNotFound) {
          retries.fetch_add(1);
          std::this_thread::yield();
        }
        ok &= status.ok();
        ok &= store.AddLike({person, parent, date + 1}).ok();
      }
      ok &= store.AddLike({shared, kCommentBase + 2 * slot, date + 2}).ok();
      if (!ok) write_errors.fetch_add(1);
      while (reads.load() <= r) std::this_thread::yield();
    }
  };
  std::vector<std::thread> writers;
  for (uint64_t w = 0; w < kWriters; ++w) writers.emplace_back(writer, w);
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(write_errors.load(), 0u);
  EXPECT_GT(reads.load(), kRounds);
  EXPECT_EQ(errors.friends.load(), 0u);
  EXPECT_EQ(errors.likes.load(), 0u);
  EXPECT_EQ(errors.members.load(), 0u);
  EXPECT_EQ(errors.messages.load(), 0u);
  EXPECT_EQ(errors.index.load(), 0u);
  std::printf("  %llu snapshots, %llu comment retries on an absent parent\n",
              static_cast<unsigned long long>(reads.load()),
              static_cast<unsigned long long>(retries.load()));

  // At rest: every list the store keeps sorted is in its order, and every
  // count equals its counter and the number of updates made.
  const uint64_t updates = kWriters * kRounds;
  EXPECT_EQ(store.NumPersons(), kShared + updates);
  EXPECT_EQ(store.NumKnowsEdges(), kShared * updates);
  EXPECT_EQ(store.NumMessages(), 3 * updates);
  EXPECT_EQ(store.NumMemberships(), updates);
  EXPECT_EQ(store.NumLikes(), 3 * updates);
  auto pin = store.FrozenReadLock();
  uint64_t persons = 0, messages = 0;
  auto sorted_by_date_then_id = [](const auto& list) {
    return std::is_sorted(list.begin(), list.end(),
                          [](const auto& a, const auto& b) {
                            return a.date != b.date ? a.date < b.date
                                                    : a.id < b.id;
                          });
  };
  for (schema::PersonId id = 0; id < store.PersonIdBound(); ++id) {
    const PersonRecord* p = store.FindPerson(pin, id);
    if (p == nullptr) continue;
    ++persons;
    auto friend_list = p->friends.view();
    EXPECT_TRUE(std::is_sorted(friend_list.begin(), friend_list.end(),
                               [](const FriendEdge& a, const FriendEdge& b) {
                                 return a.other < b.other;
                               }))
        << id;
    EXPECT_TRUE(sorted_by_date_then_id(p->posts.view())) << id;
    EXPECT_TRUE(sorted_by_date_then_id(p->comments.view())) << id;
    EXPECT_TRUE(sorted_by_date_then_id(p->forums.view())) << id;
    for (bool comments : {false, true}) {
      CreatedMessages created =
          comments ? p->created_comments() : p->created_posts();
      for (const MessageEdge& e : created) {
        EXPECT_TRUE(EdgeMatchesRecords(store, pin, created, e, comments));
      }
    }
    for (const ReplyEdge& r : p->replies_received.view()) {
      EXPECT_TRUE(ReplyMatchesRecords(store, pin, id, r));
    }
  }
  for (schema::MessageId id = 0; id < store.MessageIdBound(); ++id) {
    const MessageRecord* m = store.FindMessage(pin, id);
    if (m == nullptr) continue;
    ++messages;
    // Posts get two comments each (in link order); a comment gets none.
    EXPECT_EQ(m->replies.size(),
              m->data.kind == MessageKind::kComment ? 0u : 2u)
        << id;
  }
  EXPECT_EQ(persons, store.NumPersons());
  EXPECT_EQ(messages, store.NumMessages());
  EXPECT_EQ(store.FindForum(pin, kForum)->posts.size(), updates);
}

TEST(GraphStoreTest, ConcurrentReadersDuringWritesEpoch) {
  // Epoch readers never block and see per-object snapshots: every friend
  // list stays sorted and every id reachable through an adjacency list
  // resolves to a fully built record, even mid-write.
  GraphStore store;
  for (schema::PersonId id = 0; id < 50; ++id) {
    ASSERT_TRUE(store.AddPerson(MakePerson(id)).ok());
  }
  ASSERT_TRUE(store.AddForum(MakeForum(1000, 0)).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_errors{0};
  std::thread reader([&] {
    // The last pass starts after the writer is done, so the final state
    // is checked even when the writer outruns the reader.
    for (bool done = false; !done;) {
      done = stop.load();
      auto pin = store.ReadLock();
      for (schema::PersonId id = 0; id < 50; ++id) {
        const PersonRecord* p = store.FindPerson(pin, id);
        if (p == nullptr) continue;
        auto friends = p->friends.view();
        for (size_t i = 0; i < friends.size(); ++i) {
          if (i > 0 && friends[i - 1].other >= friends[i].other) {
            read_errors.fetch_add(1);
          }
          if (store.FindPerson(pin, friends[i].other) == nullptr) {
            read_errors.fetch_add(1);
          }
        }
        // Inline date, country, parent kind and tag spans match the
        // records, each edge sits in the list of its kind, and every
        // received reply matches too.
        for (bool comments : {false, true}) {
          CreatedMessages messages =
              comments ? p->created_comments() : p->created_posts();
          for (const MessageEdge& e : messages) {
            if (!EdgeMatchesRecords(store, pin, messages, e, comments)) {
              read_errors.fetch_add(1);
            }
          }
        }
        for (const ReplyEdge& r : p->replies_received.view()) {
          if (!ReplyMatchesRecords(store, pin, id, r)) {
            read_errors.fetch_add(1);
          }
        }
      }
    }
  });
  // Each round adds a post and a comment by the previous person, replying
  // to the post in even rounds and to the last comment in odd ones, so
  // edges with both parent kinds are linked while the reader runs. Posts
  // carry 0-4 tags and comments tags of their own, so the reader checks
  // spans of every length while the tag pools grow.
  for (schema::PersonId id = 1; id < 50; ++id) {
    ASSERT_TRUE(store.AddFriendship({0, id, 100}).ok());
    util::TimestampMs date = 3000 + 2 * static_cast<int64_t>(id);
    Message post = MakePost(id, id, 1000, date);
    post.country_id = static_cast<schema::PlaceId>(id % 7);
    for (uint32_t t = 0; t < id % 5; ++t) {
      post.tags.push_back(static_cast<schema::TagId>(id + t));
    }
    ASSERT_TRUE(store.AddMessage(post).ok());
    schema::MessageId parent = id % 2 == 1 && id > 1 ? 100 + id - 1 : id;
    Message comment =
        MakeComment(100 + id, id - 1, parent, id, 1000, date + 1);
    comment.country_id = static_cast<schema::PlaceId>(id % 5);
    comment.tags = {static_cast<schema::TagId>(500 + id)};
    ASSERT_TRUE(store.AddMessage(comment).ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_EQ(store.NumKnowsEdges(), 49u);
  EXPECT_EQ(store.NumMessages(), 98u);
}

TEST(GraphStoreTest, CommentEdgeCopiesParentFacts) {
  // A comment's created-message edge copies its parent's kind, and the
  // parent's tags when the parent is a post; a reply to a comment carries
  // no tags. The parent's creator receives the comment as a ReplyEdge.
  GraphStore store;
  constexpr schema::ForumId kForum = 10;
  constexpr schema::PersonId poster = 1;
  constexpr schema::PersonId replier = 2;
  constexpr schema::MessageId post_id = 0;
  constexpr schema::MessageId comment_id = 1;
  constexpr schema::MessageId reply_id = 2;
  constexpr schema::MessageId missing_id = 1000;
  for (schema::PersonId id : {poster, replier}) {
    ASSERT_TRUE(store.AddPerson(MakePerson(id)).ok());
  }
  ASSERT_TRUE(store.AddForum(MakeForum(kForum, poster)).ok());
  Message post = MakePost(post_id, poster, kForum, 3000);
  post.country_id = 7;
  post.tags = {4, 11, 2};
  ASSERT_TRUE(store.AddMessage(post).ok());

  // A comment on the post, then a reply to that comment. Their own tags
  // differ from the post's: the comment's edge must carry the post's tags,
  // and the reply's none.
  Message comment =
      MakeComment(comment_id, replier, post_id, post_id, kForum, 3100);
  comment.country_id = 8;
  comment.tags = {9};
  Message reply =
      MakeComment(reply_id, replier, comment_id, post_id, kForum, 3200);
  reply.country_id = 9;
  reply.tags = {5, 6};
  ASSERT_TRUE(store.AddMessage(comment).ok());
  ASSERT_TRUE(store.AddMessage(reply).ok());
  {
    auto pin = store.ReadLock();
    // Both comments sit in the replier's comment list, none in its posts.
    EXPECT_EQ(store.FindPerson(pin, replier)->created_posts().size(), 0u);
    CreatedMessages edges = store.FindPerson(pin, replier)->created_comments();
    ASSERT_EQ(edges.size(), 2u);
    EXPECT_EQ(edges[0].id, comment_id);
    EXPECT_EQ(edges[0].country, 8u);
    EXPECT_EQ(edges[0].parent_kind, MessageKind::kPost);
    EXPECT_TRUE(SpanEquals(edges.tags(edges[0]), {4, 11, 2}));
    EXPECT_EQ(edges[1].id, reply_id);
    EXPECT_EQ(edges[1].country, 9u);
    EXPECT_EQ(edges[1].parent_kind, MessageKind::kComment);
    EXPECT_EQ(edges[1].tags_count, 0u);
    EXPECT_EQ(edges.pool_size(), 3u);
    for (const MessageEdge& e : edges) {
      EXPECT_TRUE(EdgeMatchesRecords(store, pin, edges, e, true)) << e.id;
    }
    CreatedMessages poster_posts =
        store.FindPerson(pin, poster)->created_posts();
    ASSERT_EQ(poster_posts.size(), 1u);
    EXPECT_TRUE(
        EdgeMatchesRecords(store, pin, poster_posts, poster_posts[0], false));
    EXPECT_EQ(store.FindPerson(pin, poster)->created_comments().size(), 0u);
    // The comment is filed under the poster, the reply to it under the
    // replier, who wrote the comment it answers.
    auto to_poster = store.FindPerson(pin, poster)->replies_received.view();
    ASSERT_EQ(to_poster.size(), 1u);
    EXPECT_EQ(to_poster[0].id, comment_id);
    EXPECT_EQ(to_poster[0].date, 3100);
    EXPECT_EQ(to_poster[0].replier, replier);
    EXPECT_EQ(to_poster[0].parent_kind, MessageKind::kPost);
    auto to_replier = store.FindPerson(pin, replier)->replies_received.view();
    ASSERT_EQ(to_replier.size(), 1u);
    EXPECT_EQ(to_replier[0].id, reply_id);
    EXPECT_EQ(to_replier[0].date, 3200);
    EXPECT_EQ(to_replier[0].replier, replier);
    EXPECT_EQ(to_replier[0].parent_kind, MessageKind::kComment);
    for (schema::PersonId owner : {poster, replier}) {
      for (const ReplyEdge& r :
           store.FindPerson(pin, owner)->replies_received.view()) {
        EXPECT_TRUE(ReplyMatchesRecords(store, pin, owner, r)) << r.id;
      }
    }
    auto posts = store.FindForum(pin, kForum)->posts.view();
    ASSERT_EQ(posts.size(), 1u);
    EXPECT_EQ(posts[0].id, post_id);
    EXPECT_EQ(posts[0].creator, poster);
  }

  // A comment whose parent is absent fails and adds no edge and no tags.
  Message orphan =
      MakeComment(missing_id + 1, replier, missing_id, post_id, kForum, 3300);
  orphan.tags = {1};
  EXPECT_EQ(store.AddMessage(orphan).code(), StatusCode::kNotFound);
  auto pin = store.ReadLock();
  CreatedMessages after = store.FindPerson(pin, replier)->created_comments();
  EXPECT_EQ(after.size(), 2u);
  EXPECT_EQ(after.pool_size(), 3u);  // Nor any tags.
  // Nor a received reply.
  EXPECT_EQ(store.FindPerson(pin, poster)->replies_received.size(), 1u);
  EXPECT_EQ(store.FindPerson(pin, replier)->replies_received.size(), 1u);
  EXPECT_EQ(store.FindMessage(pin, missing_id + 1), nullptr);
  EXPECT_EQ(store.NumMessages(), 3u);
}

// ---- Edge battery -----------------------------------------------------------
//
// Every relationship kind the store models — friendships, likes, forum
// memberships, message containment and replies — is built through the
// Add* transactions, then verified by Q9 and the full short-read battery
// against the relational baseline. The hermit and lonely-poster cases from
// queries_edge_test.cc ride along: a person with no edges at all and a
// person with messages but zero friends must produce identical
// (empty-but-found) results.
class EdgeBatteryTest : public ::testing::Test {
 protected:
  static constexpr schema::PersonId kHermit = 555000;
  static constexpr schema::PersonId kLoner = 600;
  static constexpr int kPersons = 12;
  static constexpr util::TimestampMs kBatteryDate = 100000;

  void AddPersonBoth(GraphStore* s, rel::RelationalDb* db,
                     const Person& p) {
    ASSERT_TRUE(s->AddPerson(p).ok());
    ASSERT_TRUE(db->AddPerson(p).ok());
  }
  void AddForumBoth(GraphStore* s, rel::RelationalDb* db, const Forum& f) {
    ASSERT_TRUE(s->AddForum(f).ok());
    ASSERT_TRUE(db->AddForum(f).ok());
  }
  void AddFriendshipBoth(GraphStore* s, rel::RelationalDb* db,
                         const Knows& k) {
    ASSERT_TRUE(s->AddFriendship(k).ok());
    ASSERT_TRUE(db->AddFriendship(k).ok());
  }
  void AddMembershipBoth(GraphStore* s, rel::RelationalDb* db,
                         const ForumMembership& m) {
    ASSERT_TRUE(s->AddForumMembership(m).ok());
    ASSERT_TRUE(db->AddForumMembership(m).ok());
  }
  void AddMessageBoth(GraphStore* s, rel::RelationalDb* db,
                      const Message& m) {
    ASSERT_TRUE(s->AddMessage(m).ok());
    ASSERT_TRUE(db->AddMessage(m).ok());
    message_ids_.push_back(m.id);
  }
  void AddLikeBoth(GraphStore* s, rel::RelationalDb* db, const Like& l) {
    ASSERT_TRUE(s->AddLike(l).ok());
    ASSERT_TRUE(db->AddLike(l).ok());
  }

  /// The deterministic fixture network, inserted through the public Add*
  /// transactions on both SUTs (never BulkLoad, so each transaction is
  /// the one under test). Persons 1..12 in a friendship ring plus
  /// +3 chords; four forums; one post per person in a rotating forum;
  /// replies by a *different* person than the post creator; likes rotated
  /// so liker and message land far apart in id space.
  void BuildNetwork(GraphStore* s, rel::RelationalDb* db) {
    message_ids_.clear();
    for (schema::PersonId id = 1; id <= kPersons; ++id) {
      AddPersonBoth(s, db, MakePerson(id));
    }
    AddPersonBoth(s, db, MakePerson(kHermit));
    AddPersonBoth(s, db, MakePerson(kLoner));
    for (schema::ForumId f = 101; f <= 104; ++f) {
      AddForumBoth(s, db, MakeForum(f, static_cast<schema::PersonId>(
                                           (f - 101) % kPersons + 1)));
    }
    for (schema::PersonId id = 1; id <= kPersons; ++id) {
      schema::PersonId ring = id % kPersons + 1;
      AddFriendshipBoth(s, db, {id, ring, 5000 + static_cast<int64_t>(id)});
      if (id + 3 <= kPersons) {
        AddFriendshipBoth(s, db,
                          {id, id + 3, 5100 + static_cast<int64_t>(id)});
      }
    }
    for (schema::PersonId id = 1; id <= kPersons; ++id) {
      AddMembershipBoth(s, db, {101, id, 6000});
      AddMembershipBoth(s, db,
                        {101 + static_cast<schema::ForumId>(id % 4), id,
                         6100});
    }
    AddMembershipBoth(s, db, {102, kLoner, 6200});
    // Posts: message id k-1 by person k in forum 101 + (k-1) % 4.
    for (schema::PersonId id = 1; id <= kPersons; ++id) {
      AddMessageBoth(s, db,
                     MakePost(static_cast<schema::MessageId>(id - 1), id,
                              101 + static_cast<schema::ForumId>((id - 1) % 4),
                              3000 + static_cast<int64_t>(id)));
    }
    // The lonely poster: messages and a membership but zero friends.
    AddMessageBoth(s, db, MakePost(20, kLoner, 102, 3500));
    // Replies: comment 30+k on post k, by a person other than the post's
    // creator.
    for (schema::MessageId post = 0; post < 8; ++post) {
      Message c;
      c.id = 30 + post;
      c.kind = MessageKind::kComment;
      c.creator_id = static_cast<schema::PersonId>(
          (post + 5) % kPersons + 1);
      c.forum_id = 101 + static_cast<schema::ForumId>(post % 4);
      c.reply_to_id = post;
      c.root_post_id = post;
      c.creation_date = 4000 + static_cast<int64_t>(post);
      c.content = "reply " + std::to_string(post);
      AddMessageBoth(s, db, c);
    }
    // Likes: person i likes the post five creators ahead of it.
    for (schema::PersonId id = 1; id <= kPersons; ++id) {
      AddLikeBoth(s, db,
                  {id, static_cast<schema::MessageId>((id + 4) % kPersons),
                   7000 + static_cast<int64_t>(id)});
    }
  }

  /// Q9 plus the full short-read battery for every person and message,
  /// diffed row-by-row against the relational result in canonical form.
  void ExpectBatteryMatches(const GraphStore& s, const rel::RelationalDb& db) {
    std::vector<schema::PersonId> persons;
    for (schema::PersonId id = 1; id <= kPersons; ++id) persons.push_back(id);
    persons.push_back(kHermit);
    persons.push_back(kLoner);
    for (schema::PersonId p : persons) {
      auto rel_rows = validate::CanonicalRows(rel::Query9(db, p, kBatteryDate));
      EXPECT_EQ(validate::CanonicalRows(queries::Query9(s, p, kBatteryDate)),
                rel_rows)
          << "Q9, person=" << p;
      EXPECT_EQ(validate::CanonicalRow(queries::ShortQuery1PersonProfile(s, p)),
                validate::CanonicalRow(rel::ShortQuery1PersonProfile(db, p)))
          << "S1, person=" << p;
      EXPECT_EQ(
          validate::CanonicalRows(queries::ShortQuery2RecentMessages(s, p)),
          validate::CanonicalRows(rel::ShortQuery2RecentMessages(db, p)))
          << "S2, person=" << p;
      EXPECT_EQ(validate::CanonicalRows(queries::ShortQuery3Friends(s, p)),
                validate::CanonicalRows(rel::ShortQuery3Friends(db, p)))
          << "S3, person=" << p;
    }
    for (schema::MessageId m : message_ids_) {
      EXPECT_EQ(
          validate::CanonicalRow(queries::ShortQuery4MessageContent(s, m)),
          validate::CanonicalRow(rel::ShortQuery4MessageContent(db, m)))
          << "S4, message=" << m;
      EXPECT_EQ(
          validate::CanonicalRow(queries::ShortQuery5MessageCreator(s, m)),
          validate::CanonicalRow(rel::ShortQuery5MessageCreator(db, m)))
          << "S5, message=" << m;
      EXPECT_EQ(validate::CanonicalRow(queries::ShortQuery6MessageForum(s, m)),
                validate::CanonicalRow(rel::ShortQuery6MessageForum(db, m)))
          << "S6, message=" << m;
      EXPECT_EQ(
          validate::CanonicalRows(queries::ShortQuery7MessageReplies(s, m)),
          validate::CanonicalRows(rel::ShortQuery7MessageReplies(db, m)))
          << "S7, message=" << m;
    }
  }

  std::vector<schema::MessageId> message_ids_;
};

TEST_F(EdgeBatteryTest, EdgeBatteryMatchesRelational) {
  GraphStore store;
  rel::RelationalDb db;
  BuildNetwork(&store, &db);
  if (HasFatalFailure()) return;
  ExpectBatteryMatches(store, db);
}

// Hermit and zero-friend semantics: present but empty everywhere (mirrors
// queries_edge_test.cc).
TEST_F(EdgeBatteryTest, HermitAndLonerAreEmptyButFound) {
  GraphStore store;
  rel::RelationalDb db;
  BuildNetwork(&store, &db);
  if (HasFatalFailure()) return;
  EXPECT_TRUE(queries::Query9(store, kHermit, kBatteryDate).empty());
  EXPECT_TRUE(queries::ShortQuery1PersonProfile(store, kHermit).found);
  EXPECT_TRUE(queries::ShortQuery2RecentMessages(store, kHermit).empty());
  EXPECT_TRUE(queries::ShortQuery3Friends(store, kHermit).empty());
  // The loner has messages (S2 non-empty) but no friends, so the
  // friends-of-friends Q9 frontier is empty.
  EXPECT_TRUE(queries::Query9(store, kLoner, kBatteryDate).empty());
  EXPECT_FALSE(queries::ShortQuery2RecentMessages(store, kLoner).empty());
  EXPECT_TRUE(queries::ShortQuery3Friends(store, kLoner).empty());
}

}  // namespace
}  // namespace snb::store
