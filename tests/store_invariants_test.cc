// Parameterized integration invariants: after loading a generated dataset
// (bulk only, or bulk + replayed update stream) the store's index
// structures must be mutually consistent at every scale.
#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "queries/update_queries.h"
#include "store/graph_store.h"

namespace snb::store {
namespace {

using Param = std::tuple<double /*sf*/, bool /*apply_updates*/>;

class StoreInvariantsTest : public ::testing::TestWithParam<Param> {
 protected:
  static GraphStore& store() { return World().store_; }
  static const datagen::Dataset& dataset() { return World().dataset_; }

 private:
  struct WorldState {
    datagen::Dataset dataset_;
    GraphStore store_;
  };

  static WorldState& World() {
    // One world per parameter combination, built lazily and cached.
    static std::map<Param, WorldState*>* worlds =
        new std::map<Param, WorldState*>();
    auto it = worlds->find(GetParam());
    if (it == worlds->end()) {
      auto* world = new WorldState();
      auto [sf, apply_updates] = GetParam();
      datagen::DatagenConfig config =
          datagen::DatagenConfig::ForScaleFactor(sf);
      world->dataset_ = datagen::Generate(config);
      EXPECT_TRUE(world->store_.BulkLoad(world->dataset_.bulk).ok());
      if (apply_updates) {
        for (const datagen::UpdateOperation& op : world->dataset_.updates) {
          EXPECT_TRUE(queries::ApplyUpdate(world->store_, op).ok());
        }
      }
      it = worlds->emplace(GetParam(), world).first;
    }
    return *it->second;
  }
};

TEST_P(StoreInvariantsTest, FriendListsSortedAndSymmetric) {
  auto pin = store().ReadLock();
  uint64_t directed_edges = 0;
  for (schema::PersonId id : store().PersonIds(pin)) {
    const PersonRecord* p = store().FindPerson(pin, id);
    ASSERT_NE(p, nullptr);
    auto friends = p->friends.view();
    for (size_t i = 1; i < friends.size(); ++i) {
      EXPECT_LT(friends[i - 1].other, friends[i].other);
    }
    for (const FriendEdge& e : friends) {
      EXPECT_TRUE(store().AreFriends(pin, e.other, id))
          << id << " <-> " << e.other;
      ++directed_edges;
    }
  }
  EXPECT_EQ(directed_edges, 2 * store().NumKnowsEdges());
}

TEST_P(StoreInvariantsTest, ReplyTreeIsConsistent) {
  auto pin = store().ReadLock();
  uint64_t replies_seen = 0;
  for (schema::MessageId id = 0; id < store().MessageIdBound(); ++id) {
    const MessageRecord* m = store().FindMessage(pin, id);
    if (m == nullptr) continue;
    if (m->data.kind == schema::MessageKind::kComment) {
      const MessageRecord* parent = store().FindMessage(pin, m->data.reply_to_id);
      ASSERT_NE(parent, nullptr);
      // Child is registered in the parent's reply list.
      bool found = false;
      for (schema::MessageId r : parent->replies.view()) {
        if (r == id) found = true;
      }
      EXPECT_TRUE(found);
      // Root chains to a post/photo in the same forum.
      const MessageRecord* root = store().FindMessage(pin, m->data.root_post_id);
      ASSERT_NE(root, nullptr);
      EXPECT_NE(root->data.kind, schema::MessageKind::kComment);
      EXPECT_EQ(root->data.forum_id, m->data.forum_id);
    } else {
      EXPECT_EQ(m->data.root_post_id, id);
    }
    replies_seen += m->replies.size();
  }
  // Every comment appears in exactly one reply list.
  uint64_t comments = 0;
  for (schema::MessageId id = 0; id < store().MessageIdBound(); ++id) {
    const MessageRecord* m = store().FindMessage(pin, id);
    if (m != nullptr && m->data.kind == schema::MessageKind::kComment) {
      ++comments;
    }
  }
  EXPECT_EQ(replies_seen, comments);
}

TEST_P(StoreInvariantsTest, ForumPostsMatchMessages) {
  auto pin = store().ReadLock();
  uint64_t posts_in_forums = 0;
  for (schema::ForumId fid : store().ForumIds(pin)) {
    const ForumRecord* f = store().FindForum(pin, fid);
    ASSERT_NE(f, nullptr);
    for (const PostEdge& post : f->posts.view()) {
      const MessageRecord* m = store().FindMessage(pin, post.id);
      ASSERT_NE(m, nullptr);
      EXPECT_NE(m->data.kind, schema::MessageKind::kComment);
      EXPECT_EQ(m->data.forum_id, fid);
      EXPECT_EQ(post.creator, m->data.creator_id);  // Inline creator matches.
      ++posts_in_forums;
    }
    // Moderator exists and membership dates follow forum creation.
    EXPECT_NE(store().FindPerson(pin, f->data.moderator_id), nullptr);
    for (const DatedEdge& member : f->members.view()) {
      EXPECT_GE(member.date, f->data.creation_date);
    }
  }
  uint64_t root_messages = 0;
  for (schema::MessageId id = 0; id < store().MessageIdBound(); ++id) {
    const MessageRecord* m = store().FindMessage(pin, id);
    if (m != nullptr && m->data.kind != schema::MessageKind::kComment) {
      ++root_messages;
    }
  }
  EXPECT_EQ(posts_in_forums, root_messages);
}

TEST_P(StoreInvariantsTest, LikesAreBidirectional) {
  auto pin = store().ReadLock();
  uint64_t from_messages = 0, from_persons = 0;
  for (schema::MessageId id = 0; id < store().MessageIdBound(); ++id) {
    const MessageRecord* m = store().FindMessage(pin, id);
    if (m != nullptr) from_messages += m->likes.size();
  }
  for (schema::PersonId id : store().PersonIds(pin)) {
    from_persons += store().FindPerson(pin, id)->likes.size();
  }
  EXPECT_EQ(from_messages, store().NumLikes());
  EXPECT_EQ(from_persons, store().NumLikes());
}

TEST_P(StoreInvariantsTest, CreatorListsCoverAllMessages) {
  auto pin = store().ReadLock();
  uint64_t via_creators = 0;
  std::unordered_set<schema::MessageId> seen;
  for (schema::PersonId id : store().PersonIds(pin)) {
    const PersonRecord* p = store().FindPerson(pin, id);
    // `posts` holds only posts and photos, `comments` only comments.
    for (bool comment_list : {false, true}) {
      CreatedMessages messages =
          comment_list ? p->created_comments() : p->created_posts();
      const MessageEdge* previous = nullptr;
      for (const MessageEdge& e : messages) {
        const MessageRecord* m = store().FindMessage(pin, e.id);
        ASSERT_NE(m, nullptr);
        EXPECT_TRUE(seen.insert(e.id).second) << "message " << e.id;
        EXPECT_EQ(m->data.creator_id, id);
        EXPECT_EQ(m->data.kind == schema::MessageKind::kComment, comment_list)
            << "message " << e.id;
        EXPECT_EQ(m->data.creation_date, e.date);  // Inline date matches.
        // Every other inline fact matches the records too.
        EXPECT_EQ(e.country, m->data.country_id) << "message " << e.id;
        // The tag span lies inside the pool, and holds the post's tags:
        // the message's own for a post or photo, the parent's for a
        // comment on one, none for a reply to a comment.
        ASSERT_LE(uint64_t{e.tags_begin} + e.tags_count,
                  messages.pool_size())
            << "message " << e.id;
        std::span<const schema::TagId> tags = messages.tags(e);
        std::vector<schema::TagId> span(tags.begin(), tags.end());
        if (comment_list) {
          const MessageRecord* parent =
              store().FindMessage(pin, m->data.reply_to_id);
          ASSERT_NE(parent, nullptr);
          EXPECT_EQ(e.parent_kind, parent->data.kind) << "message " << e.id;
          if (parent->data.kind == schema::MessageKind::kComment) {
            EXPECT_EQ(e.tags_count, 0u) << "message " << e.id;
          } else {
            EXPECT_EQ(span, parent->data.tags) << "message " << e.id;
          }
        } else {
          EXPECT_EQ(e.parent_kind, schema::MessageKind::kPost)
              << "message " << e.id;
          EXPECT_EQ(span, m->data.tags) << "message " << e.id;
        }
        // Sorted by (date, id).
        if (previous != nullptr) {
          EXPECT_TRUE(previous->date < e.date ||
                      (previous->date == e.date && previous->id < e.id))
              << "message " << e.id;
        }
        previous = &e;
        ++via_creators;
      }
    }
  }
  // Each message sits in exactly one list: the two list sizes sum to the
  // message count, and no id repeats.
  EXPECT_EQ(via_creators, store().NumMessages());
}

TEST_P(StoreInvariantsTest, MembershipsSortedByJoinDate) {
  auto pin = store().ReadLock();
  uint64_t memberships = 0;
  for (schema::PersonId id : store().PersonIds(pin)) {
    auto forums = store().FindPerson(pin, id)->forums.view();
    for (size_t i = 0; i < forums.size(); ++i) {
      ASSERT_NE(store().FindForum(pin, forums[i].id), nullptr)
          << "person " << id << ", forum " << forums[i].id;
      EXPECT_LT(forums[i].id, store().ForumIdBound());
      if (i > 0) {
        EXPECT_TRUE(forums[i - 1].date < forums[i].date ||
                    (forums[i - 1].date == forums[i].date &&
                     forums[i - 1].id < forums[i].id))
            << "person " << id << ", forum " << forums[i].id;
      }
    }
    memberships += forums.size();
  }
  EXPECT_EQ(memberships, store().NumMemberships());
}

TEST_P(StoreInvariantsTest, ReceivedRepliesHoldEveryCommentOnce) {
  auto pin = store().ReadLock();
  // Every entry is a comment replying to a message of the list's owner,
  // with the comment's id, date and creator and its parent's kind, and no
  // comment is filed twice.
  std::unordered_map<schema::MessageId, schema::PersonId> owner_of;
  uint64_t entries = 0;
  for (schema::PersonId id : store().PersonIds(pin)) {
    const PersonRecord* p = store().FindPerson(pin, id);
    entries += p->replies_received.size();
    for (const ReplyEdge& r : p->replies_received.view()) {
      EXPECT_TRUE(owner_of.emplace(r.id, id).second)
          << "comment " << r.id << " filed twice";
      const MessageRecord* m = store().FindMessage(pin, r.id);
      ASSERT_NE(m, nullptr) << "comment " << r.id;
      EXPECT_EQ(m->data.kind, schema::MessageKind::kComment)
          << "message " << r.id;
      EXPECT_EQ(r.date, m->data.creation_date) << "comment " << r.id;
      EXPECT_EQ(r.replier, m->data.creator_id) << "comment " << r.id;
      const MessageRecord* parent =
          store().FindMessage(pin, m->data.reply_to_id);
      ASSERT_NE(parent, nullptr) << "comment " << r.id;
      EXPECT_EQ(r.parent_kind, parent->data.kind) << "comment " << r.id;
    }
  }
  // Every comment is filed under its parent's creator; with the above,
  // each comment appears exactly once and the lists sum to the comments.
  uint64_t comments = 0;
  for (schema::MessageId id = 0; id < store().MessageIdBound(); ++id) {
    const MessageRecord* m = store().FindMessage(pin, id);
    if (m == nullptr || m->data.kind != schema::MessageKind::kComment) {
      continue;
    }
    ++comments;
    const MessageRecord* parent =
        store().FindMessage(pin, m->data.reply_to_id);
    ASSERT_NE(parent, nullptr) << "comment " << id;
    auto it = owner_of.find(id);
    ASSERT_NE(it, owner_of.end()) << "comment " << id << " not filed";
    EXPECT_EQ(it->second, parent->data.creator_id) << "comment " << id;
  }
  EXPECT_EQ(entries, comments);
}

/// One name per first-name bucket, so a test can read every bucket through
/// PersonsByFirstName.
std::vector<std::string> NamePerBucket() {
  std::vector<std::string> names(GraphStore::kFirstNameBuckets);
  size_t found = 0;
  for (uint64_t i = 0; found < names.size(); ++i) {
    std::string name = "n" + std::to_string(i);
    std::string& slot = names[GraphStore::FirstNameBucket(name)];
    if (slot.empty()) {
      slot = std::move(name);
      ++found;
    }
  }
  return names;
}

TEST_P(StoreInvariantsTest, FirstNameIndexHoldsEveryPersonOnce) {
  auto pin = store().ReadLock();
  // Every present person sits exactly once in its own name's bucket.
  for (schema::PersonId id : store().PersonIds(pin)) {
    const PersonRecord* p = store().FindPerson(pin, id);
    auto bucket = store().PersonsByFirstName(pin, p->data.first_name);
    EXPECT_EQ(std::count(bucket.begin(), bucket.end(), id), 1)
        << "person " << id;
  }
  // Every indexed id is a present person filed under its own name, and
  // the buckets together hold NumPersons() ids.
  uint64_t indexed = 0;
  for (const std::string& probe : NamePerBucket()) {
    for (schema::PersonId id : store().PersonsByFirstName(pin, probe)) {
      const PersonRecord* p = store().FindPerson(pin, id);
      ASSERT_NE(p, nullptr) << "indexed id " << id;
      EXPECT_EQ(GraphStore::FirstNameBucket(p->data.first_name),
                GraphStore::FirstNameBucket(probe))
          << "person " << id;
      ++indexed;
    }
  }
  EXPECT_EQ(indexed, store().NumPersons());
}

TEST_P(StoreInvariantsTest, CountsMatchDatasetStats) {
  auto [sf, apply_updates] = GetParam();
  if (apply_updates) {
    EXPECT_EQ(store().NumPersons(), dataset().stats.num_persons);
    EXPECT_EQ(store().NumKnowsEdges(), dataset().stats.num_knows);
    EXPECT_EQ(store().NumMessages(), dataset().stats.NumMessages());
    EXPECT_EQ(store().NumLikes(), dataset().stats.num_likes);
  } else {
    EXPECT_EQ(store().NumPersons(), dataset().bulk.persons.size());
    EXPECT_EQ(store().NumMessages(), dataset().bulk.messages.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StoreInvariantsTest,
    ::testing::Combine(::testing::Values(0.02, 0.08),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string("sf") +
             std::to_string(static_cast<int>(std::get<0>(info.param) * 100)) +
             (std::get<1>(info.param) ? "WithUpdates" : "BulkOnly");
    });

}  // namespace
}  // namespace snb::store
