// A relational-style baseline SUT.
//
// The paper evaluates two systems: a native graph store (Sparksee) and a
// relational/columnar engine (Virtuoso) running the same workload. Our
// second system keeps every relation as sorted row vectors — the in-memory
// stand-in for clustered B-tree primary keys plus secondary foreign-key
// indexes ("indices are created on foreign key columns where needed,
// otherwise all is in primary key order"). Every access is a binary search
// (O(log n)) instead of the graph store's O(1) hash + adjacency pointer, so
// the two systems execute identical logical plans with different physical
// costs — the Table 6/7/9 comparison axis.
//
// Concurrency: a single writer and shared-lock read snapshots (the graph
// store runs writers in parallel on per-entity stripes instead);
// sorted-vector inserts make writes O(n) worst-case (the price a clustered
// layout pays for point inserts).
#ifndef SNB_RELATIONAL_RELATIONAL_DB_H_
#define SNB_RELATIONAL_RELATIONAL_DB_H_

#include <algorithm>
#include <shared_mutex>
#include <vector>

#include "schema/entities.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace snb::rel {

using schema::ForumId;
using schema::MessageId;
using schema::PersonId;
using util::TimestampMs;

/// One direction of a friendship edge; table stores both directions.
struct KnowsRow {
  PersonId src = schema::kInvalidId;
  PersonId dst = schema::kInvalidId;
  TimestampMs date = 0;
};

/// Secondary index row: messages by creator.
struct CreatorIndexRow {
  PersonId creator = schema::kInvalidId;
  MessageId message = schema::kInvalidId;
};

/// Secondary index row: comments by the message they reply to.
struct ReplyIndexRow {
  MessageId parent = schema::kInvalidId;
  MessageId child = schema::kInvalidId;
};

/// Forum membership; stored sorted by forum and sorted by person.
struct MemberRow {
  ForumId forum = schema::kInvalidId;
  PersonId person = schema::kInvalidId;
  TimestampMs date = 0;
};

/// Root posts by containing forum.
struct ForumPostRow {
  ForumId forum = schema::kInvalidId;
  MessageId post = schema::kInvalidId;
};

/// Like edge; stored sorted by message and sorted by person.
struct LikeRow {
  MessageId message = schema::kInvalidId;
  PersonId person = schema::kInvalidId;
  TimestampMs date = 0;
};

/// The database: base tables in primary-key order + FK indexes.
class RelationalDb {
 public:
  RelationalDb() = default;
  RelationalDb(const RelationalDb&) = delete;
  RelationalDb& operator=(const RelationalDb&) = delete;

  /// Loads a full bulk dataset into an empty database.
  util::Status BulkLoad(const schema::SocialNetwork& network);

  // Transactional inserts (exclusive lock per call).
  util::Status AddPerson(const schema::Person& person);
  util::Status AddFriendship(const schema::Knows& knows);
  util::Status AddForum(const schema::Forum& forum);
  util::Status AddForumMembership(const schema::ForumMembership& membership);
  util::Status AddMessage(const schema::Message& message);
  util::Status AddLike(const schema::Like& like);

  /// Shared lock for snapshot-consistent multi-statement reads. Returned
  /// by value, so it rides the wrapped std::shared_mutex (movable guards
  /// are invisible to the thread-safety analysis; the tables below are
  /// therefore not SNB_GUARDED_BY — writer-side discipline is enforced
  /// through SNB_REQUIRES on the *Locked helpers instead).
  std::shared_lock<std::shared_mutex> ReadLock() const {
    return std::shared_lock<std::shared_mutex>(mu_.native());
  }

  // ---- Index lookups (caller holds a read lock) -----------------------

  /// Person row by primary key; nullptr when absent.
  const schema::Person* FindPerson(PersonId id) const;
  const schema::Forum* FindForum(ForumId id) const;
  const schema::Message* FindMessage(MessageId id) const;

  /// Equal-range over the knows index: all (src=id, dst, date) rows.
  std::pair<const KnowsRow*, const KnowsRow*> FriendsOf(PersonId id) const;
  /// Equal-range over the creator index, ascending message id (== date).
  std::pair<const CreatorIndexRow*, const CreatorIndexRow*> MessagesBy(
      PersonId creator) const;
  std::pair<const ReplyIndexRow*, const ReplyIndexRow*> RepliesTo(
      MessageId parent) const;
  std::pair<const MemberRow*, const MemberRow*> MembersOf(
      ForumId forum) const;
  std::pair<const MemberRow*, const MemberRow*> ForumsOf(
      PersonId person) const;
  std::pair<const ForumPostRow*, const ForumPostRow*> PostsIn(
      ForumId forum) const;
  std::pair<const LikeRow*, const LikeRow*> LikesOf(MessageId message) const;
  std::pair<const LikeRow*, const LikeRow*> LikesBy(PersonId person) const;

  bool AreFriends(PersonId a, PersonId b) const;

  uint64_t NumPersons() const { return persons_.size(); }
  uint64_t NumMessages() const { return messages_.size(); }
  uint64_t NumKnowsEdges() const { return knows_.size() / 2; }
  uint64_t NumLikes() const { return likes_by_message_.size(); }
  uint64_t NumMemberships() const { return members_by_forum_.size(); }
  uint64_t NumForums() const { return forums_.size(); }

 private:
  util::Status AddPersonLocked(const schema::Person& person)
      SNB_REQUIRES(mu_);
  util::Status AddFriendshipLocked(const schema::Knows& knows)
      SNB_REQUIRES(mu_);
  util::Status AddForumLocked(const schema::Forum& forum) SNB_REQUIRES(mu_);
  util::Status AddForumMembershipLocked(
      const schema::ForumMembership& membership) SNB_REQUIRES(mu_);
  util::Status AddMessageLocked(const schema::Message& message)
      SNB_REQUIRES(mu_);
  util::Status AddLikeLocked(const schema::Like& like) SNB_REQUIRES(mu_);

  bool PersonExistsLocked(PersonId id) const SNB_REQUIRES(mu_);
  bool MessageExistsLocked(MessageId id) const SNB_REQUIRES(mu_);

  mutable util::SharedMutex mu_;
  // Base tables, primary-key sorted.
  std::vector<schema::Person> persons_;    // By id.
  std::vector<schema::Forum> forums_;      // By id.
  std::vector<schema::Message> messages_;  // By id (== creation order).
  // Edge tables / FK indexes.
  std::vector<KnowsRow> knows_;                    // By (src, dst).
  std::vector<CreatorIndexRow> message_by_creator_;  // By (creator, msg).
  std::vector<ReplyIndexRow> replies_;             // By (parent, child).
  std::vector<MemberRow> members_by_forum_;        // By (forum, person).
  std::vector<MemberRow> members_by_person_;       // By (person, forum).
  std::vector<ForumPostRow> posts_by_forum_;       // By (forum, post).
  std::vector<LikeRow> likes_by_message_;          // By (message, person).
  std::vector<LikeRow> likes_by_person_;           // By (person, message).
};

}  // namespace snb::rel

#endif  // SNB_RELATIONAL_RELATIONAL_DB_H_
