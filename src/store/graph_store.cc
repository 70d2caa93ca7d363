#include "store/graph_store.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <span>
#include <string>

#include "util/mutex.h"

namespace snb::store {

using schema::Knows;
using schema::Message;
using schema::Person;
using util::Status;

namespace {

constexpr auto kFriendLess = [](const FriendEdge& a, const FriendEdge& b) {
  return a.other < b.other;
};

/// The order of a person's memberships, (join date, forum id), and of its
/// created posts and comments, (creation date, id).
constexpr auto kDateThenIdLess = [](const auto& a, const auto& b) {
  if (a.date != b.date) return a.date < b.date;
  return a.id < b.id;
};

Status BadId(const char* what, uint64_t id) {
  return Status::InvalidArgument(std::string(what) + " id out of range: " +
                                 std::to_string(id));
}

}  // namespace

// ---- Public transactional API ----------------------------------------------
//
// Each transaction holds the store mutex shared and locks the stripes of
// the entities it checks or writes, then runs its body: it checks every
// record it references, then writes. A FrozenReadLock() reader holds the
// mutex exclusively, so it sees a transaction whole or not at all.
//
// Publication order is what makes epoch-pinned readers safe: a record's payload
// is stored, then its `ready` flag release-published, and only then is its
// id linked into adjacency lists (whose RcuVector appends are themselves
// release stores). A reader that can see an id in any list therefore sees
// the fully built record behind it.
//
// Check order and status strings are part of the contract: the
// differential fuzzer's oracle and the golden sets compare them.

// The analysis escape on StripeLock's constructor and destructor (see the
// declarations): the stripes are picked by run-time ids, which the analysis
// cannot name. Proof: each distinct stripe is locked once, in ascending
// index order, by a caller that holds `mu_` shared, and the destructor
// unlocks exactly the stripes locked here. Every writer takes stripes in
// that one order and takes no other store lock while it waits for one (a
// DenseTable's grow_mu_ and the epoch's retire_mu_ are taken under the
// stripes and released before they are), and the exclusive holders of
// `mu_` take no stripe, so no lock-order cycle can form.
GraphStore::StripeLock::StripeLock(GraphStore& store,
                                   std::initializer_list<size_t> stripes)
    : stripes_(store.stripes_) {
  assert(stripes.size() <= held_.size());
  for (size_t stripe : stripes) held_[count_++] = stripe;
  std::sort(held_.begin(), held_.begin() + count_);
  count_ = static_cast<size_t>(
      std::unique(held_.begin(), held_.begin() + count_) - held_.begin());
  for (size_t i = 0; i < count_; ++i) stripes_[held_[i]].mu.Lock();
}

GraphStore::StripeLock::~StripeLock() {
  for (size_t i = count_; i > 0; --i) stripes_[held_[i - 1]].mu.Unlock();
}

PersonRecord* GraphStore::MutablePerson(schema::PersonId id) {
  PersonRecord* p = persons_.MutableSlot(id);
  return p != nullptr && p->present() ? p : nullptr;
}

ForumRecord* GraphStore::MutableForum(schema::ForumId id) {
  ForumRecord* f = forums_.MutableSlot(id);
  return f != nullptr && f->present() ? f : nullptr;
}

MessageRecord* GraphStore::MutableMessage(schema::MessageId id) {
  MessageRecord* m = messages_.MutableSlot(id);
  return m != nullptr && m->present() ? m : nullptr;
}

Status GraphStore::BulkLoad(const schema::SocialNetwork& network) {
  // One exclusive section for the whole load: no other writer runs, so the
  // bodies need neither stripes nor an epoch pin.
  util::WriterMutexLock lock(&mu_);
  if (NumPersons() != 0 || MessageIdBound() != 0) {
    return Status::FailedPrecondition("BulkLoad requires an empty store");
  }
  for (const Person& p : network.persons) {
    SNB_RETURN_IF_ERROR(AddPersonLocked(p));
  }
  for (const Knows& k : network.knows) {
    SNB_RETURN_IF_ERROR(AddFriendshipLocked(k));
  }
  for (const schema::Forum& f : network.forums) {
    SNB_RETURN_IF_ERROR(AddForumLocked(f));
  }
  // In each person's list order, (join date, forum id), so every
  // insert_sorted appends. The generated list is about half inverted per
  // person (34,365 of 68,706 adjacent pairs at SF0.4), and each inversion
  // would copy and retire the list's buffer.
  std::vector<const schema::ForumMembership*> memberships;
  memberships.reserve(network.memberships.size());
  for (const schema::ForumMembership& fm : network.memberships) {
    memberships.push_back(&fm);
  }
  std::stable_sort(memberships.begin(), memberships.end(),
                   [](const schema::ForumMembership* a,
                      const schema::ForumMembership* b) {
                     return kDateThenIdLess(
                         DatedEdge{a->forum_id, a->join_date},
                         DatedEdge{b->forum_id, b->join_date});
                   });
  for (const schema::ForumMembership* fm : memberships) {
    SNB_RETURN_IF_ERROR(AddForumMembershipLocked(*fm));
  }
  for (const Message& m : network.messages) {
    SNB_RETURN_IF_ERROR(AddMessageLocked(m));
  }
  for (const schema::Like& l : network.likes) {
    SNB_RETURN_IF_ERROR(AddLikeLocked(l));
  }
  return Status::Ok();
}

// Each public Add* pins the epoch before its first table lookup: another
// writer may grow a table and retire the directory the lookup reads.

Status GraphStore::AddPerson(const Person& person) {
  util::ReaderMutexLock lock(&mu_);
  util::EpochPin pin = util::EpochManager::Global().pin();
  StripeLock stripes(
      *this, {StripeOf(StripeKind::kPerson, person.id),
              StripeOf(StripeKind::kFirstName,
                       FirstNameBucket(person.first_name))});
  return AddPersonLocked(person);
}

Status GraphStore::AddFriendship(const Knows& knows) {
  util::ReaderMutexLock lock(&mu_);
  util::EpochPin pin = util::EpochManager::Global().pin();
  StripeLock stripes(*this, {StripeOf(StripeKind::kPerson, knows.person1_id),
                             StripeOf(StripeKind::kPerson, knows.person2_id)});
  return AddFriendshipLocked(knows);
}

Status GraphStore::AddForum(const schema::Forum& forum) {
  util::ReaderMutexLock lock(&mu_);
  util::EpochPin pin = util::EpochManager::Global().pin();
  StripeLock stripes(*this,
                     {StripeOf(StripeKind::kPerson, forum.moderator_id),
                      StripeOf(StripeKind::kForum, forum.id)});
  return AddForumLocked(forum);
}

Status GraphStore::AddForumMembership(
    const schema::ForumMembership& membership) {
  util::ReaderMutexLock lock(&mu_);
  util::EpochPin pin = util::EpochManager::Global().pin();
  StripeLock stripes(*this,
                     {StripeOf(StripeKind::kPerson, membership.person_id),
                      StripeOf(StripeKind::kForum, membership.forum_id)});
  return AddForumMembershipLocked(membership);
}

Status GraphStore::AddMessage(const Message& message) {
  util::ReaderMutexLock lock(&mu_);
  util::EpochPin pin = util::EpochManager::Global().pin();
  const size_t creator = StripeOf(StripeKind::kPerson, message.creator_id);
  const size_t id = StripeOf(StripeKind::kMessage, message.id);
  if (message.kind != schema::MessageKind::kComment) {
    StripeLock stripes(*this,
                       {creator, id, StripeOf(StripeKind::kForum,
                                              message.forum_id)});
    return AddMessageLocked(message);
  }
  // A comment also links into its parent's replies and its parent
  // creator's received replies. The parent creator is read from the
  // published parent record, whose data never changes, before locking.
  const size_t parent = StripeOf(StripeKind::kMessage, message.reply_to_id);
  for (;;) {
    if (const MessageRecord* p = MutableMessage(message.reply_to_id)) {
      StripeLock stripes(
          *this, {creator, id, parent,
                  StripeOf(StripeKind::kPerson, p->data.creator_id)});
      return AddMessageLocked(message);
    }
    // Absent: only a writer holding the parent's stripe can publish it, so
    // under that stripe the body's verdict stands, unless the parent was
    // published between the lookup and the lock; then its creator's
    // stripe is needed too.
    StripeLock stripes(*this, {creator, id, parent});
    if (MutableMessage(message.reply_to_id) == nullptr) {
      return AddMessageLocked(message);
    }
  }
}

Status GraphStore::AddLike(const schema::Like& like) {
  util::ReaderMutexLock lock(&mu_);
  util::EpochPin pin = util::EpochManager::Global().pin();
  StripeLock stripes(*this, {StripeOf(StripeKind::kPerson, like.person_id),
                             StripeOf(StripeKind::kMessage, like.message_id)});
  return AddLikeLocked(like);
}

Status GraphStore::AddPersonLocked(const Person& person) {
  if (person.id >= kMaxEntityId) return BadId("person", person.id);
  PersonRecord* rec = persons_.GrowToSlot(person.id);
  if (rec->present()) {
    return Status::AlreadyExists("person " + std::to_string(person.id));
  }
  rec->data = person;
  rec->ready.store(1, std::memory_order_release);
  // Indexed only once published, so a reader that finds the id in its
  // bucket can resolve the record.
  first_name_index_[FirstNameBucket(person.first_name)].push_back(person.id);
  num_persons_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

Status GraphStore::AddFriendshipLocked(const Knows& knows) {
  PersonRecord* p1 = MutablePerson(knows.person1_id);
  PersonRecord* p2 = MutablePerson(knows.person2_id);
  if (p1 == nullptr || p2 == nullptr) {
    return Status::NotFound("friendship endpoint missing");
  }
  p1->friends.insert_sorted({knows.person2_id, knows.creation_date},
                            kFriendLess);
  p2->friends.insert_sorted({knows.person1_id, knows.creation_date},
                            kFriendLess);
  num_knows_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

Status GraphStore::AddForumLocked(const schema::Forum& forum) {
  if (forum.id >= kMaxEntityId) return BadId("forum", forum.id);
  if (MutablePerson(forum.moderator_id) == nullptr) {
    return Status::NotFound("forum moderator missing");
  }
  ForumRecord* rec = forums_.GrowToSlot(forum.id);
  if (rec->present()) {
    return Status::AlreadyExists("forum " + std::to_string(forum.id));
  }
  rec->data = forum;
  rec->ready.store(1, std::memory_order_release);
  num_forums_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

Status GraphStore::AddForumMembershipLocked(
    const schema::ForumMembership& membership) {
  PersonRecord* person = MutablePerson(membership.person_id);
  ForumRecord* forum = MutableForum(membership.forum_id);
  if (person == nullptr || forum == nullptr) {
    return Status::NotFound("membership endpoint missing");
  }
  person->forums.insert_sorted({membership.forum_id, membership.join_date},
                               kDateThenIdLess);
  forum->members.push_back({membership.person_id, membership.join_date});
  num_memberships_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

Status GraphStore::AddMessageLocked(const Message& message) {
  if (message.id >= kMaxEntityId) return BadId("message", message.id);
  PersonRecord* creator = MutablePerson(message.creator_id);
  if (creator == nullptr) return Status::NotFound("message creator missing");
  MessageRecord* parent = nullptr;
  PersonRecord* parent_creator = nullptr;
  ForumRecord* forum = nullptr;
  if (message.kind == schema::MessageKind::kComment) {
    parent = MutableMessage(message.reply_to_id);
    if (parent == nullptr) return Status::NotFound("comment parent missing");
    // Present: the parent was linked to it, and persons are never removed.
    parent_creator = MutablePerson(parent->data.creator_id);
  } else {
    forum = MutableForum(message.forum_id);
    if (forum == nullptr) return Status::NotFound("post forum missing");
  }
  if (MutableMessage(message.id) != nullptr) {
    return Status::AlreadyExists("message " + std::to_string(message.id));
  }

  // The creator's edge carries the message's facts and, for a comment,
  // its parent's kind. The parent read needs no lock of its own: records
  // never move, and the parent's fields are fixed once it is published, so
  // the copies can never go stale.
  MessageEdge edge;
  edge.id = message.id;
  edge.date = message.creation_date;
  edge.country = message.country_id;
  std::span<const schema::TagId> tags = message.tags;
  if (parent != nullptr) {
    edge.parent_kind = parent->data.kind;
    // A reply to a post or photo carries the post's tags (Q12 reads them);
    // a reply to a comment carries none.
    tags = parent->data.kind == schema::MessageKind::kComment
               ? std::span<const schema::TagId>()
               : std::span<const schema::TagId>(parent->data.tags);
  }
  // The span's 32-bit offsets cap one person's pool at 2^32 - 1 tags
  // (16 GiB of them); past that the message is rejected before anything
  // is written.
  const size_t pool = creator->tags.size();
  if (tags.size() > std::numeric_limits<uint32_t>::max() - pool) {
    return Status::InvalidArgument("tag pool full for person " +
                                   std::to_string(message.creator_id));
  }
  edge.tags_begin = static_cast<uint32_t>(pool);
  edge.tags_count = static_cast<uint32_t>(tags.size());

  // The record (and its `ready` flag) first, links after.
  MessageRecord* rec = messages_.GrowToSlot(message.id);
  rec->data = message;
  rec->ready.store(1, std::memory_order_release);
  num_messages_.fetch_add(1, std::memory_order_release);
  // The tags go into the pool before the edge is published (the order
  // PersonRecord::created_posts() and created_comments() read in). The
  // pool is never reordered, so the span stays valid wherever
  // insert_sorted puts the edge.
  creator->tags.append(tags.data(), tags.size());
  // Keep the creator's post and comment lists sorted by (date, id)
  // regardless of application order. Q2/Q9 binary-search them by date and
  // S2 merges them newest-first; the windowed driver and a
  // TrackEveryUpdate stream may apply two messages of one creator out of
  // due-time order when they run on different streams, so insertion — not
  // arrival — establishes the invariant. Datagen streams are mostly
  // ordered, so this is an O(1) append except for the rare
  // cross-partition inversion.
  util::RcuVector<MessageEdge>& created =
      parent != nullptr ? creator->comments : creator->posts;
  created.insert_sorted(edge, kDateThenIdLess);
  if (parent != nullptr) {
    parent->replies.push_back(message.id);
    parent_creator->replies_received.push_back(
        {message.id, message.creation_date, message.creator_id,
         parent->data.kind});
  } else {
    forum->posts.push_back({message.id, message.creator_id});
  }
  return Status::Ok();
}

Status GraphStore::AddLikeLocked(const schema::Like& like) {
  PersonRecord* person = MutablePerson(like.person_id);
  if (person == nullptr) return Status::NotFound("like person missing");
  MessageRecord* message = MutableMessage(like.message_id);
  if (message == nullptr) return Status::NotFound("liked message missing");
  person->likes.push_back({like.message_id, like.creation_date});
  message->likes.push_back({like.person_id, like.creation_date});
  num_likes_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

// ---- Read accessors ---------------------------------------------------------

bool GraphStore::AreFriends(const ReadGuard& pin, schema::PersonId a,
                            schema::PersonId b) const {
  SNB_INVARIANT_ROOT("pinned_read");
  const PersonRecord* pa = FindPerson(pin, a);
  if (pa == nullptr) return false;
  auto friends = pa->friends.view();
  auto it = std::lower_bound(
      friends.begin(), friends.end(), b,
      [](const FriendEdge& e, schema::PersonId id) { return e.other < id; });
  return it != friends.end() && it->other == b;
}

std::vector<schema::PersonId> GraphStore::PersonIds(
    const ReadGuard& pin) const {
  std::vector<schema::PersonId> ids;
  ids.reserve(NumPersons());
  const uint64_t bound = persons_.bound();
  for (uint64_t id = 0; id < bound; ++id) {
    if (FindPerson(pin, id) != nullptr) ids.push_back(id);
  }
  return ids;
}

std::vector<schema::ForumId> GraphStore::ForumIds(const ReadGuard& pin) const {
  std::vector<schema::ForumId> ids;
  ids.reserve(NumForums());
  const uint64_t bound = forums_.bound();
  for (uint64_t id = 0; id < bound; ++id) {
    if (FindForum(pin, id) != nullptr) ids.push_back(id);
  }
  return ids;
}

StorageBreakdown GraphStore::ComputeStorageBreakdown() const {
  StorageBreakdown b;
  util::WriterMutexLock lock(&mu_);
  uint64_t message_bound = messages_.bound();
  for (uint64_t id = 0; id < message_bound; ++id) {
    const MessageRecord* m = messages_.Slot(id);
    if (m == nullptr || !m->present()) continue;
    b.message_bytes += sizeof(MessageRecord) + m->data.content.capacity() +
                       m->data.tags.capacity() * sizeof(schema::TagId) +
                       m->replies.capacity_bytes();
    b.message_content_bytes += m->data.content.capacity();
    b.likes_bytes += m->likes.capacity_bytes();
  }
  uint64_t person_bound = persons_.bound();
  for (uint64_t id = 0; id < person_bound; ++id) {
    const PersonRecord* p = persons_.Slot(id);
    if (p == nullptr || !p->present()) continue;
    uint64_t attr = sizeof(PersonRecord) + p->data.first_name.capacity() +
                    p->data.last_name.capacity() +
                    p->data.browser.capacity() +
                    p->data.location_ip.capacity() +
                    p->data.interests.capacity() * sizeof(schema::TagId) +
                    p->data.languages.capacity() * sizeof(uint32_t);
    for (const std::string& e : p->data.emails) attr += e.capacity();
    b.person_bytes += attr;
    b.friends_bytes += p->friends.capacity_bytes();
    b.membership_bytes += p->forums.capacity_bytes();
    b.likes_bytes += p->likes.capacity_bytes();
    b.message_bytes += p->posts.capacity_bytes() +
                       p->comments.capacity_bytes() +
                       p->tags.capacity_bytes() +
                       p->replies_received.capacity_bytes();
  }
  b.person_bytes += sizeof(first_name_index_);
  for (const auto& bucket : first_name_index_) {
    b.person_bytes += bucket.capacity_bytes();
  }
  uint64_t forum_bound = forums_.bound();
  for (uint64_t id = 0; id < forum_bound; ++id) {
    const ForumRecord* f = forums_.Slot(id);
    if (f == nullptr || !f->present()) continue;
    b.forum_bytes += sizeof(ForumRecord) + f->data.title.capacity() +
                     f->data.tags.capacity() * sizeof(schema::TagId) +
                     f->posts.capacity_bytes();
    b.membership_bytes += f->members.capacity_bytes();
  }
  return b;
}

}  // namespace snb::store
