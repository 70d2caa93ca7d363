#include "store/graph_store.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <optional>
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

Status BadId(const char* what, uint64_t id) {
  return Status::InvalidArgument(std::string(what) + " id out of range: " +
                                 std::to_string(id));
}

}  // namespace

GraphStore::GraphStore(ReadConcurrency mode, uint32_t num_shards)
    : mode_(mode), num_shards_(num_shards) {
  if (num_shards_ < 1 || num_shards_ > kMaxShards) {
    std::fprintf(stderr, "GraphStore: num_shards %u outside [1, %u]\n",
                 num_shards_, kMaxShards);
    std::abort();
  }
  // Shard i retires into process-wide domain i; Domain(0) is Global(), so
  // a single-shard store is indistinguishable from the pre-sharding one.
  for (uint32_t i = 0; i < kMaxShards; ++i) {
    shards_[i].epoch = &util::EpochManager::Domain(i);
  }
}

// ---- Public transactional API ----------------------------------------------
//
// Each transaction is a presence-validation prefix (lock-free monotone
// probes) followed by its per-shard halves in publication order, all run
// under one TxnLocks: the writer lock of every shard the transaction
// touches, taken once each in ascending shard order. A kGlobalLock reader
// takes the same locks shared in the same order, so it sees a transaction
// whole or not at all, and the two never deadlock. Presence never reverts
// and records never move, so a probe that succeeded stays true for the
// rest of the transaction; each half then re-resolves its own shard's
// records. Check order and status strings are kept exactly as the
// pre-sharding single-lock code produced them, so the differential
// fuzzer's oracle and the golden sets see identical outcomes.

class GraphStore::TxnLocks {
 public:
  TxnLocks(GraphStore* store, std::initializer_list<uint32_t> shards)
      SNB_NO_THREAD_SAFETY_ANALYSIS {
    std::array<uint32_t, 3> order{};
    for (uint32_t shard : shards) order[count_++] = shard;
    std::sort(order.begin(), order.begin() + count_);
    count_ = std::unique(order.begin(), order.begin() + count_) - order.begin();
    for (size_t i = 0; i < count_; ++i) {
      held_[i] = &store->shards_[order[i]].mu;
      held_[i]->Lock();
    }
  }
  TxnLocks(const TxnLocks&) = delete;
  TxnLocks& operator=(const TxnLocks&) = delete;
  ~TxnLocks() SNB_NO_THREAD_SAFETY_ANALYSIS {
    for (size_t i = count_; i-- > 0;) held_[i]->Unlock();
  }

 private:
  std::array<util::SharedMutex*, 3> held_{};
  size_t count_ = 0;
};

Status GraphStore::BulkLoad(const schema::SocialNetwork& network) {
  if (NumPersons() != 0 || MessageIdBound() != 0) {
    return Status::FailedPrecondition("BulkLoad requires an empty store");
  }
  for (const Person& p : network.persons) {
    SNB_RETURN_IF_ERROR(AddPerson(p));
  }
  for (const Knows& k : network.knows) {
    SNB_RETURN_IF_ERROR(AddFriendship(k));
  }
  for (const schema::Forum& f : network.forums) {
    SNB_RETURN_IF_ERROR(AddForum(f));
  }
  for (const schema::ForumMembership& fm : network.memberships) {
    SNB_RETURN_IF_ERROR(AddForumMembership(fm));
  }
  for (const Message& m : network.messages) {
    SNB_RETURN_IF_ERROR(AddMessage(m));
  }
  for (const schema::Like& l : network.likes) {
    SNB_RETURN_IF_ERROR(AddLike(l));
  }
  return Status::Ok();
}

Status GraphStore::AddPerson(const Person& person) {
  if (person.id >= kMaxEntityId) return BadId("person", person.id);
  return ApplyPersonCreate(person);
}

Status GraphStore::AddFriendship(const Knows& knows) {
  if (!PersonPresent(knows.person1_id) || !PersonPresent(knows.person2_id)) {
    return Status::NotFound("friendship endpoint missing");
  }
  TxnLocks locks(this, {ShardOfPersonId(knows.person1_id),
                        ShardOfPersonId(knows.person2_id)});
  SNB_RETURN_IF_ERROR(FriendshipHalf(knows.person1_id, knows.person2_id,
                                     knows.creation_date,
                                     /*bump_counters=*/true));
  return FriendshipHalf(knows.person2_id, knows.person1_id,
                        knows.creation_date, /*bump_counters=*/false);
}

Status GraphStore::AddForum(const schema::Forum& forum) {
  if (forum.id >= kMaxEntityId) return BadId("forum", forum.id);
  if (!PersonPresent(forum.moderator_id)) {
    return Status::NotFound("forum moderator missing");
  }
  return ApplyForumCreate(forum);
}

Status GraphStore::AddForumMembership(
    const schema::ForumMembership& membership) {
  if (!PersonPresent(membership.person_id) ||
      !ForumPresent(membership.forum_id)) {
    return Status::NotFound("membership endpoint missing");
  }
  TxnLocks locks(this, {ShardOfPersonId(membership.person_id),
                        ShardOfForumId(membership.forum_id)});
  SNB_RETURN_IF_ERROR(MembershipPersonHalf(membership));
  return MembershipForumHalf(membership, /*bump_counters=*/true);
}

Status GraphStore::AddMessage(const Message& message) {
  if (message.id >= kMaxEntityId) return BadId("message", message.id);
  if (!PersonPresent(message.creator_id)) {
    return Status::NotFound("message creator missing");
  }
  if (message.kind == schema::MessageKind::kComment) {
    if (!MessagePresent(message.reply_to_id)) {
      return Status::NotFound("comment parent missing");
    }
  } else {
    if (!ForumPresent(message.forum_id)) {
      return Status::NotFound("post forum missing");
    }
  }
  // Publication order across shards: the record (and its `ready` flag)
  // first, links after — a reader that can see the id in any list
  // resolves the record, whichever shards they hash to.
  TxnLocks locks(this, {ShardOfMessageId(message.id),
                        ShardOfPersonId(message.creator_id),
                        ContainerShardOf(message)});
  SNB_RETURN_IF_ERROR(MessageCreate(message));
  SNB_RETURN_IF_ERROR(MessageCreatorLink(message));
  return MessageContainerLink(message);
}

Status GraphStore::AddLike(const schema::Like& like) {
  if (!PersonPresent(like.person_id)) {
    return Status::NotFound("like person missing");
  }
  if (!MessagePresent(like.message_id)) {
    return Status::NotFound("liked message missing");
  }
  TxnLocks locks(this, {ShardOfPersonId(like.person_id),
                        ShardOfMessageId(like.message_id)});
  SNB_RETURN_IF_ERROR(LikePersonHalf(like));
  return LikeMessageHalf(like, /*bump_counters=*/true);
}

// ---- Presence probes --------------------------------------------------------
//
// Checked by tools/snb_invariants ("lockfree"): shard writer lanes
// spin-wait on these probes for cross-shard dependencies, so the full
// closure — shard routing, the epoch pin (including its one-time TLS
// slot claim), the DenseTable slot lookup — must never reach a mutex or
// a futex wait; a probe that blocked could stall every lane behind it.

bool GraphStore::PersonPresent(schema::PersonId id) const {
  SNB_INVARIANT_ROOT("lockfree");
  const Shard& s = shards_[ShardOfPerson(id, num_shards_)];
  util::EpochPin pin = s.epoch->pin();
  const PersonRecord* p = s.persons.Slot(id);
  return p != nullptr && p->present();
}

bool GraphStore::ForumPresent(schema::ForumId id) const {
  SNB_INVARIANT_ROOT("lockfree");
  const Shard& s = shards_[ShardOfForum(id, num_shards_)];
  util::EpochPin pin = s.epoch->pin();
  const ForumRecord* f = s.forums.Slot(id);
  return f != nullptr && f->present();
}

bool GraphStore::MessagePresent(schema::MessageId id) const {
  SNB_INVARIANT_ROOT("lockfree");
  const Shard& s = shards_[ShardOfMessage(id, num_shards_)];
  util::EpochPin pin = s.epoch->pin();
  const MessageRecord* m = s.messages.Slot(id);
  return m != nullptr && m->present();
}

// ---- Per-shard transaction halves -------------------------------------------
//
// Publication order is what makes kEpoch readers safe: a record's payload
// is stored, then its `ready` flag release-published, and only then is its
// id linked into adjacency lists (whose RcuVector appends are themselves
// release stores). A reader that can see an id in any list therefore sees
// the fully built record behind it — the half decomposition preserves this
// because every caller (sync Add* above, driver::ShardWriterPool) orders
// the create half before the link halves.
//
// Each public Apply* takes its own shard's writer lock around the matching
// private body; the Add* transactions call the bodies under TxnLocks.

uint32_t GraphStore::ContainerShardOf(const Message& message) const {
  return message.kind == schema::MessageKind::kComment
             ? ShardOfMessageId(message.reply_to_id)
             : ShardOfForumId(message.forum_id);
}

Status GraphStore::ApplyFriendshipHalf(schema::PersonId owner,
                                       schema::PersonId other,
                                       util::TimestampMs since,
                                       bool bump_counters) {
  util::WriterMutexLock lock(&PersonShard(owner).mu);
  return FriendshipHalf(owner, other, since, bump_counters);
}

Status GraphStore::ApplyMembershipPersonHalf(
    const schema::ForumMembership& membership) {
  util::WriterMutexLock lock(&PersonShard(membership.person_id).mu);
  return MembershipPersonHalf(membership);
}

Status GraphStore::ApplyMembershipForumHalf(
    const schema::ForumMembership& membership, bool bump_counters) {
  util::WriterMutexLock lock(&ForumShard(membership.forum_id).mu);
  return MembershipForumHalf(membership, bump_counters);
}

Status GraphStore::ApplyMessageCreate(const Message& message) {
  if (message.id >= kMaxEntityId) return BadId("message", message.id);
  util::WriterMutexLock lock(&MessageShard(message.id).mu);
  return MessageCreate(message);
}

Status GraphStore::ApplyMessageCreatorLink(const Message& message) {
  util::WriterMutexLock lock(&PersonShard(message.creator_id).mu);
  return MessageCreatorLink(message);
}

Status GraphStore::ApplyMessageContainerLink(const Message& message) {
  util::WriterMutexLock lock(&shards_[ContainerShardOf(message)].mu);
  return MessageContainerLink(message);
}

Status GraphStore::ApplyLikePersonHalf(const schema::Like& like) {
  util::WriterMutexLock lock(&PersonShard(like.person_id).mu);
  return LikePersonHalf(like);
}

Status GraphStore::ApplyLikeMessageHalf(const schema::Like& like,
                                        bool bump_counters) {
  util::WriterMutexLock lock(&MessageShard(like.message_id).mu);
  return LikeMessageHalf(like, bump_counters);
}

Status GraphStore::ApplyPersonCreate(const Person& person) {
  if (person.id >= kMaxEntityId) return BadId("person", person.id);
  Shard& s = PersonShard(person.id);
  util::WriterMutexLock lock(&s.mu);
  PersonRecord* rec = s.persons.GrowToSlot(person.id, *s.epoch);
  if (rec->present()) {
    return Status::AlreadyExists("person " + std::to_string(person.id));
  }
  rec->data = person;
  rec->ready.store(1, std::memory_order_release);
  num_persons_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

Status GraphStore::FriendshipHalf(schema::PersonId owner,
                                  schema::PersonId other,
                                  util::TimestampMs since,
                                  bool bump_counters) {
  Shard& s = PersonShard(owner);
  PersonRecord* p = s.persons.MutableSlot(owner);
  if (p == nullptr || !p->present()) {
    return Status::NotFound("friendship endpoint missing");
  }
  p->friends.insert_sorted({other, since}, kFriendLess, *s.epoch);
  if (bump_counters) {
    num_knows_.fetch_add(1, std::memory_order_release);
    knows_version_.fetch_add(1, std::memory_order_release);
  }
  return Status::Ok();
}

Status GraphStore::ApplyForumCreate(const schema::Forum& forum) {
  if (forum.id >= kMaxEntityId) return BadId("forum", forum.id);
  Shard& s = ForumShard(forum.id);
  util::WriterMutexLock lock(&s.mu);
  ForumRecord* rec = s.forums.GrowToSlot(forum.id, *s.epoch);
  if (rec->present()) {
    return Status::AlreadyExists("forum " + std::to_string(forum.id));
  }
  rec->data = forum;
  rec->ready.store(1, std::memory_order_release);
  num_forums_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

Status GraphStore::MembershipPersonHalf(
    const schema::ForumMembership& membership) {
  Shard& s = PersonShard(membership.person_id);
  PersonRecord* person = s.persons.MutableSlot(membership.person_id);
  if (person == nullptr || !person->present()) {
    return Status::NotFound("membership endpoint missing");
  }
  person->forums.push_back({membership.forum_id, membership.join_date},
                           *s.epoch);
  return Status::Ok();
}

Status GraphStore::MembershipForumHalf(
    const schema::ForumMembership& membership, bool bump_counters) {
  Shard& s = ForumShard(membership.forum_id);
  ForumRecord* forum = s.forums.MutableSlot(membership.forum_id);
  if (forum == nullptr || !forum->present()) {
    return Status::NotFound("membership endpoint missing");
  }
  forum->members.push_back({membership.person_id, membership.join_date},
                           *s.epoch);
  if (bump_counters) {
    num_memberships_.fetch_add(1, std::memory_order_release);
  }
  return Status::Ok();
}

Status GraphStore::MessageCreate(const Message& message) {
  Shard& s = MessageShard(message.id);
  MessageRecord* rec = s.messages.GrowToSlot(message.id, *s.epoch);
  if (rec->present()) {
    return Status::AlreadyExists("message " + std::to_string(message.id));
  }
  rec->data = message;
  rec->ready.store(1, std::memory_order_release);
  num_messages_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

Status GraphStore::MessageCreatorLink(const Message& message) {
  Shard& s = PersonShard(message.creator_id);
  PersonRecord* creator = s.persons.MutableSlot(message.creator_id);
  if (creator == nullptr || !creator->present()) {
    return Status::NotFound("message creator missing");
  }
  MessageEdge edge;
  edge.id = message.id;
  edge.date = message.creation_date;
  edge.country = message.country_id;
  edge.kind = message.kind;
  std::span<const schema::TagId> tags = message.tags;
  std::optional<util::EpochPin> parent_pin;
  if (message.kind == schema::MessageKind::kComment) {
    // The parent's shard lock is held by AddMessage's TxnLocks but not by
    // ApplyMessageCreatorLink, so the parent is read under an epoch pin of
    // its shard (as MessagePresent does). Its creator, kind and tags are
    // fixed once it is published, so the copies can never go stale.
    const Shard& ps = shards_[ShardOfMessage(message.reply_to_id, num_shards_)];
    parent_pin.emplace(ps.epoch->pin());
    const MessageRecord* parent = ps.messages.Slot(message.reply_to_id);
    if (parent == nullptr || !parent->present()) {
      return Status::NotFound("comment parent missing");
    }
    edge.parent_creator = parent->data.creator_id;
    edge.parent_kind = parent->data.kind;
    // A reply to a post or photo carries the post's tags (Q12 reads them);
    // a reply to a comment carries none.
    tags = parent->data.kind == schema::MessageKind::kComment
               ? std::span<const schema::TagId>()
               : std::span<const schema::TagId>(parent->data.tags);
  }
  // The span's 32-bit offsets cap one person's pool at 2^32 - 1 tags
  // (16 GiB of them); past that the link fails before it changes anything
  // (under AddMessage, after the record is published: no dataset comes
  // near the cap, so the transaction does not pre-check it).
  const size_t pool = creator->tags.size();
  if (tags.size() > std::numeric_limits<uint32_t>::max() - pool) {
    return Status::InvalidArgument("tag pool full for person " +
                                   std::to_string(message.creator_id));
  }
  // The tags go into the pool before the edge is published (the order
  // PersonRecord::created_messages() reads in). The pool is never
  // reordered, so the span stays valid wherever insert_sorted puts the
  // edge.
  edge.tags_begin = static_cast<uint32_t>(pool);
  edge.tags_count = static_cast<uint32_t>(tags.size());
  creator->tags.append(tags.data(), tags.size(), *s.epoch);
  // Keep the creator's message list sorted by (date, id) regardless of
  // application order. Q2/Q9 binary-search this list by date and S2 walks
  // it newest-first; the windowed and parallel-GCT drivers may apply two
  // messages of one creator out of due-time order when they fall into
  // different forum partitions, so insertion — not arrival — establishes
  // the invariant. Datagen streams are mostly ordered, so this is an O(1)
  // append except for the rare cross-partition inversion.
  creator->messages.insert_sorted(
      edge,
      [](const MessageEdge& a, const MessageEdge& b) {
        if (a.date != b.date) return a.date < b.date;
        return a.id < b.id;
      },
      *s.epoch);
  return Status::Ok();
}

Status GraphStore::MessageContainerLink(const Message& message) {
  if (message.kind == schema::MessageKind::kComment) {
    Shard& s = MessageShard(message.reply_to_id);
    MessageRecord* parent = s.messages.MutableSlot(message.reply_to_id);
    if (parent == nullptr || !parent->present()) {
      return Status::NotFound("comment parent missing");
    }
    parent->replies.push_back(message.id, *s.epoch);
    return Status::Ok();
  }
  Shard& s = ForumShard(message.forum_id);
  ForumRecord* forum = s.forums.MutableSlot(message.forum_id);
  if (forum == nullptr || !forum->present()) {
    return Status::NotFound("post forum missing");
  }
  forum->posts.push_back({message.id, message.creator_id}, *s.epoch);
  return Status::Ok();
}

Status GraphStore::LikePersonHalf(const schema::Like& like) {
  Shard& s = PersonShard(like.person_id);
  PersonRecord* person = s.persons.MutableSlot(like.person_id);
  if (person == nullptr || !person->present()) {
    return Status::NotFound("like person missing");
  }
  person->likes.push_back({like.message_id, like.creation_date}, *s.epoch);
  return Status::Ok();
}

Status GraphStore::LikeMessageHalf(const schema::Like& like,
                                   bool bump_counters) {
  Shard& s = MessageShard(like.message_id);
  MessageRecord* message = s.messages.MutableSlot(like.message_id);
  if (message == nullptr || !message->present()) {
    return Status::NotFound("liked message missing");
  }
  message->likes.push_back({like.person_id, like.creation_date}, *s.epoch);
  if (bump_counters) {
    num_likes_.fetch_add(1, std::memory_order_release);
  }
  return Status::Ok();
}

// ---- Read accessors ---------------------------------------------------------

bool GraphStore::AreFriends(const ShardSnapshot& snap, schema::PersonId a,
                            schema::PersonId b) const {
  SNB_INVARIANT_ROOT("pinned_read");
  const PersonRecord* pa = FindPerson(snap, a);
  if (pa == nullptr) return false;
  auto friends = pa->friends.view();
  auto it = std::lower_bound(
      friends.begin(), friends.end(), b,
      [](const FriendEdge& e, schema::PersonId id) { return e.other < id; });
  return it != friends.end() && it->other == b;
}

std::vector<schema::PersonId> GraphStore::PersonIds(
    const ShardSnapshot& snap) const {
  std::vector<schema::PersonId> ids;
  ids.reserve(NumPersons());
  uint64_t bound = 0;
  for (uint32_t i = 0; i < num_shards_; ++i) {
    bound = std::max(bound, shards_[i].persons.bound());
  }
  for (uint64_t id = 0; id < bound; ++id) {
    if (FindPerson(snap, id) != nullptr) ids.push_back(id);
  }
  return ids;
}

std::vector<schema::ForumId> GraphStore::ForumIds(
    const ShardSnapshot& snap) const {
  std::vector<schema::ForumId> ids;
  ids.reserve(NumForums());
  uint64_t bound = 0;
  for (uint32_t i = 0; i < num_shards_; ++i) {
    bound = std::max(bound, shards_[i].forums.bound());
  }
  for (uint64_t id = 0; id < bound; ++id) {
    if (FindForum(snap, id) != nullptr) ids.push_back(id);
  }
  return ids;
}

StorageBreakdown GraphStore::ComputeStorageBreakdown() const {
  StorageBreakdown b;
  // One shard at a time: per-shard writer quiescence is enough because the
  // scan only reads records and lists owned by the locked shard.
  for (uint32_t si = 0; si < num_shards_; ++si) {
    const Shard& s = shards_[si];
    util::WriterMutexLock lock(&s.mu);
    uint64_t message_bound = s.messages.bound();
    for (uint64_t id = 0; id < message_bound; ++id) {
      const MessageRecord* m = s.messages.Slot(id);
      if (m == nullptr || !m->present()) continue;
      b.message_bytes += sizeof(MessageRecord) + m->data.content.capacity() +
                         m->data.tags.capacity() * sizeof(schema::TagId) +
                         m->replies.capacity_bytes();
      b.message_content_bytes += m->data.content.capacity();
      b.likes_bytes += m->likes.capacity_bytes();
    }
    uint64_t person_bound = s.persons.bound();
    for (uint64_t id = 0; id < person_bound; ++id) {
      const PersonRecord* p = s.persons.Slot(id);
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
      b.message_bytes +=
          p->messages.capacity_bytes() + p->tags.capacity_bytes();
    }
    uint64_t forum_bound = s.forums.bound();
    for (uint64_t id = 0; id < forum_bound; ++id) {
      const ForumRecord* f = s.forums.Slot(id);
      if (f == nullptr || !f->present()) continue;
      b.forum_bytes += sizeof(ForumRecord) + f->data.title.capacity() +
                       f->data.tags.capacity() * sizeof(schema::TagId) +
                       f->posts.capacity_bytes();
      b.membership_bytes += f->members.capacity_bytes();
    }
  }
  return b;
}

util::EpochManager::EpochStats GraphStore::AggregateEpochStats() const {
  util::EpochManager::EpochStats total;
  for (uint32_t i = 0; i < num_shards_; ++i) {
    util::EpochManager::EpochStats s = shards_[i].epoch->stats();
    total.advances += s.advances;
    total.retired += s.retired;
    total.freed += s.freed;
    total.pending += s.pending;
  }
  return total;
}

void GraphStore::DrainEpochsForTesting() const {
  for (uint32_t i = 0; i < num_shards_; ++i) {
    shards_[i].epoch->DrainForTesting();
  }
}

}  // namespace snb::store
