// In-memory transactional property-graph store — the System Under Test.
//
// The paper benchmarks Sparksee and Virtuoso; this store is the
// from-scratch substitute (see DESIGN.md). It keeps the whole SNB graph in
// adjacency-indexed form:
//   * persons with friend lists (sorted), created messages (in time order),
//     joined forums and given likes;
//   * forums with member lists and contained root posts;
//   * messages (dense, id-indexed; ids increase with creation time, so the
//     message table is a clustered creation-date index — the locality
//     property discussed in section 3 of the paper);
//   * secondary structures mirroring Virtuoso's foreign-key indices.
//
// Inline edge facts: the same locality rule applied to the adjacency
// lists. A created-message edge (MessageEdge) carries the message's
// creation date, kind and country and, for a comment, its parent's creator
// and kind; a forum's post edge (PostEdge) carries the post's creator. The
// complex reads filter on exactly these facts, so they drop candidates
// without loading the MessageRecord behind an edge. Tags are variable
// length, so a MessageEdge holds a span into its creator's append-only tag
// pool (PersonRecord::tags) instead: a post's or photo's own tags (Q4, Q6,
// Q10), the replied-to post's tags for a comment on a post or photo (Q12),
// and nothing for a reply to a comment. Each fact is copied once, when the
// edge is linked, from records that never change after their `ready`
// publication (a message's own data, and a comment's parent, which must
// exist before the comment), so no later update rewrites an edge and an
// inline fact always equals the record's. The writer appends a message's
// tags to the pool before it publishes the edge, so a reader must take the
// edges before the pool; PersonRecord::created_messages() is the one place
// that does, and the only way to read a span.
//
// Sharding: the store is partitioned into `num_shards` (1..kMaxShards)
// shards by a salted hash of the entity id (store/shard_router.h). Each
// shard owns its own writer mutex, its own epoch domain
// (util::EpochManager::Domain(shard)) and its own DenseTable arenas, so
// writers on different shards never contend and one shard's grace periods
// are never stalled by another shard's readers. A cross-shard edge (a
// friendship or like whose endpoints hash to different shards) is two
// half-writes applied in publication order: the referenced record is
// always `ready`-published before any adjacency list links its id (see
// "Concurrency" below), so readers resolve every id they can see
// regardless of which shard it lives on. An Add* call runs all its halves
// under the writer locks of every shard it touches, taken once each in
// ascending shard order. num_shards == 1 (the default) reproduces the
// pre-sharding store exactly: one lock held for the whole update, the
// Global() epoch domain, the same publication sequence.
//
// Concurrency: multi-writer (one logical writer per shard) /
// multi-reader. Writers serialize behind the owning shard's exclusive
// mutex; concurrent writers to *different* shards proceed in parallel,
// and even two sync writers hitting the same shard are safe (the shard
// lock serializes them). The read path depends on the store's
// ReadConcurrency mode:
//
//   * kEpoch (default): readers never touch writer mutexes. ReadLock()
//     returns a ShardSnapshot pinning every shard's epoch domain in
//     ascending shard order (two uncontended atomic ops per shard on a
//     thread-private cache line — see util/epoch.h) and every shared
//     structure is published RCU-style: entity records live at stable
//     addresses in chunked DenseTables, adjacency lists are RcuVectors
//     whose buffers embed their element count, and a record becomes
//     visible only after its `ready` flag is release-stored — *before*
//     the record's id is linked into any adjacency list, so a reader can
//     always resolve every id it can see, including across shards.
//     Updates are insert-only single statements, which is why these
//     per-object snapshots preserve the paper's observation that "systems
//     providing snapshot isolation behave identically to serializable"
//     for this workload (section 4); DESIGN.md spells out the argument.
//   * kGlobalLock: the pre-epoch behaviour — ReadLock() additionally
//     takes every shard's writer mutex shared, in ascending shard order.
//     Retained as the ablation baseline for
//     bench_table5_driver_scalability and for tests that want a frozen
//     whole-store snapshot.
//
// Writers validate referential integrity and fail with NotFound when a
// dependency is missing; the workload driver's dependency tracking is what
// makes such failures impossible, and the driver tests assert exactly that.
#ifndef SNB_STORE_GRAPH_STORE_H_
#define SNB_STORE_GRAPH_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "schema/entities.h"
#include "store/dense_table.h"
#include "store/shard_router.h"
#include "util/epoch.h"
#include "util/invariant_root.h"
#include "util/mutex.h"
#include "util/rcu_vector.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace snb::store {

/// A friendship adjacency entry.
struct FriendEdge {
  schema::PersonId other = schema::kInvalidId;
  util::TimestampMs since = 0;
};

/// A generic (id, date) adjacency entry (membership, like).
struct DatedEdge {
  uint64_t id = schema::kInvalidId;
  util::TimestampMs date = 0;
};

/// A created-message entry in PersonRecord::messages: the message id plus
/// the immutable facts the complex reads filter on, so a scan discards
/// candidates without loading their MessageRecord. For a comment,
/// `parent_creator` and `parent_kind` describe the message it replies to
/// (Q12 keeps replies to posts; Q14 weighs replies between two persons);
/// posts and photos hold kInvalidId and kPost there. `tags_begin` and
/// `tags_count` span the creator's tag pool (PersonRecord::tags): a post's
/// or photo's own tags, the replied-to post's tags for a comment on a post
/// or photo, and an empty span for a reply to a comment. Read a span only
/// through PersonRecord::created_messages(). All fields are copied at link
/// time from the message and its parent record, both immutable once
/// published, and never rewritten.
struct MessageEdge {
  schema::MessageId id = schema::kInvalidId;
  util::TimestampMs date = 0;  // Creation date (Q2/Q9 date cuts).
  schema::PersonId parent_creator = schema::kInvalidId;
  schema::PlaceId country = schema::kInvalidId32;  // Posted from (Q3).
  schema::MessageKind kind = schema::MessageKind::kPost;
  schema::MessageKind parent_kind = schema::MessageKind::kPost;
  uint32_t tags_begin = 0;  // Span in the creator's tag pool.
  uint32_t tags_count = 0;
};
static_assert(sizeof(MessageEdge) == 40);

/// A snapshot of one person's created-message edges together with the tag
/// pool their spans index (PersonRecord::created_messages()). Valid as
/// long as the snapshot the record came from.
class CreatedMessages {
 public:
  using Edges = util::RcuVector<MessageEdge>::View;

  const MessageEdge* begin() const { return edges_.begin(); }
  const MessageEdge* end() const { return edges_.end(); }
  size_t size() const { return edges_.size(); }
  const MessageEdge& operator[](size_t i) const { return edges_[i]; }

  /// The tags an edge of this snapshot carries (see MessageEdge).
  std::span<const schema::TagId> tags(const MessageEdge& e) const {
    return {pool_.data() + e.tags_begin, e.tags_count};
  }
  /// Tags in the pool snapshot; every span of the edges lies below it.
  size_t pool_size() const { return pool_.size(); }

 private:
  friend struct PersonRecord;
  CreatedMessages(Edges edges, util::RcuVector<schema::TagId>::View pool)
      : edges_(edges), pool_(pool) {}

  Edges edges_;
  util::RcuVector<schema::TagId>::View pool_;
};

/// A root post or photo in ForumRecord::posts, with its creator inline
/// (Q5 counts a forum's posts by circle members from the list alone). The
/// creator is copied at link time and never changes.
struct PostEdge {
  schema::MessageId id = schema::kInvalidId;
  schema::PersonId creator = schema::kInvalidId;
};
static_assert(sizeof(PostEdge) == 16);

/// Per-person storage: attributes plus adjacency indexes. `data` is
/// immutable once `ready` is published; adjacency lists keep growing.
struct PersonRecord {
  schema::Person data;
  /// Sorted by `other` (binary-search friend test).
  util::RcuVector<FriendEdge> friends;
  /// Messages created, sorted by (creation date, id) — maintained by
  /// insertion, so the order holds even when the driver applies two of a
  /// creator's messages out of due-time order (different forum
  /// partitions). Date, kind, country and the replied-to creator ride
  /// inline, so date-bounded scans (Q2/Q9) and kind/country/parent filters
  /// (Q3, Q14) never touch the message table; with the tag spans, Q4, Q6,
  /// Q10 and Q12 never do either.
  util::RcuVector<MessageEdge> messages;
  /// Tag pool the `messages` edges span, appended once per linked message
  /// and never reordered, so a span stays valid when insert_sorted moves
  /// its edge. Read it only through created_messages().
  util::RcuVector<schema::TagId> tags;
  /// Forums joined, with join dates.
  util::RcuVector<DatedEdge> forums;
  /// Likes given: liked message + like date.
  util::RcuVector<DatedEdge> likes;
  /// Release-published after `data` is filled.
  std::atomic<uint32_t> ready{0};

  bool present() const { return ready.load(std::memory_order_acquire) != 0; }

  /// The created-message edges with their tag spans. A message's tags
  /// reach the pool before its edge is published, so the edges are read
  /// first: every span they hold then lies inside the pool read after.
  CreatedMessages created_messages() const {
    CreatedMessages::Edges edges = messages.view();
    return CreatedMessages(edges, tags.view());
  }
};

/// Per-forum storage.
struct ForumRecord {
  schema::Forum data;
  /// Members with join dates (insertion order).
  util::RcuVector<DatedEdge> members;
  /// Root posts/photos contained, with their creators, ascending id.
  util::RcuVector<PostEdge> posts;
  std::atomic<uint32_t> ready{0};

  bool present() const { return ready.load(std::memory_order_acquire) != 0; }
};

/// Per-message storage.
struct MessageRecord {
  schema::Message data;
  /// Direct reply comments, ascending id.
  util::RcuVector<schema::MessageId> replies;
  /// Likes received: liker + like date.
  util::RcuVector<DatedEdge> likes;
  std::atomic<uint32_t> ready{0};

  bool present() const { return ready.load(std::memory_order_acquire) != 0; }
};

/// Byte sizes of the store's main structures (Table 8 equivalent).
struct StorageBreakdown {
  uint64_t message_bytes = 0;      // Message table incl. content.
  uint64_t message_content_bytes = 0;
  uint64_t likes_bytes = 0;        // Like edges (both directions).
  uint64_t membership_bytes = 0;   // forum_person edges (both directions).
  uint64_t friends_bytes = 0;      // Knows edges (both directions).
  uint64_t person_bytes = 0;       // Person attributes.
  uint64_t forum_bytes = 0;        // Forum attributes.

  uint64_t Total() const {
    return message_bytes + likes_bytes + membership_bytes + friends_bytes +
           person_bytes + forum_bytes;
  }
};

/// How ReadLock() provides snapshot semantics.
enum class ReadConcurrency {
  /// Lock-free epoch pins; readers scale with threads. Default.
  kEpoch,
  /// Shared mutexes; the pre-epoch baseline, kept for ablation and for
  /// callers that need a frozen whole-store snapshot.
  kGlobalLock,
};

/// RAII multi-shard read snapshot: one `EpochPin` per shard — acquired in
/// ascending shard order, the store's pin-ordering rule (see DESIGN.md) —
/// plus, in kGlobalLock mode, every shard's writer mutex held shared (same
/// order). Record pointers and adjacency Views obtained from the store are
/// valid while the snapshot lives, whichever shard they came from; that is
/// what makes a cross-shard edge walk (friend list on shard A, friend
/// record on shard B) safe from a single snapshot.
///
/// The snapshot is the capability token every store read accessor demands:
///
///   store::ReadGuard pin = store.ReadLock();
///   const PersonRecord* p = store.FindPerson(pin, id);
///
/// Snapshots are obtainable only from GraphStore::ReadLock() /
/// GraphStore::PinShards(), and the per-shard pins only from
/// EpochManager::pin(); there is no default-constructed disengaged state
/// (a moved-from snapshot is disengaged, but passing the moved-to snapshot
/// is what the move sites do). "Read without a snapshot" is a compile
/// error — see tests/negative/. Storage is inline (std::array), so taking
/// a snapshot never allocates.
class ShardSnapshot {
 public:
  ShardSnapshot(ShardSnapshot&&) noexcept = default;
  ShardSnapshot& operator=(ShardSnapshot&&) noexcept = default;

  /// Shards this snapshot covers (== the store's shard count).
  uint32_t num_shards() const { return num_shards_; }

  /// The epoch-pin capability for one shard (shard < num_shards()).
  const util::EpochPin& shard_pin(uint32_t shard) const {
    return *pins_[shard];
  }

 private:
  friend class GraphStore;
  explicit ShardSnapshot(uint32_t num_shards) : num_shards_(num_shards) {}

  uint32_t num_shards_;
  std::array<std::optional<util::EpochPin>, kMaxShards> pins_;
  // Engaged only in kGlobalLock mode; default-constructed (unlocked)
  // otherwise, so kEpoch snapshots pay nothing for them.
  std::array<std::shared_lock<std::shared_mutex>, kMaxShards> locks_;
};

/// Pre-sharding name for the store's read snapshot; the alias keeps the
/// ~40 existing `store::ReadGuard pin = store.ReadLock();` sites exact.
using ReadGuard = ShardSnapshot;

/// The store. All read accessors require the caller to hold a snapshot
/// obtained from ReadLock() for snapshot-consistent reads; the Add*
/// methods are self-contained transactions, each run under the writer
/// locks of every shard it touches. The Apply*Half methods are the
/// per-shard halves those transactions decompose into, each under its own
/// shard's lock only — they exist so the driver's ShardWriterPool can
/// apply each half on its owning shard's writer thread (see
/// driver/shard_writers.h for the ordering contract).
class GraphStore {
 public:
  explicit GraphStore(ReadConcurrency mode = ReadConcurrency::kEpoch,
                      uint32_t num_shards = 1);
  /// Convenience: kEpoch mode with `num_shards` shards.
  explicit GraphStore(uint32_t num_shards)
      : GraphStore(ReadConcurrency::kEpoch, num_shards) {}
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  ReadConcurrency read_concurrency() const { return mode_; }
  uint32_t num_shards() const { return num_shards_; }

  // ---- Shard routing (pure, allocation-free) --------------------------

  uint32_t ShardOfPersonId(schema::PersonId id) const {
    return ShardOfPerson(id, num_shards_);
  }
  uint32_t ShardOfForumId(schema::ForumId id) const {
    return ShardOfForum(id, num_shards_);
  }
  uint32_t ShardOfMessageId(schema::MessageId id) const {
    return ShardOfMessage(id, num_shards_);
  }

  // ---- Loading & updates (each call is one ACID transaction) ----------

  /// Loads a full bulk dataset. Must be called on an empty store.
  util::Status BulkLoad(const schema::SocialNetwork& network);

  util::Status AddPerson(const schema::Person& person);
  util::Status AddFriendship(const schema::Knows& knows);
  util::Status AddForum(const schema::Forum& forum);
  util::Status AddForumMembership(const schema::ForumMembership& membership);
  /// Posts, photos and comments.
  util::Status AddMessage(const schema::Message& message);
  util::Status AddLike(const schema::Like& like);

  // ---- Per-shard transaction halves -----------------------------------
  //
  // Each Apply* call mutates exactly one shard, under that shard's writer
  // mutex, and is the unit the ShardWriterPool routes to a shard's SPSC
  // queue. The cross-shard preconditions (the *other* endpoint's record
  // being present) are the caller's contract: the sync Add* transactions
  // establish them with presence probes up front, the writer pool by
  // waiting on the owning shard's publication. Each half checks the
  // records on its *own* shard and fails NotFound when they are missing.
  // Counter bumps are assigned to exactly one half per logical update so
  // the Num* totals stay exact under any interleaving.

  /// Whole-person create on shard(person.id). Publishes `ready` last.
  util::Status ApplyPersonCreate(const schema::Person& person);
  /// Inserts `other` into `owner`'s sorted friend list, on shard(owner).
  util::Status ApplyFriendshipHalf(schema::PersonId owner,
                                   schema::PersonId other,
                                   util::TimestampMs since,
                                   bool bump_counters);
  /// Whole-forum create on shard(forum.id). Moderator presence is the
  /// caller's precondition (checked by AddForum / the writer pool).
  util::Status ApplyForumCreate(const schema::Forum& forum);
  /// person.forums append, on shard(person_id).
  util::Status ApplyMembershipPersonHalf(
      const schema::ForumMembership& membership);
  /// forum.members append, on shard(forum_id).
  util::Status ApplyMembershipForumHalf(
      const schema::ForumMembership& membership, bool bump_counters);
  /// Message record create + `ready` publish, on shard(message.id). Must
  /// complete before either link half (publication order).
  util::Status ApplyMessageCreate(const schema::Message& message);
  /// creator.messages insert (sorted by date, id) and creator.tags append,
  /// on shard(creator_id). A comment's edge copies its parent's creator,
  /// kind and (for a post parent) tags, read under an epoch pin of the
  /// parent's shard; NotFound, linking nothing, when the parent is absent,
  /// and InvalidArgument, linking nothing, when the creator's tag pool
  /// would pass 2^32 - 1 tags.
  util::Status ApplyMessageCreatorLink(const schema::Message& message);
  /// forum.posts / parent.replies append, on shard(forum_id/reply_to_id).
  util::Status ApplyMessageContainerLink(const schema::Message& message);
  /// person.likes append, on shard(person_id).
  util::Status ApplyLikePersonHalf(const schema::Like& like);
  /// message.likes append, on shard(message_id).
  util::Status ApplyLikeMessageHalf(const schema::Like& like,
                                    bool bump_counters);

  // ---- Presence probes -------------------------------------------------
  //
  // Lock-free monotone probes (presence never reverts): they pin only the
  // owning shard's epoch domain for the duration of the slot load. Used
  // by the sync transactions for referential checks and by the writer
  // pool to wait out cross-shard publication.

  bool PersonPresent(schema::PersonId id) const;
  bool ForumPresent(schema::ForumId id) const;
  bool MessagePresent(schema::MessageId id) const;

  // ---- Read snapshot --------------------------------------------------

  /// Snapshot for a consistent multi-accessor read; hold it for the
  /// duration of a query. Pins every shard in ascending shard order (and
  /// takes every shard's mutex shared, same order, in kGlobalLock mode).
  ReadGuard ReadLock() const {
    ShardSnapshot snap(num_shards_);
    for (uint32_t i = 0; i < num_shards_; ++i) {
      snap.pins_[i].emplace(shards_[i].epoch->pin());
    }
    if (mode_ == ReadConcurrency::kGlobalLock) {
      for (uint32_t i = 0; i < num_shards_; ++i) {
        snap.locks_[i] =
            std::shared_lock<std::shared_mutex>(shards_[i].mu.native());
      }
    }
    return snap;
  }

  /// Pins-only snapshot: epoch pins on every shard (ascending order) with
  /// no shared locks in either mode. The connector's outer pin uses this
  /// to hold one epoch across a whole operation without nesting shared
  /// locks; semantics match ReadLock() in kEpoch mode.
  ShardSnapshot PinShards() const {
    ShardSnapshot snap(num_shards_);
    for (uint32_t i = 0; i < num_shards_; ++i) {
      snap.pins_[i].emplace(shards_[i].epoch->pin());
    }
    return snap;
  }

  // Every snapshot-read accessor takes a `const ShardSnapshot&` purely as
  // a compile-time proof that the caller holds an epoch critical section
  // on every shard (or a ReadGuard, which is the same type); the snapshot
  // is never inspected at run time, so the token costs nothing. Shard
  // routing inside the accessors is pure arithmetic — these are the
  // per-shard fast paths the pinned_read binary invariant guards.

  /// nullptr when absent.
  const PersonRecord* FindPerson(const ShardSnapshot& /*snap*/,
                                 schema::PersonId id) const {
    // Checked by tools/snb_invariants ("pinned_read"): an epoch-pinned
    // accessor must never allocate, lock, sleep, or touch the kernel —
    // a pinned reader that blocks stalls every writer's grace period.
    // The shard router keeps this property: a salted multiply-shift hash
    // plus one modulo. (Same for the two accessors below and AreFriends.)
    SNB_INVARIANT_ROOT("pinned_read");
    const Shard& s = shards_[ShardOfPerson(id, num_shards_)];
    const PersonRecord* p = s.persons.Slot(id);
    return p != nullptr && p->present() ? p : nullptr;
  }
  const ForumRecord* FindForum(const ShardSnapshot& /*snap*/,
                               schema::ForumId id) const {
    SNB_INVARIANT_ROOT("pinned_read");
    const Shard& s = shards_[ShardOfForum(id, num_shards_)];
    const ForumRecord* f = s.forums.Slot(id);
    return f != nullptr && f->present() ? f : nullptr;
  }
  const MessageRecord* FindMessage(const ShardSnapshot& /*snap*/,
                                   schema::MessageId id) const {
    SNB_INVARIANT_ROOT("pinned_read");
    const Shard& s = shards_[ShardOfMessage(id, num_shards_)];
    const MessageRecord* m = s.messages.Slot(id);
    return m != nullptr && m->present() ? m : nullptr;
  }

  /// True when a and b are friends (binary search on a's friend list).
  bool AreFriends(const ShardSnapshot& snap, schema::PersonId a,
                  schema::PersonId b) const;

  /// Number of message ids ever allocated; message ids are < this bound
  /// and ascend with creation date. (Under kEpoch a bound-covered id may
  /// still be in flight — FindMessage returns nullptr for it.)
  schema::MessageId MessageIdBound() const {
    uint64_t bound = 0;
    for (uint32_t i = 0; i < num_shards_; ++i) {
      uint64_t b = shards_[i].messages.bound();
      if (b > bound) bound = b;
    }
    return bound;
  }

  /// One past the largest person id ever added: person ids are dense from
  /// zero, so per-query person bitmaps (exec::DenseIdSet) size to this.
  /// A person added after the bound was read may lie at or past it.
  schema::PersonId PersonIdBound() const {
    uint64_t bound = 0;
    for (uint32_t i = 0; i < num_shards_; ++i) {
      uint64_t b = shards_[i].persons.bound();
      if (b > bound) bound = b;
    }
    return bound;
  }

  /// All person ids, ascending (for whole-graph scans in tests/benches).
  std::vector<schema::PersonId> PersonIds(const ShardSnapshot& snap) const;
  /// All forum ids, ascending.
  std::vector<schema::ForumId> ForumIds(const ShardSnapshot& snap) const;

  uint64_t NumPersons() const {
    return num_persons_.load(std::memory_order_acquire);
  }
  uint64_t NumForums() const {
    return num_forums_.load(std::memory_order_acquire);
  }
  uint64_t NumKnowsEdges() const {
    return num_knows_.load(std::memory_order_acquire);
  }
  uint64_t NumMessages() const {
    return num_messages_.load(std::memory_order_acquire);
  }
  uint64_t NumLikes() const {
    return num_likes_.load(std::memory_order_acquire);
  }
  uint64_t NumMemberships() const {
    return num_memberships_.load(std::memory_order_acquire);
  }

  /// Table 8 equivalent: allocated bytes per major structure. Takes each
  /// shard's writer lock in turn (per-shard quiescence is enough — the
  /// scan never follows a cross-shard reference).
  StorageBreakdown ComputeStorageBreakdown() const;

  /// Occupancy of one entity table across all shards: live records vs
  /// slots backed by allocated chunks vs the id bound. used <=
  /// allocated_slots; for sparse id spaces (forums) allocated_slots <<
  /// bound; hash-scattered shards each allocate chunks over the full id
  /// range, so allocated_slots grows with the shard count.
  struct TableOccupancy {
    uint64_t used = 0;
    uint64_t allocated_slots = 0;
    uint64_t bound = 0;
  };
  TableOccupancy PersonTableStats() const {
    TableOccupancy t{NumPersons(), 0, 0};
    for (uint32_t i = 0; i < num_shards_; ++i) {
      t.allocated_slots += shards_[i].persons.allocated_slots();
      if (shards_[i].persons.bound() > t.bound) {
        t.bound = shards_[i].persons.bound();
      }
    }
    return t;
  }
  TableOccupancy ForumTableStats() const {
    TableOccupancy t{NumForums(), 0, 0};
    for (uint32_t i = 0; i < num_shards_; ++i) {
      t.allocated_slots += shards_[i].forums.allocated_slots();
      if (shards_[i].forums.bound() > t.bound) {
        t.bound = shards_[i].forums.bound();
      }
    }
    return t;
  }
  TableOccupancy MessageTableStats() const {
    TableOccupancy t{NumMessages(), 0, 0};
    for (uint32_t i = 0; i < num_shards_; ++i) {
      t.allocated_slots += shards_[i].messages.allocated_slots();
      if (shards_[i].messages.bound() > t.bound) {
        t.bound = shards_[i].messages.bound();
      }
    }
    return t;
  }

  /// Version of the Knows graph: bumped by every AddFriendship. Cached
  /// derived results over the friendship graph (e.g. recycled 2-hop
  /// neighbourhoods) are valid as long as this does not change.
  uint64_t KnowsVersion() const {
    return knows_version_.load(std::memory_order_acquire);
  }

  /// The epoch domain one shard retires buffers to. The default (shard 0)
  /// keeps pre-sharding callers — `store.epoch_manager().DrainForTesting()`
  /// — working unchanged on single-shard stores.
  util::EpochManager& epoch_manager(uint32_t shard = 0) const {
    return *shards_[shard].epoch;
  }

  /// Sum of every shard domain's reclamation stats.
  util::EpochManager::EpochStats AggregateEpochStats() const;

  /// Drains every shard's epoch domain (test/shutdown helper; the caller
  /// must hold no pins).
  void DrainEpochsForTesting() const;

 private:
  // Ids index chunked tables, so a corrupt giant id must fail loudly
  // instead of allocating a giant directory. Datagen ids are dense and
  // nowhere near this.
  static constexpr uint64_t kMaxEntityId = uint64_t{1} << 40;

  /// One shard: writer capability, epoch domain, entity arenas. The
  /// DenseTables are deliberately NOT SNB_GUARDED_BY(mu): kEpoch readers
  /// access them lock-free under the snapshot's per-shard EpochPin (the
  /// RCU publication protocol in the file comment), which the mutex
  /// analysis cannot model — the ShardSnapshot token parameter on the
  /// read accessors is the compile-time check for that side. Writer-side
  /// discipline (every mutation sits inside a half body below, run under
  /// its shard's `mu`: by an Apply* wrapper's `WriterMutexLock`, or by an
  /// Add* transaction's TxnLocks) is documented in DESIGN.md's lock table
  /// and exercised by the TSan'd multi-writer stress tests.
  struct Shard {
    mutable util::SharedMutex mu;
    util::EpochManager* epoch = nullptr;
    DenseTable<PersonRecord> persons;
    /// Sparse id space (owner_id * slots_per_person + slot); absent
    /// chunks cost one null directory entry.
    DenseTable<ForumRecord> forums;
    DenseTable<MessageRecord> messages;
  };

  Shard& PersonShard(schema::PersonId id) {
    return shards_[ShardOfPerson(id, num_shards_)];
  }
  Shard& ForumShard(schema::ForumId id) {
    return shards_[ShardOfForum(id, num_shards_)];
  }
  Shard& MessageShard(schema::MessageId id) {
    return shards_[ShardOfMessage(id, num_shards_)];
  }
  /// Shard of the forum (post) or parent message (comment) that links
  /// `message`.
  uint32_t ContainerShardOf(const schema::Message& message) const;

  /// Writer locks on every shard (at most three) one Add* transaction
  /// touches; defined in graph_store.cc.
  class TxnLocks;

  // Bodies of the Apply* halves of the same names; the caller holds the
  // writer lock of the shard each one mutates.
  util::Status FriendshipHalf(schema::PersonId owner, schema::PersonId other,
                              util::TimestampMs since, bool bump_counters);
  util::Status MembershipPersonHalf(const schema::ForumMembership& membership);
  util::Status MembershipForumHalf(const schema::ForumMembership& membership,
                                   bool bump_counters);
  util::Status MessageCreate(const schema::Message& message);
  util::Status MessageCreatorLink(const schema::Message& message);
  util::Status MessageContainerLink(const schema::Message& message);
  util::Status LikePersonHalf(const schema::Like& like);
  util::Status LikeMessageHalf(const schema::Like& like, bool bump_counters);

  const ReadConcurrency mode_;
  const uint32_t num_shards_;
  Shard shards_[kMaxShards];

  std::atomic<uint64_t> knows_version_{0};
  std::atomic<uint64_t> num_persons_{0};
  std::atomic<uint64_t> num_forums_{0};
  std::atomic<uint64_t> num_knows_{0};
  std::atomic<uint64_t> num_messages_{0};
  std::atomic<uint64_t> num_likes_{0};
  std::atomic<uint64_t> num_memberships_{0};
};

}  // namespace snb::store

#endif  // SNB_STORE_GRAPH_STORE_H_
