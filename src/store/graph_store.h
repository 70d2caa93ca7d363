// In-memory transactional property-graph store — the System Under Test.
//
// The paper benchmarks Sparksee and Virtuoso; this store is the
// from-scratch substitute (see DESIGN.md). It keeps the whole SNB graph in
// adjacency-indexed form:
//   * persons with friend lists (sorted), created posts and created
//     comments (two lists, each in time order), joined forums (in join-date
//     order) and given likes;
//   * forums with member lists and contained root posts;
//   * messages (dense, id-indexed; ids increase with creation time, so the
//     message table is a clustered creation-date index — the locality
//     property discussed in section 3 of the paper);
//   * secondary structures mirroring Virtuoso's foreign-key indices.
//
// Inline edge facts: the same locality rule applied to the adjacency
// lists. A created-message edge (MessageEdge) carries the message's
// creation date and country and, for a comment, its parent's kind;
// a forum's post edge (PostEdge) carries the post's creator; a received
// reply (ReplyEdge) carries the comment's date, creator and the kind of
// the message it answers. The complex reads filter on exactly these facts,
// so they drop candidates without loading the MessageRecord behind an
// edge. Tags are variable length, so a MessageEdge holds a span into its
// creator's append-only tag pool (PersonRecord::tags) instead: a post's
// or photo's own tags (Q4, Q6, Q10), the replied-to post's tags for a
// comment on a post or photo (Q12), and nothing for a reply to a comment.
// Each fact is copied once, when the edge is linked, from records that
// never change after their `ready` publication (a message's own data, and
// a comment's parent, which must exist before the comment), so no later
// update rewrites an edge and an inline fact always equals the record's.
// The writer appends a message's tags to the pool before it publishes the
// edge, so a reader must take the edges before the pool;
// PersonRecord::created_posts() and created_comments() are the only
// places that do, and the only way to read a span.
//
// List order follows the circle reads' filters. A person's created
// messages sit in two lists by kind, `posts` (posts and photos) and
// `comments`, each sorted by (creation date, id) and sharing the one tag
// pool: Q4, Q6 and Q10 read posts only and Q12 comments only, so neither
// skips the other kind edge by edge, and Q2 and Q9 walk each list
// newest-first and stop once their top-k cannot change. Memberships
// (PersonRecord::forums) are sorted by (join date, forum id), so Q5
// binary-searches for its first join after the date cut.
//
// Received replies: AddMessage also files each comment under the creator
// of the message it replies to (PersonRecord::replies_received), so Q8
// reads a person's newest replies from one list and Q14 weighs the replies
// between two path neighbours by sweeping each one's list once.
//
// First-name index: a fixed array of RcuVector buckets of person ids,
// picked by a fixed hash of the first name (FirstNameBucket). Q1 reads the
// persons who carry its name from it instead of walking the start person's
// 3-hop ball. A bucket holds the persons of every name that hashes to it,
// so a reader tests `data.first_name`. AddPerson appends the id after the
// record's `ready` release-store, so every indexed id resolves through
// FindPerson.
//
// Concurrency: many writers, many readers. A writer holds the store mutex
// `mu_` shared and locks the write stripes of the entities it touches: a
// constant array of kWriteStripes mutexes, one cache line each, picked by
// hashing an id together with its kind (person, forum, message, first-name
// bucket). Each Add* locks, in ascending order and each once, the stripe of
// every entity whose record or lists it checks or writes (for a comment
// also the parent message and the parent's creator), then checks every
// reference and writes. Updates on disjoint entities run in parallel, any
// two updates that share an entity serialize, and each adjacency list keeps
// the one writer at a time RcuVector requires: whoever holds its owner's
// stripe. Readers never touch these locks. ReadLock() returns a ReadGuard
// holding one EpochPin (a seq_cst store and re-check on a thread-private
// cache line — see util/epoch.h) and every shared structure is published
// RCU-style: entity records live at stable addresses in chunked
// DenseTables, adjacency lists are RcuVectors whose buffers embed their
// element count, and a record becomes visible only after its `ready` flag
// is release-stored — *before* the record's id is linked into any
// adjacency list, so a reader can always resolve every id it can see.
// Updates are insert-only single statements, which is why these per-object
// snapshots preserve the paper's observation that "systems providing
// snapshot isolation behave identically to serializable" for this workload
// (section 4); DESIGN.md spells out the argument.
//
// FrozenReadLock() holds `mu_` exclusively, so no Add* runs while its guard
// lives and the reader sees each update whole or not at all. It is not on
// the production read path: the atomicity tests take it. BulkLoad holds
// `mu_` exclusively too, once for the whole load, and applies each record
// without stripes.
//
// Writers validate referential integrity and fail with NotFound when a
// dependency is missing; the workload driver's dependency tracking is what
// makes such failures impossible, and the driver tests assert exactly that.
#ifndef SNB_STORE_GRAPH_STORE_H_
#define SNB_STORE_GRAPH_STORE_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <shared_mutex>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "schema/entities.h"
#include "store/dense_table.h"
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

/// A created-message entry in PersonRecord::posts or ::comments (the list
/// says the kind): the message id plus the immutable facts the complex
/// reads filter on, so a scan discards candidates without loading their
/// MessageRecord. For a comment, `parent_kind` is the kind of the message
/// it replies to (Q12 keeps replies to posts); posts and photos hold kPost
/// there. `tags_begin` and `tags_count` span the creator's tag pool
/// (PersonRecord::tags): a post's or photo's own tags, the replied-to
/// post's tags for a comment on a post or photo, and an empty span for a
/// reply to a comment. Read a span only through
/// PersonRecord::created_posts() or created_comments(). All fields are
/// copied at link time from the message and its parent record, both
/// immutable once published, and never rewritten.
struct MessageEdge {
  schema::MessageId id = schema::kInvalidId;
  util::TimestampMs date = 0;  // Creation date (Q2/Q9 date cuts).
  schema::PlaceId country = schema::kInvalidId32;  // Posted from (Q3).
  schema::MessageKind parent_kind = schema::MessageKind::kPost;
  uint32_t tags_begin = 0;  // Span in the creator's tag pool.
  uint32_t tags_count = 0;
};
static_assert(sizeof(MessageEdge) == 32);

/// A received reply in PersonRecord::replies_received: a comment that
/// replies to one of the person's messages, with the facts Q8 returns and
/// Q14 weighs (a reply to a comment weighs 0.5, to a post or photo 1.0).
/// Copied at link time from the comment and its parent record, both
/// immutable once published, and never rewritten.
struct ReplyEdge {
  schema::MessageId id = schema::kInvalidId;  // The comment.
  util::TimestampMs date = 0;                 // Its creation date.
  schema::PersonId replier = schema::kInvalidId;  // Its creator.
  schema::MessageKind parent_kind = schema::MessageKind::kPost;
};
static_assert(sizeof(ReplyEdge) == 32);

/// A snapshot of one of a person's created-message lists together with the
/// tag pool their spans index (PersonRecord::created_posts() and
/// created_comments()). Valid as long as the snapshot the record came from.
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
  /// Posts and photos created, sorted by (creation date, id) — maintained
  /// by insertion, so the order holds even when the driver applies two of
  /// a creator's messages out of due-time order (different forum
  /// partitions). Date and country ride inline, so date-bounded scans
  /// (Q2/Q9) and the country counts (Q3) never touch the message table;
  /// with the tag spans, Q4, Q6 and Q10 never do either.
  util::RcuVector<MessageEdge> posts;
  /// Comments created, sorted by (creation date, id) the same way; Q12
  /// reads the inline parent kind and the parent post's tag span.
  util::RcuVector<MessageEdge> comments;
  /// Tag pool the `posts` and `comments` edges span, appended once per
  /// linked message and never reordered, so a span stays valid when
  /// insert_sorted moves its edge. Read it only through created_posts()
  /// and created_comments().
  util::RcuVector<schema::TagId> tags;
  /// Forums joined, with join dates, sorted by (join date, forum id) —
  /// maintained by insertion, so Q5 binary-searches its date cut.
  util::RcuVector<DatedEdge> forums;
  /// Likes given: liked message + like date.
  util::RcuVector<DatedEdge> likes;
  /// Comments replying to this person's messages, in link order (Q8, Q14).
  util::RcuVector<ReplyEdge> replies_received;
  /// Release-published after `data` is filled.
  std::atomic<uint32_t> ready{0};

  bool present() const { return ready.load(std::memory_order_acquire) != 0; }

  /// The created-post edges with their tag spans. A message's tags reach
  /// the pool before its edge is published, so the edges are read first:
  /// every span they hold then lies inside the pool read after.
  CreatedMessages created_posts() const {
    CreatedMessages::Edges edges = posts.view();
    return CreatedMessages(edges, tags.view());
  }
  /// The created-comment edges with their tag spans, read in the same
  /// order as created_posts().
  CreatedMessages created_comments() const {
    CreatedMessages::Edges edges = comments.view();
    return CreatedMessages(edges, tags.view());
  }
};

/// Per-forum storage.
struct ForumRecord {
  schema::Forum data;
  /// Members with join dates (insertion order).
  util::RcuVector<DatedEdge> members;
  /// Root posts/photos contained, with their creators, in link order.
  util::RcuVector<PostEdge> posts;
  std::atomic<uint32_t> ready{0};

  bool present() const { return ready.load(std::memory_order_acquire) != 0; }
};

/// Per-message storage.
struct MessageRecord {
  schema::Message data;
  /// Direct reply comments, in link order.
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
  uint64_t person_bytes = 0;       // Person attributes, first-name index.
  uint64_t forum_bytes = 0;        // Forum attributes.

  uint64_t Total() const {
    return message_bytes + likes_bytes + membership_bytes + friends_bytes +
           person_bytes + forum_bytes;
  }
};

class FrozenReadGuard;

/// RAII read snapshot: one EpochPin. Record pointers and adjacency Views
/// obtained from the store are valid while the guard lives.
///
/// The guard is the capability token every store read accessor demands:
///
///   store::ReadGuard pin = store.ReadLock();
///   const PersonRecord* p = store.FindPerson(pin, id);
///
/// Guards are obtainable only from GraphStore::ReadLock() and
/// FrozenReadLock(), and the pin inside only from EpochManager::pin();
/// there is no default-constructed disengaged state (a moved-from guard is
/// disengaged, but passing the moved-to guard is what the move sites do).
/// "Read without a snapshot" is a compile error — see tests/negative/.
/// Taking a guard never allocates.
class ReadGuard {
 public:
  ReadGuard(ReadGuard&&) noexcept = default;
  ReadGuard& operator=(ReadGuard&&) noexcept = default;
  /// Moving a frozen guard into a plain one would drop its lock.
  ReadGuard(FrozenReadGuard&&) = delete;
  ReadGuard& operator=(FrozenReadGuard&&) = delete;

 private:
  friend class GraphStore;
  friend class FrozenReadGuard;
  explicit ReadGuard(util::EpochPin pin) : pin_(std::move(pin)) {}

  util::EpochPin pin_;
};

/// A ReadGuard that also holds the store mutex exclusively, so no Add* runs
/// while it lives: a frozen whole-store snapshot. Accepted wherever a
/// `const ReadGuard&` is.
class FrozenReadGuard : public ReadGuard {
 private:
  friend class GraphStore;
  FrozenReadGuard(util::EpochPin pin, std::shared_mutex& mu)
      : ReadGuard(std::move(pin)), lock_(mu) {}

  // Declared after the pin (in the base), so the lock is released before
  // the pin.
  util::MovableWriterLock lock_;
};

/// The store. All read accessors require the caller to hold a ReadGuard
/// obtained from ReadLock() for snapshot-consistent reads; the Add*
/// methods are self-contained transactions, each run under the write
/// stripes of the entities it touches.
class GraphStore {
 public:
  GraphStore() = default;
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

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

  // ---- Read snapshot --------------------------------------------------

  /// Snapshot for a consistent multi-accessor read; hold it for the
  /// duration of a query. Pins the epoch.
  ReadGuard ReadLock() const {
    return ReadGuard(util::EpochManager::Global().pin());
  }

  /// ReadLock() plus the store mutex held exclusively: blocks until no Add*
  /// is running and keeps every Add* out until the guard is released.
  FrozenReadGuard FrozenReadLock() const {
    return FrozenReadGuard(util::EpochManager::Global().pin(),
                           mu_.native());
  }

  // Every snapshot-read accessor takes a `const ReadGuard&` purely as a
  // compile-time proof that the caller holds an epoch critical section;
  // the guard is never inspected at run time, so the token costs nothing.

  /// nullptr when absent.
  const PersonRecord* FindPerson(const ReadGuard& /*pin*/,
                                 schema::PersonId id) const {
    // Checked by tools/snb_invariants ("pinned_read"): an epoch-pinned
    // accessor must never allocate, lock, sleep, or touch the kernel —
    // a pinned reader that blocks stalls every writer's grace period.
    // (Same for the two accessors below and AreFriends.)
    SNB_INVARIANT_ROOT("pinned_read");
    const PersonRecord* p = persons_.Slot(id);
    return p != nullptr && p->present() ? p : nullptr;
  }
  const ForumRecord* FindForum(const ReadGuard& /*pin*/,
                               schema::ForumId id) const {
    SNB_INVARIANT_ROOT("pinned_read");
    const ForumRecord* f = forums_.Slot(id);
    return f != nullptr && f->present() ? f : nullptr;
  }
  const MessageRecord* FindMessage(const ReadGuard& /*pin*/,
                                   schema::MessageId id) const {
    SNB_INVARIANT_ROOT("pinned_read");
    const MessageRecord* m = messages_.Slot(id);
    return m != nullptr && m->present() ? m : nullptr;
  }

  /// The first-name index bucket `first_name` hashes to: the ids of every
  /// present person with that first name, plus those of any person whose
  /// name shares the bucket, so the caller tests `data.first_name`. Ids
  /// are in AddPerson order and each resolves through FindPerson.
  util::RcuVector<schema::PersonId>::View PersonsByFirstName(
      const ReadGuard& /*pin*/, std::string_view first_name) const {
    SNB_INVARIANT_ROOT("pinned_read");
    return first_name_index_[FirstNameBucket(first_name)].view();
  }

  /// Number of first-name index buckets. A constant, not an option: the
  /// index never rehashes, so a bucket never moves under a reader and a
  /// name's bucket is the same in every store.
  static constexpr size_t kFirstNameBuckets = 4096;
  static_assert(std::has_single_bit(kFirstNameBuckets));

  /// The index bucket of `first_name`: FNV-1a (64-bit), masked.
  static constexpr size_t FirstNameBucket(std::string_view first_name) {
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (char c : first_name) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
    return static_cast<size_t>(hash & (kFirstNameBuckets - 1));
  }

  /// True when a and b are friends (binary search on a's friend list).
  bool AreFriends(const ReadGuard& pin, schema::PersonId a,
                  schema::PersonId b) const;

  /// Number of message ids ever allocated; message ids are < this bound
  /// and ascend with creation date. (A bound-covered id may still be in
  /// flight — FindMessage returns nullptr for it.)
  schema::MessageId MessageIdBound() const { return messages_.bound(); }

  /// One past the largest person id ever added: person ids are dense from
  /// zero, so per-query person bitmaps (exec::DenseIdSet) size to this.
  /// A person added after the bound was read may lie at or past it.
  schema::PersonId PersonIdBound() const { return persons_.bound(); }

  /// One past the largest forum id ever added, the size of Q5's forum
  /// bitmap. Forum ids are sparser than person ids (a few slots per
  /// person), but at SF0.4 the bound is still only 19,194 ids (2.4 KB of
  /// bits). A forum added after the bound was read may lie at or past it.
  schema::ForumId ForumIdBound() const { return forums_.bound(); }

  /// All person ids, ascending (for whole-graph scans in tests/benches).
  std::vector<schema::PersonId> PersonIds(const ReadGuard& pin) const;
  /// All forum ids, ascending.
  std::vector<schema::ForumId> ForumIds(const ReadGuard& pin) const;

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

  /// Table 8 equivalent: allocated bytes per major structure. Holds the
  /// store mutex exclusively for the scan.
  StorageBreakdown ComputeStorageBreakdown() const;

  /// Occupancy of one entity table: live records vs slots backed by
  /// allocated chunks vs the id bound. used <= allocated_slots; for
  /// sparse id spaces (forums) allocated_slots << bound.
  struct TableOccupancy {
    uint64_t used = 0;
    uint64_t allocated_slots = 0;
    uint64_t bound = 0;
  };
  TableOccupancy PersonTableStats() const {
    return {NumPersons(), persons_.allocated_slots(), persons_.bound()};
  }
  TableOccupancy ForumTableStats() const {
    return {NumForums(), forums_.allocated_slots(), forums_.bound()};
  }
  TableOccupancy MessageTableStats() const {
    return {NumMessages(), messages_.allocated_slots(), messages_.bound()};
  }

  /// Reclamation stats of the epoch domain the store retires to.
  util::EpochManager::EpochStats AggregateEpochStats() const {
    return util::EpochManager::Global().stats();
  }

 private:
  // Ids index chunked tables, so a corrupt giant id must fail loudly
  // instead of allocating a giant directory. Datagen ids are dense and
  // nowhere near this.
  static constexpr uint64_t kMaxEntityId = uint64_t{1} << 40;

  /// Number of write stripes. A constant, not an option: 256 mutexes of
  /// one cache line each are 16 KB per store.
  static constexpr int kStripeBits = 8;
  static constexpr size_t kWriteStripes = size_t{1} << kStripeBits;

  /// What a stripe hashes with an id, so a person, a forum and a message of
  /// one id fall on unrelated stripes.
  enum class StripeKind : uint64_t { kPerson, kForum, kMessage, kFirstName };

  /// The stripe of entity `id` of `kind`: the top bits of a multiplicative
  /// (Fibonacci) hash of the pair.
  static size_t StripeOf(StripeKind kind, uint64_t id) {
    const uint64_t key = (id << 2) | static_cast<uint64_t>(kind);
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                               (64 - kStripeBits));
  }

  struct alignas(64) WriteStripe {
    util::Mutex mu;
  };

  /// Locks the stripes of one update's entities (at most four) in
  /// ascending order, each once, and unlocks them when it goes out of
  /// scope. The caller holds `mu_` shared. The stripes depend on run-time
  /// ids, so the analysis cannot follow them; the proof is at the
  /// definition in graph_store.cc.
  class StripeLock {
   public:
    StripeLock(GraphStore& store, std::initializer_list<size_t> stripes)
        SNB_NO_THREAD_SAFETY_ANALYSIS;
    StripeLock(const StripeLock&) = delete;
    StripeLock& operator=(const StripeLock&) = delete;
    ~StripeLock() SNB_NO_THREAD_SAFETY_ANALYSIS;

   private:
    std::array<WriteStripe, kWriteStripes>& stripes_;
    std::array<size_t, 4> held_{};
    size_t count_ = 0;
  };

  // The Add* bodies: every check and write of one update, in the contract's
  // order. A public Add* runs its body under `mu_` shared and the stripes
  // of the entities the body touches; BulkLoad runs them under `mu_`
  // exclusively, with no stripe.
  util::Status AddPersonLocked(const schema::Person& person)
      SNB_REQUIRES_SHARED(mu_);
  util::Status AddFriendshipLocked(const schema::Knows& knows)
      SNB_REQUIRES_SHARED(mu_);
  util::Status AddForumLocked(const schema::Forum& forum)
      SNB_REQUIRES_SHARED(mu_);
  util::Status AddForumMembershipLocked(
      const schema::ForumMembership& membership) SNB_REQUIRES_SHARED(mu_);
  util::Status AddMessageLocked(const schema::Message& message)
      SNB_REQUIRES_SHARED(mu_);
  util::Status AddLikeLocked(const schema::Like& like)
      SNB_REQUIRES_SHARED(mu_);

  /// Present records by id for the writer (nullptr when absent). The
  /// caller holds `mu_` exclusively, or shared with an EpochPin (another
  /// writer may retire a table directory meanwhile).
  PersonRecord* MutablePerson(schema::PersonId id);
  ForumRecord* MutableForum(schema::ForumId id);
  MessageRecord* MutableMessage(schema::MessageId id);

  /// Held shared by every Add* and exclusively by BulkLoad, FrozenReadLock
  /// and ComputeStorageBreakdown, which so see no update half applied.
  /// The DenseTables are deliberately NOT SNB_GUARDED_BY(mu_): readers
  /// access them lock-free under an EpochPin (the RCU publication protocol
  /// in the file comment), which the mutex analysis cannot model — the
  /// ReadGuard token parameter on the read accessors is the compile-time
  /// check for that side. Every mutation sits inside an Add* body
  /// (DESIGN.md's lock table; exercised by the TSan'd stress tests).
  mutable util::SharedMutex mu_;
  /// The writers' per-entity locks (StripeOf), taken after `mu_`.
  std::array<WriteStripe, kWriteStripes> stripes_;
  DenseTable<PersonRecord> persons_;
  /// Sparse id space (owner_id * slots_per_person + slot); absent chunks
  /// cost one null directory entry.
  DenseTable<ForumRecord> forums_;
  DenseTable<MessageRecord> messages_;
  /// Person ids by FirstNameBucket(first_name), appended by AddPerson.
  std::array<util::RcuVector<schema::PersonId>, kFirstNameBuckets>
      first_name_index_;

  std::atomic<uint64_t> num_persons_{0};
  std::atomic<uint64_t> num_forums_{0};
  std::atomic<uint64_t> num_knows_{0};
  std::atomic<uint64_t> num_messages_{0};
  std::atomic<uint64_t> num_likes_{0};
  std::atomic<uint64_t> num_memberships_{0};
};

}  // namespace snb::store

#endif  // SNB_STORE_GRAPH_STORE_H_
