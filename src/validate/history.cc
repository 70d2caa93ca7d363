#include "validate/history.h"

#include <algorithm>
#include <map>
#include <utility>

#include "schema/entities.h"
#include "store/graph_store.h"
#include "util/datetime.h"
#include "util/thread_pool.h"
#include "validate/canonical.h"

namespace snb::validate {
namespace {

constexpr size_t kMaxViolationDetails = 16;

constexpr schema::PersonId kCreator = 1;
constexpr schema::PersonId kBystander = 2;
constexpr schema::ForumId kForum = 1;

using EntityKey = std::pair<uint32_t, uint64_t>;

void AddViolation(HistoryCheckOutcome* out, const char* kind,
                  std::string detail) {
  out->consistent = false;
  ++out->violation_count;
  if (out->violations.size() < kMaxViolationDetails) {
    out->violations.push_back({kind, std::move(detail)});
  }
}

std::string DescribeEntity(uint32_t domain, uint64_t entity) {
  const char* name =
      domain == kDomainPersonMessages ? "person-messages" : "forum-posts";
  return std::string(name) + "/" + FormatU64(entity);
}

/// The fixed scaffolding both stress harnesses bulk-load: two persons and
/// one forum, no messages — every tracked adjacency list starts empty.
schema::SocialNetwork ScaffoldNetwork() {
  schema::SocialNetwork net;
  for (schema::PersonId id : {kCreator, kBystander}) {
    schema::Person p;
    p.id = id;
    p.first_name = "History";
    p.last_name = "Probe";
    p.birthday = util::kNetworkStartMs - 25 * 365 * util::kMillisPerDay;
    p.creation_date = util::kNetworkStartMs;
    p.city_id = 0;
    net.persons.push_back(std::move(p));
  }
  schema::Knows k;
  k.person1_id = kCreator;
  k.person2_id = kBystander;
  k.creation_date = util::kNetworkStartMs;
  net.knows.push_back(k);
  schema::Forum f;
  f.id = kForum;
  f.title = "History stress forum";
  f.moderator_id = kCreator;
  f.creation_date = util::kNetworkStartMs;
  net.forums.push_back(std::move(f));
  return net;
}

schema::Message MakePost(uint64_t index) {
  schema::Message m;
  m.id = index + 1;
  m.kind = schema::MessageKind::kPost;
  m.creator_id = kCreator;
  m.creation_date =
      util::kNetworkStartMs + static_cast<int64_t>(index) * util::kMillisPerMinute;
  m.forum_id = kForum;
  m.root_post_id = m.id;
  m.content = "post " + FormatU64(m.id);
  m.country_id = 0;
  return m;
}

/// One pinned read of both tracked adjacency lists, resolving every edge id
/// under the same pin.
void ObserveOnce(const store::GraphStore& store, HistoryRecorder* rec,
                 int reader) {
  uint64_t watermark = rec->BeginRead();
  store::ReadGuard pin = store.ReadLock();

  ReadObservation person_obs;
  person_obs.watermark = watermark;
  person_obs.domain = kDomainPersonMessages;
  person_obs.entity = kCreator;
  if (const store::PersonRecord* p = store.FindPerson(pin, kCreator)) {
    auto messages = p->messages.view();
    person_obs.edges_seen = messages.size();
    for (const store::MessageEdge& edge : messages) {
      if (store.FindMessage(pin, edge.id) == nullptr) ++person_obs.dangling;
    }
  }
  rec->RecordRead(reader, person_obs);

  ReadObservation forum_obs;
  forum_obs.watermark = watermark;
  forum_obs.domain = kDomainForumPosts;
  forum_obs.entity = kForum;
  if (const store::ForumRecord* f = store.FindForum(pin, kForum)) {
    auto posts = f->posts.view();
    forum_obs.edges_seen = posts.size();
    for (const store::PostEdge& post : posts) {
      if (store.FindMessage(pin, post.id) == nullptr) ++forum_obs.dangling;
    }
  }
  rec->RecordRead(reader, forum_obs);
}

/// Per-shard tracked entities of the sharded stress: one creator person
/// and one forum owned by each shard (lowest ids hashing there).
struct ShardEntities {
  std::vector<schema::PersonId> creators;  // Indexed by shard.
  std::vector<schema::ForumId> forums;
};

ShardEntities PickShardEntities(uint32_t num_shards) {
  ShardEntities e;
  e.creators.resize(num_shards, 0);
  e.forums.resize(num_shards, 0);
  uint32_t found = 0;
  for (uint64_t id = 1; found < num_shards; ++id) {
    uint32_t shard = store::ShardOfPerson(id, num_shards);
    if (e.creators[shard] == 0) {
      e.creators[shard] = id;
      ++found;
    }
  }
  found = 0;
  for (uint64_t id = 1; found < num_shards; ++id) {
    uint32_t shard = store::ShardOfForum(id, num_shards);
    if (e.forums[shard] == 0) {
      e.forums[shard] = id;
      ++found;
    }
  }
  return e;
}

/// Bulk scaffolding for the sharded stress: every tracked adjacency list
/// starts empty and grows only through recorded commits.
schema::SocialNetwork ShardScaffold(const ShardEntities& entities) {
  schema::SocialNetwork net;
  for (schema::PersonId id : entities.creators) {
    schema::Person p;
    p.id = id;
    p.first_name = "History";
    p.last_name = "Probe";
    p.birthday = util::kNetworkStartMs - 25 * 365 * util::kMillisPerDay;
    p.creation_date = util::kNetworkStartMs;
    p.city_id = 0;
    net.persons.push_back(std::move(p));
  }
  for (size_t shard = 0; shard < entities.forums.size(); ++shard) {
    schema::Forum f;
    f.id = entities.forums[shard];
    f.title = "History stress forum " + FormatU64(shard);
    f.moderator_id = entities.creators[shard];
    f.creation_date = util::kNetworkStartMs;
    net.forums.push_back(std::move(f));
  }
  return net;
}

/// Post `index` of shard `shard`'s writer. The message id is globally
/// unique across writers; the *record* lands on whatever shard the id
/// hashes to — usually not the creator's — which is exactly the
/// cross-shard edge the readers must resolve consistently.
schema::Message MakeShardPost(uint32_t shard, uint32_t num_shards, int index,
                              const ShardEntities& entities) {
  schema::Message m;
  m.id = static_cast<uint64_t>(index) * num_shards + shard + 1;
  m.kind = schema::MessageKind::kPost;
  m.creator_id = entities.creators[shard];
  m.creation_date = util::kNetworkStartMs +
                    static_cast<int64_t>(index) * util::kMillisPerMinute;
  m.forum_id = entities.forums[shard];
  m.root_post_id = m.id;
  m.content = "post " + FormatU64(m.id);
  m.country_id = 0;
  return m;
}

/// One multi-shard snapshot observing every shard's tracked lists and
/// resolving every adjacency id — mostly cross-shard — under it. The
/// watermark vector is loaded before pinning, in the same ascending shard
/// order the snapshot acquires its pins.
void ObserveShardedOnce(const store::GraphStore& store,
                        const ShardEntities& entities, HistoryRecorder* rec,
                        int reader) {
  std::vector<uint64_t> watermarks = rec->BeginReadVector();
  store::ReadGuard pin = store.ReadLock();
  for (size_t shard = 0; shard < entities.creators.size(); ++shard) {
    ReadObservation person_obs;
    person_obs.domain = kDomainPersonMessages;
    person_obs.entity = entities.creators[shard];
    person_obs.watermarks = watermarks;
    if (const store::PersonRecord* p =
            store.FindPerson(pin, entities.creators[shard])) {
      auto messages = p->messages.view();
      person_obs.edges_seen = messages.size();
      for (const store::MessageEdge& edge : messages) {
        if (store.FindMessage(pin, edge.id) == nullptr) {
          ++person_obs.dangling;
        }
      }
    }
    rec->RecordRead(reader, person_obs);

    ReadObservation forum_obs;
    forum_obs.domain = kDomainForumPosts;
    forum_obs.entity = entities.forums[shard];
    forum_obs.watermarks = watermarks;
    if (const store::ForumRecord* f =
            store.FindForum(pin, entities.forums[shard])) {
      auto posts = f->posts.view();
      forum_obs.edges_seen = posts.size();
      for (const store::PostEdge& post : posts) {
        if (store.FindMessage(pin, post.id) == nullptr) ++forum_obs.dangling;
      }
    }
    rec->RecordRead(reader, forum_obs);
  }
}

util::Status ValidateShardedConfig(const ShardedHistoryConfig& config) {
  if (config.num_shards < 1 || config.num_shards > store::kMaxShards) {
    return util::Status::InvalidArgument("num_shards must be in [1, 8]");
  }
  if (config.num_readers < 1 || config.reads_per_reader < 1 ||
      config.commits_per_shard < 1) {
    return util::Status::InvalidArgument("history config values must be >= 1");
  }
  return util::Status::Ok();
}

}  // namespace

HistoryCheckOutcome CheckHistory(const History& history) {
  HistoryCheckOutcome out;

  // Commit sequences per entity, sorted by seq (appended in order by the
  // single writer; sort defensively for hand-built histories).
  std::map<EntityKey, std::vector<WriterCommit>> commits;
  for (const WriterCommit& c : history.commits) {
    commits[{c.domain, c.entity}].push_back(c);
  }
  for (auto& [key, list] : commits) {
    std::sort(list.begin(), list.end(),
              [](const WriterCommit& a, const WriterCommit& b) {
                return a.seq < b.seq;
              });
  }
  // Watermark the observation holds for the committing shard: sharded
  // observations carry a vector (indexed by shard, loaded in pin order);
  // legacy observations carry the scalar for shard 0.
  auto watermark_for = [](const ReadObservation& obs,
                          uint32_t shard) -> uint64_t {
    if (obs.watermarks.empty()) return obs.watermark;
    return shard < obs.watermarks.size() ? obs.watermarks[shard] : 0;
  };
  // Length guaranteed visible to `obs` = max edges_after over commits the
  // observation's watermark for the committing shard covers; lists are
  // insert-only so the max is the guarantee.
  auto guaranteed_at = [&](const EntityKey& key,
                           const ReadObservation& obs) -> uint64_t {
    auto it = commits.find(key);
    if (it == commits.end()) return 0;
    uint64_t guaranteed = 0;
    for (const WriterCommit& c : it->second) {
      if (c.seq > watermark_for(obs, c.shard)) continue;
      guaranteed = std::max(guaranteed, c.edges_after);
    }
    return guaranteed;
  };
  auto final_length = [&](const EntityKey& key) -> uint64_t {
    auto it = commits.find(key);
    if (it == commits.end()) return 0;
    uint64_t final_len = 0;
    for (const WriterCommit& c : it->second) {
      final_len = std::max(final_len, c.edges_after);
    }
    return final_len;
  };

  for (size_t reader = 0; reader < history.readers.size(); ++reader) {
    std::map<EntityKey, uint64_t> last_seen;
    for (const ReadObservation& obs : history.readers[reader]) {
      ++out.observations_checked;
      EntityKey key{obs.domain, obs.entity};
      std::string where = "reader " + FormatU64(reader) + ", " +
                          DescribeEntity(obs.domain, obs.entity);

      if (obs.dangling > 0) {
        AddViolation(&out, "torn-update",
                     where + ": " + FormatU64(obs.dangling) +
                         " adjacency id(s) did not resolve under the pin");
      }
      uint64_t guaranteed = guaranteed_at(key, obs);
      if (obs.edges_seen < guaranteed) {
        AddViolation(&out, "stale-read",
                     where + ": watermark " + FormatU64(obs.watermark) +
                         " guarantees " + FormatU64(guaranteed) +
                         " edge(s) but the snapshot showed " +
                         FormatU64(obs.edges_seen));
      }
      if (obs.edges_seen > final_length(key)) {
        AddViolation(&out, "phantom-write",
                     where + ": snapshot showed " +
                         FormatU64(obs.edges_seen) +
                         " edge(s) but only " + FormatU64(final_length(key)) +
                         " were ever committed");
      }
      auto [it, inserted] = last_seen.emplace(key, obs.edges_seen);
      if (!inserted) {
        if (obs.edges_seen < it->second) {
          AddViolation(&out, "non-monotonic",
                       where + ": observed " + FormatU64(obs.edges_seen) +
                           " edge(s) after previously observing " +
                           FormatU64(it->second));
        }
        it->second = std::max(it->second, obs.edges_seen);
      }
    }
  }
  return out;
}

util::Status RecordStoreHistory(const HistoryConfig& config, History* out) {
  if (config.num_readers < 1 || config.reads_per_reader < 1 ||
      config.num_commits < 1) {
    return util::Status::InvalidArgument("history config values must be >= 1");
  }
  store::GraphStore store;
  SNB_RETURN_IF_ERROR(store.BulkLoad(ScaffoldNetwork()));

  HistoryRecorder recorder(config.num_readers);
  // The writer thread's status lands here; ThreadPool::Wait() orders the
  // write before the read below.
  util::Status writer_status = util::Status::Ok();

  util::ThreadPool pool(static_cast<size_t>(config.num_readers) + 1);
  pool.Submit([&store, &recorder, &writer_status, &config] {
    for (int i = 0; i < config.num_commits; ++i) {
      util::Status st = store.AddMessage(MakePost(static_cast<uint64_t>(i)));
      if (!st.ok()) {
        writer_status = st;
        return;
      }
      uint64_t length = static_cast<uint64_t>(i) + 1;
      uint64_t seq = recorder.Commit(kDomainPersonMessages, kCreator, length);
      recorder.CommitAt(seq, kDomainForumPosts, kForum, length);
    }
  });
  for (int reader = 0; reader < config.num_readers; ++reader) {
    pool.Submit([&store, &recorder, &config, reader] {
      for (int k = 0; k < config.reads_per_reader; ++k) {
        ObserveOnce(store, &recorder, reader);
      }
    });
  }
  pool.Wait();
  SNB_RETURN_IF_ERROR(writer_status);
  *out = recorder.TakeHistory();
  return util::Status::Ok();
}

util::Status RecordBrokenWriterHistory(const HistoryConfig& config,
                                       History* out) {
  if (config.num_commits < 1) {
    return util::Status::InvalidArgument("history config values must be >= 1");
  }
  store::GraphStore store;
  SNB_RETURN_IF_ERROR(store.BulkLoad(ScaffoldNetwork()));

  HistoryRecorder recorder(1);
  for (int i = 0; i < config.num_commits; ++i) {
    uint64_t length = static_cast<uint64_t>(i) + 1;
    // Broken protocol: the commit point is announced before the message is
    // published...
    uint64_t seq = recorder.Commit(kDomainPersonMessages, kCreator, length);
    recorder.CommitAt(seq, kDomainForumPosts, kForum, length);
    // ...so the interleaved read's watermark promises an edge its snapshot
    // cannot contain.
    ObserveOnce(store, &recorder, 0);
    SNB_RETURN_IF_ERROR(store.AddMessage(MakePost(static_cast<uint64_t>(i))));
  }
  *out = recorder.TakeHistory();
  return util::Status::Ok();
}

util::Status RecordShardedStoreHistory(const ShardedHistoryConfig& config,
                                       History* out) {
  SNB_RETURN_IF_ERROR(ValidateShardedConfig(config));
  ShardEntities entities = PickShardEntities(config.num_shards);
  store::GraphStore store(store::ReadConcurrency::kEpoch, config.num_shards);
  SNB_RETURN_IF_ERROR(store.BulkLoad(ShardScaffold(entities)));

  HistoryRecorder recorder(config.num_readers, config.num_shards);
  // One status slot per writer; ThreadPool::Wait() orders the writes
  // before the reads below.
  std::vector<util::Status> writer_status(config.num_shards);

  util::ThreadPool pool(static_cast<size_t>(config.num_shards) +
                        static_cast<size_t>(config.num_readers));
  for (uint32_t shard = 0; shard < config.num_shards; ++shard) {
    pool.Submit([&store, &recorder, &writer_status, &entities, &config,
                 shard] {
      for (int i = 0; i < config.commits_per_shard; ++i) {
        util::Status st = store.AddMessage(
            MakeShardPost(shard, config.num_shards, i, entities));
        if (!st.ok()) {
          writer_status[shard] = st;
          return;
        }
        uint64_t length = static_cast<uint64_t>(i) + 1;
        uint64_t seq = recorder.CommitOnShard(
            shard, kDomainPersonMessages, entities.creators[shard], length);
        recorder.CommitAtOnShard(shard, seq, kDomainForumPosts,
                                 entities.forums[shard], length);
      }
    });
  }
  for (int reader = 0; reader < config.num_readers; ++reader) {
    pool.Submit([&store, &recorder, &entities, &config, reader] {
      for (int k = 0; k < config.reads_per_reader; ++k) {
        ObserveShardedOnce(store, entities, &recorder, reader);
      }
    });
  }
  pool.Wait();
  for (const util::Status& st : writer_status) {
    SNB_RETURN_IF_ERROR(st);
  }
  *out = recorder.TakeHistory();
  return util::Status::Ok();
}

util::Status RecordMismatchedPinHistory(const ShardedHistoryConfig& config,
                                        History* out) {
  SNB_RETURN_IF_ERROR(ValidateShardedConfig(config));
  ShardEntities entities = PickShardEntities(config.num_shards);
  store::GraphStore store(store::ReadConcurrency::kEpoch, config.num_shards);
  SNB_RETURN_IF_ERROR(store.BulkLoad(ShardScaffold(entities)));

  HistoryRecorder recorder(1, config.num_shards);
  for (int i = 0; i < config.commits_per_shard; ++i) {
    for (uint32_t shard = 0; shard < config.num_shards; ++shard) {
      // The reader's view of shard `shard`'s list predates this update...
      uint64_t stale_length = static_cast<uint64_t>(i);
      SNB_RETURN_IF_ERROR(store.AddMessage(
          MakeShardPost(shard, config.num_shards, i, entities)));
      uint64_t length = static_cast<uint64_t>(i) + 1;
      uint64_t seq = recorder.CommitOnShard(
          shard, kDomainPersonMessages, entities.creators[shard], length);
      recorder.CommitAtOnShard(shard, seq, kDomainForumPosts,
                               entities.forums[shard], length);
      // ...but its watermark vector is loaded after the commit — the
      // observable signature of a reader that pinned shard `shard` at an
      // older epoch than its watermark load promises. The checker must
      // flag every such observation as a stale read.
      ReadObservation obs;
      obs.domain = kDomainPersonMessages;
      obs.entity = entities.creators[shard];
      obs.edges_seen = stale_length;
      obs.watermarks = recorder.BeginReadVector();
      recorder.RecordRead(0, obs);
    }
  }
  *out = recorder.TakeHistory();
  return util::Status::Ok();
}

}  // namespace snb::validate
