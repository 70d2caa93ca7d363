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

/// Writer `w`'s creator person and forum: both have id w + 1.
uint64_t WriterEntity(int writer) { return static_cast<uint64_t>(writer) + 1; }

/// The fixed scaffolding the stress harnesses bulk-load: one creator
/// person and one forum per writer, no messages — every tracked adjacency
/// list starts empty.
schema::SocialNetwork ScaffoldNetwork(int num_writers) {
  schema::SocialNetwork net;
  for (int w = 0; w < num_writers; ++w) {
    schema::Person p;
    p.id = WriterEntity(w);
    p.first_name = "History";
    p.last_name = "Probe";
    p.birthday = util::kNetworkStartMs - 25 * 365 * util::kMillisPerDay;
    p.creation_date = util::kNetworkStartMs;
    p.city_id = 0;
    net.persons.push_back(std::move(p));
    schema::Forum f;
    f.id = WriterEntity(w);
    f.title = "History stress forum " + FormatU64(f.id);
    f.moderator_id = WriterEntity(w);
    f.creation_date = util::kNetworkStartMs;
    net.forums.push_back(std::move(f));
  }
  return net;
}

/// Post `index` of writer `writer`, in its own forum. Message ids are
/// unique across writers.
schema::Message MakePost(int writer, int num_writers, int index) {
  schema::Message m;
  m.id = static_cast<uint64_t>(index) * static_cast<uint64_t>(num_writers) +
         static_cast<uint64_t>(writer) + 1;
  m.kind = schema::MessageKind::kPost;
  m.creator_id = WriterEntity(writer);
  m.creation_date = util::kNetworkStartMs +
                    static_cast<int64_t>(index) * util::kMillisPerMinute;
  m.forum_id = WriterEntity(writer);
  m.root_post_id = m.id;
  m.content = "post " + FormatU64(m.id);
  m.country_id = 0;
  return m;
}

/// One snapshot observing every writer's two tracked adjacency lists,
/// resolving every edge id under the same pin.
void ObserveOnce(const store::GraphStore& store, int num_writers,
                 HistoryRecorder* rec, int reader) {
  uint64_t watermark = rec->BeginRead();
  store::ReadGuard pin = store.ReadLock();
  for (int w = 0; w < num_writers; ++w) {
    ReadObservation person_obs;
    person_obs.watermark = watermark;
    person_obs.domain = kDomainPersonMessages;
    person_obs.entity = WriterEntity(w);
    if (const store::PersonRecord* p = store.FindPerson(pin, WriterEntity(w))) {
      // Both created-message lists, under the one pin.
      for (auto messages : {p->posts.view(), p->comments.view()}) {
        person_obs.edges_seen += messages.size();
        for (const store::MessageEdge& edge : messages) {
          if (store.FindMessage(pin, edge.id) == nullptr) {
            ++person_obs.dangling;
          }
        }
      }
    }
    rec->RecordRead(reader, person_obs);

    ReadObservation forum_obs;
    forum_obs.watermark = watermark;
    forum_obs.domain = kDomainForumPosts;
    forum_obs.entity = WriterEntity(w);
    if (const store::ForumRecord* f = store.FindForum(pin, WriterEntity(w))) {
      auto posts = f->posts.view();
      forum_obs.edges_seen = posts.size();
      for (const store::PostEdge& post : posts) {
        if (store.FindMessage(pin, post.id) == nullptr) ++forum_obs.dangling;
      }
    }
    rec->RecordRead(reader, forum_obs);
  }
}

}  // namespace

HistoryCheckOutcome CheckHistory(const History& history) {
  HistoryCheckOutcome out;

  // Commit sequences per entity, sorted by seq (each entity has one
  // writer, which appends in order; sort defensively for hand-built
  // histories).
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
  // Length guaranteed visible to `obs` = max edges_after over commits the
  // observation's watermark covers; lists are insert-only so the max is
  // the guarantee.
  auto guaranteed_at = [&](const EntityKey& key,
                           const ReadObservation& obs) -> uint64_t {
    auto it = commits.find(key);
    if (it == commits.end()) return 0;
    uint64_t guaranteed = 0;
    for (const WriterCommit& c : it->second) {
      if (c.seq > obs.watermark) continue;
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
      config.num_commits < 1 || config.num_writers < 1) {
    return util::Status::InvalidArgument("history config values must be >= 1");
  }
  store::GraphStore store;
  SNB_RETURN_IF_ERROR(store.BulkLoad(ScaffoldNetwork(config.num_writers)));

  HistoryRecorder recorder(config.num_readers, config.num_writers);
  // One status slot per writer; ThreadPool::Wait() orders the writes
  // before the reads below.
  std::vector<util::Status> writer_status(
      static_cast<size_t>(config.num_writers));

  util::ThreadPool pool(static_cast<size_t>(config.num_writers) +
                        static_cast<size_t>(config.num_readers));
  for (int w = 0; w < config.num_writers; ++w) {
    pool.Submit([&store, &recorder, &writer_status, &config, w] {
      for (int i = 0; i < config.num_commits; ++i) {
        util::Status st =
            store.AddMessage(MakePost(w, config.num_writers, i));
        if (!st.ok()) {
          writer_status[static_cast<size_t>(w)] = st;
          return;
        }
        uint64_t length = static_cast<uint64_t>(i) + 1;
        uint64_t seq = recorder.Commit(w, kDomainPersonMessages,
                                       WriterEntity(w), length);
        recorder.CommitAt(w, seq, kDomainForumPosts, WriterEntity(w), length);
      }
    });
  }
  for (int reader = 0; reader < config.num_readers; ++reader) {
    pool.Submit([&store, &recorder, &config, reader] {
      for (int k = 0; k < config.reads_per_reader; ++k) {
        ObserveOnce(store, config.num_writers, &recorder, reader);
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

util::Status RecordBrokenWriterHistory(const HistoryConfig& config,
                                       History* out) {
  if (config.num_commits < 1) {
    return util::Status::InvalidArgument("history config values must be >= 1");
  }
  store::GraphStore store;
  SNB_RETURN_IF_ERROR(store.BulkLoad(ScaffoldNetwork(1)));

  HistoryRecorder recorder(1);
  for (int i = 0; i < config.num_commits; ++i) {
    uint64_t length = static_cast<uint64_t>(i) + 1;
    // Broken protocol: the commit point is announced before the message is
    // published...
    uint64_t seq =
        recorder.Commit(0, kDomainPersonMessages, WriterEntity(0), length);
    recorder.CommitAt(0, seq, kDomainForumPosts, WriterEntity(0), length);
    // ...so the interleaved read's watermark promises an edge its snapshot
    // cannot contain.
    ObserveOnce(store, 1, &recorder, 0);
    SNB_RETURN_IF_ERROR(store.AddMessage(MakePost(0, 1, i)));
  }
  *out = recorder.TakeHistory();
  return util::Status::Ok();
}

}  // namespace snb::validate
