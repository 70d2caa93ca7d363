// Concurrency stress: reader threads run CQ1/CQ2/CQ9/CQ11/CQ14 in a tight
// loop while the main thread replays the generated update stream against
// the same store (epoch read mode, the default). Along the replay the
// writer also adds persons past the bulk-load id bound, befriended with
// bulk persons, so the readers' person bitmaps (sized to the bound each
// query reads) meet ids past it. Readers verify per-query invariants that
// must hold under any snapshot; afterwards the stressed store must answer
// identically to a replica loaded sequentially.
//
// Built under -DSNB_SANITIZE=thread this doubles as the TSan workload for
// the lock-free read path (ctest -L concurrency).
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "queries/complex_queries.h"
#include "queries/update_queries.h"
#include "schema/dictionaries.h"
#include "store/graph_store.h"

namespace snb::store {
namespace {

// Far past every generated creation date (year 2100).
constexpr util::TimestampMs kFarFuture = 4102444800000;

struct ReaderStats {
  uint64_t queries = 0;
  uint64_t results = 0;
};

// Returns a description of the first invariant violation, or "" if clean.
// Runs under its own ReadLock so record lookups are snapshot-safe.
std::string CheckQ1(const GraphStore& store, const std::string& first_name,
                    const std::vector<queries::Q1Result>& results) {
  auto pin = store.ReadLock();
  std::set<schema::PersonId> seen;
  for (size_t i = 0; i < results.size(); ++i) {
    const queries::Q1Result& r = results[i];
    if (r.distance < 1 || r.distance > 3) return "Q1 distance outside 1..3";
    if (!seen.insert(r.person_id).second) return "Q1 returned a person twice";
    const PersonRecord* p = store.FindPerson(pin, r.person_id);
    if (p == nullptr) return "Q1 returned an unresolvable person id";
    if (p->data.first_name != first_name) return "Q1 first name mismatch";
    if (p->data.last_name != r.last_name) return "Q1 last name mismatch";
    if (i > 0) {
      const queries::Q1Result& prev = results[i - 1];
      bool ordered =
          prev.distance < r.distance ||
          (prev.distance == r.distance &&
           (prev.last_name < r.last_name ||
            (prev.last_name == r.last_name && prev.person_id < r.person_id)));
      if (!ordered) return "Q1 results not (distance, last name, id) ordered";
    }
  }
  return "";
}

std::string CheckQ11(schema::PersonId start,
                     const std::vector<queries::Q11Result>& results) {
  std::set<schema::PersonId> seen;
  for (size_t i = 0; i < results.size(); ++i) {
    const queries::Q11Result& r = results[i];
    if (r.person_id == start) return "Q11 returned the start person";
    if (!seen.insert(r.person_id).second) return "Q11 returned a person twice";
    if (i > 0) {
      const queries::Q11Result& prev = results[i - 1];
      bool ordered = prev.work_year < r.work_year ||
                     (prev.work_year == r.work_year &&
                      prev.person_id < r.person_id);
      if (!ordered) return "Q11 results not (work year, id) ordered";
    }
  }
  return "";
}

std::string CheckQ2(const GraphStore& store, schema::PersonId start,
                    const std::vector<queries::Q2Result>& results) {
  auto pin = store.ReadLock();
  for (size_t i = 0; i < results.size(); ++i) {
    const queries::Q2Result& r = results[i];
    if (i > 0) {
      const queries::Q2Result& prev = results[i - 1];
      bool ordered = prev.creation_date > r.creation_date ||
                     (prev.creation_date == r.creation_date &&
                      prev.message_id < r.message_id);
      if (!ordered) return "Q2 results not (date desc, id asc) ordered";
    }
    const MessageRecord* m = store.FindMessage(pin, r.message_id);
    if (m == nullptr) return "Q2 returned an unresolvable message id";
    if (m->data.creator_id != r.creator_id) return "Q2 creator mismatch";
    if (m->data.creation_date != r.creation_date) return "Q2 date mismatch";
    // Friendships are insert-only, so a creator that was a friend inside
    // the query's snapshot is still a friend now.
    if (!store.AreFriends(pin, start, r.creator_id)) {
      return "Q2 creator is not a friend of the start person";
    }
  }
  return "";
}

std::string CheckQ9(const GraphStore& store,
                    const std::vector<queries::Q9Result>& results) {
  auto pin = store.ReadLock();
  for (size_t i = 0; i < results.size(); ++i) {
    const queries::Q9Result& r = results[i];
    if (i > 0) {
      const queries::Q9Result& prev = results[i - 1];
      bool ordered = prev.creation_date > r.creation_date ||
                     (prev.creation_date == r.creation_date &&
                      prev.message_id < r.message_id);
      if (!ordered) return "Q9 results not (date desc, id asc) ordered";
    }
    const MessageRecord* m = store.FindMessage(pin, r.message_id);
    if (m == nullptr) return "Q9 returned an unresolvable message id";
    if (m->data.creator_id != r.creator_id) return "Q9 creator mismatch";
    if (m->data.creation_date != r.creation_date) return "Q9 date mismatch";
  }
  return "";
}

// Every Q14 path must run person1 -> person2 through friend-list links (a
// child lists its parent; links are insert-only, so they are still there
// now), all paths must have one length, and the rows must be sorted.
std::string CheckQ14(const GraphStore& store, schema::PersonId person1,
                     schema::PersonId person2,
                     const std::vector<queries::Q14Result>& results) {
  auto pin = store.ReadLock();
  if (results.size() > 1000) return "Q14 returned more than 1000 paths";
  for (size_t i = 0; i < results.size(); ++i) {
    const std::vector<schema::PersonId>& path = results[i].path;
    if (path.empty() || path.front() != person1 || path.back() != person2) {
      return "Q14 path does not run person1 -> person2";
    }
    if (path.size() != results[0].path.size()) {
      return "Q14 paths differ in length";
    }
    for (size_t k = 0; k + 1 < path.size(); ++k) {
      if (!store.AreFriends(pin, path[k + 1], path[k])) {
        return "Q14 path steps between non-friends";
      }
    }
    if (i > 0) {
      const queries::Q14Result& prev = results[i - 1];
      bool ordered = prev.weight > results[i].weight ||
                     (prev.weight == results[i].weight && prev.path < path);
      if (!ordered) return "Q14 results not (weight desc, path asc) ordered";
    }
  }
  return "";
}

TEST(ConcurrencyStressTest, ReadersRaceUpdateReplay) {
  datagen::DatagenConfig config = datagen::DatagenConfig::ForScaleFactor(0.02);
  datagen::Dataset ds = datagen::Generate(config);
  ASSERT_FALSE(ds.updates.empty());

  GraphStore store;
  ASSERT_TRUE(store.BulkLoad(ds.bulk).ok());

  std::vector<schema::PersonId> persons;
  std::vector<std::string> first_names;
  {
    auto pin = store.ReadLock();
    persons = store.PersonIds(pin);
    for (schema::PersonId pid : persons) {
      first_names.push_back(store.FindPerson(pin, pid)->data.first_name);
    }
  }
  ASSERT_FALSE(persons.empty());
  const uint64_t bulk_bound = store.PersonIdBound();
  schema::Dictionaries dict(config.seed);
  std::vector<schema::PlaceId> company_country;
  for (const schema::Company& c : dict.companies()) {
    company_country.push_back(c.country_id);
  }

  constexpr int kReaders = 4;
  constexpr uint64_t kMinQueriesPerReader = 40;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> errors{0};
  std::string first_error;  // Written once under the flag below.
  std::atomic<bool> error_logged{false};

  auto report = [&](const std::string& what) {
    if (what.empty()) return;
    errors.fetch_add(1, std::memory_order_relaxed);
    bool expected = false;
    if (error_logged.compare_exchange_strong(expected, true)) {
      first_error = what;
    }
  };

  std::vector<ReaderStats> stats(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      ReaderStats& my = stats[t];
      size_t cursor = static_cast<size_t>(t);
      while (!done.load(std::memory_order_acquire) ||
             my.queries < kMinQueriesPerReader) {
        schema::PersonId pid = persons[cursor % persons.size()];
        cursor += kReaders;
        const std::string& name = first_names[(cursor * 31) % persons.size()];
        auto q1 = queries::Query1(store, pid, name);
        report(CheckQ1(store, name, q1));
        auto q2 = queries::Query2(store, pid, kFarFuture);
        report(CheckQ2(store, pid, q2));
        auto q9 = queries::Query9(store, pid, kFarFuture);
        report(CheckQ9(store, q9));
        schema::PersonId other = persons[(cursor * 7919) % persons.size()];
        auto q11 = queries::Query11(
            store, pid, company_country,
            company_country[cursor % company_country.size()], 2030);
        report(CheckQ11(pid, q11));
        auto q14 = queries::Query14(store, pid, other);
        report(CheckQ14(store, pid, other, q14));
        my.queries += 5;
        my.results += q1.size() + q2.size() + q9.size() + q11.size() +
                      q14.size();
      }
    });
  }

  // Writer: replay the full update stream on the main thread, adding a
  // person past the bulk-load bound after every 64th update. Late ids are
  // 64 apart, so each one lands in a fresh bitmap word.
  std::vector<schema::Person> late_persons;
  std::vector<schema::Knows> late_knows;
  uint64_t applied = 0;
  for (const datagen::UpdateOperation& op : ds.updates) {
    ASSERT_TRUE(queries::ApplyUpdate(store, op).ok());
    if (++applied % 64 != 0) continue;
    size_t k = late_persons.size();
    schema::Person late;
    late.id = bulk_bound + 64 * k + 5;
    late.first_name = first_names[(k * 13) % first_names.size()];
    late.creation_date = util::UpdateStreamStartMs();
    schema::Knows knows{persons[(k * 7) % persons.size()], late.id,
                        util::UpdateStreamStartMs()};
    ASSERT_TRUE(store.AddPerson(late).ok());
    ASSERT_TRUE(store.AddFriendship(knows).ok());
    late_persons.push_back(late);
    late_knows.push_back(knows);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(errors.load(), 0u) << first_error;
  EXPECT_EQ(applied, ds.updates.size());
  ASSERT_FALSE(late_persons.empty());
  EXPECT_EQ(store.PersonIdBound(), late_persons.back().id + 1);
  uint64_t total_queries = 0;
  for (const ReaderStats& s : stats) total_queries += s.queries;
  EXPECT_GE(total_queries, kReaders * kMinQueriesPerReader);

  // Counters converge to the dataset's ground truth once the stream is in.
  EXPECT_EQ(store.NumPersons(), ds.stats.num_persons + late_persons.size());
  EXPECT_EQ(store.NumKnowsEdges(), ds.stats.num_knows + late_knows.size());
  EXPECT_EQ(store.NumMessages(), ds.stats.NumMessages());
  EXPECT_EQ(store.NumLikes(), ds.stats.num_likes);

  // The stressed store must be indistinguishable from a sequential load.
  GraphStore replica;
  ASSERT_TRUE(replica.BulkLoad(ds.bulk).ok());
  for (const datagen::UpdateOperation& op : ds.updates) {
    ASSERT_TRUE(queries::ApplyUpdate(replica, op).ok());
  }
  for (size_t k = 0; k < late_persons.size(); ++k) {
    ASSERT_TRUE(replica.AddPerson(late_persons[k]).ok());
    ASSERT_TRUE(replica.AddFriendship(late_knows[k]).ok());
  }
  size_t checked = 0;
  for (size_t i = 0; i < persons.size() && checked < 16; i += 7, ++checked) {
    schema::PersonId pid = persons[i];
    auto got = queries::Query9(store, pid, kFarFuture);
    auto want = queries::Query9(replica, pid, kFarFuture);
    ASSERT_EQ(got.size(), want.size()) << "person " << pid;
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].message_id, want[k].message_id);
      EXPECT_EQ(got[k].creator_id, want[k].creator_id);
      EXPECT_EQ(got[k].creation_date, want[k].creation_date);
    }
  }
}

}  // namespace
}  // namespace snb::store
