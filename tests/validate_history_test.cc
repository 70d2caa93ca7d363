// Snapshot-isolation history checking: the offline checker's violation
// taxonomy on hand-built histories, a concurrent multi-writer stress of the
// real store (the TSan payload — labelled `concurrency`), and the
// deliberately broken writer fixture the checker must reject.
#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "validate/history.h"

namespace snb::validate {
namespace {

History OneReaderHistory(std::vector<ReadObservation> observations) {
  History h;
  h.readers.push_back(std::move(observations));
  return h;
}

TEST(CheckHistoryTest, EmptyAndBenignHistoriesAreConsistent) {
  EXPECT_TRUE(CheckHistory(History{}).consistent);

  History h;
  h.commits = {{1, kDomainPersonMessages, 1, 1},
               {2, kDomainPersonMessages, 1, 2}};
  // Watermark 1 guarantees one edge; seeing two (an in-flight publish
  // whose commit lands later) is legal under snapshot isolation.
  h.readers.push_back({{1, kDomainPersonMessages, 1, 1, 0},
                       {1, kDomainPersonMessages, 1, 2, 0},
                       {2, kDomainPersonMessages, 1, 2, 0}});
  HistoryCheckOutcome outcome = CheckHistory(h);
  EXPECT_TRUE(outcome.consistent) << outcome.violations[0].detail;
  EXPECT_EQ(outcome.observations_checked, 3u);
}

TEST(CheckHistoryTest, FlagsStaleRead) {
  History h;
  h.commits = {{1, kDomainPersonMessages, 1, 1}};
  // Watermark 1 promises the first message, but the snapshot was empty:
  // the read-your-GCT-dependency violation.
  h.readers = {{{1, kDomainPersonMessages, 1, 0, 0}}};
  HistoryCheckOutcome outcome = CheckHistory(h);
  ASSERT_FALSE(outcome.consistent);
  ASSERT_EQ(outcome.violation_count, 1u);
  EXPECT_EQ(outcome.violations[0].kind, "stale-read");
}

TEST(CheckHistoryTest, FlagsTornUpdate) {
  History h = OneReaderHistory({{0, kDomainForumPosts, 1, 3, 2}});
  h.commits = {{1, kDomainForumPosts, 1, 3}};
  HistoryCheckOutcome outcome = CheckHistory(h);
  ASSERT_FALSE(outcome.consistent);
  EXPECT_EQ(outcome.violations[0].kind, "torn-update");
}

TEST(CheckHistoryTest, FlagsNonMonotonicReader) {
  History h;
  h.commits = {{1, kDomainPersonMessages, 1, 5}};
  h.readers = {{{1, kDomainPersonMessages, 1, 5, 0},
                {1, kDomainPersonMessages, 1, 3, 0}}};
  HistoryCheckOutcome outcome = CheckHistory(h);
  ASSERT_FALSE(outcome.consistent);
  // The shrink is both non-monotonic and below the watermark guarantee.
  bool saw_non_monotonic = false;
  for (const HistoryViolation& v : outcome.violations) {
    if (v.kind == "non-monotonic") saw_non_monotonic = true;
  }
  EXPECT_TRUE(saw_non_monotonic);
}

TEST(CheckHistoryTest, FlagsPhantomWrite) {
  History h;
  h.commits = {{1, kDomainPersonMessages, 1, 2}};
  h.readers = {{{1, kDomainPersonMessages, 1, 7, 0}}};
  HistoryCheckOutcome outcome = CheckHistory(h);
  ASSERT_FALSE(outcome.consistent);
  EXPECT_EQ(outcome.violations[0].kind, "phantom-write");
}

TEST(CheckHistoryTest, ViolationDetailsAreCappedButCounted) {
  History h;
  h.commits = {{1, kDomainPersonMessages, 1, 1}};
  std::vector<ReadObservation> reads(100, {1, kDomainPersonMessages, 1, 0, 0});
  h.readers = {reads};
  HistoryCheckOutcome outcome = CheckHistory(h);
  EXPECT_EQ(outcome.violation_count, 100u);
  EXPECT_LE(outcome.violations.size(), 16u);
}

// The real store under concurrent load: writers posting messages to
// their own person and forum, several pinned readers. Run at one writer
// and at four writers running in parallel, under TSan via the
// check.sh sanitizer legs (ctest -L concurrency); the recorded history
// must check clean.
TEST(StoreHistoryTest, ConcurrentStressIsSnapshotConsistent) {
  for (int writers : {1, 4}) {
    SCOPED_TRACE("writers=" + std::to_string(writers));
    HistoryConfig config;
    config.num_writers = writers;
    config.num_readers = 4;
    config.reads_per_reader = writers == 1 ? 150 : 60;
    config.num_commits = writers == 1 ? 300 : 120;
    History history;
    util::Status st = RecordStoreHistory(config, &history);
    ASSERT_TRUE(st.ok()) << st.message();
    // Two observations (person messages + forum posts) per writer per
    // read.
    uint64_t expected_observations =
        2ULL * static_cast<uint64_t>(writers) *
        static_cast<uint64_t>(config.num_readers) *
        static_cast<uint64_t>(config.reads_per_reader);
    HistoryCheckOutcome outcome = CheckHistory(history);
    EXPECT_EQ(outcome.observations_checked, expected_observations);
    EXPECT_TRUE(outcome.consistent)
        << outcome.violation_count << " violations; first: "
        << outcome.violations[0].kind << " — "
        << outcome.violations[0].detail;
    // Every writer committed everything it was asked to: two entries per
    // commit, the last of each list at full length.
    EXPECT_EQ(history.commits.size(),
              2ULL * static_cast<uint64_t>(writers) *
                  static_cast<uint64_t>(config.num_commits));
    uint64_t longest = 0;
    for (const WriterCommit& c : history.commits) {
      longest = std::max(longest, c.edges_after);
    }
    EXPECT_EQ(longest, static_cast<uint64_t>(config.num_commits));
  }
}

// The deliberately broken writer (commit point announced before the
// publish) must be rejected — deterministically, since the fixture is a
// scripted single-threaded interleaving.
TEST(StoreHistoryTest, BrokenWriterIsDetected) {
  HistoryConfig config;
  config.num_commits = 25;
  History history;
  ASSERT_TRUE(RecordBrokenWriterHistory(config, &history).ok());
  HistoryCheckOutcome outcome = CheckHistory(history);
  ASSERT_FALSE(outcome.consistent);
  // Every interleaved read saw the gap on both tracked lists.
  EXPECT_EQ(outcome.violation_count,
            2ULL * static_cast<uint64_t>(config.num_commits));
  EXPECT_EQ(outcome.violations[0].kind, "stale-read");
}

}  // namespace
}  // namespace snb::validate
