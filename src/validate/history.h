// Snapshot-isolation history checking for the graph store's RCU read path.
//
// A stress run records a *history*: each writer announces a commit point
// (a release increment of one global commit counter, shared by every
// writer) after each fully published update, and concurrent readers
// record, per read, the counter value loaded (acquire) before pinning an
// epoch plus what the pinned snapshot showed (adjacency lengths, and
// whether every adjacency id resolved to a ready record). CheckHistory
// then replays the log offline and flags:
//
//   * "torn-update"   — an adjacency entry whose target record was not
//                       resolvable under the same pin: the edge was linked
//                       before the record was published (a torn
//                       multi-entity update).
//   * "stale-read"    — a reader whose pre-pin watermark was w saw fewer
//                       edges than commit w guarantees. This is the
//                       read-your-GCT-dependency property from the paper's
//                       update-dependency discussion: once a dependency's
//                       commit point is globally visible, every later
//                       snapshot must contain it.
//   * "non-monotonic" — one reader thread observed an entity shrink
//                       between two of its own reads (snapshots moving
//                       backwards in time).
//   * "phantom-write" — a reader saw more edges than were ever
//                       committed.
//
// Tracked entities must start empty (the stress harnesses bulk-load only
// the fixed scaffolding — persons and forums — and grow adjacency lists
// exclusively through recorded commits).
//
// RecordStoreHistory drives the real store with one or more writers at
// once (run it under TSan); RecordBrokenWriterHistory is a deterministic,
// single-threaded scripted interleaving whose writer announces commits
// *before* publishing — the fixture CheckHistory must reject.
#ifndef SNB_VALIDATE_HISTORY_H_
#define SNB_VALIDATE_HISTORY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace snb::validate {

/// Adjacency-list domains a history can track.
inline constexpr uint32_t kDomainPersonMessages = 0;
inline constexpr uint32_t kDomainForumPosts = 1;

/// One reader observation under a single snapshot.
struct ReadObservation {
  uint64_t watermark = 0;   // Commit counter loaded before pinning.
  uint32_t domain = 0;      // kDomain* constant.
  uint64_t entity = 0;      // Person or forum id.
  uint64_t edges_seen = 0;  // Adjacency length under the pin.
  uint64_t dangling = 0;    // Adjacency ids that did not resolve.
};

/// One writer commit point. Multiple entries may share a `seq` when a
/// single update touches several adjacency lists.
struct WriterCommit {
  uint64_t seq = 0;
  uint32_t domain = 0;
  uint64_t entity = 0;
  uint64_t edges_after = 0;  // Entity's adjacency length as of this commit.
};

/// A recorded run: every writer's commit log plus one observation log per
/// reader thread.
struct History {
  std::vector<WriterCommit> commits;
  std::vector<std::vector<ReadObservation>> readers;
};

struct HistoryViolation {
  std::string kind;  // "torn-update", "stale-read", "non-monotonic", ...
  std::string detail;
};

struct HistoryCheckOutcome {
  bool consistent = true;
  uint64_t observations_checked = 0;
  uint64_t violation_count = 0;
  /// First violations, capped (see history.cc) so a badly broken run does
  /// not produce an unbounded report.
  std::vector<HistoryViolation> violations;
};

/// Offline checker; pure function of the recorded history.
HistoryCheckOutcome CheckHistory(const History& history);

/// Collects a history. The commit counter is the only shared state;
/// each reader's log is written by exactly one thread, and so is each
/// writer's commit log.
class HistoryRecorder {
 public:
  explicit HistoryRecorder(int num_readers, int num_writers = 1) {
    history_.readers.resize(static_cast<size_t>(num_readers));
    writer_logs_.resize(static_cast<size_t>(num_writers));
  }

  /// Reader side: loads the commit watermark. Call before pinning.
  uint64_t BeginRead() const {
    return counter_.load(std::memory_order_acquire);
  }

  /// Reader side: appends to reader `reader`'s log (single-threaded per
  /// reader index).
  void RecordRead(int reader, const ReadObservation& observation) {
    history_.readers[static_cast<size_t>(reader)].push_back(observation);
  }

  /// Writer side: announces the next commit point and logs it in writer
  /// `writer`'s log (single-threaded per writer index). Call after the
  /// update returned.
  uint64_t Commit(int writer, uint32_t domain, uint64_t entity,
                  uint64_t edges_after) {
    uint64_t seq = counter_.fetch_add(1, std::memory_order_release) + 1;
    CommitAt(writer, seq, domain, entity, edges_after);
    return seq;
  }

  /// Writer side: logs an additional entry under an already-announced
  /// commit point (one update touching a second adjacency list).
  void CommitAt(int writer, uint64_t seq, uint32_t domain, uint64_t entity,
                uint64_t edges_after) {
    writer_logs_[static_cast<size_t>(writer)].push_back(
        {seq, domain, entity, edges_after});
  }

  /// Moves the history out (merging the writers' commit logs). Call only
  /// after all threads have joined.
  History TakeHistory() {
    for (std::vector<WriterCommit>& log : writer_logs_) {
      history_.commits.insert(history_.commits.end(), log.begin(), log.end());
      log.clear();
    }
    return std::move(history_);
  }

 private:
  std::atomic<uint64_t> counter_{0};
  std::vector<std::vector<WriterCommit>> writer_logs_;
  History history_;
};

/// Stress-run knobs.
struct HistoryConfig {
  int num_readers = 4;
  int reads_per_reader = 200;
  /// Commits per writer.
  int num_commits = 400;
  int num_writers = 1;
};

/// Concurrent stress of the real store: `num_writers` writer threads,
/// each posting messages to its own creator person and forum (each post
/// grows the person's message list and the forum's post list), racing
/// `num_readers` reader threads that observe every writer's lists under
/// one snapshot. Run under TSan; feed the result to CheckHistory.
util::Status RecordStoreHistory(const HistoryConfig& config, History* out);

/// Deterministic broken-writer fixture: a single-threaded scripted
/// interleaving whose writer announces each commit before publishing the
/// message, with a read in the gap. CheckHistory must report a
/// "stale-read" violation for every such read.
util::Status RecordBrokenWriterHistory(const HistoryConfig& config,
                                       History* out);

}  // namespace snb::validate

#endif  // SNB_VALIDATE_HISTORY_H_
