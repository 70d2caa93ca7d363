#include "driver/connectors.h"

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "queries/complex_queries.h"
#include "queries/short_queries.h"
#include "queries/update_queries.h"
#include "util/stopwatch.h"
#include "util/rng.h"

namespace snb::driver {

using queries::GraphStore;
using util::RandomPurpose;
using util::Rng;
using util::Status;
using util::Stopwatch;

namespace {

// Busy-waits for the configured dispatch overhead (sleep granularity is too
// coarse for tens of microseconds).
void SpinFor(int64_t micros) {
  if (micros <= 0) return;
  auto until = std::chrono::steady_clock::now() +
               std::chrono::microseconds(micros);
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// The wall clock and hardware counters at an operation's start. Taken
/// only when some sink reads the operation's readings.
struct OpStart {
  Stopwatch watch;
  obs::perf::ScopedHwCounts hw;
};

}  // namespace

StoreConnector::StoreConnector(
    store::GraphStore* store,
    const std::vector<datagen::UpdateOperation>* updates,
    const schema::Dictionaries* dictionaries,
    obs::MetricsRegistry* metrics, ShortReadWalkConfig walk,
    int64_t dispatch_overhead_us, obs::TraceBuffer* trace,
    obs::DossierCollector* dossiers)
    : store_(store),
      updates_(updates),
      dict_(dictionaries),
      metrics_(metrics),
      walk_(walk),
      dispatch_overhead_us_(dispatch_overhead_us),
      trace_(trace),
      dossiers_(dossiers),
      observed_(metrics != nullptr || trace != nullptr ||
                dossiers != nullptr) {
  for (const schema::City& c : dict_->cities()) {
    city_country_.push_back(c.country_id);
  }
  for (const schema::Company& c : dict_->companies()) {
    company_country_.push_back(c.country_id);
  }
  tag_in_class_.assign(dict_->tag_classes().size(),
                       std::vector<bool>(dict_->tags().size(), false));
  for (size_t t = 0; t < dict_->tags().size(); ++t) {
    tag_in_class_[dict_->tags()[t].tag_class_id][t] = true;
  }
}

Status StoreConnector::Execute(const Operation& op) {
  // Pin once for the whole read: the guards taken inside each query then
  // nest for free (a thread-local counter bump instead of an epoch
  // publish), and the short-read walk spawned by a complex read runs under
  // a single pin.
  std::optional<store::ReadGuard> outer_pin;
  if (op.type != OperationType::kUpdate) outer_pin = store_->ReadLock();
  switch (op.type) {
    case OperationType::kComplexRead:
      return ExecuteComplex(op);
    case OperationType::kShortRead: {
      Status status = ExecuteShort(op.query_id, op.person_param,
                                   static_cast<schema::MessageId>(op.aux0));
      if (status.ok()) short_reads_.fetch_add(1, std::memory_order_relaxed);
      return status;
    }
    case OperationType::kUpdate:
      return ExecuteUpdate(op);
  }
  return Status::InvalidArgument("unknown operation type");
}

Status StoreConnector::ExecuteComplex(const Operation& op) {
  std::optional<OpStart> start;
  if (observed_) start.emplace();
  SpinFor(dispatch_overhead_us_);
  std::vector<schema::PersonId> result_persons;
  std::vector<schema::MessageId> result_messages;
  // Armed dossiers get the plan's operator rows: the spans inside it time
  // themselves into this profile while it is installed.
  obs::OperatorProfile profile;
  std::optional<obs::ScopedOperatorProfile> profiling;
  if (dossiers_ != nullptr) profiling.emplace(&profile);
  switch (op.query_id) {
    case 1: {
      auto rows = queries::Query1(*store_, op.person_param,
                                  dict_->FirstName(op.aux0));
      for (const auto& r : rows) result_persons.push_back(r.person_id);
      break;
    }
    case 2: {
      auto rows = queries::Query2(*store_, op.person_param,
                                  static_cast<util::TimestampMs>(op.aux0));
      for (const auto& r : rows) {
        result_persons.push_back(r.creator_id);
        result_messages.push_back(r.message_id);
      }
      break;
    }
    case 3: {
      auto rows = queries::Query3(
          *store_, op.person_param, city_country_,
          static_cast<schema::PlaceId>(op.aux0 & 0xff),
          static_cast<schema::PlaceId>((op.aux0 >> 8) & 0xff),
          static_cast<util::TimestampMs>(op.aux1), 30);
      for (const auto& r : rows) result_persons.push_back(r.person_id);
      break;
    }
    case 4: {
      queries::Query4(*store_, op.person_param,
                      static_cast<util::TimestampMs>(op.aux0),
                      static_cast<int>(op.aux1));
      break;
    }
    case 5: {
      queries::Query5(*store_, op.person_param,
                      static_cast<util::TimestampMs>(op.aux0));
      break;
    }
    case 6: {
      queries::Query6(*store_, op.person_param,
                      static_cast<schema::TagId>(op.aux0));
      break;
    }
    case 7: {
      auto rows = queries::Query7(*store_, op.person_param);
      for (const auto& r : rows) {
        result_persons.push_back(r.liker_id);
        result_messages.push_back(r.message_id);
      }
      break;
    }
    case 8: {
      auto rows = queries::Query8(*store_, op.person_param);
      for (const auto& r : rows) {
        result_persons.push_back(r.replier_id);
        result_messages.push_back(r.comment_id);
      }
      break;
    }
    case 9: {
      auto rows = queries::Query9(*store_, op.person_param,
                                  static_cast<util::TimestampMs>(op.aux0));
      for (const auto& r : rows) {
        result_persons.push_back(r.creator_id);
        result_messages.push_back(r.message_id);
      }
      break;
    }
    case 10: {
      auto rows = queries::Query10(*store_, op.person_param,
                                   static_cast<int>(op.aux0));
      for (const auto& r : rows) result_persons.push_back(r.person_id);
      break;
    }
    case 11: {
      auto rows = queries::Query11(
          *store_, op.person_param, company_country_,
          static_cast<schema::PlaceId>(op.aux0),
          static_cast<uint16_t>(op.aux1));
      for (const auto& r : rows) result_persons.push_back(r.person_id);
      break;
    }
    case 12: {
      auto rows = queries::Query12(
          *store_, op.person_param,
          tag_in_class_[op.aux0 % tag_in_class_.size()]);
      for (const auto& r : rows) result_persons.push_back(r.person_id);
      break;
    }
    case 13: {
      queries::Query13(*store_, op.person_param, op.person_param2);
      break;
    }
    case 14: {
      queries::Query14(*store_, op.person_param, op.person_param2);
      break;
    }
    default:
      return Status::InvalidArgument("complex query id out of range");
  }
  profiling.reset();  // The short-read walk below is not this plan.
  if (start) {
    uint64_t latency_ns = start->watch.ElapsedNanos();
    obs::perf::HwCounts hw = start->hw.Delta();
    Record(obs::ComplexOp(op.query_id), latency_ns, hw, profile.TakeRows());
  }
  RunShortReadWalk(op, result_persons, result_messages);
  return Status::Ok();
}

Status StoreConnector::ExecuteShort(uint8_t query_id,
                                    schema::PersonId person,
                                    schema::MessageId message) {
  // Trace the short read even when it was walk-spawned: the sub-span nests
  // inside the driver-recorded complex-read span on the same lane.
  obs::TraceEvent event;
  if (trace_ != nullptr) {
    event.op = obs::ShortOp(query_id);
    event.exec_begin_ns = trace_->NowNs();
  }
  std::optional<OpStart> start;
  if (observed_) start.emplace();
  SpinFor(dispatch_overhead_us_);
  switch (query_id) {
    case 1:
      queries::ShortQuery1PersonProfile(*store_, person);
      break;
    case 2:
      queries::ShortQuery2RecentMessages(*store_, person);
      break;
    case 3:
      queries::ShortQuery3Friends(*store_, person);
      break;
    case 4:
      queries::ShortQuery4MessageContent(*store_, message);
      break;
    case 5:
      queries::ShortQuery5MessageCreator(*store_, message);
      break;
    case 6:
      queries::ShortQuery6MessageForum(*store_, message);
      break;
    case 7:
      queries::ShortQuery7MessageReplies(*store_, message);
      break;
    default:
      return Status::InvalidArgument("short query id out of range");
  }
  if (!start) return Status::Ok();
  uint64_t latency_ns = start->watch.ElapsedNanos();
  obs::perf::HwCounts hw = start->hw.Delta();
  if (trace_ != nullptr) {
    event.end_ns = trace_->NowNs();
    event.hw = hw;
    trace_->Record(event);
  }
  Record(obs::ShortOp(query_id), latency_ns, hw, {});
  return Status::Ok();
}

Status StoreConnector::ExecuteUpdate(const Operation& op) {
  if (op.update_index >= updates_->size()) {
    return Status::OutOfRange("update index");
  }
  const datagen::UpdateOperation& update = (*updates_)[op.update_index];
  std::optional<OpStart> start;
  if (observed_) start.emplace();
  SpinFor(dispatch_overhead_us_);
  Status status = queries::ApplyUpdate(*store_, update);
  if (start) {
    uint64_t latency_ns = start->watch.ElapsedNanos();
    obs::perf::HwCounts hw = start->hw.Delta();
    Record(obs::UpdateOp(static_cast<int>(update.kind)), latency_ns, hw, {});
  }
  return status;
}

void StoreConnector::Record(obs::OpType op, uint64_t latency_ns,
                            const obs::perf::HwCounts& hw,
                            std::vector<obs::OperatorRow> operators) {
  if (metrics_ != nullptr) {
    metrics_->RecordLatencyNs(op, latency_ns);
    metrics_->RecordHwCounts(op, hw);
  }
  if (dossiers_ == nullptr) return;
  uint64_t seq = op_seq_.fetch_add(1, std::memory_order_relaxed);
  if (!dossiers_->WouldKeep(op, latency_ns)) return;
  obs::SlowQueryDossier d;
  d.op = op;
  d.seq = seq;
  d.latency_ns = latency_ns;
  d.hw = hw;
  d.operators = std::move(operators);
  dossiers_->Offer(std::move(d));
}

void StoreConnector::RunShortReadWalk(
    const Operation& op, const std::vector<schema::PersonId>& persons,
    const std::vector<schema::MessageId>& messages) {
  Rng rng(0x5a1cedULL, op.due_time ^ (static_cast<uint64_t>(op.query_id) << 56),
          RandomPurpose::kShortReadWalk);
  double p = walk_.initial_probability;
  // Current walk position: alternate between profile-centric and
  // post-centric lookups, as described in section 4 ("Profile lookup
  // provides an input for Post lookup, and vice versa").
  std::vector<schema::PersonId> cur_persons = persons;
  std::vector<schema::MessageId> cur_messages = messages;
  uint64_t steps = 0;
  while (p > 0.0 && rng.NextBool(p)) {
    bool use_person = !cur_persons.empty() &&
                      (cur_messages.empty() || rng.NextBool(0.5));
    if (!use_person && cur_messages.empty()) break;
    if (use_person) {
      schema::PersonId person =
          cur_persons[rng.NextBounded(cur_persons.size())];
      uint8_t qid = static_cast<uint8_t>(1 + rng.NextBounded(3));  // S1-S3.
      ExecuteShort(qid, person, schema::kInvalidId);
      // Profile lookups surface the person's messages for the next step.
      auto recent = queries::ShortQuery2RecentMessages(*store_, person, 5);
      cur_messages.clear();
      for (const auto& r : recent) cur_messages.push_back(r.message_id);
    } else {
      schema::MessageId message =
          cur_messages[rng.NextBounded(cur_messages.size())];
      uint8_t qid = static_cast<uint8_t>(4 + rng.NextBounded(4));  // S4-S7.
      ExecuteShort(qid, schema::kInvalidId, message);
      // Post lookups surface the creator for the next step.
      auto creator = queries::ShortQuery5MessageCreator(*store_, message);
      cur_persons.clear();
      if (creator.found) cur_persons.push_back(creator.creator_id);
    }
    ++steps;
    p -= walk_.decay;
  }
  // One batched update of each counter per walk, not one RMW per step:
  // every step ran one short read (its query id is always in range).
  if (steps > 0) {
    short_reads_.fetch_add(steps, std::memory_order_relaxed);
    if (metrics_ != nullptr) {
      metrics_->AddCounter(obs::Counter::kShortReadWalkSteps, steps);
    }
  }
}

void PublishStoreMetrics(const store::GraphStore& store,
                         obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  util::EpochManager::EpochStats epoch = store.AggregateEpochStats();
  metrics->SetGauge(obs::Gauge::kEpochAdvances, epoch.advances);
  metrics->SetGauge(obs::Gauge::kEpochRetired, epoch.retired);
  metrics->SetGauge(obs::Gauge::kEpochFreed, epoch.freed);
  metrics->SetGauge(obs::Gauge::kEpochPending, epoch.pending);
  store::GraphStore::TableOccupancy persons = store.PersonTableStats();
  metrics->SetGauge(obs::Gauge::kPersonSlotsUsed, persons.used);
  metrics->SetGauge(obs::Gauge::kPersonSlotsAllocated,
                    persons.allocated_slots);
  store::GraphStore::TableOccupancy forums = store.ForumTableStats();
  metrics->SetGauge(obs::Gauge::kForumSlotsUsed, forums.used);
  metrics->SetGauge(obs::Gauge::kForumSlotsAllocated,
                    forums.allocated_slots);
  store::GraphStore::TableOccupancy messages = store.MessageTableStats();
  metrics->SetGauge(obs::Gauge::kMessageSlotsUsed, messages.used);
  metrics->SetGauge(obs::Gauge::kMessageSlotsAllocated,
                    messages.allocated_slots);
}

Status SleepingConnector::Execute(const Operation& /*op*/) {
  if (sleep_micros_ > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_micros_));
  }
  executed_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

}  // namespace snb::driver
