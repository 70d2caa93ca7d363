#include "validate/golden.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "driver/connectors.h"
#include "driver/operation.h"
#include "driver/query_mix.h"
#include "obs/report.h"
#include "queries/complex_queries.h"
#include "queries/short_queries.h"
#include "queries/update_queries.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "validate/canonical.h"
#include "validate/json_io.h"

namespace snb::validate {
namespace {

constexpr char kSchemaTag[] = "snb-validation-v1";

// Probe ids guaranteed absent from any generated dataset (far above every
// allocated id, below the store's kMaxEntityId bound).
constexpr schema::PersonId kMissingPersonId = (1ULL << 39) + 7;
constexpr schema::MessageId kMissingMessageId = (1ULL << 39) + 13;

// ---- Battery --------------------------------------------------------------

/// Dataset- and dictionary-derived inputs the read battery needs; identical
/// at emit and replay by construction (pure function of seed).
struct BatteryContext {
  const datagen::Dataset* dataset = nullptr;
  std::vector<schema::PlaceId> city_country;
  std::vector<schema::PlaceId> company_country;
  /// tag_in_class[c][t]: tag t belongs to tag class c.
  std::vector<std::vector<bool>> tag_in_class;
  size_t num_countries = 1;
  size_t num_tags = 1;
  uint64_t seed = 0;
};

BatteryContext MakeBatteryContext(const datagen::Dataset& dataset,
                                  const schema::Dictionaries& dict,
                                  uint64_t seed) {
  BatteryContext ctx;
  ctx.dataset = &dataset;
  ctx.seed = seed;
  ctx.city_country.reserve(dict.cities().size());
  for (const schema::City& city : dict.cities()) {
    ctx.city_country.push_back(city.country_id);
  }
  ctx.company_country.reserve(dict.companies().size());
  for (const schema::Company& company : dict.companies()) {
    ctx.company_country.push_back(company.country_id);
  }
  ctx.tag_in_class.assign(dict.tag_classes().size(),
                          std::vector<bool>(dict.tags().size(), false));
  for (size_t t = 0; t < dict.tags().size(); ++t) {
    schema::TagClassId c = dict.tags()[t].tag_class_id;
    if (c < ctx.tag_in_class.size()) ctx.tag_in_class[c][t] = true;
  }
  if (!dict.countries().empty()) ctx.num_countries = dict.countries().size();
  if (!dict.tags().empty()) ctx.num_tags = dict.tags().size();
  return ctx;
}

/// One battery operation: name, parameter rendering, and a runner producing
/// the canonical rows. Runners only read the store, so they are safe to
/// execute concurrently during replay.
struct BatteryTask {
  std::string op;
  std::string params;
  std::function<std::vector<std::string>()> run;
};

std::string P(const char* name, uint64_t v) {
  return std::string(name) + "=" + FormatU64(v);
}

/// Builds the deterministic read battery for one segment. All parameter
/// randomness derives from (seed, segment), never from store state, so emit
/// and replay choose identical bindings even if the stores diverge.
std::vector<BatteryTask> BuildBattery(const store::GraphStore& store,
                                      const BatteryContext& ctx,
                                      int segment_index, uint64_t updates_end) {
  const datagen::Dataset& ds = *ctx.dataset;
  const store::GraphStore* st = &store;
  util::Rng rng(ctx.seed, 0xBA77E500ULL + static_cast<uint64_t>(segment_index),
                util::RandomPurpose::kParameterPick);

  // Probe persons: bulk samples, the most recent update-added person (when
  // the segment has one), and a guaranteed-absent id.
  std::vector<schema::PersonId> persons;
  for (int i = 0; i < 4; ++i) {
    persons.push_back(
        ds.bulk.persons[rng.NextBounded(ds.bulk.persons.size())].id);
  }
  schema::PersonId update_person = schema::kInvalidId;
  schema::MessageId update_message = schema::kInvalidId;
  for (uint64_t i = 0; i < updates_end; ++i) {
    const datagen::UpdateOperation& u = ds.updates[i];
    if (u.kind == datagen::UpdateKind::kAddPerson) {
      if (const auto* p = std::get_if<schema::Person>(&u.payload)) {
        update_person = p->id;
      }
    } else if (u.kind == datagen::UpdateKind::kAddPost ||
               u.kind == datagen::UpdateKind::kAddComment) {
      if (const auto* m = std::get_if<schema::Message>(&u.payload)) {
        update_message = m->id;
      }
    }
  }
  if (update_person != schema::kInvalidId) persons.push_back(update_person);
  persons.push_back(kMissingPersonId);

  // Probe messages: bulk samples, the most recent update-added message, and
  // a guaranteed-absent id.
  std::vector<schema::MessageId> messages;
  if (!ds.bulk.messages.empty()) {
    for (int i = 0; i < 3; ++i) {
      messages.push_back(
          ds.bulk.messages[rng.NextBounded(ds.bulk.messages.size())].id);
    }
  }
  if (update_message != schema::kInvalidId) messages.push_back(update_message);
  messages.push_back(kMissingMessageId);

  const size_t num_countries = ctx.num_countries;

  std::vector<BatteryTask> tasks;
  for (schema::PersonId person : persons) {
    {
      std::string name =
          ds.bulk.persons[rng.NextBounded(ds.bulk.persons.size())].first_name;
      tasks.push_back({"complex.Q1", P("person", person) + " name=" + name,
                       [st, person, name] {
                         return CanonicalRows(queries::Query1(*st, person,
                                                              name));
                       }});
    }
    {
      util::TimestampMs max_date =
          util::kNetworkStartMs +
          rng.NextInRange(12 * 30, 36 * 30) * util::kMillisPerDay;
      tasks.push_back({"complex.Q2",
                       P("person", person) + " " +
                           P("max_date", static_cast<uint64_t>(max_date)),
                       [st, person, max_date] {
                         return CanonicalRows(
                             queries::Query2(*st, person, max_date));
                       }});
    }
    {
      auto cx = static_cast<schema::PlaceId>(rng.NextBounded(num_countries));
      auto cy = static_cast<schema::PlaceId>(
          (cx + 1 + rng.NextBounded(num_countries > 1 ? num_countries - 1
                                                      : 1)) %
          num_countries);
      util::TimestampMs start = util::kNetworkStartMs +
                                rng.NextBounded(30 * 30) * util::kMillisPerDay;
      int days = 30 + static_cast<int>(rng.NextBounded(60));
      tasks.push_back(
          {"complex.Q3",
           P("person", person) + " " + P("x", cx) + " " + P("y", cy) + " " +
               P("start", static_cast<uint64_t>(start)) + " " +
               P("days", static_cast<uint64_t>(days)),
           [st, &ctx, person, cx, cy, start, days] {
             return CanonicalRows(queries::Query3(*st, person,
                                                  ctx.city_country, cx, cy,
                                                  start, days));
           }});
    }
    {
      util::TimestampMs start = util::kNetworkStartMs +
                                rng.NextBounded(34 * 30) * util::kMillisPerDay;
      tasks.push_back({"complex.Q4",
                       P("person", person) + " " +
                           P("start", static_cast<uint64_t>(start)),
                       [st, person, start] {
                         return CanonicalRows(
                             queries::Query4(*st, person, start, 30));
                       }});
    }
    {
      util::TimestampMs min_date = util::kNetworkStartMs +
                                   rng.NextBounded(36 * 30) *
                                       util::kMillisPerDay;
      tasks.push_back({"complex.Q5",
                       P("person", person) + " " +
                           P("min_date", static_cast<uint64_t>(min_date)),
                       [st, person, min_date] {
                         return CanonicalRows(
                             queries::Query5(*st, person, min_date));
                       }});
    }
    {
      auto tag = static_cast<schema::TagId>(rng.NextBounded(ctx.num_tags));
      tasks.push_back({"complex.Q6", P("person", person) + " " + P("tag", tag),
                       [st, person, tag] {
                         return CanonicalRows(queries::Query6(*st, person,
                                                              tag));
                       }});
    }
    tasks.push_back({"complex.Q7", P("person", person), [st, person] {
                       return CanonicalRows(queries::Query7(*st, person));
                     }});
    tasks.push_back({"complex.Q8", P("person", person), [st, person] {
                       return CanonicalRows(queries::Query8(*st, person));
                     }});
    {
      util::TimestampMs max_date =
          util::kNetworkStartMs +
          rng.NextInRange(12 * 30, 36 * 30) * util::kMillisPerDay;
      tasks.push_back({"complex.Q9",
                       P("person", person) + " " +
                           P("max_date", static_cast<uint64_t>(max_date)),
                       [st, person, max_date] {
                         return CanonicalRows(
                             queries::Query9(*st, person, max_date));
                       }});
    }
    {
      int month = 1 + static_cast<int>(rng.NextBounded(12));
      tasks.push_back({"complex.Q10",
                       P("person", person) + " " +
                           P("month", static_cast<uint64_t>(month)),
                       [st, person, month] {
                         return CanonicalRows(
                             queries::Query10(*st, person, month));
                       }});
    }
    {
      auto country =
          static_cast<schema::PlaceId>(rng.NextBounded(num_countries));
      auto year = static_cast<uint16_t>(2005 + rng.NextBounded(10));
      tasks.push_back(
          {"complex.Q11",
           P("person", person) + " " + P("country", country) + " " +
               P("year", year),
           [st, &ctx, person, country, year] {
             return CanonicalRows(queries::Query11(
                 *st, person, ctx.company_country, country, year));
           }});
    }
    {
      size_t cls = ctx.tag_in_class.empty()
                       ? 0
                       : rng.NextBounded(ctx.tag_in_class.size());
      tasks.push_back(
          {"complex.Q12", P("person", person) + " " + P("class", cls),
           [st, &ctx, person, cls] {
             static const std::vector<bool> kEmpty;
             const std::vector<bool>& in_class =
                 cls < ctx.tag_in_class.size() ? ctx.tag_in_class[cls]
                                               : kEmpty;
             return CanonicalRows(queries::Query12(*st, person, in_class));
           }});
    }
    tasks.push_back({"short.S1", P("person", person), [st, person] {
                       return std::vector<std::string>{CanonicalRow(
                           queries::ShortQuery1PersonProfile(*st, person))};
                     }});
    tasks.push_back({"short.S2", P("person", person), [st, person] {
                       return CanonicalRows(
                           queries::ShortQuery2RecentMessages(*st, person));
                     }});
    tasks.push_back({"short.S3", P("person", person), [st, person] {
                       return CanonicalRows(
                           queries::ShortQuery3Friends(*st, person));
                     }});
  }

  // Path queries over probe pairs (including an absent endpoint).
  const std::vector<std::pair<schema::PersonId, schema::PersonId>> pairs = {
      {persons[0], persons[1]},
      {persons[2], persons[3]},
      {persons[0], kMissingPersonId},
  };
  for (auto [p1, p2] : pairs) {
    tasks.push_back({"complex.Q13", P("p1", p1) + " " + P("p2", p2),
                     [st, p1 = p1, p2 = p2] {
                       return CanonicalScalar(queries::Query13(*st, p1, p2));
                     }});
    tasks.push_back({"complex.Q14", P("p1", p1) + " " + P("p2", p2),
                     [st, p1 = p1, p2 = p2] {
                       return CanonicalRows(queries::Query14(*st, p1, p2));
                     }});
  }

  for (schema::MessageId message : messages) {
    tasks.push_back({"short.S4", P("message", message), [st, message] {
                       return std::vector<std::string>{CanonicalRow(
                           queries::ShortQuery4MessageContent(*st, message))};
                     }});
    tasks.push_back({"short.S5", P("message", message), [st, message] {
                       return std::vector<std::string>{CanonicalRow(
                           queries::ShortQuery5MessageCreator(*st, message))};
                     }});
    tasks.push_back({"short.S6", P("message", message), [st, message] {
                       return std::vector<std::string>{CanonicalRow(
                           queries::ShortQuery6MessageForum(*st, message))};
                     }});
    tasks.push_back({"short.S7", P("message", message), [st, message] {
                       return CanonicalRows(
                           queries::ShortQuery7MessageReplies(*st, message));
                     }});
  }
  return tasks;
}

/// Executes the battery; with a pool, tasks run concurrently and land in
/// their slot (replay's thread-count stress), otherwise strictly in order.
std::vector<GoldenOp> RunBattery(const std::vector<BatteryTask>& tasks,
                                 util::ThreadPool* pool) {
  std::vector<GoldenOp> out(tasks.size());
  if (pool == nullptr) {
    for (size_t i = 0; i < tasks.size(); ++i) {
      out[i] = {tasks[i].op, tasks[i].params, tasks[i].run()};
    }
    return out;
  }
  for (size_t i = 0; i < tasks.size(); ++i) {
    pool->Submit([&tasks, &out, i] {
      out[i] = {tasks[i].op, tasks[i].params, tasks[i].run()};
    });
  }
  pool->Wait();
  return out;
}

void FillCounts(const store::GraphStore& store, GoldenSegment* segment) {
  segment->num_persons = store.NumPersons();
  segment->num_knows = store.NumKnowsEdges();
  segment->num_forums = store.NumForums();
  segment->num_memberships = store.NumMemberships();
  segment->num_messages = store.NumMessages();
  segment->num_likes = store.NumLikes();
}

// ---- JSON helpers ---------------------------------------------------------

using jsonio::AppendU64Field;
using obs::AppendEscaped;
using obs::AppendKey;

constexpr char kWhat[] = "validation set";

util::Status ParseFail(const std::string& what) {
  return util::Status::InvalidArgument(std::string(kWhat) + ": " + what);
}

util::Status GetU64(const obs::JsonValue& obj, const char* key,
                    uint64_t* out) {
  return jsonio::GetU64(obj, key, out, kWhat);
}

util::Status GetString(const obs::JsonValue& obj, const char* key,
                       std::string* out) {
  return jsonio::GetString(obj, key, out, kWhat);
}

// ---- Replay helpers -------------------------------------------------------

/// Builds driver operations for the update-stream slice [begin, end) with
/// the benchmark workload builder's mapping, so the replay exercises the
/// exact driver scheduling paths the benchmark uses.
std::vector<driver::Operation> BuildUpdateOps(
    const std::vector<datagen::UpdateOperation>& updates, uint64_t begin,
    uint64_t end) {
  std::vector<driver::Operation> ops;
  ops.reserve(end - begin);
  for (uint64_t i = begin; i < end; ++i) {
    ops.push_back(
        driver::MakeUpdateOperation(updates[i], static_cast<uint32_t>(i)));
  }
  return ops;
}

void RecordDiff(ReplayOutcome* out, int segment, uint64_t op_index,
                const GoldenOp& golden_op, uint64_t row,
                const std::string& expected, const std::string& actual) {
  if (out->diffs == 0) {
    out->first.segment = segment;
    out->first.op_index = op_index;
    out->first.op = golden_op.op;
    out->first.params = golden_op.params;
    out->first.row = row;
    out->first.expected = expected;
    out->first.actual = actual;
  }
  ++out->diffs;
}

std::string CountsRow(uint64_t persons, uint64_t knows, uint64_t forums,
                      uint64_t memberships, uint64_t msgs, uint64_t likes) {
  return "persons=" + FormatU64(persons) + " knows=" + FormatU64(knows) +
         " forums=" + FormatU64(forums) +
         " memberships=" + FormatU64(memberships) +
         " messages=" + FormatU64(msgs) + " likes=" + FormatU64(likes);
}

}  // namespace

// ---- Emission -------------------------------------------------------------

util::Status EmitGoldenSet(const GoldenEmitOptions& options, GoldenSet* out) {
  if (options.num_segments < 1) {
    return util::Status::InvalidArgument("num_segments must be >= 1");
  }
  if (options.num_persons < 50) {
    return util::Status::InvalidArgument(
        "num_persons must be >= 50 (datagen floor)");
  }
  datagen::DatagenConfig config;
  config.seed = options.seed;
  config.num_persons = options.num_persons;
  schema::Dictionaries dict(options.seed);
  datagen::Dataset dataset = datagen::Generate(config, dict);
  BatteryContext ctx = MakeBatteryContext(dataset, dict, options.seed);

  store::GraphStore store;
  SNB_RETURN_IF_ERROR(store.BulkLoad(dataset.bulk));

  out->seed = options.seed;
  out->num_persons = options.num_persons;
  out->segments.clear();

  uint64_t applied = 0;
  for (int seg = 0; seg <= options.num_segments; ++seg) {
    uint64_t end = seg == 0 ? 0
                            : dataset.updates.size() *
                                  static_cast<uint64_t>(seg) /
                                  static_cast<uint64_t>(options.num_segments);
    for (; applied < end; ++applied) {
      util::Status status =
          queries::ApplyUpdate(store, dataset.updates[applied]);
      if (!status.ok()) {
        return util::Status::Internal(
            "serial reference run failed at update " + FormatU64(applied) +
            ": " + status.ToString());
      }
    }
    GoldenSegment segment;
    segment.updates_end = end;
    FillCounts(store, &segment);
    segment.operations = RunBattery(BuildBattery(store, ctx, seg, end),
                                    /*pool=*/nullptr);
    out->segments.push_back(std::move(segment));
  }
  return util::Status::Ok();
}

// ---- Serialization --------------------------------------------------------

std::string GoldenSetToJson(const GoldenSet& golden) {
  std::string out = "{";
  AppendKey(&out, "schema");
  AppendEscaped(&out, kSchemaTag);
  out += ",";
  AppendKey(&out, "seed");
  AppendEscaped(&out, FormatU64(golden.seed));
  out += ",";
  AppendU64Field(&out, "num_persons", golden.num_persons);
  out += ",";
  AppendKey(&out, "segments");
  out += "[";
  for (size_t s = 0; s < golden.segments.size(); ++s) {
    const GoldenSegment& seg = golden.segments[s];
    if (s != 0) out += ",";
    out += "\n{";
    AppendU64Field(&out, "updates_end", seg.updates_end);
    out += ",";
    AppendKey(&out, "counts");
    out += "{";
    AppendU64Field(&out, "persons", seg.num_persons);
    out += ",";
    AppendU64Field(&out, "knows", seg.num_knows);
    out += ",";
    AppendU64Field(&out, "forums", seg.num_forums);
    out += ",";
    AppendU64Field(&out, "memberships", seg.num_memberships);
    out += ",";
    AppendU64Field(&out, "messages", seg.num_messages);
    out += ",";
    AppendU64Field(&out, "likes", seg.num_likes);
    out += "},";
    AppendKey(&out, "operations");
    out += "[";
    for (size_t i = 0; i < seg.operations.size(); ++i) {
      const GoldenOp& op = seg.operations[i];
      if (i != 0) out += ",";
      out += "\n{";
      AppendKey(&out, "op");
      AppendEscaped(&out, op.op);
      out += ",";
      AppendKey(&out, "params");
      AppendEscaped(&out, op.params);
      out += ",";
      AppendKey(&out, "rows");
      out += "[";
      for (size_t r = 0; r < op.rows.size(); ++r) {
        if (r != 0) out += ",";
        AppendEscaped(&out, op.rows[r]);
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

util::Status GoldenSetFromJson(const std::string& json, GoldenSet* out) {
  obs::JsonValue root;
  std::string error;
  if (!obs::ParseJson(json, &root, &error)) {
    return ParseFail("JSON parse error: " + error);
  }
  std::string schema;
  SNB_RETURN_IF_ERROR(GetString(root, "schema", &schema));
  if (schema != kSchemaTag) {
    return ParseFail("unsupported schema \"" + schema + "\" (want " +
                     kSchemaTag + ")");
  }
  SNB_RETURN_IF_ERROR(GetU64(root, "seed", &out->seed));
  SNB_RETURN_IF_ERROR(GetU64(root, "num_persons", &out->num_persons));
  const obs::JsonValue* segments = root.Find("segments");
  if (segments == nullptr ||
      segments->kind != obs::JsonValue::Kind::kArray) {
    return ParseFail("missing \"segments\" array");
  }
  out->segments.clear();
  for (const obs::JsonValue& seg_value : segments->array) {
    if (seg_value.kind != obs::JsonValue::Kind::kObject) {
      return ParseFail("segment is not an object");
    }
    GoldenSegment segment;
    SNB_RETURN_IF_ERROR(
        GetU64(seg_value, "updates_end", &segment.updates_end));
    const obs::JsonValue* counts = seg_value.Find("counts");
    if (counts == nullptr) return ParseFail("missing \"counts\"");
    SNB_RETURN_IF_ERROR(GetU64(*counts, "persons", &segment.num_persons));
    SNB_RETURN_IF_ERROR(GetU64(*counts, "knows", &segment.num_knows));
    SNB_RETURN_IF_ERROR(GetU64(*counts, "forums", &segment.num_forums));
    SNB_RETURN_IF_ERROR(
        GetU64(*counts, "memberships", &segment.num_memberships));
    SNB_RETURN_IF_ERROR(GetU64(*counts, "messages", &segment.num_messages));
    SNB_RETURN_IF_ERROR(GetU64(*counts, "likes", &segment.num_likes));
    const obs::JsonValue* operations = seg_value.Find("operations");
    if (operations == nullptr ||
        operations->kind != obs::JsonValue::Kind::kArray) {
      return ParseFail("missing \"operations\" array");
    }
    for (const obs::JsonValue& op_value : operations->array) {
      GoldenOp op;
      SNB_RETURN_IF_ERROR(GetString(op_value, "op", &op.op));
      SNB_RETURN_IF_ERROR(GetString(op_value, "params", &op.params));
      const obs::JsonValue* rows = op_value.Find("rows");
      if (rows == nullptr || rows->kind != obs::JsonValue::Kind::kArray) {
        return ParseFail("missing \"rows\" array in " + op.op);
      }
      for (const obs::JsonValue& row : rows->array) {
        if (row.kind != obs::JsonValue::Kind::kString) {
          return ParseFail("non-string row in " + op.op);
        }
        op.rows.push_back(row.string);
      }
      segment.operations.push_back(std::move(op));
    }
    out->segments.push_back(std::move(segment));
  }
  if (out->segments.empty()) return ParseFail("no segments");
  return util::Status::Ok();
}

util::Status WriteGoldenSet(const GoldenSet& golden, const std::string& path) {
  return obs::WriteFileReport(path, GoldenSetToJson(golden));
}

util::Status ReadGoldenSet(const std::string& path, GoldenSet* out) {
  std::string text;
  SNB_RETURN_IF_ERROR(jsonio::ReadWholeFile(path, &text));
  return GoldenSetFromJson(text, out);
}

// ---- Replay ---------------------------------------------------------------

util::Status ReplayGoldenSetWith(const GoldenSet& golden,
                                 const datagen::Dataset& dataset,
                                 const schema::Dictionaries& dictionaries,
                                 const ReplayOptions& options,
                                 ReplayOutcome* out) {
  *out = ReplayOutcome();
  if (options.threads < 1) {
    return util::Status::InvalidArgument("threads must be >= 1");
  }
  if (dataset.config.seed != golden.seed ||
      dataset.config.num_persons != golden.num_persons) {
    return util::Status::InvalidArgument(
        "dataset was generated with different parameters than the golden "
        "set");
  }
  BatteryContext ctx = MakeBatteryContext(dataset, dictionaries, golden.seed);

  store::GraphStore store;
  SNB_RETURN_IF_ERROR(store.BulkLoad(dataset.bulk));

  std::unique_ptr<util::ThreadPool> pool;
  if (options.threads > 1) {
    pool = std::make_unique<util::ThreadPool>(options.threads);
  }

  uint64_t applied = 0;
  for (size_t seg = 0; seg < golden.segments.size(); ++seg) {
    const GoldenSegment& segment = golden.segments[seg];
    if (segment.updates_end > dataset.updates.size() ||
        segment.updates_end < applied) {
      return util::Status::InvalidArgument(
          "golden segment update boundaries do not match the regenerated "
          "stream");
    }
    if (segment.updates_end > applied) {
      std::vector<driver::Operation> ops =
          BuildUpdateOps(dataset.updates, applied, segment.updates_end);
      driver::ShortReadWalkConfig walk;
      walk.initial_probability = 0.0;  // Updates only: no spawned reads.
      driver::StoreConnector connector(&store, &dataset.updates,
                                       &dictionaries, options.metrics, walk);
      driver::DriverConfig config;
      config.num_partitions = options.threads;
      config.mode = options.mode;
      driver::DriverReport report =
          driver::RunWorkload(ops, connector, config);
      if (report.operations_failed != 0) {
        out->error = "driver failed " + FormatU64(report.operations_failed) +
                     " updates in segment " + FormatU64(seg) + ": " +
                     report.first_error;
        return util::Status::Internal(out->error);
      }
      applied = segment.updates_end;
    }

    // Structural digest: catches lost/duplicated updates battery probes
    // might miss.
    std::string expected_counts = CountsRow(
        segment.num_persons, segment.num_knows, segment.num_forums,
        segment.num_memberships, segment.num_messages, segment.num_likes);
    std::string actual_counts = CountsRow(
        store.NumPersons(), store.NumKnowsEdges(), store.NumForums(),
        store.NumMemberships(), store.NumMessages(), store.NumLikes());
    ++out->ops_compared;
    ++out->rows_compared;
    if (expected_counts != actual_counts) {
      GoldenOp digest_op;
      digest_op.op = "store.counts";
      digest_op.params = "segment=" + FormatU64(seg);
      RecordDiff(out, static_cast<int>(seg), 0, digest_op, 0, expected_counts,
                 actual_counts);
    }

    std::vector<BatteryTask> tasks = BuildBattery(
        store, ctx, static_cast<int>(seg), segment.updates_end);
    if (tasks.size() != segment.operations.size()) {
      return util::Status::InvalidArgument(
          "battery shape mismatch (golden emitted by a different battery "
          "version?): segment " +
          FormatU64(seg) + " has " + FormatU64(segment.operations.size()) +
          " recorded ops, replay built " + FormatU64(tasks.size()));
    }
    std::vector<GoldenOp> results = RunBattery(tasks, pool.get());
    for (size_t i = 0; i < results.size(); ++i) {
      GoldenOp& actual = results[i];
      const GoldenOp& expected = segment.operations[i];
      if (actual.op != expected.op || actual.params != expected.params) {
        return util::Status::InvalidArgument(
            "battery binding mismatch at segment " + FormatU64(seg) +
            " op " + FormatU64(i) + ": recorded " + expected.op + "(" +
            expected.params + "), replay ran " + actual.op + "(" +
            actual.params + ")");
      }
      if (!options.mutate_op.empty() && actual.op == options.mutate_op) {
        // Injected bug for the mutation test: corrupt the replayed rows.
        if (actual.rows.empty()) {
          actual.rows.push_back("<mutated>");
        } else {
          actual.rows.pop_back();
        }
      }
      ++out->ops_compared;
      size_t common = std::min(expected.rows.size(), actual.rows.size());
      out->rows_compared +=
          std::max(expected.rows.size(), actual.rows.size());
      for (size_t r = 0; r < common; ++r) {
        if (expected.rows[r] != actual.rows[r]) {
          RecordDiff(out, static_cast<int>(seg), i, expected, r,
                     expected.rows[r], actual.rows[r]);
        }
      }
      for (size_t r = common; r < expected.rows.size(); ++r) {
        RecordDiff(out, static_cast<int>(seg), i, expected, r,
                   expected.rows[r], "<absent>");
      }
      for (size_t r = common; r < actual.rows.size(); ++r) {
        RecordDiff(out, static_cast<int>(seg), i, expected, r, "<absent>",
                   actual.rows[r]);
      }
    }
    ++out->segments_compared;
  }
  out->passed = out->diffs == 0 && out->error.empty();
  return util::Status::Ok();
}

util::Status ReplayGoldenSet(const GoldenSet& golden,
                             const ReplayOptions& options,
                             ReplayOutcome* out) {
  datagen::DatagenConfig config;
  config.seed = golden.seed;
  config.num_persons = golden.num_persons;
  schema::Dictionaries dict(golden.seed);
  datagen::Dataset dataset = datagen::Generate(config, dict);
  return ReplayGoldenSetWith(golden, dataset, dict, options, out);
}

}  // namespace snb::validate
