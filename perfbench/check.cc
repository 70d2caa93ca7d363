#include "check.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <variant>

#include "queries/complex_queries.h"
#include "queries/short_queries.h"
#include "queries/update_queries.h"
#include "validate/canonical.h"

namespace snb::perfbench {
namespace {

using driver::Operation;
using driver::OperationType;
using store::GraphStore;

/// Sampled instances per complex query type, and sampled entities per
/// kind on a workload without complex reads.
constexpr size_t kPerQuery = 3;
constexpr size_t kEntitySamples = 8;
constexpr size_t kMismatchesKept = 8;

/// Dictionary lookups the connector derives once for Q3, Q11 and Q12.
struct ReadTables {
  std::vector<schema::PlaceId> city_country;
  std::vector<schema::PlaceId> company_country;
  std::vector<std::vector<bool>> tag_in_class;

  explicit ReadTables(const schema::Dictionaries& dict) {
    for (const schema::City& c : dict.cities()) {
      city_country.push_back(c.country_id);
    }
    for (const schema::Company& c : dict.companies()) {
      company_country.push_back(c.country_id);
    }
    tag_in_class.assign(dict.tag_classes().size(),
                        std::vector<bool>(dict.tags().size(), false));
    for (size_t t = 0; t < dict.tags().size(); ++t) {
      tag_in_class[dict.tags()[t].tag_class_id][t] = true;
    }
  }
};

/// A read's rows in canonical form plus the entities its result names
/// (the seeds of the short reads).
struct ReadOutput {
  std::vector<std::string> rows;
  std::vector<schema::PersonId> persons;
  std::vector<schema::MessageId> messages;
};

template <typename Row>
void AddRows(const std::vector<Row>& rows, ReadOutput* out) {
  std::vector<std::string> canonical = validate::CanonicalRows(rows);
  out->rows.insert(out->rows.end(), canonical.begin(), canonical.end());
}

/// Runs complex read `op` with the parameters StoreConnector decodes from
/// it.
ReadOutput RunComplex(const GraphStore& store, const Operation& op,
                      const schema::Dictionaries& dict,
                      const ReadTables& tables) {
  ReadOutput out;
  const schema::PersonId person = op.person_param;
  switch (op.query_id) {
    case 1: {
      auto rows = queries::Query1(store, person, dict.FirstName(op.aux0));
      AddRows(rows, &out);
      for (const auto& r : rows) out.persons.push_back(r.person_id);
      break;
    }
    case 2: {
      auto rows = queries::Query2(store, person,
                                  static_cast<util::TimestampMs>(op.aux0));
      AddRows(rows, &out);
      for (const auto& r : rows) {
        out.persons.push_back(r.creator_id);
        out.messages.push_back(r.message_id);
      }
      break;
    }
    case 3: {
      auto rows = queries::Query3(
          store, person, tables.city_country,
          static_cast<schema::PlaceId>(op.aux0 & 0xff),
          static_cast<schema::PlaceId>((op.aux0 >> 8) & 0xff),
          static_cast<util::TimestampMs>(op.aux1), 30);
      AddRows(rows, &out);
      for (const auto& r : rows) out.persons.push_back(r.person_id);
      break;
    }
    case 4:
      AddRows(queries::Query4(store, person,
                              static_cast<util::TimestampMs>(op.aux0),
                              static_cast<int>(op.aux1)),
              &out);
      break;
    case 5:
      AddRows(queries::Query5(store, person,
                              static_cast<util::TimestampMs>(op.aux0)),
              &out);
      break;
    case 6:
      AddRows(queries::Query6(store, person,
                              static_cast<schema::TagId>(op.aux0)),
              &out);
      break;
    case 7: {
      auto rows = queries::Query7(store, person);
      AddRows(rows, &out);
      for (const auto& r : rows) {
        out.persons.push_back(r.liker_id);
        out.messages.push_back(r.message_id);
      }
      break;
    }
    case 8: {
      auto rows = queries::Query8(store, person);
      AddRows(rows, &out);
      for (const auto& r : rows) {
        out.persons.push_back(r.replier_id);
        out.messages.push_back(r.comment_id);
      }
      break;
    }
    case 9: {
      auto rows = queries::Query9(store, person,
                                  static_cast<util::TimestampMs>(op.aux0));
      AddRows(rows, &out);
      for (const auto& r : rows) {
        out.persons.push_back(r.creator_id);
        out.messages.push_back(r.message_id);
      }
      break;
    }
    case 10: {
      auto rows =
          queries::Query10(store, person, static_cast<int>(op.aux0));
      AddRows(rows, &out);
      for (const auto& r : rows) out.persons.push_back(r.person_id);
      break;
    }
    case 11: {
      auto rows = queries::Query11(store, person, tables.company_country,
                                   static_cast<schema::PlaceId>(op.aux0),
                                   static_cast<uint16_t>(op.aux1));
      AddRows(rows, &out);
      for (const auto& r : rows) out.persons.push_back(r.person_id);
      break;
    }
    case 12: {
      auto rows = queries::Query12(
          store, person,
          tables.tag_in_class[op.aux0 % tables.tag_in_class.size()]);
      AddRows(rows, &out);
      for (const auto& r : rows) out.persons.push_back(r.person_id);
      break;
    }
    case 13:
      out.rows = validate::CanonicalScalar(
          queries::Query13(store, person, op.person_param2));
      break;
    case 14: {
      auto rows = queries::Query14(store, person, op.person_param2);
      AddRows(rows, &out);
      for (const auto& r : rows) {
        out.persons.insert(out.persons.end(), r.path.begin(), r.path.end());
      }
      break;
    }
    default:
      out.rows.push_back("unknown query id " + std::to_string(op.query_id));
      break;
  }
  return out;
}

std::vector<std::string> PersonShortReads(const GraphStore& store,
                                          schema::PersonId person) {
  std::vector<std::string> rows = {
      validate::CanonicalRow(queries::ShortQuery1PersonProfile(store, person))};
  for (std::string& row : validate::CanonicalRows(
           queries::ShortQuery2RecentMessages(store, person))) {
    rows.push_back(std::move(row));
  }
  for (std::string& row :
       validate::CanonicalRows(queries::ShortQuery3Friends(store, person))) {
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<std::string> MessageShortReads(const GraphStore& store,
                                           schema::MessageId message) {
  std::vector<std::string> rows = {
      validate::CanonicalRow(
          queries::ShortQuery4MessageContent(store, message)),
      validate::CanonicalRow(
          queries::ShortQuery5MessageCreator(store, message)),
      validate::CanonicalRow(queries::ShortQuery6MessageForum(store, message))};
  for (std::string& row : validate::CanonicalRows(
           queries::ShortQuery7MessageReplies(store, message))) {
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Up to `k` evenly spaced elements of `items` (first and last included).
template <typename T>
std::vector<T> Spread(const std::vector<T>& items, size_t k) {
  if (items.size() <= k) return items;
  std::vector<T> out;
  for (size_t i = 0; i < k; ++i) {
    out.push_back(items[i * (items.size() - 1) / (k - 1)]);
  }
  return out;
}

class Comparer {
 public:
  explicit Comparer(CheckResult* result) : result_(result) {}

  void Compare(const std::string& what, const std::vector<std::string>& actual,
               const std::vector<std::string>& reference) {
    Record(actual == reference,
           what + ": rows differ (" + std::to_string(actual.size()) + " vs " +
               std::to_string(reference.size()) + " in the reference)");
  }

  void CompareCount(const char* what, uint64_t actual, uint64_t reference) {
    Record(actual == reference, std::string(what) + ": " +
                                    std::to_string(actual) + " vs " +
                                    std::to_string(reference) +
                                    " in the reference");
  }

 private:
  void Record(bool equal, const std::string& mismatch) {
    ++result_->attempted;
    if (equal) return;
    ++result_->failed;
    if (result_->mismatches.size() < kMismatchesKept) {
      result_->mismatches.push_back(mismatch);
    }
  }

  CheckResult* result_;
};

}  // namespace

std::unique_ptr<store::GraphStore> BuildReference(const World& world,
                                                  bool skip_friendships) {
  std::unique_ptr<GraphStore> reference = LoadStore(world.dataset);
  for (size_t i = 0; i < world.num_updates; ++i) {
    const datagen::UpdateOperation& update = world.dataset.updates[i];
    if (skip_friendships &&
        update.kind == datagen::UpdateKind::kAddFriendship) {
      continue;
    }
    util::Status status = queries::ApplyUpdate(*reference, update);
    if (!status.ok() && !skip_friendships) {
      std::fprintf(stderr, "perfbench: reference update %zu failed: %s\n", i,
                   status.ToString().c_str());
      std::exit(1);
    }
  }
  return reference;
}

CheckResult CheckOutputs(const World& world, const GraphStore& actual,
                         const GraphStore& reference) {
  CheckResult result;
  Comparer cmp(&result);
  cmp.CompareCount("NumPersons", actual.NumPersons(), reference.NumPersons());
  cmp.CompareCount("NumKnowsEdges", actual.NumKnowsEdges(),
                   reference.NumKnowsEdges());
  cmp.CompareCount("NumForums", actual.NumForums(), reference.NumForums());
  cmp.CompareCount("NumMemberships", actual.NumMemberships(),
                   reference.NumMemberships());
  cmp.CompareCount("NumMessages", actual.NumMessages(),
                   reference.NumMessages());
  cmp.CompareCount("NumLikes", actual.NumLikes(), reference.NumLikes());

  std::vector<schema::PersonId> persons;
  std::vector<schema::MessageId> messages;
  if (world.num_complex_reads > 0) {
    const ReadTables tables(*world.dictionaries);
    std::vector<std::vector<const Operation*>> by_query(15);
    for (const Operation& op : world.operations) {
      if (op.type == OperationType::kComplexRead && op.query_id >= 1 &&
          op.query_id <= 14) {
        by_query[op.query_id].push_back(&op);
      }
    }
    for (int q = 1; q <= 14; ++q) {
      for (const Operation* op : Spread(by_query[q], kPerQuery)) {
        ReadOutput want =
            RunComplex(reference, *op, *world.dictionaries, tables);
        ReadOutput got = RunComplex(actual, *op, *world.dictionaries, tables);
        cmp.Compare("Q" + std::to_string(q) + " at op " +
                        std::to_string(OperationIndex(world.operations, *op)),
                    got.rows, want.rows);
        // The short reads start from the reference's result entities.
        if (!want.persons.empty()) persons.push_back(want.persons.front());
        if (!want.messages.empty()) messages.push_back(want.messages.front());
      }
    }
  } else {
    // No complex reads: the entities the replayed updates created.
    for (size_t i = 0; i < world.num_updates; ++i) {
      const datagen::UpdateOperation& u = world.dataset.updates[i];
      if (const auto* p = std::get_if<schema::Person>(&u.payload)) {
        persons.push_back(p->id);
      } else if (const auto* m = std::get_if<schema::Message>(&u.payload)) {
        messages.push_back(m->id);
      }
    }
    persons = Spread(persons, kEntitySamples);
    messages = Spread(messages, kEntitySamples);
  }
  for (schema::PersonId p : persons) {
    cmp.Compare("S1-S3 on person " + std::to_string(p),
                PersonShortReads(actual, p), PersonShortReads(reference, p));
  }
  for (schema::MessageId m : messages) {
    cmp.Compare("S4-S7 on message " + std::to_string(m),
                MessageShortReads(actual, m), MessageShortReads(reference, m));
  }
  return result;
}

}  // namespace snb::perfbench
