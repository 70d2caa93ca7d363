#include "queries/bi_queries.h"

#include <algorithm>
#include <ctime>
#include <map>
#include <unordered_map>

namespace snb::queries {
namespace {

int YearOf(util::TimestampMs ts) {
  std::time_t secs = static_cast<std::time_t>(ts / util::kMillisPerSecond);
  std::tm tm_utc{};
  gmtime_r(&secs, &tm_utc);
  return tm_utc.tm_year + 1900;
}

}  // namespace

std::vector<Bi1Result> BiQuery1PostingSummary(const GraphStore& store) {
  auto pin = store.ReadLock();
  struct Acc {
    uint64_t count = 0;
    uint64_t length = 0;
  };
  std::map<std::tuple<int, int, uint32_t>, Acc> groups;
  for (schema::MessageId id = 0; id < store.MessageIdBound(); ++id) {
    const store::MessageRecord* m = store.FindMessage(pin, id);
    if (m == nullptr) continue;
    Acc& acc = groups[{YearOf(m->data.creation_date),
                       static_cast<int>(m->data.kind), m->data.language}];
    ++acc.count;
    acc.length += m->data.content.size();
  }
  std::vector<Bi1Result> results;
  results.reserve(groups.size());
  for (const auto& [key, acc] : groups) {
    Bi1Result r;
    r.year = std::get<0>(key);
    r.kind = static_cast<schema::MessageKind>(std::get<1>(key));
    r.language = std::get<2>(key);
    r.message_count = acc.count;
    r.avg_length = acc.count > 0
                       ? static_cast<double>(acc.length) /
                             static_cast<double>(acc.count)
                       : 0.0;
    results.push_back(r);
  }
  std::sort(results.begin(), results.end(),
            [](const Bi1Result& a, const Bi1Result& b) {
              return a.message_count > b.message_count;
            });
  return results;
}

std::vector<Bi2Result> BiQuery2TagEvolution(const GraphStore& store,
                                            util::TimestampMs window_start,
                                            int window_days, int limit) {
  auto pin = store.ReadLock();
  util::TimestampMs mid =
      window_start + window_days * util::kMillisPerDay;
  util::TimestampMs end = mid + window_days * util::kMillisPerDay;
  std::unordered_map<schema::TagId, Bi2Result> by_tag;
  for (schema::MessageId id = 0; id < store.MessageIdBound(); ++id) {
    const store::MessageRecord* m = store.FindMessage(pin, id);
    if (m == nullptr || m->data.kind == schema::MessageKind::kComment) {
      continue;
    }
    util::TimestampMs ts = m->data.creation_date;
    if (ts < window_start) continue;
    if (ts >= end) break;  // Messages are date-ordered by id.
    for (schema::TagId t : m->data.tags) {
      Bi2Result& r = by_tag[t];
      r.tag = t;
      if (ts < mid) {
        ++r.count_window1;
      } else {
        ++r.count_window2;
      }
    }
  }
  std::vector<Bi2Result> results;
  results.reserve(by_tag.size());
  for (auto& [_, r] : by_tag) {
    r.delta = r.count_window2 > r.count_window1
                  ? r.count_window2 - r.count_window1
                  : r.count_window1 - r.count_window2;
    results.push_back(r);
  }
  std::sort(results.begin(), results.end(),
            [](const Bi2Result& a, const Bi2Result& b) {
              if (a.delta != b.delta) return a.delta > b.delta;
              return a.tag < b.tag;
            });
  if (static_cast<int>(results.size()) > limit) results.resize(limit);
  return results;
}

std::vector<Bi3Result> BiQuery3CountryInfluencers(
    const GraphStore& store,
    const std::vector<schema::PlaceId>& city_country, int per_country) {
  auto pin = store.ReadLock();
  struct Acc {
    uint64_t likes = 0;
    uint64_t messages = 0;
  };
  std::unordered_map<schema::PersonId, Acc> per_person;
  for (schema::PersonId pid : store.PersonIds(pin)) {
    const store::PersonRecord* p = store.FindPerson(pin, pid);
    if (p == nullptr) continue;
    Acc& acc = per_person[pid];
    for (auto messages : {p->posts.view(), p->comments.view()}) {
      acc.messages += messages.size();
      for (const store::MessageEdge& e : messages) {
        const store::MessageRecord* m = store.FindMessage(pin, e.id);
        if (m != nullptr) acc.likes += m->likes.size();
      }
    }
  }
  // Group by country, keep top-k.
  std::map<schema::PlaceId, std::vector<Bi3Result>> per_country_rows;
  for (const auto& [pid, acc] : per_person) {
    const store::PersonRecord* p = store.FindPerson(pin, pid);
    if (p == nullptr || p->data.city_id >= city_country.size()) continue;
    schema::PlaceId country = city_country[p->data.city_id];
    per_country_rows[country].push_back(
        {country, pid, acc.likes, acc.messages});
  }
  std::vector<Bi3Result> results;
  for (auto& [country, rows] : per_country_rows) {
    std::sort(rows.begin(), rows.end(),
              [](const Bi3Result& a, const Bi3Result& b) {
                if (a.likes_received != b.likes_received) {
                  return a.likes_received > b.likes_received;
                }
                return a.person < b.person;
              });
    if (static_cast<int>(rows.size()) > per_country) {
      rows.resize(per_country);
    }
    results.insert(results.end(), rows.begin(), rows.end());
  }
  return results;
}

}  // namespace snb::queries
