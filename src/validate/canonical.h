// Canonical result serialization for cross-SUT validation.
//
// The golden-set differ and the differential fuzzer compare query results
// produced by different engines (graph store, relational baseline, naive
// oracle) and by different runs (serial emit vs threaded replay). A
// comparison is only meaningful over a representation that is
//   * byte-stable across platforms and locales (no locale-dependent float
//     or integer formatting),
//   * total-ordered (every query's ORDER BY is extended with the remaining
//     row fields so equal-key rows cannot flip between runs), and
//   * human-readable enough that a diff report points at the failing field.
// CanonicalRow serializes one result row as a '|'-separated field list;
// CanonicalRows serializes a whole result set in its returned order, which
// every query defines totally: each comparator ends in a key unique among
// its rows — an id; for Q7, whose one liker may like two messages in the
// same millisecond, (liker id, message id); for Q14, the full path.
#ifndef SNB_VALIDATE_CANONICAL_H_
#define SNB_VALIDATE_CANONICAL_H_

#include <string>
#include <vector>

#include "queries/complex_queries.h"
#include "queries/short_queries.h"

namespace snb::validate {

/// Locale-independent, platform-stable rendering of a double: shortest
/// round-trip form via %.17g with the decimal separator forced to '.',
/// "-0" normalized to "0" and NaN/inf spelled out ("nan", "inf", "-inf").
std::string FormatDouble(double value);

/// Locale-independent unsigned/signed integer rendering (no grouping).
std::string FormatU64(uint64_t value);
std::string FormatI64(int64_t value);

// One pipe-separated line per result row. Strings are included verbatim
// (query result strings never contain '|' in generated data; the diff is
// still sound if they do, since both sides serialize identically).
std::string CanonicalRow(const queries::Q1Result& r);
std::string CanonicalRow(const queries::Q2Result& r);
std::string CanonicalRow(const queries::Q3Result& r);
std::string CanonicalRow(const queries::Q4Result& r);
std::string CanonicalRow(const queries::Q5Result& r);
std::string CanonicalRow(const queries::Q6Result& r);
std::string CanonicalRow(const queries::Q7Result& r);
std::string CanonicalRow(const queries::Q8Result& r);
std::string CanonicalRow(const queries::Q9Result& r);
std::string CanonicalRow(const queries::Q10Result& r);
std::string CanonicalRow(const queries::Q11Result& r);
std::string CanonicalRow(const queries::Q12Result& r);
std::string CanonicalRow(const queries::Q14Result& r);
std::string CanonicalRow(const queries::S1Result& r);
std::string CanonicalRow(const queries::S2Result& r);
std::string CanonicalRow(const queries::S3Result& r);
std::string CanonicalRow(const queries::S4Result& r);
std::string CanonicalRow(const queries::S5Result& r);
std::string CanonicalRow(const queries::S6Result& r);
std::string CanonicalRow(const queries::S7Result& r);

/// Serializes a whole result set, preserving the query's returned order
/// (which is part of the query contract being validated).
template <typename Row>
std::vector<std::string> CanonicalRows(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(CanonicalRow(r));
  return out;
}

/// Scalar results (Q13) become a single-row result set.
std::vector<std::string> CanonicalScalar(int value);

}  // namespace snb::validate

#endif  // SNB_VALIDATE_CANONICAL_H_
