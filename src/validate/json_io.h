// Small JSON writing/reading helpers shared by the validation artifacts
// (golden sets, fuzz regression files). Writing emits exactly the subset
// obs::ParseJson accepts, with keys and strings through obs::AppendKey and
// obs::AppendEscaped; reading wraps obs::JsonValue lookups with typed
// error messages. Unsigned 64-bit fields that may exceed 2^53 (seeds) are
// written as decimal strings; GetU64 accepts both forms.
#ifndef SNB_VALIDATE_JSON_IO_H_
#define SNB_VALIDATE_JSON_IO_H_

#include <cstdint>
#include <string>

#include "obs/report.h"
#include "util/status.h"

namespace snb::validate::jsonio {

/// Appends `"key":<decimal>`.
void AppendU64Field(std::string* out, const char* key, uint64_t v);
void AppendI64Field(std::string* out, const char* key, int64_t v);

/// Appends `"key":"<decimal>"`. Use for 64-bit ids that may exceed 2^53
/// (e.g. schema::kInvalidId); GetU64 reads either encoding.
void AppendU64StrField(std::string* out, const char* key, uint64_t v);

/// Converts a parsed JSON number to uint64_t; false unless it is whole and
/// in [0, 2^64).
bool NumberToU64(double number, uint64_t* out);

/// Reads an unsigned/signed integer stored as a JSON number or a decimal
/// string. A number must be whole and in the type's range; a string must be
/// all decimal digits (a leading '-' for GetI64 only) and in range. Anything
/// else is InvalidArgument naming the field. `what` names the artifact for
/// error messages.
util::Status GetU64(const obs::JsonValue& obj, const char* key, uint64_t* out,
                    const char* what);
util::Status GetI64(const obs::JsonValue& obj, const char* key, int64_t* out,
                    const char* what);
util::Status GetString(const obs::JsonValue& obj, const char* key,
                       std::string* out, const char* what);

/// Reads an entire file into `*out`.
util::Status ReadWholeFile(const std::string& path, std::string* out);

}  // namespace snb::validate::jsonio

#endif  // SNB_VALIDATE_JSON_IO_H_
