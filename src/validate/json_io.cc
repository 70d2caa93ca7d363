#include "validate/json_io.h"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <system_error>

namespace snb::validate::jsonio {
namespace {

util::Status FieldError(const char* what, const char* key,
                        const char* problem) {
  return util::Status::InvalidArgument(std::string(what) + ": field \"" + key +
                                       "\" " + problem);
}

/// Parses all of `text` as a base-10 integer: no sign for unsigned types,
/// no spaces, no trailing characters, and nothing out of T's range.
template <typename T>
bool ParseDecimal(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// True when `v` is a whole number in [lo, hi). The callers' bounds are
/// powers of two, exact as doubles; NaN and infinities fail the
/// comparisons.
bool IsWholeInRange(double v, double lo, double hi) {
  return v >= lo && v < hi && std::trunc(v) == v;
}

}  // namespace

bool NumberToU64(double number, uint64_t* out) {
  if (!IsWholeInRange(number, 0.0, 0x1p64)) return false;
  *out = static_cast<uint64_t>(number);
  return true;
}

void AppendU64Field(std::string* out, const char* key, uint64_t v) {
  obs::AppendKey(out, key);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

void AppendI64Field(std::string* out, const char* key, int64_t v) {
  obs::AppendKey(out, key);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

void AppendU64StrField(std::string* out, const char* key, uint64_t v) {
  obs::AppendKey(out, key);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->push_back('"');
  *out += buf;
  out->push_back('"');
}

util::Status GetU64(const obs::JsonValue& obj, const char* key, uint64_t* out,
                    const char* what) {
  const obs::JsonValue* v = obj.Find(key);
  if (v == nullptr) return FieldError(what, key, "is missing");
  if (v->kind == obs::JsonValue::Kind::kNumber) {
    if (!NumberToU64(v->number, out)) {
      return FieldError(what, key, "is not an unsigned 64-bit integer");
    }
    return util::Status::Ok();
  }
  if (v->kind == obs::JsonValue::Kind::kString) {
    if (!ParseDecimal(v->string, out)) {
      return FieldError(what, key, "is not an unsigned 64-bit integer");
    }
    return util::Status::Ok();
  }
  return FieldError(what, key, "is not a number");
}

util::Status GetI64(const obs::JsonValue& obj, const char* key, int64_t* out,
                    const char* what) {
  const obs::JsonValue* v = obj.Find(key);
  if (v == nullptr) return FieldError(what, key, "is missing");
  if (v->kind == obs::JsonValue::Kind::kNumber) {
    if (!IsWholeInRange(v->number, -0x1p63, 0x1p63)) {
      return FieldError(what, key, "is not a signed 64-bit integer");
    }
    *out = static_cast<int64_t>(v->number);
    return util::Status::Ok();
  }
  if (v->kind == obs::JsonValue::Kind::kString) {
    if (!ParseDecimal(v->string, out)) {
      return FieldError(what, key, "is not a signed 64-bit integer");
    }
    return util::Status::Ok();
  }
  return FieldError(what, key, "is not a number");
}

util::Status GetString(const obs::JsonValue& obj, const char* key,
                       std::string* out, const char* what) {
  const obs::JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != obs::JsonValue::Kind::kString) {
    return FieldError(what, key, "is missing or not a string");
  }
  *out = v->string;
  return util::Status::Ok();
}

util::Status ReadWholeFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return util::Status::NotFound("cannot open " + path);
  }
  out->clear();
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return util::Status::Internal("read error on " + path);
  return util::Status::Ok();
}

}  // namespace snb::validate::jsonio
