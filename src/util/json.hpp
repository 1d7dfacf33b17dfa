// Minimal strict-JSON reader and canonical emission helpers.
//
// One parser backs every place the repo consumes JSON it also produces:
// plan snapshots (verify/snapshot.cpp), job specs and the serve protocol
// (src/serve). It is strict — no comments, no trailing commas, exactly one
// document — because everything we parse is machine-written, and a lenient
// reader would let a malformed producer ship. Emission helpers are
// locale-proof (classic "C" locale, max_digits10 doubles) so canonical
// byte-stable serializations hash identically across platforms.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace anton::util::json {

struct Value {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  bool b = false;
  double n = 0;
  std::string s;  ///< a string, or a number literal's text (asInt, asU64)
  std::vector<Value> arr;
  std::map<std::string, Value> obj;
};

/// Parse exactly one JSON document. Throws std::runtime_error with a
/// position-annotated message prefixed by `context` on malformed input.
Value parse(const std::string& text, const std::string& context = "json");

/// JSON string literal: quotes, backslashes and control characters escaped.
std::string quoted(const std::string& s);

/// Locale-independent full-precision JSON number ("null" for non-finite
/// values — bare nan/inf would break every parser).
std::string number(double v);

// Typed field access. All throw std::runtime_error naming `what` when the
// field is missing or has the wrong type. asInt and asU64 read the number's
// literal text exactly: a fraction, an exponent or a value outside the
// type's range is an error, never a rounded or wrapped integer.
const Value& field(const Value& obj, const std::string& key,
                   const std::string& what);
const Value* optField(const Value& obj, const std::string& key);
int asInt(const Value& v, const std::string& what);
std::uint64_t asU64(const Value& v, const std::string& what);
double asDouble(const Value& v, const std::string& what);
const std::string& asString(const Value& v, const std::string& what);
bool asBool(const Value& v, const std::string& what);

}  // namespace anton::util::json

namespace anton::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Incremental 64-bit FNV-1a over a byte sequence. Hashing the *bytes* of a
/// string makes the digest endianness-independent by construction; feeding
/// multiple strings continues one stream (h = fnv1a64(b, fnv1a64(a))).
constexpr std::uint64_t fnv1a64(std::string_view bytes,
                                std::uint64_t h = kFnvOffsetBasis) {
  for (char c : bytes) {
    h ^= std::uint64_t(static_cast<unsigned char>(c));
    h *= kFnvPrime;
  }
  return h;
}

/// Fixed-width lowercase hex rendering of a 64-bit key ("0x" + 16 digits).
std::string hex64(std::uint64_t v);

}  // namespace anton::util
