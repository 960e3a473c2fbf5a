// Minimal JSON support for the observability layer: escaping for every
// string the trace/metrics writers emit, and a small recursive-descent
// parser used by meltrace and the golden round-trip tests. No external
// dependency — the container only has the C++ toolchain.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mel::obs {

/// Escape a string for embedding inside a JSON string literal (quotes not
/// included): `"`, `\`, and control characters below 0x20 (the latter as
/// \uXXXX except the common \n \t \r \b \f shorthands).
std::string json_escape(std::string_view s);

namespace json {

class ParseError : public std::runtime_error {
 public:
  explicit ParseError(std::string what) : std::runtime_error(std::move(what)) {}
};

/// A parsed JSON value. Numbers keep both a double and, when the source
/// text was integral, an exact int64 (virtual-time stamps exceed the
/// 2^53 double mantissa only after ~104 days of simulated time, but the
/// exactness matters for byte-equality checks); integral text in
/// [2^63, 2^64) is kept exactly in `above_int64` instead.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::int64_t integer = 0;
  bool is_integer = false;
  std::uint64_t above_int64 = 0;  // 0 unless the text was in [2^63, 2^64)
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // insertion order

  bool is_null() const { return kind == Kind::kNull; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup (first match); null when absent or not an object.
  const Value* find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// The number as an int64: exact when the source was integral, else
  /// truncated toward zero. False, leaving `out` alone, when no int64
  /// holds it (non-finite, or out of range after truncation).
  bool to_int64(std::int64_t& out) const {
    if (is_integer) {
      out = integer;
      return true;
    }
    if (!(number >= -0x1p63 && number < 0x1p63)) return false;
    out = static_cast<std::int64_t>(number);
    return true;
  }

  /// The number as a uint64: exact when the source was integral, else
  /// truncated toward zero. False, leaving `out` alone, when no uint64
  /// holds it.
  bool to_uint64(std::uint64_t& out) const {
    if (is_integer) {
      if (integer < 0) return false;
      out = static_cast<std::uint64_t>(integer);
      return true;
    }
    if (above_int64 != 0) {
      out = above_int64;
      return true;
    }
    if (!(number > -1.0 && number < 0x1p64)) return false;
    out = static_cast<std::uint64_t>(number);
    return true;
  }

  /// Integer accessor: to_int64's value, or 0 when there is none.
  std::int64_t as_int() const {
    std::int64_t v = 0;
    to_int64(v);
    return v;
  }
};

/// Parse one JSON document (throws ParseError on malformed input or
/// trailing garbage).
Value parse(std::string_view text);

}  // namespace json
}  // namespace mel::obs
