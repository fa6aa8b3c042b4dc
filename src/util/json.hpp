// json.hpp — a minimal JSON parser and the one JSON string escaper.
//
// Just enough JSON to consume the files this repo itself produces — the
// mph_trace Chrome-trace export (TraceReport::to_chrome_json), mph_verify
// decision traces and the Google Benchmark `--json` reporter output —
// without adding a third-party dependency.  Full JSON value model (null/
// bool/number/string/array/object), UTF-8 passed through verbatim, \uXXXX
// escapes decoded for the BMP.  Not a validator of last resort: numbers are
// parsed with strtod (a number also keeps its own text, for exact unsigned
// 64-bit reads), and object keys keep their insertion order (duplicates
// keep the first).  Every JSON writer in the repo escapes its strings with
// append_json_escaped, so all of them emit the same bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mph::util {

/// Append `text` to `out` as the body of a JSON string: quote, backslash,
/// \n, \r and \t get their two-character escapes, other control bytes
/// become \u00xx (lowercase hex), everything else is copied verbatim.
void append_json_escaped(std::string& out, std::string_view text);

/// What JsonValue::parse throws on malformed input (the message names the
/// line and column) and a typed accessor on a type mismatch; offset() is
/// the byte offset of the offending input or value.
class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& what, std::size_t offset)
      : std::runtime_error(what), offset_(offset) {}
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// An immutable parsed JSON value.
class JsonValue {
 public:
  enum class Type { null, boolean, number, string, array, object };

  /// Parse a complete JSON document.  Throws JsonError (naming the line
  /// and column) on malformed input or trailing garbage.
  static JsonValue parse(std::string_view text);

  JsonValue() = default;

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::null; }
  /// Byte offset of the value's first character in the parsed text.
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

  /// Typed accessors; each throws JsonError on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// as_number(), truncated; throws when the value is not representable.
  [[nodiscard]] long long as_int() const;
  /// The number's own text read as an exact unsigned 64-bit integer (the
  /// whole u64 range, which a double cannot hold); throws on a sign,
  /// fraction, exponent or overflow.
  [[nodiscard]] std::uint64_t as_uint64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const;

  /// Object lookup: nullptr when `this` is not an object or lacks `key`.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
  /// Object lookup that throws std::runtime_error when the key is missing.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  /// Array element; throws on out-of-range or non-array.
  [[nodiscard]] const JsonValue& at(std::size_t index) const;

 private:
  friend class JsonParser;

  Type type_ = Type::null;
  std::size_t offset_ = 0;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  ///< a string's value, or a number's text
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace mph::util
