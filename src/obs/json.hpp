#pragma once
// The repo's one JSON codec: a value type, a strict parser and a writer.
//
// Every JSON the repo reads or writes goes through here: scenario and
// eval specs, run records and goldens (app/), Chrome traces and the
// metrics summary (obs/export.hpp, obs/trace_reader.hpp) and the perf-gate
// baselines. The parser accepts RFC 8259 JSON only (no comments, no
// trailing commas, no raw control characters in strings), nests at most
// Json::kMaxDepth containers deep, and reports syntax errors as
//   line N (offset M): <what> near "<up to 20 chars>"
// (or "... (at end of input)"). The writer escapes every control
// character and writes numbers that parse back to the same double, so
// dump and parse round-trip exactly. append_json_string and
// append_json_number are the writer's primitives, exported for streams
// too large to build as a document (the Chrome trace).

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace zhuge::obs {

class Json {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Json>;
  /// Ordered map: object iteration (dump, golden comparison) must be
  /// platform-stable. Transparent comparator: lookups by string_view do
  /// not build a temporary key.
  using Object = std::map<std::string, Json, std::less<>>;

  /// Deepest container nesting parse accepts. Real documents nest a
  /// handful of levels; the cap keeps hostile input from exhausting the
  /// stack of the recursive-descent parser.
  static constexpr int kMaxDepth = 256;

  Json() = default;
  static Json make_bool(bool b);
  static Json make_number(double v);
  static Json make_string(std::string s);
  static Json make_array();
  static Json make_object();

  [[nodiscard]] Kind kind() const { return static_cast<Kind>(v_.index()); }
  [[nodiscard]] bool is_object() const { return kind() == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind() == Kind::kArray; }

  [[nodiscard]] double number_or(double fallback) const {
    const double* d = std::get_if<double>(&v_);
    return d != nullptr ? *d : fallback;
  }
  [[nodiscard]] bool bool_or(bool fallback) const {
    const bool* b = std::get_if<bool>(&v_);
    return b != nullptr ? *b : fallback;
  }
  [[nodiscard]] std::string string_or(std::string fallback) const {
    const std::string* s = std::get_if<std::string>(&v_);
    return s != nullptr ? *s : std::move(fallback);
  }
  /// The elements or members; empty when this is not an array or object.
  [[nodiscard]] const Array& array() const;
  [[nodiscard]] const Object& object() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;
  [[nodiscard]] Json* find(std::string_view key);

  /// Mutators for building documents. A repeated key replaces the value.
  Json& set(std::string key, Json v);
  Json& push(Json v);

  /// Serialise. `indent` > 0 pretty-prints; numbers as append_json_number.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parse `text`. On failure returns nullopt and sets `*err` (if non-null)
  /// to "line N (offset M): message near \"...\"".
  static std::optional<Json> parse(std::string_view text, std::string* err);

  /// 1-based source line this value started on; 0 for built documents.
  /// Spec validation uses it for "line N: ..." diagnostics on semantic
  /// errors (unknown key, out-of-range value), not just syntax errors.
  [[nodiscard]] int line() const { return line_; }
  void set_line(int line) { line_ = line; }

 private:
  /// One alternative per Kind, in Kind order. A tagged union keeps a value
  /// small, which matters for the DOM of a million-event trace.
  std::variant<std::monostate, bool, double, std::string, Array, Object> v_;
  int line_ = 0;

  void dump_to(std::string& out, int indent, int depth) const;
};

/// Append `s` as a JSON string literal: `"` and `\` are escaped and every
/// byte below 0x20 is written as an escape (\b \f \n \r \t, else \u00XX).
void append_json_string(std::string& out, std::string_view s);

/// Append `v` as a JSON number: whole values below 1e15 as integers, other
/// finite values as %.17g (which round-trips every double), and NaN or Inf,
/// which JSON cannot represent, as null.
void append_json_number(std::string& out, double v);

}  // namespace zhuge::obs
