#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace zhuge::obs {

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

Json Json::make_bool(bool b) {
  Json j;
  j.v_ = b;
  return j;
}

Json Json::make_number(double v) {
  Json j;
  j.v_ = v;
  return j;
}

Json Json::make_string(std::string s) {
  Json j;
  j.v_ = std::move(s);
  return j;
}

Json Json::make_array() {
  Json j;
  j.v_ = Array{};
  return j;
}

Json Json::make_object() {
  Json j;
  j.v_ = Object{};
  return j;
}

const Json::Array& Json::array() const {
  static const Array kEmpty;
  const Array* a = std::get_if<Array>(&v_);
  return a != nullptr ? *a : kEmpty;
}

const Json::Object& Json::object() const {
  static const Object kEmpty;
  const Object* o = std::get_if<Object>(&v_);
  return o != nullptr ? *o : kEmpty;
}

const Json* Json::find(std::string_view key) const {
  const Object* o = std::get_if<Object>(&v_);
  if (o == nullptr) return nullptr;
  const auto it = o->find(key);
  return it == o->end() ? nullptr : &it->second;
}

Json* Json::find(std::string_view key) {
  Object* o = std::get_if<Object>(&v_);
  if (o == nullptr) return nullptr;
  const auto it = o->find(key);
  return it == o->end() ? nullptr : &it->second;
}

Json& Json::set(std::string key, Json v) {
  if (!is_object()) v_ = Object{};
  std::get<Object>(v_).insert_or_assign(std::move(key), std::move(v));
  return *this;
}

Json& Json::push(Json v) {
  if (!is_array()) v_ = Array{};
  std::get<Array>(v_).push_back(std::move(v));
  return *this;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

void append_json_number(std::string& out, double v) {
  // JSON has no NaN or Inf (and casting them is undefined): write null.
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // %.17g round-trips every finite double; integers print without a dot.
  char buf[32];
  // zlint-allow(float-equality): exact test for "is an integer value" —
  // the round-trip cast is the idiomatic way to pick the %lld rendering,
  // and the magnitude test before it keeps the cast defined.
  if (std::abs(v) < 1e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  out += buf;
}

namespace {

void append_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (kind()) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += std::get<bool>(v_) ? "true" : "false"; return;
    case Kind::kNumber: append_json_number(out, std::get<double>(v_)); return;
    case Kind::kString: append_json_string(out, std::get<std::string>(v_)); return;
    case Kind::kArray: {
      const Array& arr = std::get<Array>(v_);
      out += '[';
      bool first = true;
      for (const auto& v : arr) {
        if (!first) out += indent > 0 ? "," : ", ";
        first = false;
        append_indent(out, indent, depth + 1);
        v.dump_to(out, indent, depth + 1);
      }
      if (!arr.empty()) append_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      const Object& obj = std::get<Object>(v_);
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj) {
        if (!first) out += indent > 0 ? "," : ", ";
        first = false;
        append_indent(out, indent, depth + 1);
        append_json_string(out, k);
        out += ": ";
        v.dump_to(out, indent, depth + 1);
      }
      if (!obj.empty()) append_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

/// Recursive-descent parser. Tracks the line for "line N" diagnostics and
/// stamps each value with the line it starts on.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<Json> run(std::string* err) {
    std::optional<Json> v = parse_value();
    if (v.has_value()) {
      skip_ws();
      if (pos_ != text_.size()) {
        fail("trailing content after document");
        v.reset();
      }
    }
    if (!v.has_value() && err != nullptr) *err = error_;
    return v;
  }

 private:
  static constexpr std::size_t kSnippet = 20;

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int depth_ = 0;
  std::string error_;

  /// Record the first error, quoting the text at pos_ so a user can find
  /// the problem without a hex editor; control bytes show as spaces.
  void fail(std::string_view what) {
    if (!error_.empty()) return;
    error_ = "line " + std::to_string(line_) + " (offset " +
             std::to_string(pos_) + "): ";
    error_ += what;
    std::string near(text_.substr(pos_, kSnippet));
    if (near.empty()) {
      error_ += " (at end of input)";
      return;
    }
    for (char& c : near) {
      if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) c = ' ';
    }
    if (pos_ + kSnippet < text_.size()) near += "...";
    error_ += " near \"" + near + "\"";
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume(char expected) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<Json> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    // Stamp the line the value starts on: spec validation reuses it for
    // "line N:" diagnostics on *semantic* errors (unknown key, range).
    const int at = line_;
    std::optional<Json> v = parse_value_here();
    if (v.has_value()) v->set_line(at);
    return v;
  }

  std::optional<Json> parse_value_here() {
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == Json::kMaxDepth) {
        fail("nested deeper than " + std::to_string(Json::kMaxDepth) +
             " levels");
        return std::nullopt;
      }
      ++depth_;
      std::optional<Json> v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') {
      auto s = parse_string();
      if (!s.has_value()) return std::nullopt;
      return Json::make_string(std::move(*s));
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return Json{};
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return Json::make_bool(true);
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return Json::make_bool(false);
    }
    return parse_number();
  }

  std::optional<Json> parse_number() {
    // JSON grammar checks from_chars is laxer about: the integer part is
    // mandatory (no ".5"), and a leading zero may not be followed by
    // another digit (no "01").
    std::size_t p = pos_;
    if (p < text_.size() && text_[p] == '-') ++p;
    const auto is_digit = [this](std::size_t i) {
      return i < text_.size() && text_[i] >= '0' && text_[i] <= '9';
    };
    if (!is_digit(p) || (text_[p] == '0' && is_digit(p + 1))) {
      fail("invalid value");
      return std::nullopt;
    }
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    double v = 0.0;
    // from_chars: locale-independent, exact round-trip.
    const auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc{} || ptr == begin) {
      fail("invalid value");
      return std::nullopt;
    }
    pos_ += static_cast<std::size_t>(ptr - begin);
    return Json::make_number(v);
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) {
      fail("expected string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      // Copy the run of bytes that need no decoding in one append.
      std::size_t run = pos_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\' &&
             static_cast<unsigned char>(text_[run]) >= 0x20) {
        ++run;
      }
      out.append(text_.data() + pos_, run - pos_);
      pos_ = run;
      if (pos_ == text_.size()) break;
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c != '\\') {
        fail("control character in string");
        return std::nullopt;
      }
      if (!parse_escape(out)) return std::nullopt;
    }
    fail("unterminated string");
    return std::nullopt;
  }

  /// Decode the escape at pos_ (a backslash) into `out`.
  bool parse_escape(std::string& out) {
    const std::size_t at = pos_;
    if (pos_ + 1 >= text_.size()) {
      pos_ = text_.size();
      fail("unterminated string");
      return false;
    }
    const char esc = text_[pos_ + 1];
    pos_ += 2;
    switch (esc) {
      case '"': out += '"'; return true;
      case '\\': out += '\\'; return true;
      case '/': out += '/'; return true;
      case 'b': out += '\b'; return true;
      case 'f': out += '\f'; return true;
      case 'n': out += '\n'; return true;
      case 'r': out += '\r'; return true;
      case 't': out += '\t'; return true;
      case 'u': break;
      default:
        pos_ = at;
        fail("invalid escape");
        return false;
    }
    // \uXXXX: a UTF-16 code unit; a high surrogate must be followed by a
    // \u-escaped low one, and the pair encodes one code point.
    long cp = hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      long low = -1;
      if (text_.compare(pos_, 2, "\\u") == 0) {
        pos_ += 2;
        low = hex4();
      }
      cp = low >= 0xDC00 && low <= 0xDFFF
               ? 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00)
               : -1;
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      cp = -1;
    }
    if (cp < 0) {
      pos_ = at;
      fail("invalid \\u escape (bad hex digit or lone surrogate)");
      return false;
    }
    append_utf8(out, static_cast<std::uint32_t>(cp));
    return true;
  }

  /// Four hex digits at pos_ as a number (consumed), or -1 (not consumed).
  long hex4() {
    if (text_.size() - pos_ < 4) return -1;
    long v = 0;
    for (std::size_t i = pos_; i < pos_ + 4; ++i) {
      const char c = text_[i];
      int d = 0;
      if (c >= '0' && c <= '9') {
        d = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        d = c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        d = c - 'A' + 10;
      } else {
        return -1;
      }
      v = v * 16 + d;
    }
    pos_ += 4;
    return v;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::optional<Json> parse_array() {
    consume('[');
    Json arr = Json::make_array();
    if (consume(']')) return arr;
    while (true) {
      auto v = parse_value();
      if (!v.has_value()) return std::nullopt;
      arr.push(std::move(*v));
      if (consume(',')) continue;
      if (consume(']')) return arr;
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<Json> parse_object() {
    consume('{');
    Json obj = Json::make_object();
    if (consume('}')) return obj;
    while (true) {
      auto key = parse_string();
      if (!key.has_value()) return std::nullopt;
      if (!consume(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      auto v = parse_value();
      if (!v.has_value()) return std::nullopt;
      obj.set(std::move(*key), std::move(*v));
      if (consume(',')) continue;
      if (consume('}')) return obj;
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string* err) {
  return JsonParser(text).run(err);
}

}  // namespace zhuge::obs
