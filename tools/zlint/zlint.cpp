#include "zlint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace zlint {

namespace {

/// Concatenate by appending. Messages are built with this, not with a
/// `"..." + std::string(...)` chain: GCC 12 at -O3 raises a false
/// -Wrestrict on that chain's insert once it is inlined here.
std::string cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view p : parts) out += p;
  return out;
}

// ---------------------------------------------------------------------------
// Tokenizer. Just enough C++ lexing to walk identifiers, literals and
// punctuation with line numbers; comments and strings are consumed (never
// tokenised) so rule matching cannot fire inside them.
// ---------------------------------------------------------------------------

enum class TokKind { kIdent, kNumber, kPunct };

struct Token {
  TokKind kind;
  std::string_view text;
  int line;
};

struct Include {
  std::string path;  ///< include target, quotes/brackets stripped
  bool quoted;       ///< "..." (project include) vs <...> (system)
  int line;
};

struct FileInfo {
  std::vector<Token> tokens;
  std::vector<Include> includes;
  /// line -> rules silenced on that line ("*" silences everything).
  std::map<int, std::set<std::string>> suppressions;
  /// Lines holding a zlint-allow clause with no ": reason" after it.
  std::vector<int> bad_allow_lines;
  /// First line that produced a token or an include (0 if none).
  int first_code_line = 0;
};

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Extract every rule named in `zlint-allow(rule[,rule...])` clauses.
/// Sets *missing_reason (when non-null) if any clause lacks the mandatory
/// ": reason" tail after the closing paren.
std::vector<std::string> parse_allow_rules(std::string_view comment,
                                           bool* missing_reason = nullptr) {
  std::vector<std::string> out;
  static constexpr std::string_view kTag = "zlint-allow(";
  std::size_t pos = 0;
  while ((pos = comment.find(kTag, pos)) != std::string_view::npos) {
    pos += kTag.size();
    const std::size_t close = comment.find(')', pos);
    if (close == std::string_view::npos) return out;
    std::string_view rules = comment.substr(pos, close - pos);
    while (!rules.empty()) {
      const std::size_t comma = rules.find(',');
      std::string_view one = rules.substr(0, comma);
      while (!one.empty() && one.front() == ' ') one.remove_prefix(1);
      while (!one.empty() && one.back() == ' ') one.remove_suffix(1);
      if (!one.empty()) out.emplace_back(one);
      if (comma == std::string_view::npos) break;
      rules.remove_prefix(comma + 1);
    }
    if (missing_reason != nullptr) {
      // Require ": <non-space>" after the close paren (whitespace allowed
      // around the colon; "*/" may end a block-comment clause).
      std::size_t j = close + 1;
      while (j < comment.size() && (comment[j] == ' ' || comment[j] == '\t'))
        ++j;
      bool ok = j < comment.size() && comment[j] == ':';
      if (ok) {
        ++j;
        while (j < comment.size() &&
               std::isspace(static_cast<unsigned char>(comment[j]))) {
          ++j;
        }
        ok = j < comment.size() && comment.compare(j, 2, "*/") != 0;
      }
      if (!ok) *missing_reason = true;
    }
    pos = close;
  }
  return out;
}

FileInfo lex(std::string_view text) {
  FileInfo out;
  const std::size_t n = text.size();
  std::size_t i = 0;
  int line = 1;
  int last_code_line = 0;  // last line that produced a token
  int paren_depth = 0;     // ( ) nesting, for statement-end detection

  // Suppressions from own-line comments wait here until the next line of
  // code (or include) appears, however many comment lines intervene. Once
  // flushed they also stay active for the rest of that *statement*, so a
  // suppression above a multi-line call covers its continuation lines.
  std::vector<std::string> pending;
  std::set<std::string> stmt_rules;  // active until the statement ends
  const auto flush_pending = [&](int code_line) {
    if (pending.empty()) return;
    for (auto& r : pending) {
      out.suppressions[code_line].insert(r);
      stmt_rules.insert(std::move(r));
    }
    pending.clear();
  };
  const auto note_code_line = [&](int code_line) {
    if (out.first_code_line == 0) out.first_code_line = code_line;
    flush_pending(code_line);
    if (!stmt_rules.empty()) {
      out.suppressions[code_line].insert(stmt_rules.begin(), stmt_rules.end());
    }
  };

  const auto peek = [&](std::size_t off) -> char {
    return i + off < n ? text[i + off] : '\0';
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && peek(1) == '/') {
      const std::size_t start = i;
      const bool own_line = last_code_line != line;
      while (i < n && text[i] != '\n') ++i;
      bool missing = false;
      auto rules = parse_allow_rules(text.substr(start, i - start), &missing);
      if (missing) out.bad_allow_lines.push_back(line);
      for (auto& r : rules) {
        if (own_line) pending.push_back(std::move(r));
        else out.suppressions[line].insert(std::move(r));
      }
      continue;
    }
    // Block comment.
    if (c == '/' && peek(1) == '*') {
      const std::size_t start = i;
      const int start_line = line;
      const bool own_line = last_code_line != line;
      i += 2;
      while (i < n && !(text[i] == '*' && peek(1) == '/')) {
        if (text[i] == '\n') ++line;
        ++i;
      }
      if (i < n) i += 2;
      bool missing = false;
      auto rules = parse_allow_rules(text.substr(start, i - start), &missing);
      if (missing) out.bad_allow_lines.push_back(start_line);
      for (auto& r : rules) {
        if (own_line) pending.push_back(std::move(r));
        else out.suppressions[start_line].insert(std::move(r));
      }
      continue;
    }
    // Preprocessor: only #include needs structure; everything else is
    // lexed normally so banned tokens inside macro bodies still match.
    if (c == '#') {
      std::size_t j = i + 1;
      while (j < n && (text[j] == ' ' || text[j] == '\t')) ++j;
      if (text.compare(j, 7, "include") == 0) {
        j += 7;
        while (j < n && (text[j] == ' ' || text[j] == '\t')) ++j;
        if (j < n && (text[j] == '"' || text[j] == '<')) {
          const char closer = text[j] == '"' ? '"' : '>';
          const std::size_t tstart = j + 1;
          std::size_t tend = tstart;
          while (tend < n && text[tend] != closer && text[tend] != '\n') ++tend;
          note_code_line(line);
          out.includes.push_back(
              {std::string(text.substr(tstart, tend - tstart)),
               closer == '"', line});
          i = tend < n && text[tend] == closer ? tend + 1 : tend;
          continue;
        }
      }
      ++i;
      continue;
    }
    // String literal (incl. prefixed and raw strings).
    if (c == '"' || ((c == 'L' || c == 'u' || c == 'U' || c == 'R') &&
                     (peek(1) == '"' ||
                      (peek(1) == '8' && peek(2) == '"') ||
                      (peek(1) == 'R' && peek(2) == '"')))) {
      // Advance to the opening quote, noting whether this is a raw string.
      bool raw = false;
      while (i < n && text[i] != '"') {
        if (text[i] == 'R') raw = true;
        ++i;
      }
      if (i >= n) break;
      ++i;  // past the opening quote
      if (raw) {
        // R"delim( ... )delim"
        std::size_t dend = i;
        while (dend < n && text[dend] != '(') ++dend;
        const std::string closer = cat({")", text.substr(i, dend - i), "\""});
        const std::size_t endpos = text.find(closer, dend);
        for (std::size_t k = dend; k < std::min(endpos, n); ++k)
          if (text[k] == '\n') ++line;
        i = endpos == std::string_view::npos ? n : endpos + closer.size();
      } else {
        while (i < n && text[i] != '"') {
          if (text[i] == '\\') ++i;
          else if (text[i] == '\n') ++line;  // unterminated; stay sane
          ++i;
        }
        if (i < n) ++i;
      }
      last_code_line = line;
      continue;
    }
    // Char literal.
    if (c == '\'') {
      ++i;
      while (i < n && text[i] != '\'') {
        if (text[i] == '\\') ++i;
        ++i;
      }
      if (i < n) ++i;
      last_code_line = line;
      continue;
    }
    // Number (also consumes digit separators and suffixes).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      const std::size_t start = i;
      while (i < n) {
        const char d = text[i];
        if (std::isalnum(static_cast<unsigned char>(d)) || d == '.' || d == '\'') {
          ++i;
        } else if ((d == '+' || d == '-') && i > start &&
                   (text[i - 1] == 'e' || text[i - 1] == 'E' ||
                    text[i - 1] == 'p' || text[i - 1] == 'P')) {
          ++i;  // exponent sign
        } else {
          break;
        }
      }
      note_code_line(line);
      out.tokens.push_back({TokKind::kNumber, text.substr(start, i - start), line});
      last_code_line = line;
      continue;
    }
    // Identifier.
    if (ident_start(c)) {
      const std::size_t start = i;
      while (i < n && ident_char(text[i])) ++i;
      note_code_line(line);
      out.tokens.push_back({TokKind::kIdent, text.substr(start, i - start), line});
      last_code_line = line;
      continue;
    }
    // Punctuation: split off the multi-char operators the rules care
    // about; everything else is a single character.
    {
      static constexpr std::string_view kTwo[] = {"::", "==", "!=", "->",
                                                  "<=", ">=", "&&", "||",
                                                  "<<", ">>", "++", "--",
                                                  "+=", "-=", "*=", "/="};
      std::size_t len = 1;
      for (const auto op : kTwo) {
        if (text.compare(i, op.size(), op) == 0) {
          len = op.size();
          break;
        }
      }
      note_code_line(line);
      const std::string_view tok = text.substr(i, len);
      out.tokens.push_back({TokKind::kPunct, tok, line});
      if (tok == "(") ++paren_depth;
      else if (tok == ")") paren_depth = std::max(0, paren_depth - 1);
      // Statement boundary: a top-level ';' or any brace ends the reach of
      // an own-line suppression (';' inside an argument-list lambda body
      // does not — the enclosing statement is still open).
      if (paren_depth == 0 && (tok == ";" || tok == "{" || tok == "}")) {
        stmt_rules.clear();
      }
      last_code_line = line;
      i += len;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Layer classification and the layer DAG.
// ---------------------------------------------------------------------------

/// Top-level dirs under src/, bottom layer first. obs sits just above sim:
/// conceptually cross-cutting, but in the include graph it is a base
/// facility (metric/trace macros) pulled into hot paths everywhere.
constexpr std::string_view kSrcLayers[] = {
    "sim", "obs", "stats", "net", "trace", "queue", "rtc", "wireless",
    "baseline", "cca", "transport", "core", "fault", "app"};

bool is_src_layer(std::string_view layer) {
  return std::find(std::begin(kSrcLayers), std::end(kSrcLayers), layer) !=
         std::end(kSrcLayers);
}

/// from-layer -> set of layers it may include (own layer always allowed).
const std::map<std::string_view, std::set<std::string_view>>& allowed_edges() {
  static const std::map<std::string_view, std::set<std::string_view>> kAllowed = {
      {"sim", {}},
      {"obs", {"sim"}},
      {"stats", {"sim"}},
      {"net", {"sim", "obs"}},
      {"trace", {"sim"}},
      {"queue", {"sim", "net", "obs"}},
      {"rtc", {"sim", "stats", "obs"}},
      {"wireless", {"sim", "net", "queue", "trace", "obs"}},
      // baseline/cca may see obs: net/packet.hpp (which both consume) pulls
      // in obs/spans.hpp for latency-span stamps, so the edge exists
      // transitively regardless; naming it keeps the DAG honest.
      {"baseline", {"sim", "net", "stats", "obs"}},
      {"cca", {"sim", "net", "stats", "obs"}},
      {"transport", {"sim", "net", "stats", "rtc", "cca", "obs"}},
      {"core", {"sim", "net", "stats", "queue", "obs"}},
      {"fault", {"sim", "net", "obs"}},
      {"app",
       {"sim", "obs", "stats", "net", "trace", "queue", "rtc", "wireless",
        "baseline", "cca", "transport", "core", "fault"}},
  };
  return kAllowed;
}

struct FileClass {
  std::string layer;  ///< "sim".."app", or "tools"/"tests"/"bench"/"examples"
  bool in_src = false;
};

FileClass classify(std::string_view rel_path) {
  std::string norm(rel_path);
  std::replace(norm.begin(), norm.end(), '\\', '/');
  while (norm.rfind("./", 0) == 0) norm.erase(0, 2);
  FileClass fc;
  const std::size_t slash = norm.find('/');
  if (slash == std::string::npos) return fc;
  const std::string first = norm.substr(0, slash);
  if (first == "src") {
    const std::size_t slash2 = norm.find('/', slash + 1);
    if (slash2 != std::string::npos) {
      fc.layer = norm.substr(slash + 1, slash2 - slash - 1);
      fc.in_src = true;
    }
  } else if (first == "tools" || first == "tests" || first == "bench" ||
             first == "examples") {
    fc.layer = first;
  }
  return fc;
}

// ---------------------------------------------------------------------------
// Rules.
// ---------------------------------------------------------------------------

void emit(std::vector<Diagnostic>& diags, std::string_view path, int line,
          std::string_view rule, std::string message) {
  diags.push_back({std::string(path), line, std::string(rule), std::move(message)});
}

bool is_member_access(const Token& t) {
  return t.kind == TokKind::kPunct && (t.text == "." || t.text == "->");
}

/// Does `t[i]` look like a *call of the global/std function* rather than a
/// member call (`obj.time()`), an out-of-line member or declaration
/// (`int time() const`, `Clock::time()`), or another namespace's symbol?
bool banned_call_context(const std::vector<Token>& t, std::size_t i) {
  if (i == 0) return true;
  const Token& prev = t[i - 1];
  if (is_member_access(prev)) return false;
  if (prev.text == "::") return i >= 2 && t[i - 2].text == "std";
  if (prev.kind == TokKind::kIdent) {
    // A preceding identifier is usually a type (declaration) — except for
    // statement keywords, after which this really is a call.
    static const std::set<std::string_view> kStmtKeywords = {
        "return", "co_return", "co_yield", "case", "else", "do", "throw"};
    return kStmtKeywords.count(prev.text) > 0;
  }
  return true;
}

/// banned-api: nondeterminism sources under src/. sim::Rng and the
/// simulated clock are the only legitimate entropy/time sources there.
void rule_banned_api(const FileInfo& f, std::string_view path,
                     std::vector<Diagnostic>& diags) {
  static const std::set<std::string_view> kAlways = {
      "srand",        "random_device",         "system_clock",
      "steady_clock", "high_resolution_clock", "getenv"};
  const auto& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string_view id = t[i].text;
    if (kAlways.count(id) > 0) {
      emit(diags, path, t[i].line, "banned-api",
           cat({"'", id,
                "' is a wall-clock/entropy/environment source; use sim::Rng "
                "and the Simulator clock (or zlint-allow(banned-api) with a "
                "reason)"}));
      continue;
    }
    if ((id == "rand" || id == "time") && i + 1 < t.size() &&
        t[i + 1].text == "(" && banned_call_context(t, i)) {
      emit(diags, path, t[i].line, "banned-api",
           cat({"call to '", id,
                "()' is nondeterministic; use sim::Rng / the Simulator clock"}));
    }
  }
}

/// Skip a balanced template argument list starting at `i` (which must
/// point at '<'); returns the index one past the matching '>'. Treats
/// ">>" as two closers (template context).
std::size_t skip_template_args(const std::vector<Token>& t, std::size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    const std::string_view s = t[i].text;
    if (s == "<") ++depth;
    else if (s == "<<") depth += 2;
    else if (s == ">") --depth;
    else if (s == ">>") depth -= 2;
    else if (s == ";" || s == "{") break;  // malformed; bail out
    if (depth <= 0 && s.front() == '>') return i + 1;
  }
  return i;
}

/// determinism-hazard: iteration over unordered containers in
/// result-affecting layers. Heuristic: track identifiers declared in this
/// file with an unordered_{map,set} type, then flag range-for statements
/// whose range expression mentions one (or the type itself), and direct
/// .begin()/.cbegin()/... iterator walks.
void rule_determinism_hazard(const FileInfo& f, std::string_view path,
                             std::vector<Diagnostic>& diags) {
  const auto& t = f.tokens;
  std::set<std::string_view> unordered_vars;

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent ||
        (t[i].text != "unordered_map" && t[i].text != "unordered_set")) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < t.size() && t[j].text == "<") j = skip_template_args(t, j);
    // Optional cv/ref/pointer decorations, then the declarator name.
    while (j < t.size() &&
           (t[j].text == "&" || t[j].text == "*" || t[j].text == "const")) {
      ++j;
    }
    if (j < t.size() && t[j].kind == TokKind::kIdent) {
      unordered_vars.insert(t[j].text);
    }
  }

  const auto is_unordered_expr_token = [&](const Token& tok) {
    return tok.kind == TokKind::kIdent &&
           (tok.text == "unordered_map" || tok.text == "unordered_set" ||
            unordered_vars.count(tok.text) > 0);
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    // Range-for over an unordered container.
    if (t[i].kind == TokKind::kIdent && t[i].text == "for" &&
        i + 1 < t.size() && t[i + 1].text == "(") {
      int depth = 0;
      std::size_t colon = 0, close = 0;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        const std::string_view s = t[j].text;
        if (s == "(") ++depth;
        else if (s == ")") {
          if (--depth == 0) { close = j; break; }
        } else if (s == ":" && depth == 1 && colon == 0) {
          colon = j;
        }
      }
      if (colon != 0 && close != 0) {
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (is_unordered_expr_token(t[j])) {
            emit(diags, path, t[i].line, "determinism-hazard",
                 "range-for over unordered container '" +
                     std::string(t[j].text) +
                     "': iteration order is implementation-defined and can "
                     "leak into results; use std::map, a sorted snapshot, or "
                     "an insertion-order vector");
            break;
          }
        }
      }
      continue;
    }
    // Iterator walk: var.begin() / var->cbegin() / ...
    if (is_unordered_expr_token(t[i]) && i + 2 < t.size() &&
        is_member_access(t[i + 1]) && t[i + 2].kind == TokKind::kIdent) {
      static const std::set<std::string_view> kIterFns = {
          "begin", "cbegin", "rbegin", "crbegin"};
      if (kIterFns.count(t[i + 2].text) > 0 && i + 3 < t.size() &&
          t[i + 3].text == "(") {
        emit(diags, path, t[i].line, "determinism-hazard",
             "iterator walk over unordered container '" +
                 std::string(t[i].text) +
                 "': iteration order is implementation-defined");
      }
    }
  }
}

bool is_float_literal(std::string_view num) {
  if (num.size() > 1 && (num[1] == 'x' || num[1] == 'X')) {
    return num.find('.') != std::string_view::npos ||
           num.find('p') != std::string_view::npos ||
           num.find('P') != std::string_view::npos;
  }
  for (const char c : num) {
    if (c == '.' || c == 'e' || c == 'E') return true;
  }
  return num.back() == 'f' || num.back() == 'F';
}

/// float-equality: ==/!= where an adjacent operand is a floating literal
/// or an identifier declared double/float in this file. Exact FP equality
/// is both a correctness smell and a reproducibility hazard (results can
/// flip with FMA/rounding differences across builds).
void rule_float_equality(const FileInfo& f, std::string_view path,
                         std::vector<Diagnostic>& diags) {
  const auto& t = f.tokens;
  std::set<std::string_view> float_vars;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind == TokKind::kIdent &&
        (t[i].text == "double" || t[i].text == "float") &&
        t[i + 1].kind == TokKind::kIdent) {
      // `double x =`, `double x;`, `double x,`, `double x)` `double x{`:
      // a variable/param declaration, not a function declaration.
      const std::string_view after = t[i + 2].text;
      if (after == "=" || after == ";" || after == "," || after == ")" ||
          after == "{") {
        float_vars.insert(t[i + 1].text);
      }
    }
  }
  const auto floaty = [&](const Token& tok) {
    if (tok.kind == TokKind::kNumber) return is_float_literal(tok.text);
    return tok.kind == TokKind::kIdent && float_vars.count(tok.text) > 0;
  };
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kPunct || (t[i].text != "==" && t[i].text != "!="))
      continue;
    // A nullptr operand means the other side is a pointer, whatever its
    // name shadows — e.g. `double* d; d != nullptr`.
    if (t[i - 1].text == "nullptr" || t[i + 1].text == "nullptr") continue;
    if (floaty(t[i - 1]) || floaty(t[i + 1])) {
      emit(diags, path, t[i].line, "float-equality",
           cat({"'", t[i].text,
                "' between floating-point expressions; compare with an "
                "explicit tolerance or restructure"}));
    }
  }
}

/// per-packet-deque: std::deque in the layers every packet crosses. Its
/// 512-byte nodes are allocated and freed as a FIFO's contents cycle, so a
/// queue of Packets calls malloc on every second push however steady its
/// depth; sim::Ring stops allocating once it reaches its peak depth.
void rule_per_packet_deque(const FileInfo& f, const FileClass& fc,
                           std::string_view path,
                           std::vector<Diagnostic>& diags) {
  static const std::set<std::string_view> kPacketPath = {
      "net", "queue", "wireless", "transport", "core", "baseline"};
  if (kPacketPath.count(fc.layer) == 0) return;
  const auto& t = f.tokens;
  for (std::size_t i = 2; i < t.size(); ++i) {
    if (t[i].kind == TokKind::kIdent && t[i].text == "deque" &&
        t[i - 1].text == "::" && t[i - 2].text == "std") {
      emit(diags, path, t[i].line, "per-packet-deque",
           "std::deque on the packet path allocates a node per 512 bytes "
           "pushed; use sim::Ring (or zlint-allow(per-packet-deque) with a "
           "reason)");
    }
  }
}

/// include-layering: every quoted #include whose first component is a
/// src/ layer must follow the layer DAG (see DESIGN.md §11).
void rule_include_layering(const FileInfo& f, const FileClass& fc,
                           std::string_view path,
                           std::vector<Diagnostic>& diags) {
  const bool top_level = fc.layer == "tools" || fc.layer == "tests" ||
                         fc.layer == "bench" || fc.layer == "examples";
  for (const Include& inc : f.includes) {
    if (!inc.quoted) continue;
    const std::size_t slash = inc.path.find('/');
    if (slash == std::string::npos) continue;  // local header, not a layer
    const std::string target = inc.path.substr(0, slash);
    if (target == "tools" || target == "tests" || target == "bench" ||
        target == "examples") {
      emit(diags, path, inc.line, "include-layering",
           "library and test code may not include from '" + target + "/'");
      continue;
    }
    if (!is_src_layer(target)) continue;
    if (top_level) continue;           // binaries may include any layer
    if (!fc.in_src) continue;          // unknown location: nothing to check
    if (target == fc.layer) continue;  // own layer always fine
    const auto it = allowed_edges().find(fc.layer);
    if (it == allowed_edges().end()) continue;  // unknown layer: permissive
    if (it->second.count(target) == 0) {
      std::string allowed;
      for (const auto a : it->second)
        allowed += (allowed.empty() ? "" : ", ") + std::string(a);
      emit(diags, path, inc.line, "include-layering",
           "layer '" + fc.layer + "' may not include \"" + inc.path +
               "\" (allowed layers: " + (allowed.empty() ? "none" : allowed) +
               ")");
    }
  }
}

// ---------------------------------------------------------------------------
// Phase-1 fact extraction (project mode).
// ---------------------------------------------------------------------------

std::string_view path_basename(std::string_view path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

/// Parse an integer literal token (decimal or hex, digit separators and
/// u/l suffixes allowed). Returns false for floating literals.
bool parse_int_literal(std::string_view text, std::int64_t* out) {
  std::string digits;
  digits.reserve(text.size());
  for (const char c : text) {
    if (c == '\'') continue;
    digits += c;
  }
  int base = 10;
  std::size_t pos = 0;
  if (digits.size() > 2 && digits[0] == '0' &&
      (digits[1] == 'x' || digits[1] == 'X')) {
    base = 16;
    pos = 2;
  }
  std::int64_t v = 0;
  bool any = false;
  for (; pos < digits.size(); ++pos) {
    const char c = digits[pos];
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (base == 16 && c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (base == 16 && c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else if (c == 'u' || c == 'U' || c == 'l' || c == 'L') continue;  // suffix
    else return false;  // '.', 'e', 'p', ... — not an integer literal
    v = v * base + d;
    any = true;
  }
  if (!any) return false;
  *out = v;
  return true;
}

/// The time-unit suffix of an identifier (after the last underscore,
/// ignoring a trailing member-variable underscore), or empty.
std::string_view unit_suffix(std::string_view name) {
  while (!name.empty() && name.back() == '_') name.remove_suffix(1);
  const std::size_t us = name.find_last_of('_');
  if (us == std::string_view::npos || us == 0) return {};
  const std::string_view suf = name.substr(us + 1);
  if (suf == "ns" || suf == "us" || suf == "ms" || suf == "s") return suf;
  return {};
}

/// sim::Rng(seed, <stream>) construction sites. Handles direct
/// constructions (`sim::Rng(seed, 31)`, `sim::Rng rng(seed, 7)`) and the
/// template-argument form (`std::make_unique<sim::Rng>(seed, 11)`).
/// Declarations (`explicit Rng(... = ...)`, `sim::Rng& rng` parameters)
/// never match: they either lack a '(' right after `Rng` or carry a
/// defaulted argument.
void extract_rng_uses(const FileInfo& f, std::vector<RngUse>& out) {
  const auto& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || t[i].text != "Rng") continue;
    if (i > 0 && (t[i - 1].text == "class" || t[i - 1].text == "struct" ||
                  t[i - 1].text == "explicit" || t[i - 1].text == "~")) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < t.size() && t[j].text == ">") ++j;  // make_unique<sim::Rng>(...)
    // Declaration form: `sim::Rng rng(seed, stream)` — one identifier (the
    // variable name) may sit between the type and the argument list.
    if (j < t.size() && t[j].kind == TokKind::kIdent) ++j;
    if (j >= t.size() || t[j].text != "(") continue;
    // Split the argument list at top-level commas.
    std::vector<std::vector<std::size_t>> args(1);
    int depth = 1;
    std::size_t k = j + 1;
    for (; k < t.size() && depth > 0; ++k) {
      const std::string_view s = t[k].text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      else if (s == ")" || s == "]" || s == "}") { --depth; if (depth == 0) break; }
      else if (s == "," && depth == 1) { args.emplace_back(); continue; }
      if (depth > 0) args.back().push_back(k);
    }
    if (args.size() != 2 || args[1].empty()) continue;
    const auto& arg = args[1];
    bool is_decl = false;
    for (const std::size_t ai : arg) {
      if (t[ai].text == "=") is_decl = true;  // defaulted param: declaration
    }
    if (is_decl) continue;
    RngUse use;
    use.line = t[i].line;
    if (arg.size() == 1 && t[arg[0]].kind == TokKind::kNumber) {
      std::int64_t v = 0;
      if (!parse_int_literal(t[arg[0]].text, &v)) continue;  // float: not ours
      use.is_literal = true;
      use.value = v;
      use.arg = std::string(t[arg[0]].text);
      out.push_back(std::move(use));
      continue;
    }
    // Named expression: take the last identifier (handles `substreams::kX`,
    // `cfg.stream`, plain `kX`). Reject anything with operators beyond
    // scope/member access — a computed stream is not a registry name.
    std::string last_ident;
    bool simple = true;
    bool prev_ident = false;
    bool param_decl = false;
    for (const std::size_t ai : arg) {
      const Token& tok = t[ai];
      if (tok.kind == TokKind::kIdent) {
        // Two adjacent identifiers (`std::uint64_t stream`) mean this is a
        // function *declaration* parameter list, not a construction.
        if (prev_ident) param_decl = true;
        last_ident = std::string(tok.text);
        prev_ident = true;
      } else if (tok.kind == TokKind::kPunct &&
                 (tok.text == "::" || tok.text == "." || tok.text == "->")) {
        prev_ident = false;  // scope/member access: still a name
      } else {
        simple = false;
        prev_ident = false;
      }
    }
    if (param_decl || last_ident.empty()) continue;
    use.arg = simple ? last_ident : "<expr>";
    out.push_back(std::move(use));
  }
}

/// Named substream constants from a registry file (any scanned file named
/// substreams.hpp): `[inline] constexpr <int-type> kName = <int>;`.
void extract_stream_defs(const FileInfo& f, std::vector<StreamDef>& out) {
  const auto& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || t[i].text != "constexpr") continue;
    std::string name;
    std::int64_t value = 0;
    bool have_value = false;
    int name_line = t[i].line;
    for (std::size_t j = i + 1; j + 2 < t.size(); ++j) {
      if (t[j].text == ";" || t[j].text == "{") break;
      if (t[j].kind == TokKind::kIdent && t[j + 1].text == "=" &&
          t[j + 2].kind == TokKind::kNumber) {
        if (parse_int_literal(t[j + 2].text, &value)) {
          name = std::string(t[j].text);
          name_line = t[j].line;
          have_value = j + 3 < t.size() && t[j + 3].text == ";";
        }
        break;
      }
    }
    if (have_value && !name.empty()) out.push_back({name_line, name, value});
  }
}

/// Statement/scope walker for shared-mutable-state: classifies each brace
/// scope (namespace / class / function / brace-init) from the statement
/// tokens preceding it, then inspects completed statements for mutable
/// namespace-scope variables, non-const static locals, and static data
/// members.
void extract_globals(const FileInfo& f, std::vector<GlobalDecl>& out) {
  enum class Scope { kNamespace, kClass, kFunction, kInit };
  const auto& t = f.tokens;
  std::vector<Scope> scopes;
  std::vector<std::size_t> stmt;  // token indices of the open statement
  int paren_depth = 0;

  const auto current = [&] {
    return scopes.empty() ? Scope::kNamespace : scopes.back();
  };
  const auto stmt_has = [&](std::string_view word) {
    for (const std::size_t si : stmt) {
      if (t[si].kind == TokKind::kIdent && t[si].text == word) return true;
    }
    return false;
  };

  const auto evaluate = [&] {
    if (stmt.empty()) return;
    const Scope scope = current();
    if (scope == Scope::kInit) return;
    const bool is_static = stmt_has("static") || stmt_has("thread_local");
    if (scope == Scope::kFunction && !is_static) return;
    if (scope == Scope::kClass && !is_static) return;  // plain members: per-instance
    if (stmt_has("const") || stmt_has("constexpr") || stmt_has("consteval"))
      return;
    static const std::set<std::string_view> kNotAVar = {
        "using",  "typedef",  "friend", "operator", "template", "concept",
        "return", "namespace", "class",  "struct",   "union",    "enum",
        "goto",   "break",     "continue", "if", "for", "while", "switch",
        "case",   "default",   "do", "throw", "delete", "new", "extern"};
    for (const std::size_t si : stmt) {
      if (t[si].kind == TokKind::kIdent && kNotAVar.count(t[si].text) > 0)
        return;
    }
    // A '(' before any '=' means a function declaration/definition or a
    // macro invocation, not a variable.
    std::size_t eq = stmt.size();
    for (std::size_t k = 0; k < stmt.size(); ++k) {
      const std::string_view s = t[stmt[k]].text;
      if (s == "=") { eq = k; break; }
      if (s == "(") return;
    }
    // Declarator name: last identifier before '=' (or before a '[' array
    // extent, or the last identifier overall).
    std::size_t name_idx = stmt.size();
    for (std::size_t k = 0; k < eq; ++k) {
      const std::string_view s = t[stmt[k]].text;
      if (s == "[") break;
      if (t[stmt[k]].kind == TokKind::kIdent) name_idx = k;
    }
    if (name_idx >= stmt.size() || name_idx == 0) return;  // need type + name
    const Token& name = t[stmt[name_idx]];
    out.push_back({name.line, std::string(name.text),
                   scope == Scope::kFunction});
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == "(") ++paren_depth;
      else if (tok.text == ")") paren_depth = std::max(0, paren_depth - 1);
      if (paren_depth == 0) {
        if (tok.text == "{") {
          Scope kind;
          const std::string_view prev =
              stmt.empty() ? std::string_view() : t[stmt.back()].text;
          if (stmt_has("namespace")) kind = Scope::kNamespace;
          else if (stmt_has("class") || stmt_has("struct") ||
                   stmt_has("union") || stmt_has("enum")) {
            kind = Scope::kClass;
          } else if (current() == Scope::kFunction) kind = Scope::kFunction;
          else if (prev == ")") kind = Scope::kFunction;
          else if (prev == "=" || stmt_has("=") ||
                   (!stmt.empty() && t[stmt.back()].kind == TokKind::kIdent)) {
            kind = Scope::kInit;  // brace init: `Type x{...}` / `= {...}`
          } else {
            kind = Scope::kFunction;  // bare block; be conservative
          }
          scopes.push_back(kind);
          if (kind != Scope::kInit) stmt.clear();
          continue;
        }
        if (tok.text == "}") {
          const bool was_init = current() == Scope::kInit;
          if (!scopes.empty()) scopes.pop_back();
          if (!was_init) stmt.clear();
          continue;
        }
        if (tok.text == ";") {
          evaluate();
          stmt.clear();
          continue;
        }
      }
    }
    stmt.push_back(i);
  }
}

/// time-unit hazards: (a) arithmetic/comparison between identifiers with
/// different *_ns/*_us/*_ms/*_s suffixes (an explicit conversion call
/// breaks the ident-op-ident adjacency and therefore never fires); (b)
/// float/double variables that carry nanoseconds — a declaration whose
/// name is _ns-suffixed, or `+=` accumulation of an _ns identifier into a
/// float/double variable (skipped in stats/, where summary statistics
/// legitimately live in doubles).
void extract_time_hazards(const FileInfo& f, std::string_view path,
                          std::string_view layer,
                          std::vector<Diagnostic>& out) {
  const auto& t = f.tokens;
  static const std::set<std::string_view> kMixOps = {
      "+", "-", "*", "/", "<", ">", "<=", ">=", "==", "!=", "+=", "-="};
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kPunct || kMixOps.count(t[i].text) == 0) continue;
    if (t[i - 1].kind != TokKind::kIdent || t[i + 1].kind != TokKind::kIdent)
      continue;
    const std::string_view a = unit_suffix(t[i - 1].text);
    const std::string_view b = unit_suffix(t[i + 1].text);
    if (a.empty() || b.empty() || a == b) continue;
    // A unit-suffixed *call* on the right (`x_ms < t.count_ms()`) is the
    // conversion idiom, not a mix — but only if the units agree; reaching
    // here the units differ, so flag regardless of a following '('.
    out.push_back(
        {std::string(path), t[i].line, "time-unit",
         cat({"'", t[i - 1].text, "' (", a, ") ", t[i].text, " '", t[i + 1].text,
              "' (", b, "): mixed time units without an explicit conversion call"})});
  }

  if (layer == "stats") return;
  // Float/double variable declarations in this file (same heuristic as
  // float-equality) + _ns-suffixed declarations.
  std::set<std::string_view> float_vars;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent ||
        (t[i].text != "double" && t[i].text != "float") ||
        t[i + 1].kind != TokKind::kIdent) {
      continue;
    }
    const std::string_view after = t[i + 2].text;
    if (after == "=" || after == ";" || after == "," || after == ")" ||
        after == "{" || after == "+=") {
      float_vars.insert(t[i + 1].text);
      if (unit_suffix(t[i + 1].text) == "ns") {
        out.push_back({std::string(path), t[i].line, "time-unit",
                       cat({"'", t[i + 1].text, "' stores nanoseconds in ", t[i].text,
                            "; use std::int64_t (precision degrades past 2^53)"})});
      }
    }
  }
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kPunct || t[i].text != "+=") continue;
    if (t[i - 1].kind != TokKind::kIdent ||
        float_vars.count(t[i - 1].text) == 0) {
      continue;
    }
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      const std::string_view s = t[j].text;
      if (s == ";") break;
      if (t[j].kind == TokKind::kIdent && unit_suffix(s) == "ns") {
        out.push_back({std::string(path), t[i].line, "time-unit",
                       cat({"float/double '", t[i - 1].text,
                            "' accumulates nanosecond value '", s,
                            "'; accumulate in std::int64_t and convert at the "
                            "edge"})});
        break;
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

std::string to_string(const Diagnostic& d) {
  std::ostringstream os;
  os << d.path << ':' << d.line << ": " << d.rule << ": " << d.message;
  return os.str();
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      "banned-api",     "determinism-hazard",   "float-equality",
      "per-packet-deque", "include-layering",  // single-file rules
      "rng-substream",  "shared-mutable-state", "time-unit",
      "include-graph",  "bad-suppression"};  // project-mode rules
  return kNames;
}

bool layer_edge_allowed(std::string_view from_layer, std::string_view to_layer) {
  if (from_layer == to_layer) return true;
  if (from_layer == "tools" || from_layer == "tests" || from_layer == "bench" ||
      from_layer == "examples") {
    return to_layer != "tools" && to_layer != "tests" && to_layer != "bench" &&
           to_layer != "examples";
  }
  const auto it = allowed_edges().find(from_layer);
  if (it == allowed_edges().end()) return true;
  return it->second.count(to_layer) > 0;
}

std::vector<Diagnostic> analyze_source(std::string_view rel_path,
                                       std::string_view text) {
  const FileClass fc = classify(rel_path);
  const FileInfo info = lex(text);

  std::vector<Diagnostic> diags;
  if (fc.in_src) {
    rule_banned_api(info, rel_path, diags);
    if (fc.layer != "obs") rule_determinism_hazard(info, rel_path, diags);
    rule_float_equality(info, rel_path, diags);
    rule_per_packet_deque(info, fc, rel_path, diags);
  }
  rule_include_layering(info, fc, rel_path, diags);

  // Apply suppressions, then order for stable output.
  std::erase_if(diags, [&](const Diagnostic& d) {
    const auto it = info.suppressions.find(d.line);
    if (it == info.suppressions.end()) return false;
    return it->second.count(d.rule) > 0 || it->second.count("*") > 0;
  });
  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.line, a.rule, a.message) <
                     std::tie(b.line, b.rule, b.message);
            });
  return diags;
}

std::vector<Diagnostic> analyze_file(const std::string& abs_path,
                                     std::string_view rel_path) {
  std::ifstream in(abs_path, std::ios::binary);
  if (!in) {
    return {{std::string(rel_path), 0, "io-error", "cannot open file"}};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  return analyze_source(rel_path, text);
}

FileFacts extract_facts(std::string_view rel_path, std::string_view text) {
  const FileClass fc = classify(rel_path);
  const FileInfo info = lex(text);

  FileFacts facts;
  facts.path = std::string(rel_path);
  facts.layer = fc.layer;
  facts.in_src = fc.in_src;
  {
    const std::size_t dot = facts.path.find_last_of('.');
    const std::string ext = dot == std::string::npos ? "" : facts.path.substr(dot);
    facts.is_header = ext == ".hpp" || ext == ".h";
  }
  facts.first_code_line = info.first_code_line;
  facts.suppressions = info.suppressions;

  for (const Include& inc : info.includes) {
    facts.includes.push_back({inc.line, inc.path, inc.quoted});
  }
  extract_rng_uses(info, facts.rng_uses);
  if (path_basename(rel_path) == "substreams.hpp") {
    extract_stream_defs(info, facts.stream_defs);
  }
  extract_globals(info, facts.globals);
  extract_time_hazards(info, rel_path, fc.layer, facts.hazards);
  for (const int line : info.bad_allow_lines) {
    facts.hazards.push_back(
        {facts.path, line, "bad-suppression",
         "zlint-allow(...) without a reason clause; write "
         "`zlint-allow(rule): <why this is safe>`"});
  }
  return facts;
}

}  // namespace zlint
