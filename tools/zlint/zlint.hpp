#pragma once
// zlint — in-repo determinism & layering static analysis for src/.
//
// A deliberately small, dependency-free lint pass (lexer, not a compiler
// frontend): it tokenises C++ source, tracks suppression comments, and
// runs rule families that guard the properties the parallel sweep's
// bit-identity contract depends on. It operates in two modes:
//
// Single-file mode (`analyze_source`/`analyze_file`) — the original
// per-TU rules:
//
//   banned-api           wall clocks, std::rand/srand, random_device,
//                        time(), getenv under src/
//   determinism-hazard   iteration over std::unordered_map/unordered_set
//                        in result-affecting layers
//   float-equality       ==/!= between floating-point expressions
//   per-packet-deque     std::deque in the packet-path layers (net, queue,
//                        wireless, transport, core, baseline); use sim::Ring
//   include-layering     #include edges must follow the layer DAG
//
// Project mode (`analyze_project`, CLI `--project`) — two phases. Phase 1
// lexes every TU and extracts a fact base (RNG constructions, substream
// registry constants, global/static declarations, unit-suffixed time
// arithmetic, include edges). Phase 2 runs cross-TU rules over the merged
// facts, in addition to the per-file rules above:
//
//   rng-substream        every sim::Rng(seed, <expr>) must name a constant
//                        from src/sim/substreams.hpp; raw integer literals
//                        and duplicate stream IDs are errors
//   shared-mutable-state non-const namespace-scope / function-local-static
//                        variables (the PDES readiness gate)
//   time-unit            arithmetic mixing *_ns/*_us/*_ms/*_s-suffixed
//                        identifiers without an explicit conversion call;
//                        float/double accumulation of _ns values outside
//                        stats/
//   include-graph        project-wide: include cycles, headers unreachable
//                        from any TU, transitive layer violations the
//                        per-edge DAG check misses
//   bad-suppression      a zlint-allow(...) clause without a reason
//                        (": <why>") — reasons are machine-checked in
//                        project mode
//
// Diagnostics on a line are silenced by a suppression comment on the same
// line, or on the immediately preceding line if that line holds only the
// comment (an own-line comment covers the whole following statement,
// including its continuation lines):
//
//   // zlint-allow(rule): reason
//   // zlint-allow(rule1,rule2): reason

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace zlint {

struct Diagnostic {
  std::string path;  ///< as passed in (repo-relative for layer rules)
  int line = 0;      ///< 1-based
  std::string rule;
  std::string message;
};

/// `path:line: rule: message` — the canonical single-line form.
[[nodiscard]] std::string to_string(const Diagnostic& d);

/// All rule names, in the order rules run. Useful for CLI help/tests.
[[nodiscard]] const std::vector<std::string>& rule_names();

/// Lint one translation unit. `rel_path` must be repo-relative (e.g.
/// "src/queue/fifo.hpp") — the leading directory decides which layer the
/// file belongs to and therefore which rules apply and which #include
/// edges are legal. Suppressed diagnostics are dropped before returning.
[[nodiscard]] std::vector<Diagnostic> analyze_source(std::string_view rel_path,
                                                     std::string_view text);

/// Read `abs_path` from disk and lint it as `rel_path`. Returns an
/// io-error diagnostic if the file cannot be read.
[[nodiscard]] std::vector<Diagnostic> analyze_file(const std::string& abs_path,
                                                   std::string_view rel_path);

/// The layer DAG: true iff a file in `from_layer` may include a header
/// from `to_layer`. Layers are top-level dirs under src/ plus the
/// pseudo-layers "tools", "tests", "bench", "examples". Unknown layers are
/// permissive (nothing to enforce). Exposed for the layering tests.
[[nodiscard]] bool layer_edge_allowed(std::string_view from_layer,
                                      std::string_view to_layer);

// ---------------------------------------------------------------------------
// Project mode (phase 1: facts, phase 2: cross-TU rules).
// ---------------------------------------------------------------------------

/// One file handed to project analysis: repo-relative path + contents.
struct ProjectFile {
  std::string rel_path;
  std::string text;
};

/// A `sim::Rng(seed, <stream>)` construction site.
struct RngUse {
  int line = 0;
  std::string arg;          ///< second-argument spelling (last identifier,
                            ///< or the literal text)
  bool is_literal = false;  ///< second argument is a bare integer literal
  std::int64_t value = 0;   ///< literal value when is_literal
};

/// A named substream constant parsed from a substreams.hpp registry file.
struct StreamDef {
  int line = 0;
  std::string name;
  std::int64_t value = 0;
};

/// A mutable namespace-scope variable or a non-const function-local static.
struct GlobalDecl {
  int line = 0;
  std::string name;
  bool static_local = false;
};

/// One #include directive.
struct IncludeFact {
  int line = 0;
  std::string target;  ///< include target, quotes/brackets stripped
  bool quoted = false;
};

/// Everything phase 1 extracts from one file.
struct FileFacts {
  std::string path;          ///< repo-relative, as passed in
  std::string layer;         ///< "sim".."app", or tools/tests/bench/examples
  bool in_src = false;
  bool is_header = false;    ///< .hpp/.h by extension
  int first_code_line = 0;   ///< first line holding a token or include
  std::vector<IncludeFact> includes;
  std::vector<RngUse> rng_uses;
  std::vector<StreamDef> stream_defs;
  std::vector<GlobalDecl> globals;
  /// Per-file phase-1 findings reported through phase 2 (time-unit,
  /// bad-suppression). Suppressions are NOT yet applied.
  std::vector<Diagnostic> hazards;
  /// line -> rules silenced on that line ("*" silences everything).
  std::map<int, std::set<std::string>> suppressions;
};

/// Phase 1: lex one file and extract its fact record.
[[nodiscard]] FileFacts extract_facts(std::string_view rel_path,
                                      std::string_view text);

/// Phase 1 + 2 over a whole project: per-file rules on every file, then
/// cross-TU rules over the merged fact base. Suppressions apply to both.
/// Diagnostics are sorted by (path, line, rule, message).
[[nodiscard]] std::vector<Diagnostic> analyze_project(
    const std::vector<ProjectFile>& files);

/// Phase 2 only, exposed for tests and the --facts pipeline.
[[nodiscard]] std::vector<Diagnostic> run_project_rules(
    const std::vector<FileFacts>& facts);

}  // namespace zlint
