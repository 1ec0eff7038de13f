#pragma once
// Paper evaluation matrix: the baseline tournament behind the headline
// claim (§7.3 / Figs. 11–13): Zhuge's shortened control loop vs the
// endpoint-loop baselines, crossed over sender CCAs, wireless trace
// classes, and station densities.
//
// An EvalSpec is a declarative axis product — mechanisms {vanilla, zhuge,
// fastack, abc} x CCAs {gcc, cubic, bbr} x trace classes W1/W2/C1–C3 x
// station densities — that expands into one ScenarioSpec per cell on the
// multi-station engine. A cell whose mechanism cannot act on its workload
// runs the vanilla scenario, and cells whose specs are equal apart from
// the name are one simulation: the shared indexed pool runs each distinct
// spec once (90 runs for the default 120 cells), and every cell of a
// group is that run's verdict (frame-delay CDF, p95/p99 tails,
// delayed-frame ratio, stall rate, RTT tails, goodput) under its own
// labels. Cell fingerprints are chained serially in grid order, so the
// matrix fingerprint is bit-identical for any thread count — the same
// contract as the chaos matrix.
//
// Headline comparisons (Zhuge p95 frame delay < vanilla p95 per trace
// class) are derived from the cells; two of them are pinned as golden
// anchors (app/golden.hpp) under the `repro` ctest label. tools/eval_run
// prints the text report and writes the run record (app/record.hpp).

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "app/spec.hpp"
#include "app/sweep.hpp"
#include "trace/synthetic.hpp"

namespace zhuge::app {

/// Sender-side CCA columns of the matrix. GCC is the RTP/RTC workload;
/// CUBIC and BBR are the TCP workloads of Fig. 12/15.
enum class EvalCca : std::uint8_t { kGcc, kCubic, kBbr };

[[nodiscard]] const char* to_string(EvalCca cca);

/// Mechanism row name; ApMode::kNone is spelled "vanilla" in eval context.
[[nodiscard]] const char* eval_mechanism_name(ApMode mode);

/// Declarative evaluation matrix. The defaults reproduce the paper's full
/// tournament; tools/eval_run can load a narrowed spec from JSON
/// (strictly validated — a typo'd axis would silently shrink the matrix
/// while claiming full coverage, so unknown keys and bad axis values fail
/// with line-numbered errors).
struct EvalSpec {
  std::string name = "paper_matrix";
  double duration_s = 10.0;
  double warmup_s = 2.0;
  std::uint64_t seed = 1;
  double max_bitrate_mbps = 2.5;
  double fps = 30.0;
  std::vector<ApMode> mechanisms{ApMode::kNone, ApMode::kZhuge,
                                 ApMode::kFastAck, ApMode::kAbc};
  std::vector<EvalCca> ccas{EvalCca::kGcc, EvalCca::kCubic, EvalCca::kBbr};
  std::vector<trace::TraceKind> traces{
      trace::TraceKind::kRestaurantWifi, trace::TraceKind::kOfficeWifi,
      trace::TraceKind::kIndoorMixed45G, trace::TraceKind::kCity4G,
      trace::TraceKind::kCity5G};
  std::vector<int> densities{1, 4};
};

/// Parse / load an EvalSpec JSON document. Strict: unknown keys, unknown
/// axis values, and out-of-range numbers fail with "line N: ..." errors.
[[nodiscard]] std::optional<EvalSpec> parse_eval_spec(std::string_view text,
                                                      std::string* err);
[[nodiscard]] std::optional<EvalSpec> load_eval_spec(const std::string& path,
                                                     std::string* err);

/// One expanded matrix cell: the axis point plus the concrete ScenarioSpec
/// it runs. `mechanism_active` is false for combinations where the AP
/// mechanism cannot act on the workload (fastack/abc under GCC: both
/// operate on TCP only) — those cells are explicit vanilla controls: their
/// scenario runs ap_mode kNone, they are never silently skipped, and the
/// report flags them. One run judges every cell with an equal scenario
/// (names aside): an inert cell shares the vanilla cell's run, and abc
/// under cubic and under bbr share one, since both run tcp_abc senders.
struct EvalCellSpec {
  std::string name;  ///< "W1/gcc/zhuge/d4"
  ApMode mechanism = ApMode::kNone;
  EvalCca cca = EvalCca::kGcc;
  trace::TraceKind trace = trace::TraceKind::kRestaurantWifi;
  int density = 1;
  bool mechanism_active = false;
  ScenarioSpec scenario;
};

/// Expand the axis product into cells, axes varying slowest-to-fastest in
/// declaration order (trace, cca, mechanism, density). Under ap_mode
/// "abc" the TCP workload runs cooperating tcp_abc senders (ABC replaces
/// the host stack; that is the paper's point about it needing host
/// changes).
[[nodiscard]] std::vector<EvalCellSpec> expand_eval_matrix(const EvalSpec& spec);

/// Frame-delay CDF decile grid (p10..p90), fixed so every record of a cell
/// has the same shape.
inline constexpr int kEvalCdfDeciles = 9;

/// One judged cell. All numeric fields are part of the cell fingerprint.
struct EvalCell {
  std::string name;
  std::string mechanism;  ///< "vanilla"|"zhuge"|"fastack"|"abc"
  std::string cca;        ///< "gcc"|"cubic"|"bbr"
  std::string trace;      ///< "W1"|...
  int density = 1;
  bool mechanism_active = false;
  /// Frame-delay CDF deciles p10..p90 in ms (kEvalCdfDeciles entries).
  std::vector<double> frame_delay_cdf_ms;
  double frame_delay_p50_ms = 0.0;
  double frame_delay_p95_ms = 0.0;
  double frame_delay_p99_ms = 0.0;
  double delayed_frame_ratio = 0.0;  ///< P(frame delay > 400 ms), Fig. 11
  double stall_rate = 0.0;           ///< 1 - frames_decoded / frames_sent
  double rtt_p50_ms = 0.0;
  double rtt_p95_ms = 0.0;
  double goodput_bps = 0.0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_decoded = 0;
  std::uint64_t result_fingerprint = 0;  ///< full multi_result_fingerprint
  std::uint64_t fingerprint = 0;         ///< cell verdict fingerprint
};

/// FNV-1a64 over the cell name and the bit patterns of every numeric
/// field above (including the full-result fingerprint, so any behavioural
/// drift anywhere in the stack flips the cell).
[[nodiscard]] std::uint64_t eval_cell_fingerprint(const EvalCell& cell);

/// One headline comparison: the paper's claim instantiated on a
/// (trace, cca, density) point where both a zhuge and a vanilla cell ran.
struct EvalHeadline {
  std::string name;          ///< "W1/gcc/d4"
  double zhuge_p95_ms = 0.0;
  double vanilla_p95_ms = 0.0;
  bool zhuge_wins = false;   ///< zhuge p95 < vanilla p95
};

struct EvalMatrixResult {
  std::vector<EvalCell> cells;        ///< grid order
  std::vector<EvalHeadline> headline; ///< grid order over comparable points
  std::uint64_t fingerprint = 0;      ///< chained cell fingerprints
  std::size_t runs = 0;               ///< distinct simulations behind `cells`
};

/// Run one cell and judge it. `result_fingerprint` is the
/// multi_result_fingerprint of the cell's run, the same hash any other
/// caller of that run computes.
[[nodiscard]] EvalCell run_eval_cell(const EvalCellSpec& cs);

/// Run each distinct scenario once on the indexed pool, judge every cell
/// from its group's run (relabelled and re-hashed by eval_cell_fingerprint,
/// so each cell equals run_eval_cell on it alone), and chain the cell
/// fingerprints serially in grid order. Bit-identical for any `threads`;
/// each run's obs records (invariant violations included, when the setting
/// is on) merge into the caller's obs context once, in grid order.
[[nodiscard]] EvalMatrixResult run_eval_matrix(
    const std::vector<EvalCellSpec>& cells, unsigned threads);

/// The figure-oriented text report: one row per cell, then the headline
/// comparisons.
void write_eval_report_text(const EvalMatrixResult& res, std::ostream& out);

}  // namespace zhuge::app
