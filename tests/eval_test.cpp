// Evaluation-matrix suite (src/app/eval.*): cell-count completeness (no
// silently skipped cells), one run per distinct scenario (an inert
// mechanism is the vanilla run, and every deduplicated cell equals its own
// run), CDF monotonicity of every verdict, serial vs 4-thread
// verdict-fingerprint identity, a cell's result fingerprint equal to its
// bare run's, strict EvalSpec rejection of the known-bad fixtures, and the
// shipped example specs. The run record of a matrix (every cell
// field, bit-exact) is checked in record_test.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "app/eval.hpp"

namespace zhuge::app {
namespace {

/// A small-but-representative matrix: all four mechanisms, both workload
/// families, a WiFi and a cellular trace, single-station cells. 16 cells,
/// a few hundred ms wall clock; shared across the suite.
EvalSpec small_spec() {
  EvalSpec spec;
  spec.name = "eval_test_matrix";
  spec.duration_s = 4.0;
  spec.warmup_s = 1.0;
  spec.seed = 3;
  spec.ccas = {EvalCca::kGcc, EvalCca::kCubic};
  spec.traces = {trace::TraceKind::kRestaurantWifi,
                 trace::TraceKind::kIndoorMixed45G};
  spec.densities = {1};
  return spec;
}

const EvalMatrixResult& small_result() {
  static const EvalMatrixResult res =
      run_eval_matrix(expand_eval_matrix(small_spec()), 2);
  return res;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Expansion: complete, uniquely named, explicitly flagged inert cells
// ---------------------------------------------------------------------------

TEST(EvalMatrix, ExpansionCoversTheFullAxisProduct) {
  const auto spec = small_spec();
  const auto cells = expand_eval_matrix(spec);
  ASSERT_EQ(cells.size(), spec.mechanisms.size() * spec.ccas.size() *
                              spec.traces.size() * spec.densities.size());
  std::set<std::string> names;
  for (const auto& c : cells) {
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate cell " << c.name;
    EXPECT_EQ(c.scenario.duration_s, spec.duration_s);
    EXPECT_EQ(c.scenario.station_count(), c.density);
    EXPECT_EQ(c.scenario.flows.size(), static_cast<std::size_t>(c.density));
  }
  // Inert combinations (fastack/abc under GCC: both act on TCP only) are
  // present and flagged, not skipped.
  int inert = 0;
  for (const auto& c : cells) {
    if (!c.mechanism_active) ++inert;
    if (c.cca == EvalCca::kGcc &&
        (c.mechanism == ApMode::kFastAck || c.mechanism == ApMode::kAbc)) {
      EXPECT_FALSE(c.mechanism_active) << c.name;
    }
    if (c.mechanism == ApMode::kZhuge) {
      EXPECT_TRUE(c.mechanism_active) << c.name;
    }
    if (c.mechanism == ApMode::kNone) {
      EXPECT_FALSE(c.mechanism_active) << c.name;
    }
    // An inert cell runs the vanilla control it stands for.
    EXPECT_EQ(c.scenario.ap_mode, c.mechanism_active ? c.mechanism : ApMode::kNone)
        << c.name;
  }
  EXPECT_GT(inert, 0);
}

TEST(EvalMatrix, EveryCellIsJudged) {
  const auto cells = expand_eval_matrix(small_spec());
  const auto& res = small_result();
  ASSERT_EQ(res.cells.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    // Grid order is preserved and nothing was silently dropped.
    EXPECT_EQ(res.cells[i].name, cells[i].name);
    EXPECT_NE(res.cells[i].fingerprint, 0u) << cells[i].name;
    EXPECT_GT(res.cells[i].frames_sent, 0u) << cells[i].name;
  }
  // Every (trace, cca, density) point with a zhuge and a vanilla cell got
  // a headline verdict: 2 traces x 2 ccas x 1 density.
  EXPECT_EQ(res.headline.size(), 4u);
  // Per trace, gcc runs vanilla and zhuge (fastack and abc are inert, so
  // vanilla) and cubic runs all four: 2 x (2 + 4) distinct runs.
  EXPECT_EQ(res.runs, 12u);
}

// ---------------------------------------------------------------------------
// One run per distinct scenario
// ---------------------------------------------------------------------------

TEST(EvalMatrix, InertMechanismIsVanilla) {
  // The fact the normalisation rests on: under GCC, an AP in FastAck or
  // ABC mode leaves every packet as vanilla would. If this fails, fix the
  // mechanism or drop the normalisation in expand_eval_matrix.
  EvalSpec spec;
  spec.duration_s = 3.0;
  spec.warmup_s = 1.0;
  spec.seed = 5;
  spec.ccas = {EvalCca::kGcc};
  spec.traces = {trace::TraceKind::kRestaurantWifi,
                 trace::TraceKind::kIndoorMixed45G};
  spec.densities = {1, 4};
  const auto cells = expand_eval_matrix(spec);
  int checked = 0;
  for (const EvalCellSpec& vanilla : cells) {
    if (vanilla.mechanism != ApMode::kNone) continue;
    const std::uint64_t want =
        multi_result_fingerprint(run_multi_station(vanilla.scenario));
    for (const EvalCellSpec& cs : cells) {
      if (cs.mechanism != ApMode::kFastAck && cs.mechanism != ApMode::kAbc) continue;
      if (cs.trace != vanilla.trace || cs.density != vanilla.density) continue;
      SCOPED_TRACE(cs.name);
      ASSERT_FALSE(cs.mechanism_active);
      ScenarioSpec as_labelled = cs.scenario;
      as_labelled.ap_mode = cs.mechanism;
      EXPECT_EQ(multi_result_fingerprint(run_multi_station(as_labelled)), want);
      ++checked;
    }
  }
  // fastack and abc x W1 and C1 x d1 and d4.
  EXPECT_EQ(checked, 8);
}

TEST(EvalMatrix, EveryCellMatchesItsOwnRun) {
  // Duplicates included: a cell judged from another cell's run is the
  // verdict its own run would give, label and fingerprint alike.
  const auto cells = expand_eval_matrix(small_spec());
  const auto& res = small_result();
  ASSERT_EQ(res.cells.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].name);
    const EvalCell alone = run_eval_cell(cells[i]);
    EXPECT_EQ(res.cells[i].name, alone.name);
    EXPECT_EQ(res.cells[i].mechanism, alone.mechanism);
    EXPECT_EQ(res.cells[i].cca, alone.cca);
    EXPECT_EQ(res.cells[i].result_fingerprint, alone.result_fingerprint);
    EXPECT_EQ(res.cells[i].fingerprint, alone.fingerprint);
  }
}

// ---------------------------------------------------------------------------
// Verdict sanity: CDFs monotone, ratios in range
// ---------------------------------------------------------------------------

TEST(EvalMatrix, CdfsAreMonotoneAndRatiosBounded) {
  for (const auto& c : small_result().cells) {
    SCOPED_TRACE(c.name);
    ASSERT_EQ(c.frame_delay_cdf_ms.size(),
              static_cast<std::size_t>(kEvalCdfDeciles));
    for (int d = 1; d < kEvalCdfDeciles; ++d) {
      EXPECT_LE(c.frame_delay_cdf_ms[d - 1], c.frame_delay_cdf_ms[d])
          << "decile " << d;
    }
    // The named quantiles sit on/above the decile grid in order.
    EXPECT_LE(c.frame_delay_cdf_ms.front(), c.frame_delay_p50_ms);
    EXPECT_LE(c.frame_delay_p50_ms, c.frame_delay_p95_ms);
    EXPECT_LE(c.frame_delay_p95_ms, c.frame_delay_p99_ms);
    EXPECT_GE(c.delayed_frame_ratio, 0.0);
    EXPECT_LE(c.delayed_frame_ratio, 1.0);
    EXPECT_GE(c.stall_rate, 0.0);
    EXPECT_LE(c.stall_rate, 1.0);
    EXPECT_LE(c.frames_decoded, c.frames_sent);
    EXPECT_EQ(c.fingerprint, eval_cell_fingerprint(c));
  }
}

// ---------------------------------------------------------------------------
// Thread-count independence
// ---------------------------------------------------------------------------

TEST(EvalMatrix, SerialAndFourThreadVerdictsAreBitIdentical) {
  const auto cells = expand_eval_matrix(small_spec());
  const auto serial = run_eval_matrix(cells, 1);
  const auto threaded = run_eval_matrix(cells, 4);
  ASSERT_EQ(serial.cells.size(), threaded.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].fingerprint, threaded.cells[i].fingerprint)
        << serial.cells[i].name;
    EXPECT_EQ(serial.cells[i].result_fingerprint,
              threaded.cells[i].result_fingerprint)
        << serial.cells[i].name;
  }
  EXPECT_EQ(serial.fingerprint, threaded.fingerprint);
  // And the memoised suite result (2 threads) agrees too.
  EXPECT_EQ(small_result().fingerprint, serial.fingerprint);
}

TEST(EvalMatrix, CellResultFingerprintIsTheRunFingerprint) {
  // A cell reads its quantiles before hashing, a golden hashes first; one
  // run must still have one fingerprint.
  for (const EvalCellSpec& cs : expand_eval_matrix(small_spec())) {
    SCOPED_TRACE(cs.name);
    EXPECT_EQ(run_eval_cell(cs).result_fingerprint,
              multi_result_fingerprint(run_multi_station(cs.scenario)));
  }
}

// ---------------------------------------------------------------------------
// Strict EvalSpec parsing: fixtures pin the exact line-numbered messages
// ---------------------------------------------------------------------------

struct EvalFixtureCase {
  const char* file;
  const char* expected_error;
};

// A typo'd axis value or key must fail loudly — the failure mode it guards
// against is a silently shrunken matrix that still claims full coverage.
const EvalFixtureCase kEvalFixtures[] = {
    {"eval_bad_mechanism.json",
     "line 6: mechanisms[] must be vanilla|zhuge|fastack|abc"},
    {"eval_unknown_key.json", "line 4: eval: unknown key \"tracess\""},
    // Scalars go through the strict reader: a value of the wrong kind or
    // a seed that is not a whole non-negative number is an error, never a
    // silent default or a wrapped cast.
    {"eval_duration_not_number.json",
     "line 3: eval: \"duration_s\" must be a number"},
    {"eval_fps_not_number.json", "line 3: eval: \"fps\" must be a number"},
    {"eval_name_not_string.json", "line 2: eval: \"name\" must be a string"},
    {"eval_seed_negative.json",
     "line 3: eval: \"seed\" must be an integer in range"},
    {"eval_density_fractional.json",
     "line 3: densities[] must be integers in [1, 64]"},
    // Range failures carry their line and path like every other message.
    {"eval_duration_zero.json", "line 3: eval: \"duration_s\" must be > 0"},
};

TEST(EvalSpecFixtures, KnownBadSpecsFailWithPinnedMessages) {
  for (const auto& fc : kEvalFixtures) {
    SCOPED_TRACE(fc.file);
    const std::string text =
        read_file(std::string(ZHUGE_SPEC_FIXTURE_DIR) + "/" + fc.file);
    ASSERT_FALSE(text.empty());
    std::string err;
    const auto spec = parse_eval_spec(text, &err);
    EXPECT_FALSE(spec.has_value());
    EXPECT_EQ(err, fc.expected_error);
  }
}

TEST(EvalSpecFixtures, ShippedExampleSpecLoadsAndExpands) {
  std::string err;
  const auto spec = load_eval_spec(
      std::string(ZHUGE_SPEC_DIR) + "/eval_w1_dense.json", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const auto cells = expand_eval_matrix(*spec);
  EXPECT_FALSE(cells.empty());
  // The example narrows to W1 but keeps all mechanisms.
  for (const auto& c : cells) EXPECT_EQ(c.trace, trace::TraceKind::kRestaurantWifi);
  EXPECT_EQ(cells.size(), spec->mechanisms.size() * spec->ccas.size() *
                              spec->densities.size());
}

}  // namespace
}  // namespace zhuge::app
