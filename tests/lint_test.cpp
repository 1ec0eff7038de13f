// zlint rule-engine tests: every rule must trip on its known-bad fixture,
// suppression comments must silence it, and the layering DAG must reject
// back-edges. Fixtures live in tests/lint_fixtures/ and are analyzed
// in-process under pretend src/ paths (they are never compiled).

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "zlint.hpp"

namespace {

using zlint::Diagnostic;

std::string fixture(const std::string& name) {
  const std::string path = std::string(ZLINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<Diagnostic> lint_as(const std::string& rel_path,
                                const std::string& fixture_name) {
  return zlint::analyze_source(rel_path, fixture(fixture_name));
}

std::size_t count_rule(const std::vector<Diagnostic>& diags,
                       std::string_view rule) {
  return static_cast<std::size_t>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

bool any_message_contains(const std::vector<Diagnostic>& diags,
                          std::string_view needle) {
  return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.message.find(needle) != std::string::npos;
  });
}

TEST(ZlintMeta, TenRules) {
  const auto& names = zlint::rule_names();
  ASSERT_EQ(names.size(), 10u);
  for (const char* rule :
       {"banned-api", "determinism-hazard", "float-equality",
        "per-packet-deque", "include-layering", "rng-substream",
        "shared-mutable-state",
        "time-unit", "include-graph", "bad-suppression"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), rule), names.end())
        << "missing rule: " << rule;
  }
}

TEST(ZlintBannedApi, EveryBannedSymbolTrips) {
  const auto diags = lint_as("src/core/banned_api.cpp", "banned_api.cpp");
  for (const char* sym :
       {"srand", "'rand()'", "random_device", "system_clock", "steady_clock",
        "high_resolution_clock", "'time()'", "getenv"}) {
    EXPECT_TRUE(any_message_contains(diags, sym)) << "no diagnostic for " << sym;
  }
  // One per banned use: nothing extra from the member function named
  // time() or its call through an object.
  EXPECT_EQ(count_rule(diags, "banned-api"), 8u);
}

TEST(ZlintBannedApi, SuppressionsSilence) {
  const auto diags =
      lint_as("src/core/banned_api.cpp", "banned_api_suppressed.cpp");
  EXPECT_EQ(count_rule(diags, "banned-api"), 0u);
}

TEST(ZlintBannedApi, ToolsAndTestsExempt) {
  EXPECT_EQ(count_rule(lint_as("tools/probe.cpp", "banned_api.cpp"),
                       "banned-api"),
            0u);
  EXPECT_EQ(count_rule(lint_as("tests/probe_test.cpp", "banned_api.cpp"),
                       "banned-api"),
            0u);
  EXPECT_EQ(count_rule(lint_as("bench/fig99.cpp", "banned_api.cpp"),
                       "banned-api"),
            0u);
}

TEST(ZlintDeterminism, IterationTrips) {
  const auto diags =
      lint_as("src/app/determinism.cpp", "determinism_hazard.cpp");
  // Range-for over the unordered_map and the iterator walk over the
  // unordered_set; the point lookup stays silent.
  EXPECT_EQ(count_rule(diags, "determinism-hazard"), 2u);
  EXPECT_TRUE(any_message_contains(diags, "range-for"));
  EXPECT_TRUE(any_message_contains(diags, "iterator walk"));
}

TEST(ZlintDeterminism, SuppressionSilences) {
  const auto diags = lint_as("src/app/determinism.cpp",
                             "determinism_hazard_suppressed.cpp");
  EXPECT_EQ(count_rule(diags, "determinism-hazard"), 0u);
}

TEST(ZlintDeterminism, ObsLayerExempt) {
  // obs is presentation-only; its exporters may iterate however they like.
  const auto diags =
      lint_as("src/obs/determinism.cpp", "determinism_hazard.cpp");
  EXPECT_EQ(count_rule(diags, "determinism-hazard"), 0u);
}

TEST(ZlintFloatEquality, ExactComparisonsTrip) {
  const auto diags = lint_as("src/stats/float_eq.cpp", "float_equality.cpp");
  // Three floating comparisons; int and pointer comparisons stay silent.
  EXPECT_EQ(count_rule(diags, "float-equality"), 3u);
}

TEST(ZlintFloatEquality, SuppressionSilences) {
  const auto diags =
      lint_as("src/stats/float_eq.cpp", "float_equality_suppressed.cpp");
  EXPECT_EQ(count_rule(diags, "float-equality"), 0u);
}

TEST(ZlintPerPacketDeque, PacketPathLayersTrip) {
  for (const char* layer :
       {"net", "queue", "wireless", "transport", "core", "baseline"}) {
    const auto diags = lint_as(std::string("src/") + layer + "/q.hpp",
                               "per_packet_deque.cpp");
    // The return type, the member and the alias; not the non-std deque.
    EXPECT_EQ(count_rule(diags, "per-packet-deque"), 3u) << layer;
    EXPECT_TRUE(any_message_contains(diags, "sim::Ring")) << layer;
  }
}

TEST(ZlintPerPacketDeque, SuppressionSilences) {
  const auto diags =
      lint_as("src/queue/q.hpp", "per_packet_deque_suppressed.cpp");
  EXPECT_EQ(count_rule(diags, "per-packet-deque"), 0u);
}

TEST(ZlintPerPacketDeque, OtherLayersExempt) {
  for (const char* path : {"src/sim/q.hpp", "src/cca/q.hpp", "src/stats/q.hpp",
                           "src/app/q.cpp", "tests/q_test.cpp"}) {
    EXPECT_EQ(count_rule(lint_as(path, "per_packet_deque.cpp"), "per-packet-deque"),
              0u)
        << path;
  }
}

TEST(ZlintLayering, BackEdgesTrip) {
  const auto diags =
      lint_as("src/queue/layering_backedge.cpp", "layering_backedge.cpp");
  ASSERT_EQ(count_rule(diags, "include-layering"), 3u);
  EXPECT_TRUE(any_message_contains(diags, "core/zhuge.hpp"));
  EXPECT_TRUE(any_message_contains(diags, "app/scenario.hpp"));
  EXPECT_TRUE(any_message_contains(diags, "tests/"));
}

TEST(ZlintLayering, BinariesMayIncludeAnyLayer) {
  // The same includes are all legal from tools/ and bench/ (except the
  // tests/ include, which stays forbidden everywhere).
  const auto diags =
      lint_as("tools/layering_backedge.cpp", "layering_backedge.cpp");
  EXPECT_EQ(count_rule(diags, "include-layering"), 1u);
  EXPECT_TRUE(any_message_contains(diags, "tests/"));
}

TEST(ZlintLayering, DagSpotChecks) {
  // Downward edges.
  EXPECT_TRUE(zlint::layer_edge_allowed("app", "core"));
  EXPECT_TRUE(zlint::layer_edge_allowed("core", "queue"));
  EXPECT_TRUE(zlint::layer_edge_allowed("transport", "cca"));
  EXPECT_TRUE(zlint::layer_edge_allowed("queue", "obs"));
  EXPECT_TRUE(zlint::layer_edge_allowed("wireless", "trace"));
  // Own layer.
  EXPECT_TRUE(zlint::layer_edge_allowed("sim", "sim"));
  // Back-edges / upward skips.
  EXPECT_FALSE(zlint::layer_edge_allowed("core", "app"));
  EXPECT_FALSE(zlint::layer_edge_allowed("sim", "net"));
  EXPECT_FALSE(zlint::layer_edge_allowed("obs", "queue"));
  EXPECT_FALSE(zlint::layer_edge_allowed("queue", "core"));
  EXPECT_FALSE(zlint::layer_edge_allowed("cca", "transport"));
  EXPECT_FALSE(zlint::layer_edge_allowed("net", "queue"));
  // Binaries sit above everything; nothing may reach into them.
  EXPECT_TRUE(zlint::layer_edge_allowed("tools", "app"));
  EXPECT_TRUE(zlint::layer_edge_allowed("tests", "app"));
  EXPECT_FALSE(zlint::layer_edge_allowed("app", "tools"));
  EXPECT_FALSE(zlint::layer_edge_allowed("tools", "tests"));
}

TEST(ZlintClean, CleanFileIsSilent) {
  for (const char* path :
       {"src/app/clean.cpp", "src/sim/clean.cpp", "src/queue/clean.cpp"}) {
    const auto diags = lint_as(path, "clean.cpp");
    EXPECT_TRUE(diags.empty())
        << path << ": " << (diags.empty() ? "" : zlint::to_string(diags[0]));
  }
}

TEST(ZlintFormat, DiagnosticToString) {
  const Diagnostic d{"src/app/x.cpp", 12, "banned-api", "msg"};
  EXPECT_EQ(zlint::to_string(d), "src/app/x.cpp:12: banned-api: msg");
}

// ---------------------------------------------------------------------------
// Suppression grammar: own-line comments cover the whole next statement.
// ---------------------------------------------------------------------------

TEST(ZlintSuppression, OwnLineCoversMultiLineStatement) {
  // Both `==` tokens live on different lines of one statement; the single
  // own-line suppression above it must silence them all.
  const auto diags =
      lint_as("src/stats/multi.cpp", "suppressed_multiline.cpp");
  EXPECT_EQ(count_rule(diags, "float-equality"), 0u)
      << zlint::to_string(diags.front());
}

TEST(ZlintSuppression, WithoutCommentTheSameStatementTrips) {
  // Control: strip the zlint-allow line and both comparisons must fire,
  // proving the fixture actually exercises continuation-line coverage.
  std::string text = fixture("suppressed_multiline.cpp");
  const auto at = text.find("  // zlint-allow");
  ASSERT_NE(at, std::string::npos);
  const auto eol = text.find('\n', at);
  text.erase(at, eol - at + 1);
  const auto diags = zlint::analyze_source("src/stats/multi.cpp", text);
  EXPECT_EQ(count_rule(diags, "float-equality"), 2u);
}

// ---------------------------------------------------------------------------
// Project mode (phase 1 + 2 in-process).
// ---------------------------------------------------------------------------

using zlint::ProjectFile;

std::vector<Diagnostic> lint_project(
    const std::vector<std::pair<std::string, std::string>>& path_fixture,
    const std::vector<ProjectFile>& extra = {}) {
  std::vector<ProjectFile> files;
  for (const auto& [rel, fix] : path_fixture) files.push_back({rel, fixture(fix)});
  files.insert(files.end(), extra.begin(), extra.end());
  return zlint::analyze_project(files);
}

TEST(ZlintRngSubstream, RawLiteralsTrip) {
  const auto diags = lint_project(
      {{"src/trace/rng_raw.cpp", "substream_raw_literal.cpp"}});
  // Declaration form and make_unique form.
  EXPECT_EQ(count_rule(diags, "rng-substream"), 2u);
  EXPECT_TRUE(any_message_contains(diags, "raw integer literal 42"));
  EXPECT_TRUE(any_message_contains(diags, "raw integer literal 43"));
}

TEST(ZlintRngSubstream, RegisteredConstantsAreClean) {
  const auto diags = lint_project(
      {{"src/sim/substreams.hpp", "substreams_ok.hpp"},
       {"src/trace/rng_clean.cpp", "substream_clean.cpp"}});
  EXPECT_EQ(count_rule(diags, "rng-substream"), 0u)
      << zlint::to_string(diags.front());
  EXPECT_EQ(count_rule(diags, "include-graph"), 0u);
}

TEST(ZlintRngSubstream, RegistryCollisionTrips) {
  const auto diags = lint_project(
      {{"src/sim/substreams.hpp", "substreams_collision.hpp"}},
      {{"src/sim/collision_tu.cpp", "#include \"sim/substreams.hpp\"\n"}});
  ASSERT_EQ(count_rule(diags, "rng-substream"), 1u);
  EXPECT_TRUE(any_message_contains(diags, "substream collision"));
  EXPECT_TRUE(any_message_contains(diags, "kDemoChurn"));
  EXPECT_TRUE(any_message_contains(diags, "kDemoTrace"));
}

TEST(ZlintRngSubstream, UnknownConstantTripsOnlyWithRegistry) {
  const ProjectFile use{
      "src/trace/rng_unknown.cpp",
      "#include \"sim/substreams.hpp\"\n"
      "namespace zhuge::trace {\n"
      "inline double f(unsigned long long seed) {\n"
      "  sim::Rng rng(seed, sim::substreams::kNotRegistered);\n"
      "  return rng.next_double();\n"
      "}\n"
      "}  // namespace zhuge::trace\n"};
  const auto with_registry =
      lint_project({{"src/sim/substreams.hpp", "substreams_ok.hpp"}}, {use});
  EXPECT_EQ(count_rule(with_registry, "rng-substream"), 1u);
  EXPECT_TRUE(any_message_contains(with_registry, "kNotRegistered"));
  // Without a registry in the scanned set there is nothing to check names
  // against — named expressions pass (single-file sets stay usable).
  const auto without_registry = zlint::analyze_project({use});
  EXPECT_EQ(count_rule(without_registry, "rng-substream"), 0u);
}

TEST(ZlintSharedMutable, GlobalsAndStaticLocalsTrip) {
  const auto diags =
      lint_project({{"src/core/globals.cpp", "mutable_global.cpp"}});
  ASSERT_EQ(count_rule(diags, "shared-mutable-state"), 2u);
  EXPECT_TRUE(any_message_contains(diags, "g_packets_seen"));
  EXPECT_TRUE(any_message_contains(diags, "non-const static local 'calls'"));
}

TEST(ZlintSharedMutable, ConstantsAndLocalsAreClean) {
  const auto diags =
      lint_project({{"src/core/globals.cpp", "mutable_global_clean.cpp"}});
  EXPECT_EQ(count_rule(diags, "shared-mutable-state"), 0u)
      << zlint::to_string(diags.front());
}

TEST(ZlintTimeUnit, MixedUnitsAndFloatNsTrip) {
  const auto diags =
      lint_project({{"src/net/budget.cpp", "time_unit_mix.cpp"}});
  // budget_s - rtt_ms, `double total_ns`, total_ns += step_ns.
  ASSERT_EQ(count_rule(diags, "time-unit"), 3u);
  EXPECT_TRUE(any_message_contains(diags, "mixed time units"));
  EXPECT_TRUE(any_message_contains(diags, "stores nanoseconds in double"));
  EXPECT_TRUE(any_message_contains(diags, "accumulates nanosecond value"));
}

TEST(ZlintTimeUnit, SameUnitsAndConversionsAreClean) {
  const auto diags =
      lint_project({{"src/net/budget.cpp", "time_unit_clean.cpp"}});
  EXPECT_EQ(count_rule(diags, "time-unit"), 0u)
      << zlint::to_string(diags.front());
}

TEST(ZlintTimeUnit, StatsLayerMayAccumulateInDoubles) {
  // The same float-accumulation fixture is legal under stats/ (summary
  // statistics legitimately live in doubles); the ident-mix still trips.
  const auto diags =
      lint_project({{"src/stats/budget.cpp", "time_unit_mix.cpp"}});
  EXPECT_EQ(count_rule(diags, "time-unit"), 1u);
  EXPECT_TRUE(any_message_contains(diags, "mixed time units"));
}

TEST(ZlintIncludeGraph, CycleTrips) {
  const auto diags = lint_project(
      {{"src/net/cycle_a.hpp", "include_cycle_a.hpp"},
       {"src/net/cycle_b.hpp", "include_cycle_b.hpp"}},
      {{"src/net/cycle_tu.cpp", "#include \"net/cycle_a.hpp\"\n"}});
  ASSERT_EQ(count_rule(diags, "include-graph"), 1u);
  EXPECT_TRUE(any_message_contains(diags, "include cycle"));
  EXPECT_TRUE(any_message_contains(diags, "src/net/cycle_a.hpp"));
  EXPECT_TRUE(any_message_contains(diags, "src/net/cycle_b.hpp"));
}

TEST(ZlintIncludeGraph, OrphanHeaderTrips) {
  const auto diags = lint_project(
      {{"src/net/orphan.hpp", "orphan.hpp"},
       {"src/net/leaf.hpp", "transitive_leaf.hpp"}},
      {{"src/net/user_tu.cpp", "#include \"net/leaf.hpp\"\n"}});
  ASSERT_EQ(count_rule(diags, "include-graph"), 1u);
  EXPECT_EQ(diags.front().path, "src/net/orphan.hpp");
  EXPECT_TRUE(any_message_contains(diags, "unreachable"));
}

TEST(ZlintIncludeGraph, TransitiveLayerViolationTrips) {
  // rtc -> stats is legal, stats -> net is locally suppressed; only the
  // project pass can tell rtc that it now transitively reaches net.
  const auto diags = lint_project(
      {{"src/rtc/user.hpp", "transitive_user.hpp"},
       {"src/stats/mid.hpp", "transitive_mid.hpp"},
       {"src/net/leaf.hpp", "transitive_leaf.hpp"}},
      // TUs live in tests/ (layer-exempt) so the only transitive finding
      // is the header's own.
      {{"tests/user_tu.cpp", "#include \"rtc/user.hpp\"\n"},
       {"tests/leaf_tu.cpp", "#include \"net/leaf.hpp\"\n"}});
  EXPECT_EQ(count_rule(diags, "include-layering"), 0u);  // suppressed in mid
  ASSERT_EQ(count_rule(diags, "include-graph"), 1u);
  const auto& d = diags.front();
  EXPECT_EQ(d.path, "src/rtc/user.hpp");
  EXPECT_TRUE(any_message_contains(diags, "transitively includes"));
  EXPECT_TRUE(any_message_contains(
      diags, "src/rtc/user.hpp -> src/stats/mid.hpp -> src/net/leaf.hpp"));
}

TEST(ZlintBadSuppression, ReasonlessAllowTripsInProjectMode) {
  const auto diags = lint_project(
      {{"src/stats/loose.cpp", "bad_suppression.cpp"}});
  // The float-equality is still silenced; the reasonless clause itself is
  // the diagnostic.
  EXPECT_EQ(count_rule(diags, "float-equality"), 0u);
  ASSERT_EQ(count_rule(diags, "bad-suppression"), 1u);
  EXPECT_TRUE(any_message_contains(diags, "without a reason"));
}

TEST(ZlintFacts, ExtractorSeesRegistryAndUses) {
  const auto facts = zlint::extract_facts(
      "src/sim/substreams.hpp", fixture("substreams_ok.hpp"));
  ASSERT_EQ(facts.stream_defs.size(), 2u);
  EXPECT_EQ(facts.stream_defs[0].name, "kDemoTrace");
  EXPECT_EQ(facts.stream_defs[0].value, 9);
  EXPECT_EQ(facts.stream_defs[1].name, "kDemoMedium");
  EXPECT_EQ(facts.stream_defs[1].value, 17);

  const auto uses = zlint::extract_facts("src/trace/rng_clean.cpp",
                                         fixture("substream_clean.cpp"));
  ASSERT_EQ(uses.rng_uses.size(), 2u);
  EXPECT_EQ(uses.rng_uses[0].arg, "kDemoTrace");
  EXPECT_FALSE(uses.rng_uses[0].is_literal);
  EXPECT_EQ(uses.layer, "trace");
  EXPECT_TRUE(uses.in_src);
  EXPECT_FALSE(uses.is_header);
}

TEST(ZlintProject, RealTreeShapedSetIsClean) {
  // A miniature project shaped like the real tree: registry + a TU drawing
  // from it + the chain headers all reachable. No diagnostics at all.
  const auto diags = lint_project(
      {{"src/sim/substreams.hpp", "substreams_ok.hpp"},
       {"src/trace/rng_clean.cpp", "substream_clean.cpp"},
       {"src/net/leaf.hpp", "transitive_leaf.hpp"},
       {"src/core/globals.cpp", "mutable_global_clean.cpp"},
       {"src/net/budget.cpp", "time_unit_clean.cpp"}},
      {{"src/net/leaf_tu.cpp", "#include \"net/leaf.hpp\"\n"}});
  EXPECT_TRUE(diags.empty()) << zlint::to_string(diags.front());
}

}  // namespace
