// Tests for the declarative scenario-spec layer: the minimal JSON
// parser/serialiser, spec validation, the canonical spec writer (every
// spec the repo builds round-trips), and the deterministic flow-schedule
// expansion (draw-stability under max_concurrent skips included).

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "app/chaos.hpp"
#include "app/eval.hpp"
#include "app/golden.hpp"
#include "app/spec.hpp"
#include "prop.hpp"

namespace zhuge::app {
namespace {

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  std::string err;
  const auto j = Json::parse(
      R"({"a": 1.5, "b": [true, null, "x\n"], "c": {"d": -3}})", &err);
  ASSERT_TRUE(j.has_value()) << err;
  EXPECT_DOUBLE_EQ(j->find("a")->number_or(0), 1.5);
  const auto& arr = j->find("b")->array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].bool_or(false));
  EXPECT_EQ(arr[1].kind(), Json::Kind::kNull);
  EXPECT_EQ(arr[2].string_or(""), "x\n");
  EXPECT_DOUBLE_EQ(j->find("c")->find("d")->number_or(0), -3.0);
  EXPECT_EQ(j->find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInputWithLineNumbers) {
  // Past the nesting limit: rejected, not a stack overflow.
  const std::string deep = std::string(200000, '[') + std::string(200000, ']');
  const std::vector<std::string> malformed = {
      "{", "[1,]", "{\"a\" 1}", "tru", "\"unterminated", "{\"a\":1} extra", "01",
      // Raw control characters, bad \u escapes and lone surrogates.
      "\"raw\ttab\"", "\"raw\x01\"", "\"\\u00g1\"", "\"\\u12\"", "\"\\ud800\"",
      "\"\\udc00\"", "\"\\ud800\\u0041\"", "\"\\x\"", deep};
  for (const std::string& bad : malformed) {
    std::string err;
    EXPECT_FALSE(Json::parse(bad, &err).has_value()) << bad.substr(0, 40);
    EXPECT_FALSE(err.empty()) << bad.substr(0, 40);
  }
  std::string err;
  EXPECT_FALSE(Json::parse("{\n  \"a\": 1,\n  !\n}", &err).has_value());
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

TEST(Json, DumpParseRoundTrip) {
  Json doc = Json::make_object();
  doc.set("name", Json::make_string("round \"trip\"\n"));
  doc.set("value", Json::make_number(0.1));
  doc.set("count", Json::make_number(48));
  Json arr = Json::make_array();
  arr.push(Json::make_bool(true));
  arr.push(Json::make_number(-2.5e-9));
  doc.set("items", std::move(arr));
  // Every control character is escaped, so the dump is valid JSON.
  const std::string controls("tab\bname\f\x01\x1f\0end", 15);
  doc.set("controls", Json::make_string(controls));

  for (const int indent : {0, 2}) {
    std::string err;
    const std::string text = doc.dump(indent);
    for (const char c : text) {
      if (c != '\n') {
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << text;
      }
    }
    const auto back = Json::parse(text, &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->find("name")->string_or(""), "round \"trip\"\n");
    EXPECT_EQ(back->find("controls")->string_or(""), controls);
    EXPECT_DOUBLE_EQ(back->find("value")->number_or(0), 0.1);
    EXPECT_DOUBLE_EQ(back->find("count")->number_or(0), 48.0);
    EXPECT_DOUBLE_EQ(back->find("items")->array()[1].number_or(0), -2.5e-9);
  }

  // \uXXXX escapes decode to UTF-8, surrogate pairs included.
  std::string err;
  const auto escaped =
      Json::parse(R"("\u0041\u00e9\u20AC\ud83d\ude00\u0000")", &err);
  ASSERT_TRUE(escaped.has_value()) << err;
  EXPECT_EQ(escaped->string_or(""),
            std::string("A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\0", 11));
}

TEST(Json, RandomDoublesSurviveRoundTrip) {
  prop::for_all({.iterations = 100}, [](sim::Rng& rng, int) {
    const double v = rng.uniform(-1e12, 1e12) *
                     (rng.chance(0.5) ? 1.0 : 1e-9);
    Json doc = Json::make_object();
    doc.set("v", Json::make_number(v));
    std::string err;
    const auto back = Json::parse(doc.dump(), &err);
    ASSERT_TRUE(back.has_value()) << err;
    // %.17g + from_chars must round-trip doubles bit-exactly.
    EXPECT_EQ(back->find("v")->number_or(0), v);
  });
}

TEST(Json, NonFiniteNumbersDumpAsNullAndParseBack) {
  // JSON has no NaN or Inf: they are written as null (the cast the
  // integer rendering uses would be undefined on them), so every dump
  // parses again.
  Json doc = Json::make_object();
  doc.set("nan", Json::make_number(std::numeric_limits<double>::quiet_NaN()));
  doc.set("inf", Json::make_number(std::numeric_limits<double>::infinity()));
  doc.set("ninf", Json::make_number(-std::numeric_limits<double>::infinity()));
  doc.set("big", Json::make_number(1e300));
  for (const int indent : {0, 2}) {
    const std::string text = doc.dump(indent);
    std::string err;
    const auto back = Json::parse(text, &err);
    ASSERT_TRUE(back.has_value()) << err << "\n" << text;
    EXPECT_EQ(back->find("nan")->kind(), Json::Kind::kNull);
    EXPECT_EQ(back->find("inf")->kind(), Json::Kind::kNull);
    EXPECT_EQ(back->find("ninf")->kind(), Json::Kind::kNull);
    EXPECT_EQ(back->find("big")->number_or(0), 1e300);
  }
}

TEST(Json, StrictIntegersRejectFractionsAndOutOfRange) {
  const auto read = [](const char* text, auto& out) {
    std::string err;
    const auto j = Json::parse(text, &err);
    EXPECT_TRUE(j.has_value()) << err;
    SpecReader r("t", &err);
    return r.integer(*j, "k", out);
  };
  std::uint64_t u = 0;
  int i = 0;
  EXPECT_TRUE(read("18446744073709549568", u));  // largest double below 2^64
  EXPECT_FALSE(read("18446744073709551616", u));  // 2^64
  EXPECT_FALSE(read("-1", u));
  EXPECT_FALSE(read("2.5", u));
  EXPECT_TRUE(read("-2147483648", i));
  EXPECT_EQ(i, -2147483648);
  EXPECT_FALSE(read("2147483648", i));
  EXPECT_FALSE(read("7.9", i));
  EXPECT_TRUE(read("1e3", i));
  EXPECT_EQ(i, 1000);
}

// ---------------------------------------------------------------------------
// ScenarioSpec parsing
// ---------------------------------------------------------------------------

constexpr const char* kMinimalSpec = R"({
  "name": "t",
  "duration_s": 10,
  "stations": [ { "count": 3, "mcs": 5 } ],
  "flows": [ { "kind": "rtp_gcc", "station": 2, "zhuge": true } ]
})";

TEST(ScenarioSpecParse, MinimalSpec) {
  std::string err;
  const auto spec = parse_scenario_spec(kMinimalSpec, &err);
  ASSERT_TRUE(spec.has_value()) << err;
  EXPECT_EQ(spec->name, "t");
  EXPECT_EQ(spec->station_count(), 3);
  EXPECT_EQ(spec->station_group(2).mcs, 5);
  ASSERT_EQ(spec->flows.size(), 1u);
  EXPECT_EQ(spec->flows[0].kind, SpecFlowKind::kRtpGcc);
  EXPECT_TRUE(spec->flows[0].zhuge);
  EXPECT_FALSE(spec->churn.enabled);
}

TEST(ScenarioSpecParse, RejectsStructuralErrors) {
  const char* bad[] = {
      R"({"stations": []})",                                    // no stations
      R"({"stations": [{"count": 0}]})",                        // bad count
      R"({"stations": [{"mcs": 9}]})",                          // bad MCS
      R"({"stations": [{}], "flows": [{"station": 5}]})",       // OOB station
      R"({"stations": [{}], "flows": [{"kind": "quic"}]})",     // bad kind
      R"({"stations": [{"qdisc": "red"}]})",                    // bad qdisc
      R"({"stations": [{}], "ap_mode": "turbo"})",              // bad mode
      R"({"stations": [{}], "duration_s": 0})",                 // bad duration
      R"({"stations": [{}], "warmup_s": 99})",                  // warmup >= dur
      R"({"stations": [{}], "churn": {"enabled": true,
          "mix_rtp_gcc": 0, "mix_tcp_cubic": 0, "mix_tcp_bbr": 0}})",
  };
  for (const char* text : bad) {
    std::string err;
    EXPECT_FALSE(parse_scenario_spec(text, &err).has_value()) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
}

TEST(ScenarioSpecParse, UnknownKeysRejectedAtEveryLevel) {
  // A typo anywhere would silently run a default scenario, so no level
  // ignores unknown keys: top level, stations, flows, churn, faults and
  // the trace object all fail with the offending key named.
  const char* bad[] = {
      R"({"stations": [{}], "new_top": {}})",
      R"({"stations": [{"count": 1, "future_knob": 3}]})",
      R"({"stations": [{"fade": {"period_s": 2, "dept_mcs": 1}}]})",
      R"({"stations": [{"trace": {"class": "W1", "sed": 3}}]})",
      R"({"stations": [{}], "flows": [{"station": 0, "fsp": 24}]})",
      R"({"stations": [{}], "churn": {"mix_rtp": 1}})",
      R"({"stations": [{}], "faults": {"uplink_wan": {"fade": 60}}})",
      R"({"stations": [{}], "faults": {"clock_jumps": [{"at": 1}]}})",
  };
  for (const char* text : bad) {
    std::string err;
    EXPECT_FALSE(parse_scenario_spec(text, &err).has_value()) << text;
    EXPECT_NE(err.find("unknown key"), std::string::npos) << err;
  }
}

TEST(ScenarioSpecParse, FigureKeysRoundTripIntoTheSpec) {
  std::string err;
  const auto spec = parse_scenario_spec(R"({
    "duration_s": 40, "interferers": 5, "mcs_reroll": true, "series": true,
    "zhuge_initial_ladder": "hold_only",
    "stations": [
      { "link": "cellular", "trace": { "class": "C1", "seed": 13 } },
      { "trace": { "mbps": 30, "to_mbps": 3, "at_s": 20 },
        "queue_limit_pkts": 100 }
    ],
    "flows": [
      { "kind": "tcp_copa", "station": 0, "zhuge": true },
      { "kind": "tcp_bulk", "station": 1, "onoff": true }
    ],
    "faults": {
      "downlink_wan": { "burst": { "p_enter_bad": 0.02, "loss_bad": 0.5 },
                        "start_s": 10, "end_s": 13 },
      "downlink_wireless": { "blackouts": [[10, 11.5]] },
      "uplink_wan": { "fade_delay_ms": 60, "fades": [[10, 13]] },
      "clock_jumps": [ { "at_s": 10.5, "delta_ms": 300 } ],
      "ap_restarts_s": [ 11 ]
    }
  })", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  EXPECT_EQ(spec->interferers, 5);
  EXPECT_TRUE(spec->mcs_reroll);
  EXPECT_TRUE(spec->series);
  EXPECT_EQ(spec->zhuge.watchdog.initial_level, obs::LadderLevel::kHoldOnly);
  EXPECT_EQ(spec->stations[0].link, LinkKind::kCellular);
  EXPECT_EQ(spec->stations[0].trace_class, trace::TraceKind::kIndoorMixed45G);
  EXPECT_EQ(spec->stations[0].trace_seed, 13u);
  EXPECT_DOUBLE_EQ(spec->stations[1].rate_trace.to_mbps, 3.0);
  EXPECT_DOUBLE_EQ(spec->stations[1].rate_trace.at_s, 20.0);
  EXPECT_EQ(spec->stations[1].queue_limit_bytes, 100 * 1500);
  EXPECT_EQ(spec->flows[0].kind, SpecFlowKind::kTcpCopa);
  EXPECT_EQ(spec->flows[1].kind, SpecFlowKind::kTcpBulk);
  EXPECT_TRUE(spec->flows[1].onoff);
  ASSERT_NE(spec->faults, nullptr);
  const fault::FaultPlan& plan = *spec->faults;
  EXPECT_DOUBLE_EQ(plan.downlink_wan.burst.p_enter_bad, 0.02);
  ASSERT_EQ(plan.downlink_wan.active.size(), 1u);
  ASSERT_EQ(plan.downlink_wireless.blackouts.size(), 1u);
  EXPECT_TRUE(plan.uplink_wan.any());
  ASSERT_EQ(plan.clock_jumps.size(), 1u);
  EXPECT_EQ(plan.clock_jumps[0].delta, sim::Duration::millis(300));
  ASSERT_EQ(plan.ap_restarts.size(), 1u);
  EXPECT_FALSE(plan.downlink_wan.only_feedback);
}

TEST(ScenarioSpecParse, RejectsBadFigureValues) {
  const char* bad[] = {
      R"({"stations": [{"trace": {"class": "W1", "mbps": 5}}]})",  // two shapes
      R"({"stations": [{"trace": {"mbps": 30, "at_s": 20}}]})",    // half a step
      R"({"stations": [{"trace": {"mbps": -1}}]})",
      R"({"stations": [{}], "interferers": -1})",
      R"({"stations": [{}], "series": 1})",
      R"({"stations": [{}], "flows": [{"kind": "rtp_gcc", "onoff": true}]})",
      R"({"stations": [{}], "flows": [{"kind": "tcp_bulk", "onoff": 30}]})",
      R"({"stations": [{}], "mcs_reroll": 30})",
      R"({"stations": [{}], "faults": {"ap_restarts_s": [-1]}})",
      R"({"stations": [{}], "faults": {"uplink_wan": {"fades": [[3, 2]]}}})",
  };
  for (const char* text : bad) {
    std::string err;
    EXPECT_FALSE(parse_scenario_spec(text, &err).has_value()) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
}

// ---------------------------------------------------------------------------
// write_scenario_spec
// ---------------------------------------------------------------------------

/// Writing `spec` and parsing the text gives `spec` back, and writing that
/// gives the same bytes.
void expect_round_trip(const ScenarioSpec& spec) {
  std::string err;
  const auto doc = write_scenario_spec(spec, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const std::string text = doc->dump(2);
  const auto back = parse_scenario_spec(text, &err);
  ASSERT_TRUE(back.has_value()) << err << "\n" << text;
  EXPECT_TRUE(*back == spec) << text;
  const auto again = write_scenario_spec(*back, &err);
  ASSERT_TRUE(again.has_value()) << err;
  EXPECT_EQ(again->dump(2), text);
}

TEST(SpecWriter, EverySpecTheRepoBuildsRoundTrips) {
  int goldens = 0;
  for (const std::string& name : golden_names()) {
    if (const auto spec = golden_scenario_spec(name)) {
      SCOPED_TRACE(name);
      expect_round_trip(*spec);
      ++goldens;
    }
  }
  EXPECT_EQ(goldens, 3);

  const std::vector<ChaosCase> suite = chaos_suite(1);
  ASSERT_EQ(suite.size(), 31u);
  for (const ChaosCase& c : suite) {
    SCOPED_TRACE(c.name);
    ASSERT_NE(c.spec.faults, nullptr);
    expect_round_trip(c.spec);
  }

  const std::vector<EvalCellSpec> cells = expand_eval_matrix(EvalSpec{});
  ASSERT_EQ(cells.size(), 120u);
  for (const EvalCellSpec& c : cells) {
    SCOPED_TRACE(c.name);
    expect_round_trip(c.scenario);
  }

  // Every shipped scenario spec (the eval_* files are EvalSpecs).
  int files = 0;
  for (const char* dir : {ZHUGE_SPEC_DIR, ZHUGE_PERFBENCH_SPEC_DIR}) {
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      const std::string file = e.path().filename().string();
      if (e.path().extension() != ".json" || file.rfind("eval_", 0) == 0) {
        continue;
      }
      SCOPED_TRACE(file);
      std::string err;
      const auto spec = load_scenario_spec(e.path().string(), &err);
      ASSERT_TRUE(spec.has_value()) << err;
      expect_round_trip(*spec);
      ++files;
    }
  }
  EXPECT_EQ(files, 5);
}

TEST(SpecWriter, RefusesWhatNoKeyExpresses) {
  ScenarioSpec spec = golden_scenario_spec("rtp_zhuge_single").value();
  std::string err;
  // The ladder level has a key ("zhuge_initial_ladder") ...
  spec.zhuge.watchdog.initial_level = obs::LadderLevel::kHoldOnly;
  expect_round_trip(spec);
  // ... the ablation switches of `figures ablation` do not.
  ScenarioSpec ablated = spec;
  ablated.zhuge.fortune.use_qshort = false;
  EXPECT_FALSE(write_scenario_spec(ablated, &err).has_value());
  EXPECT_EQ(err, "spec \"rtp_zhuge_single\" has a value no key can express");
  // Nor do a second active window and a forced only_feedback.
  fault::FaultPlan plan;
  plan.uplink_wan.loss_prob = 0.1;
  plan.uplink_wan.active = {{sim::TimePoint(0), sim::TimePoint(1'000'000'000)},
                            {sim::TimePoint(2'000'000'000),
                             sim::TimePoint(3'000'000'000)}};
  spec.faults = std::make_shared<const fault::FaultPlan>(plan);
  EXPECT_FALSE(write_scenario_spec(spec, &err).has_value());
  plan.uplink_wan.active.resize(1);
  spec.faults = std::make_shared<const fault::FaultPlan>(plan);
  expect_round_trip(spec);
  plan.ap_feedback.only_feedback = true;
  spec.faults = std::make_shared<const fault::FaultPlan>(plan);
  EXPECT_FALSE(write_scenario_spec(spec, &err).has_value());
}

// ---------------------------------------------------------------------------
// expand_flow_schedule
// ---------------------------------------------------------------------------

ScenarioSpec churn_spec() {
  ScenarioSpec spec;
  spec.duration_s = 40.0;
  spec.warmup_s = 2.0;
  spec.stations.push_back(StationGroupSpec{.count = 8});
  SpecFlow f;
  f.kind = SpecFlowKind::kTcpCubic;
  spec.flows.push_back(f);
  spec.churn.enabled = true;
  spec.churn.mean_interarrival_s = 0.5;
  spec.churn.mean_lifetime_s = 5.0;
  spec.churn.max_concurrent = 6;
  spec.churn.mix_rtp_gcc = 0.5;
  spec.churn.mix_tcp_cubic = 0.3;
  spec.churn.mix_tcp_bbr = 0.2;
  spec.churn.zhuge_fraction = 0.5;
  return spec;
}

TEST(FlowSchedule, DeterministicAndSeedSensitive) {
  const ScenarioSpec spec = churn_spec();
  const auto a = expand_flow_schedule(spec, 3);
  const auto b = expand_flow_schedule(spec, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].station, b[i].station);
    EXPECT_EQ(a[i].zhuge, b[i].zhuge);
    EXPECT_EQ(a[i].start_s, b[i].start_s);
    EXPECT_EQ(a[i].stop_s, b[i].stop_s);
  }
  const auto c = expand_flow_schedule(spec, 4);
  EXPECT_NE(a.size(), 1u);  // churn actually produced arrivals
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].start_s != c[i].start_s;
  }
  EXPECT_TRUE(differs) << "seed change produced an identical schedule";
}

TEST(FlowSchedule, RespectsInvariants) {
  const ScenarioSpec spec = churn_spec();
  prop::for_all({.iterations = 25}, [&spec](sim::Rng& rng, int) {
    const std::uint64_t seed = rng.next_u32();
    const auto schedule = expand_flow_schedule(spec, seed);
    ASSERT_FALSE(schedule.empty());
    std::set<std::uint32_t> indices;
    for (const auto& ev : schedule) {
      EXPECT_TRUE(indices.insert(ev.index).second) << "duplicate index";
      EXPECT_GE(ev.start_s, 0.0);
      EXPECT_GT(ev.stop_s, ev.start_s);
      EXPECT_LE(ev.stop_s, spec.duration_s);
      EXPECT_GE(ev.station, 0);
      EXPECT_LT(ev.station, spec.station_count());
      if (ev.kind != SpecFlowKind::kRtpGcc) {
        EXPECT_FALSE(ev.zhuge);
      }
    }
    // max_concurrent: at every arrival instant, the number of admitted
    // flows whose window contains it stays within the cap (+1: the
    // static flow is not subject to the churn cap).
    for (const auto& ev : schedule) {
      int live = 0;
      for (const auto& other : schedule) {
        if (other.start_s <= ev.start_s && ev.start_s < other.stop_s) ++live;
      }
      EXPECT_LE(live, spec.churn.max_concurrent + 1)
          << "cap violated at t=" << ev.start_s;
    }
  });
}

TEST(FlowSchedule, StaticFlowsComeFirstAndClampToRun) {
  ScenarioSpec spec;
  spec.duration_s = 10.0;
  spec.stations.push_back(StationGroupSpec{.count = 1});
  SpecFlow f;
  f.start_s = 2.0;
  f.stop_s = 99.0;  // clamps to duration
  spec.flows.push_back(f);
  SpecFlow g;
  g.start_s = 4.0;
  g.stop_s = 6.0;
  spec.flows.push_back(g);
  const auto schedule = expand_flow_schedule(spec, 1);
  ASSERT_EQ(schedule.size(), 2u);
  EXPECT_EQ(schedule[0].index, 0u);
  EXPECT_DOUBLE_EQ(schedule[0].start_s, 2.0);
  EXPECT_DOUBLE_EQ(schedule[0].stop_s, 10.0);
  EXPECT_DOUBLE_EQ(schedule[1].stop_s, 6.0);
}

// ---------------------------------------------------------------------------
// Known-bad fixtures: one file per strict-validation rejection path
// ---------------------------------------------------------------------------

// Every spec object is validated strictly (a typo would silently run a
// default scenario while claiming to run the one asked for), so each
// rejection path gets a checked-in fixture pinning both the message and
// the "line N:" source anchor a user needs to find the mistake.
TEST(ScenarioSpecParse, KnownBadFixturesRejectWithLineNumbers) {
  struct Case {
    const char* file;
    const char* expect;  ///< full parse error, line prefix included
  };
  const Case cases[] = {
      {"fault_unknown_key.json",
       "line 6: faults.ap_feedback: unknown key \"los_prob\""},
      {"fault_value_not_number.json",
       "line 6: faults.ap_feedback: \"loss_prob\" must be a number"},
      {"fault_prob_out_of_range.json",
       "line 6: faults.uplink_rtcp: \"loss_prob\" must be in [0, 1]"},
      {"fault_negative_delay.json",
       "line 6: faults.ap_feedback: \"spike_delay_ms\" must be >= 0"},
      {"fault_negative_start.json",
       "line 6: faults.uplink_rtcp: \"start_s\" must be >= 0"},
      {"fault_window_inverted.json",
       "line 6: faults.uplink_rtcp: \"end_s\" must be > start_s"},
      {"fault_unknown_boundary.json",
       "line 6: faults: unknown key \"client_rtcp\""},
      {"fault_section_not_object.json", "line 5: faults: must be an object"},
      {"fault_boundary_not_object.json",
       "line 6: faults.ap_feedback: must be an object"},
      {"fault_burst_unknown_key.json",
       "line 6: faults.downlink_wan.burst: unknown key \"p_enter\""},
      {"top_unknown_key.json", "line 4: unknown key \"ap_mod\""},
      {"station_unknown_key.json", "line 6: stations[1]: unknown key \"qdsic\""},
      {"station_value_not_number.json",
       "line 5: stations[0]: \"mcs\" must be a number"},
      {"link_unknown_kind.json",
       "line 5: stations[0]: link must be wifi|cellular"},
      {"station_trace_unknown_key.json",
       "line 5: stations[0].trace: unknown key \"at\""},
      {"flow_unknown_key.json", "line 6: flows[0]: unknown key \"zhgue\""},
      {"churn_unknown_key.json", "line 7: churn: unknown key \"mean_lifetme_s\""},
      {"top_seed_negative.json", "line 3: \"seed\" must be an integer in range"},
      {"station_count_fractional.json",
       "line 4: stations[0]: \"count\" must be an integer in range"},
      {"station_mcs_fractional.json",
       "line 4: stations[0]: \"mcs\" must be an integer in range"},
      {"ladder_unknown_level.json",
       "line 5: zhuge_initial_ladder must be "
       "full|clamped_predict|hold_only|pass_through"},
      // Every numeric key has a range: these ran (or, for the interarrival,
      // spun drawing arrivals) before.
      {"churn_fps_zero.json", "line 7: churn: \"fps\" must be >= 0.001"},
      {"churn_bitrate_negative.json",
       "line 7: churn: \"max_bitrate_mbps\" must be >= 0.001"},
      {"churn_zhuge_fraction_out_of_range.json",
       "line 7: churn: \"zhuge_fraction\" must be in [0, 1]"},
      {"churn_interarrival_tiny.json",
       "line 7: churn: \"mean_interarrival_s\" must be >= 0.001"},
      {"top_wan_delay_huge.json",
       "line 5: \"wan_one_way_ms\" must be in [0, 1000000000]"},
  };
  for (const auto& c : cases) {
    const std::string path =
        std::string(ZHUGE_SPEC_FIXTURE_DIR) + "/" + c.file;
    std::string err;
    const auto spec = load_scenario_spec(path, &err);
    EXPECT_FALSE(spec.has_value()) << c.file;
    // load_scenario_spec prefixes the path; the rest must match exactly.
    EXPECT_EQ(err, path + ": " + c.expect) << c.file;
  }
}

}  // namespace
}  // namespace zhuge::app
