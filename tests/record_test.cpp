// Run-record suite (src/app/record.*): every value the old per-format
// reports carried is in the record, bit-exactly — checked field by field
// for one spec run, one eval cell, one chaos case and one attribution
// scope — every record survives dump -> parse, and a record is
// byte-identical for any thread count.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "app/chaos.hpp"
#include "app/eval.hpp"
#include "app/golden.hpp"
#include "app/record.hpp"
#include "app/sweep.hpp"
#include "obs/attrib.hpp"
#include "obs/settings.hpp"

namespace zhuge::app {
namespace {

/// A member of `j` that must exist.
const Json& at(const Json& j, std::string_view key) {
  const Json* v = j.find(key);
  EXPECT_NE(v, nullptr) << "missing \"" << key << "\"";
  static const Json kNull;
  return v != nullptr ? *v : kNull;
}

double number(const Json& j, std::string_view key) {
  return at(j, key).number_or(-12345.0);
}

std::uint64_t hex_at(const Json& j, std::string_view key) {
  const auto v = parse_hex16(at(j, key).string_or(""));
  EXPECT_TRUE(v.has_value()) << key;
  return v.value_or(0);
}

/// dump -> parse -> dump: the record reads back to the same bytes.
Json round_trip(const Json& record) {
  const std::string text = record.dump(2);
  std::string err;
  const auto back = parse_record(text, &err);
  EXPECT_TRUE(back.has_value()) << err;
  if (!back.has_value()) return Json{};
  EXPECT_EQ(back->dump(2), text);
  return *back;
}

std::vector<SpecRun> attributed_sweep(unsigned threads) {
  const bool was = obs::attrib_enabled();
  obs::set_attrib_enabled(true);
  auto spec = golden_scenario_spec("rtp_zhuge_single");
  spec->duration_s = 8.0;
  spec->warmup_s = 2.0;
  auto runs = run_spec_sweep(cross_spec_seeds(*spec, {1, 2, 3}), threads);
  obs::set_attrib_enabled(was);
  return runs;
}

EvalSpec small_eval_spec() {
  EvalSpec spec;
  spec.name = "record_test_matrix";
  spec.duration_s = 4.0;
  spec.warmup_s = 1.0;
  spec.seed = 3;
  spec.ccas = {EvalCca::kGcc, EvalCca::kCubic};
  spec.traces = {trace::TraceKind::kRestaurantWifi};
  spec.densities = {1};
  return spec;
}

/// The chaos suite's cases whose name contains `filter`, in suite order.
std::vector<ChaosCase> chaos_subset(const std::string& filter) {
  std::vector<ChaosCase> out;
  for (ChaosCase& c : chaos_suite(1)) {
    if (c.name.find(filter) != std::string::npos) out.push_back(std::move(c));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Header and determinism
// ---------------------------------------------------------------------------

TEST(RunRecord, HeaderCarriesSchemaProvenanceAndFingerprint) {
  const Json rec = make_record("scenario_run", "x", 7, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(at(rec, "schema").string_or(""), kRunRecordSchema);
  EXPECT_EQ(at(rec, "tool").string_or(""), "scenario_run");
  EXPECT_EQ(at(rec, "build").kind(), Json::Kind::kString);
  EXPECT_EQ(at(rec, "name").string_or(""), "x");
  EXPECT_EQ(number(rec, "seed"), 7.0);
  EXPECT_EQ(hex_at(rec, "fingerprint"), 0xDEADBEEFCAFEF00Dull);
  EXPECT_TRUE(at(rec, "headline").is_object());
  round_trip(rec);

  // A trace replay has no run to fingerprint: null, and still a record.
  const Json replay = make_record("trace_summarize", "t.jsonl", 0, std::nullopt);
  EXPECT_EQ(at(replay, "fingerprint").kind(), Json::Kind::kNull);
  round_trip(replay);
}

TEST(RunRecord, ParseRejectsForeignDocuments) {
  std::string err;
  EXPECT_FALSE(parse_record("[]", &err).has_value());
  EXPECT_FALSE(parse_record(R"({"name": "x"})", &err).has_value());
  EXPECT_NE(err.find("schema"), std::string::npos) << err;
  EXPECT_FALSE(parse_record(R"({"schema": "zhuge.run/0", "name": "x",
      "seed": 1, "fingerprint": null, "headline": {}})", &err).has_value());
  EXPECT_NE(err.find("unknown schema"), std::string::npos) << err;
  EXPECT_FALSE(parse_record(R"({"schema": "zhuge.run/1", "name": "x",
      "seed": -1, "fingerprint": null, "headline": {}})", &err).has_value());
  EXPECT_NE(err.find("\"seed\""), std::string::npos) << err;
  EXPECT_FALSE(parse_record(R"({"schema": "zhuge.run/1", "name": "x",
      "seed": 1, "fingerprint": "xyz", "headline": {}})", &err).has_value());
  EXPECT_FALSE(parse_record(R"({"schema": "zhuge.run/1", "name": "x",
      "seed": 1, "fingerprint": null, "headline": {"a": "b"}})", &err)
                   .has_value());
  EXPECT_TRUE(parse_record(R"({"schema": "zhuge.run/1", "name": "x",
      "seed": 1, "fingerprint": null, "headline": {"a": null}})", &err)
                  .has_value())
      << err;
}

TEST(RunRecord, SpecRecordIsByteIdenticalAcrossThreadCounts) {
  const std::string serial = spec_record("s", attributed_sweep(1)).dump(2);
  EXPECT_EQ(spec_record("s", attributed_sweep(8)).dump(2), serial);
}

TEST(RunRecord, EvalRecordIsByteIdenticalAcrossThreadCounts) {
  const auto cells = expand_eval_matrix(small_eval_spec());
  EXPECT_EQ(eval_record("e", 3, run_eval_matrix(cells, 4)).dump(2),
            eval_record("e", 3, run_eval_matrix(cells, 1)).dump(2));
}

TEST(RunRecord, ChaosRecordIsByteIdenticalAcrossThreadCounts) {
  const auto cases = chaos_subset("fb_dup/");
  ASSERT_EQ(cases.size(), 6u);
  EXPECT_EQ(chaos_record("c", 1, run_chaos_suite(cases, 4)).dump(2),
            chaos_record("c", 1, run_chaos_suite(cases, 1)).dump(2));
}

// ---------------------------------------------------------------------------
// Field by field: every value of the old reports is in the record
// ---------------------------------------------------------------------------

TEST(RunRecord, SpecRunCarriesEveryRunMetric) {
  const auto runs = attributed_sweep(2);
  const Json rec = round_trip(spec_record("s", runs));
  EXPECT_EQ(hex_at(rec, "fingerprint"), spec_sweep_fingerprint(runs));
  EXPECT_NE(spec_sweep_fingerprint(runs), runs.front().fingerprint);
  const auto& entries = at(rec, "runs").array();
  ASSERT_EQ(entries.size(), runs.size());

  std::uint64_t events = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(runs[i].name);
    const MultiStationResult& r = runs[i].result;
    const Json& e = entries[i];
    EXPECT_EQ(at(e, "name").string_or(""), runs[i].name);
    EXPECT_EQ(number(e, "seed"), static_cast<double>(runs[i].seed));
    EXPECT_EQ(hex_at(e, "fingerprint"), runs[i].fingerprint);
    EXPECT_EQ(e.find("wall_seconds"), nullptr);  // host time stays out

    const Json& agg = at(e, "aggregate");
    EXPECT_EQ(number(agg, "rtt_p50_ms"), r.agg_network_rtt_ms.quantile(0.50));
    EXPECT_EQ(number(agg, "rtt_p99_ms"), r.agg_network_rtt_ms.quantile(0.99));
    EXPECT_EQ(number(agg, "frame_delay_p99_ms"),
              r.agg_frame_delay_ms.quantile(0.99));
    EXPECT_EQ(number(agg, "arrivals"), static_cast<double>(r.arrivals));
    EXPECT_EQ(number(agg, "departures"), static_cast<double>(r.departures));
    EXPECT_EQ(number(agg, "invariant_violations"),
              static_cast<double>(r.invariant_violations));
    EXPECT_GT(number(agg, "active_flows_peak"), 0.0);

    const Json& h = at(e, "headline");
    const MultiFlowResult& flow = r.flows.front();
    EXPECT_EQ(number(h, "events_executed"),
              static_cast<double>(r.events_executed));
    EXPECT_EQ(number(h, "qdisc_drops"), static_cast<double>(r.qdisc_drops));
    EXPECT_EQ(number(h, "stranded_acks"), static_cast<double>(r.stranded_acks));
    EXPECT_EQ(number(h, "rtt_p50_ms"), flow.network_rtt_ms.quantile(0.50));
    EXPECT_EQ(number(h, "rtt_p99_ms"), flow.network_rtt_ms.quantile(0.99));
    EXPECT_EQ(number(h, "frame_delay_p99_ms"),
              flow.frame_delay_ms.quantile(0.99));
    EXPECT_EQ(number(h, "goodput_bps"), flow.goodput_bps);
    EXPECT_EQ(number(h, "frames_decoded"),
              static_cast<double>(flow.frames_decoded));

    // Per-run stage summaries (the old per-run stage gauges).
    const obs::Histogram& e2e = r.attrib.all().stage(obs::Stage::kE2e);
    const Json& stage = at(at(e, "stages"), "e2e");
    EXPECT_EQ(number(stage, "count"), static_cast<double>(e2e.count()));
    EXPECT_EQ(number(stage, "p50"), e2e.quantile(0.50));
    EXPECT_EQ(number(stage, "p95"), e2e.quantile(0.95));
    EXPECT_EQ(number(stage, "p99"), e2e.quantile(0.99));
    events += r.events_executed;
  }
  // A sweep's headline sums the counters and adds the merged stage p95s.
  const Json& h = at(rec, "headline");
  EXPECT_EQ(number(h, "events_executed"), static_cast<double>(events));
  EXPECT_EQ(h.find("rtt_p50_ms"), nullptr);
  obs::Attribution merged;
  for (const auto& run : runs) merged.merge(run.result.attrib);
  EXPECT_EQ(number(h, "stage.e2e.p95_us"),
            merged.all().stage(obs::Stage::kE2e).quantile(0.95));
}

TEST(RunRecord, AttribScopeCarriesEveryStageValue) {
  obs::Attribution a;
  obs::PacketSpan span;
  span.paced_ns = 0;
  span.ap_dequeue_ns = 4000;
  span.first_air_ns = 4500;
  a.record_packet(1, true, 1000, 3000, 6000, span);
  a.record_packet(2, false, 1000, 3000, 9000, span);
  a.record_packet(2, false, 1000, 3500, 12000, span);

  Json rec = make_record("trace_summarize", "unit", 0, std::nullopt);
  add_attrib(rec, a);
  rec = round_trip(rec);
  const Json& section = at(rec, "attrib");
  EXPECT_EQ(number(section, "packets"), 3.0);
  EXPECT_EQ(number(section, "frames"), 0.0);
  EXPECT_EQ(number(section, "truncated_flows"), 0.0);

  // The aggregate scope: every summary value plus the CDF.
  const obs::Histogram& h = a.all().stage(obs::Stage::kE2e);
  const Json& e2e = at(at(at(section, "scopes"), "all"), "e2e");
  EXPECT_EQ(number(e2e, "count"), static_cast<double>(h.count()));
  EXPECT_EQ(number(e2e, "mean"), h.mean());
  EXPECT_EQ(number(e2e, "min"), h.min());
  EXPECT_EQ(number(e2e, "max"), h.max());
  EXPECT_EQ(number(e2e, "p50"), h.quantile(0.50));
  EXPECT_EQ(number(e2e, "p90"), h.quantile(0.90));
  EXPECT_EQ(number(e2e, "p95"), h.quantile(0.95));
  EXPECT_EQ(number(e2e, "p99"), h.quantile(0.99));
  const auto& cdf = at(e2e, "cdf").array();
  ASSERT_FALSE(cdf.empty());
  EXPECT_EQ(number(cdf.back(), "f"), 1.0);
  EXPECT_EQ(number(cdf.back(), "le"), h.max());
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LT(number(cdf[i - 1], "le"), number(cdf[i], "le"));
    EXPECT_LT(number(cdf[i - 1], "f"), number(cdf[i], "f"));
  }

  // Group and flow scopes carry the same summary, without a CDF.
  const Json& on = at(at(at(section, "scopes"), "zhuge_on"), "e2e");
  EXPECT_EQ(number(on, "count"), 1.0);
  EXPECT_EQ(on.find("cdf"), nullptr);
  const Json& off = at(at(at(section, "scopes"), "zhuge_off"), "air");
  EXPECT_EQ(number(off, "p95"),
            a.group(false).stage(obs::Stage::kAir).quantile(0.95));
  const Json& flow2 = at(at(at(section, "flows"), "2"), "wan");
  EXPECT_EQ(number(flow2, "p90"),
            a.flows().at(2).stage(obs::Stage::kWan).quantile(0.90));
  EXPECT_EQ(at(at(section, "flows"), "1").find("reassembly"), nullptr);

  // Headline: one stage.<name>.p95_us per populated aggregate stage.
  EXPECT_EQ(number(at(rec, "headline"), "stage.e2e.p95_us"), h.quantile(0.95));
  EXPECT_EQ(at(rec, "headline").find("stage.reassembly.p95_us"), nullptr);
}

TEST(RunRecord, EvalCellCarriesEveryField) {
  const auto res = run_eval_matrix(expand_eval_matrix(small_eval_spec()), 2);
  const Json rec = round_trip(eval_record("e", 3, res));
  EXPECT_EQ(hex_at(rec, "fingerprint"), res.fingerprint);
  const auto& cells = at(rec, "cells").array();
  ASSERT_EQ(cells.size(), res.cells.size());
  for (std::size_t i = 0; i < res.cells.size(); ++i) {
    SCOPED_TRACE(res.cells[i].name);
    const EvalCell& c = res.cells[i];
    const Json& j = cells[i];
    EXPECT_EQ(at(j, "name").string_or(""), c.name);
    EXPECT_EQ(at(j, "trace").string_or(""), c.trace);
    EXPECT_EQ(at(j, "cca").string_or(""), c.cca);
    EXPECT_EQ(at(j, "mechanism").string_or(""), c.mechanism);
    EXPECT_EQ(number(j, "density"), c.density);
    EXPECT_EQ(at(j, "mechanism_active").bool_or(!c.mechanism_active),
              c.mechanism_active);
    const auto& cdf = at(j, "frame_delay_cdf_ms").array();
    ASSERT_EQ(cdf.size(), c.frame_delay_cdf_ms.size());
    for (std::size_t d = 0; d < cdf.size(); ++d) {
      EXPECT_EQ(cdf[d].number_or(-1.0), c.frame_delay_cdf_ms[d]);  // bitwise
    }
    EXPECT_EQ(number(j, "frame_delay_p50_ms"), c.frame_delay_p50_ms);
    EXPECT_EQ(number(j, "frame_delay_p95_ms"), c.frame_delay_p95_ms);
    EXPECT_EQ(number(j, "frame_delay_p99_ms"), c.frame_delay_p99_ms);
    EXPECT_EQ(number(j, "delayed_frame_ratio"), c.delayed_frame_ratio);
    EXPECT_EQ(number(j, "stall_rate"), c.stall_rate);
    EXPECT_EQ(number(j, "rtt_p50_ms"), c.rtt_p50_ms);
    EXPECT_EQ(number(j, "rtt_p95_ms"), c.rtt_p95_ms);
    EXPECT_EQ(number(j, "goodput_bps"), c.goodput_bps);
    EXPECT_EQ(number(j, "frames_sent"), static_cast<double>(c.frames_sent));
    EXPECT_EQ(number(j, "frames_decoded"),
              static_cast<double>(c.frames_decoded));
    EXPECT_EQ(hex_at(j, "result_fingerprint"), c.result_fingerprint);
    EXPECT_EQ(hex_at(j, "fingerprint"), c.fingerprint);
  }

  const auto& comparisons = at(rec, "comparisons").array();
  ASSERT_EQ(comparisons.size(), res.headline.size());
  std::size_t wins = 0;
  for (std::size_t i = 0; i < res.headline.size(); ++i) {
    const EvalHeadline& h = res.headline[i];
    EXPECT_EQ(at(comparisons[i], "name").string_or(""), h.name);
    EXPECT_EQ(number(comparisons[i], "zhuge_p95_ms"), h.zhuge_p95_ms);
    EXPECT_EQ(number(comparisons[i], "vanilla_p95_ms"), h.vanilla_p95_ms);
    EXPECT_EQ(at(comparisons[i], "zhuge_wins").bool_or(!h.zhuge_wins),
              h.zhuge_wins);
    wins += h.zhuge_wins ? 1 : 0;
  }
  const Json& headline = at(rec, "headline");
  EXPECT_EQ(number(headline, "cells"), static_cast<double>(res.cells.size()));
  EXPECT_EQ(number(headline, "comparisons"),
            static_cast<double>(res.headline.size()));
  EXPECT_EQ(number(headline, "zhuge_wins"), static_cast<double>(wins));
  // Two CCAs are two axis points: no per-mechanism headline keys.
  EXPECT_EQ(headline.find("zhuge_frame_p95_ms"), nullptr);
}

TEST(RunRecord, ChaosVerdictCarriesEveryField) {
  const auto res = run_chaos_suite(chaos_subset("fb_loss/gcc/steady"), 1);
  ASSERT_EQ(res.verdicts.size(), 1u);
  const Json rec = round_trip(chaos_record("c", 1, res));
  EXPECT_EQ(hex_at(rec, "fingerprint"), res.fingerprint);
  const ChaosVerdict& v = res.verdicts.front();
  const Json& j = at(rec, "verdicts").array().at(0);
  EXPECT_EQ(at(j, "name").string_or(""), v.name);
  EXPECT_EQ(at(j, "passed").bool_or(!v.passed), v.passed);
  EXPECT_EQ(at(j, "failure").string_or("?"), v.failure);
  EXPECT_EQ(number(j, "pre_fault_goodput_bps"), v.pre_fault_goodput_bps);
  EXPECT_EQ(number(j, "post_fault_goodput_bps"), v.post_fault_goodput_bps);
  EXPECT_EQ(number(j, "recovery_ratio"), v.recovery_ratio);
  EXPECT_EQ(number(j, "stranded_acks"), static_cast<double>(v.stranded_acks));
  EXPECT_EQ(number(j, "invariant_violations"),
            static_cast<double>(v.invariant_violations));
  EXPECT_EQ(number(j, "degrades"), static_cast<double>(v.degrades));
  EXPECT_EQ(number(j, "reactivates"), static_cast<double>(v.reactivates));
  EXPECT_EQ(number(j, "flushed_acks"), static_cast<double>(v.flushed_acks));
  EXPECT_EQ(number(j, "fault_drops"), static_cast<double>(v.fault_drops));
  EXPECT_EQ(hex_at(j, "fingerprint"), chaos_verdict_fingerprint(v));

  const obs::RecoverySlo& s = v.slo;
  const Json& slo = at(j, "slo");
  EXPECT_EQ(at(slo, "triggered").bool_or(!s.triggered), s.triggered);
  EXPECT_EQ(at(slo, "recovered").bool_or(!s.recovered), s.recovered);
  EXPECT_EQ(number(slo, "time_to_detect_ms"), s.time_to_detect_ms);
  EXPECT_EQ(number(slo, "time_to_recover_ms"), s.time_to_recover_ms);
  for (std::size_t i = 0; i < obs::kLadderLevelCount; ++i) {
    const char* level =
        obs::ladder_level_name(static_cast<obs::LadderLevel>(i));
    EXPECT_EQ(number(at(slo, "dwell_ms"), level), s.dwell_ms[i]) << level;
  }
  EXPECT_EQ(at(slo, "deepest").string_or(""),
            obs::ladder_level_name(s.deepest));
  EXPECT_EQ(number(slo, "escalations"), s.escalations);
  EXPECT_EQ(number(slo, "step_downs"), s.step_downs);
  EXPECT_EQ(number(slo, "frames_expected_in_transition"),
            static_cast<double>(s.frames_expected_in_transition));
  EXPECT_EQ(number(slo, "frames_decoded_in_transition"),
            static_cast<double>(s.frames_decoded_in_transition));
  EXPECT_EQ(number(slo, "frames_lost_in_transition"),
            static_cast<double>(s.frames_lost_in_transition));
  EXPECT_EQ(number(slo, "healthy_p95_ms"), s.healthy_p95_ms);
  EXPECT_EQ(number(slo, "post_recovery_p95_ms"), s.post_recovery_p95_ms);
  EXPECT_EQ(number(slo, "post_over_healthy_p95"), s.post_over_healthy_p95);

  // The SLO aggregate: counts and the CDFs of the populated histograms.
  const Json& agg = at(rec, "slo");
  EXPECT_EQ(number(agg, "cases"), 1.0);
  EXPECT_EQ(number(agg, "triggered"), static_cast<double>(res.slo.triggered()));
  EXPECT_EQ(number(agg, "recovered"), static_cast<double>(res.slo.recovered()));
  EXPECT_EQ(number(agg, "unrecovered"),
            static_cast<double>(res.slo.unrecovered()));
  const Json& detect = at(agg, "detect_ms");
  EXPECT_EQ(number(detect, "p50"), res.slo.detect_ms().quantile(0.50));
  EXPECT_EQ(number(detect, "max"), res.slo.detect_ms().max());
  EXPECT_FALSE(at(detect, "cdf").array().empty());
  EXPECT_EQ(number(at(rec, "headline"), "cases"), 1.0);
  EXPECT_EQ(number(at(rec, "headline"), "failed"), 0.0);
}

}  // namespace
}  // namespace zhuge::app
