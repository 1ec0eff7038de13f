// Latency-attribution suite: aggregation semantics, fingerprint
// neutrality, thread-count determinism of the stage CDFs, trace
// round-trip, report rendering, and the pinned per-stage golden anchor.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "app/golden.hpp"
#include "app/scenario.hpp"
#include "app/spec.hpp"
#include "app/sweep.hpp"
#include "obs/attrib.hpp"
#include "obs/export.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "obs/trace_reader.hpp"
#include "obs/tracer.hpp"

namespace {

using namespace zhuge;

const std::string kGoldenDir = ZHUGE_GOLDEN_DIR;
const std::string kSpecDir = ZHUGE_SPEC_DIR;

app::ScenarioSpec load_dense_spec() {
  std::string err;
  const auto spec =
      app::load_scenario_spec(kSpecDir + "/dense_64sta_churn.json", &err);
  EXPECT_TRUE(spec.has_value()) << err;
  return *spec;
}

/// Bit-exact histogram equality: same spec, same per-bucket counts, same
/// scalar accumulators. This is the determinism contract the stage CDFs
/// promise across thread counts.
void expect_histograms_identical(const obs::Histogram& a,
                                 const obs::Histogram& b,
                                 const std::string& label) {
  ASSERT_EQ(a.bucket_count(), b.bucket_count()) << label;
  EXPECT_EQ(a.count(), b.count()) << label;
  EXPECT_EQ(a.sum(), b.sum()) << label;
  EXPECT_EQ(a.min(), b.min()) << label;
  EXPECT_EQ(a.max(), b.max()) << label;
  for (std::size_t i = 0; i < a.bucket_count(); ++i) {
    ASSERT_EQ(a.bucket_value(i), b.bucket_value(i))
        << label << " bucket " << i;
  }
}

void expect_attributions_identical(const obs::Attribution& a,
                                   const obs::Attribution& b) {
  EXPECT_EQ(a.packets(), b.packets());
  EXPECT_EQ(a.frames(), b.frames());
  EXPECT_EQ(a.truncated_flows(), b.truncated_flows());
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    const auto st = static_cast<obs::Stage>(s);
    expect_histograms_identical(a.all().stage(st), b.all().stage(st),
                                std::string("all/") + obs::stage_name(st));
    expect_histograms_identical(a.group(true).stage(st),
                                b.group(true).stage(st),
                                std::string("on/") + obs::stage_name(st));
    expect_histograms_identical(a.group(false).stage(st),
                                b.group(false).stage(st),
                                std::string("off/") + obs::stage_name(st));
  }
}

/// Restores every obs switch the attribution machinery can flip.
struct ObsGuard {
  ~ObsGuard() {
    obs::set_attrib_enabled(false);
    obs::set_tracing_enabled(false);
    obs::reset();
  }
};

TEST(AttribUnit, RecordPacketSkipsMissingStamps) {
  obs::Attribution a;
  obs::PacketSpan span;  // all stamps -1
  a.record_packet(/*flow_key=*/1, /*optimized=*/true, /*sent_ns=*/1000,
                  /*ap_in_ns=*/2000, /*delivered_ns=*/5000, span);
  EXPECT_EQ(a.packets(), 1u);
  // Only the stages whose boundary stamps exist get a sample: wan
  // (sent -> AP ingress) and e2e (sent -> delivered fallback origin).
  EXPECT_EQ(a.all().stage(obs::Stage::kWan).count(), 1u);
  EXPECT_EQ(a.all().stage(obs::Stage::kE2e).count(), 1u);
  EXPECT_EQ(a.all().stage(obs::Stage::kPacing).count(), 0u);
  EXPECT_EQ(a.all().stage(obs::Stage::kApQueue).count(), 0u);
  EXPECT_EQ(a.all().stage(obs::Stage::kAir).count(), 0u);
  EXPECT_DOUBLE_EQ(a.all().stage(obs::Stage::kWan).sum(), 1.0);   // 1 us
  EXPECT_DOUBLE_EQ(a.all().stage(obs::Stage::kE2e).sum(), 4.0);   // 4 us
}

TEST(AttribUnit, FullSpanPopulatesEveryPacketStage) {
  obs::Attribution a;
  obs::PacketSpan span;
  span.paced_ns = 0;
  span.ap_dequeue_ns = 4000;
  span.first_air_ns = 4500;
  a.record_packet(1, false, /*sent_ns=*/1000, /*ap_in_ns=*/3000,
                  /*delivered_ns=*/6000, span);
  EXPECT_EQ(a.all().stage(obs::Stage::kPacing).count(), 1u);
  EXPECT_EQ(a.all().stage(obs::Stage::kApQueue).count(), 1u);
  EXPECT_EQ(a.all().stage(obs::Stage::kAir).count(), 1u);
  // Origin is the pacer stamp when present: e2e = 6 us, not 5.
  EXPECT_DOUBLE_EQ(a.all().stage(obs::Stage::kE2e).sum(), 6.0);
  // Group split: this was a non-optimized flow.
  EXPECT_TRUE(a.group(true).empty());
  EXPECT_FALSE(a.group(false).empty());
}

TEST(AttribUnit, MergeAddsCountsAndBuckets) {
  obs::Attribution a;
  obs::Attribution b;
  obs::PacketSpan span;
  a.record_packet(1, true, 0, 1000, 5000, span);
  b.record_packet(2, false, 0, 2000, 9000, span);
  b.record_packet(1, true, 0, 1000, 5000, span);

  obs::Attribution merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.packets(), 3u);
  EXPECT_EQ(merged.all().stage(obs::Stage::kE2e).count(), 3u);
  EXPECT_EQ(merged.flows().size(), 2u);
  EXPECT_EQ(merged.flows().at(1).stage(obs::Stage::kE2e).count(), 2u);

  // Merging is count-preserving against the replay order.
  obs::Attribution replay;
  replay.record_packet(1, true, 0, 1000, 5000, span);
  replay.record_packet(2, false, 0, 2000, 9000, span);
  replay.record_packet(1, true, 0, 1000, 5000, span);
  expect_attributions_identical(merged, replay);
}

TEST(AttribUnit, FrameSpanStages) {
  obs::Attribution a;
  obs::FrameSpan s;
  s.flow_key = 7;
  s.frame_id = 42;
  s.capture_ns = 0;
  s.first_arrival_ns = 20'000'000;   // 20 ms
  s.complete_ns = 24'000'000;        // +4 ms reassembly
  s.decode_ns = 25'000'000;          // +1 ms jitter-buffer wait
  s.packets = 9;
  a.record_frame(true, s);
  EXPECT_EQ(a.frames(), 1u);
  EXPECT_DOUBLE_EQ(a.all().stage(obs::Stage::kReassembly).sum(), 4000.0);
  EXPECT_DOUBLE_EQ(a.all().stage(obs::Stage::kDecodeWait).sum(), 1000.0);
  EXPECT_DOUBLE_EQ(a.all().stage(obs::Stage::kFrameE2e).sum(), 25000.0);
}

TEST(AttribUnit, ReportRenderers) {
  obs::Attribution a;
  obs::PacketSpan span;
  span.paced_ns = 0;
  span.ap_dequeue_ns = 4000;
  span.first_air_ns = 4500;
  a.record_packet(1, true, 1000, 3000, 6000, span);
  a.record_packet(2, false, 1000, 3000, 7000, span);

  std::ostringstream text;
  obs::write_attrib_report_text(a, text);
  EXPECT_NE(text.str().find("latency attribution: 2 packets"),
            std::string::npos);
  EXPECT_NE(text.str().find("budget waterfall"), std::string::npos);
  EXPECT_NE(text.str().find("zhuge_on vs zhuge_off"), std::string::npos);

  std::ostringstream csv;
  obs::write_attrib_report_csv(a, csv);
  EXPECT_NE(csv.str().find("scope,stage,count,mean_us"), std::string::npos);
  EXPECT_NE(csv.str().find("flow1,"), std::string::npos);

  std::ostringstream json;
  obs::write_attrib_report_json(a, json);
  std::string err;
  const auto parsed = app::Json::parse(json.str(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  const app::Json* scopes = parsed->find("scopes");
  ASSERT_NE(scopes, nullptr);
  ASSERT_NE(scopes->find("all"), nullptr);
  ASSERT_NE(scopes->find("all")->find("e2e"), nullptr);
}

TEST(AttribUnit, ExportMetricsPublishesStageHistograms) {
  obs::Attribution a;
  obs::PacketSpan span;
  a.record_packet(1, true, 0, 1000, 5000, span);
  obs::Registry reg;
  a.export_metrics(reg, "attrib");
  EXPECT_EQ(reg.counters().at("attrib.packets").value(), 1u);
  EXPECT_EQ(reg.histograms().at("attrib.e2e_us").count(), 1u);
  EXPECT_EQ(reg.histograms().at("attrib.zhuge_on.wan_us").count(), 1u);
}

TEST(AttribIntegration, FingerprintUnchangedByAttribution) {
  const auto spec = load_dense_spec();
  std::vector<app::SpecPoint> grid{{spec.name, spec, spec.seed}};

  // "off": a sweep, which forces every obs switch off.
  const auto off = app::run_spec_sweep(grid, {.threads = 1, .attrib = false});
  ASSERT_EQ(off.size(), 1u);

  // "on": a bare run with attribution, metrics, tracing and invariant
  // checks all on (a small trace ring: only the switch matters here).
  ObsGuard guard;
  const app::ObsFreeze restore_switches;
  const std::size_t ring = obs::tracer().capacity();
  obs::tracer().set_capacity(1u << 14);
  obs::set_attrib_enabled(true);
  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(true);
  obs::set_invariants_enabled(true);
  const app::MultiStationResult on = app::run_multi_station(spec);
  obs::tracer().set_capacity(ring);

  // Every obs sink is pure observation: the 64-bit fingerprint over every
  // simulated result field is bit-identical with all of them on.
  EXPECT_EQ(off.front().fingerprint, app::multi_result_fingerprint(on));
  EXPECT_EQ(on.invariant_violations, 0u);
  EXPECT_TRUE(off.front().result.attrib.empty());
  EXPECT_FALSE(on.attrib.empty());
  EXPECT_GT(on.attrib.packets(), 0u);
  EXPECT_GT(on.attrib.frames(), 0u);
}

TEST(AttribIntegration, StageCdfsIdenticalAcrossThreadCounts) {
  const auto spec = load_dense_spec();
  const auto grid = app::cross_spec_seeds(spec, {1, 2, 3});

  const auto serial = app::run_spec_sweep(grid, {.threads = 1, .attrib = true});
  const auto pooled = app::run_spec_sweep(grid, {.threads = 8, .attrib = true});
  ASSERT_EQ(serial.size(), pooled.size());

  obs::Attribution serial_merged;
  obs::Attribution pooled_merged;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].fingerprint, pooled[i].fingerprint) << serial[i].name;
    serial_merged.merge(serial[i].result.attrib);
    pooled_merged.merge(pooled[i].result.attrib);
  }
  expect_attributions_identical(serial_merged, pooled_merged);
}

TEST(AttribIntegration, TraceRoundTripReproducesAggregate) {
  ObsGuard guard;
  obs::reset();
  obs::set_tracing_enabled(true);
  obs::set_attrib_enabled(true);

  const auto spec = app::golden_scenario_spec("rtp_zhuge_single");
  ASSERT_TRUE(spec.has_value());
  const app::MultiStationResult live = app::run_multi_station(*spec);
  ASSERT_FALSE(live.attrib.empty());

  std::ostringstream jsonl;
  obs::write_trace_jsonl(obs::tracer(), jsonl);
  std::istringstream in(jsonl.str());
  const auto events = obs::load_trace(in);
  ASSERT_FALSE(events.empty());

  obs::Attribution replayed;
  for (const auto& ev : events) replayed.add_trace_event(ev);

  // Every span record replays to the same stage sample counts; values go
  // through %.9g text so quantiles agree to rendering precision.
  EXPECT_EQ(replayed.packets(), live.attrib.packets());
  EXPECT_EQ(replayed.frames(), live.attrib.frames());
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    const auto st = static_cast<obs::Stage>(s);
    const auto& lh = live.attrib.all().stage(st);
    const auto& rh = replayed.all().stage(st);
    ASSERT_EQ(rh.count(), lh.count()) << obs::stage_name(st);
    if (lh.count() == 0) continue;
    EXPECT_NEAR(rh.quantile(0.95), lh.quantile(0.95),
                1e-6 * std::max(1.0, lh.quantile(0.95)))
        << obs::stage_name(st);
  }
}

TEST(AttribIntegration, GoldenStageP95Anchor) {
  std::string err;
  const auto expected = app::load_attrib_golden_file(
      kGoldenDir + "/attrib_dense64.json", &err);
  ASSERT_TRUE(expected.has_value()) << err;

  const auto spec = load_dense_spec();
  const auto runs = app::run_spec_sweep({{spec.name, spec, spec.seed}},
                                        {.threads = 1, .attrib = true});
  const auto actual = app::make_attrib_golden(expected->name, spec.seed,
                                              runs.front().result.attrib);
  const auto diffs = app::compare_attrib_golden(*expected, actual);
  for (const auto& d : diffs) ADD_FAILURE() << d;
}

TEST(AttribUnit, GoldenCompareNamesDriftingStage) {
  app::AttribGolden expected;
  expected.name = "x";
  expected.stage_p95_us["ap_queue"] = 100.0;
  expected.stage_p95_us["air"] = 50.0;
  app::AttribGolden actual = expected;
  actual.stage_p95_us["ap_queue"] = 150.0;
  const auto diffs = app::compare_attrib_golden(expected, actual);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_NE(diffs.front().find("ap_queue"), std::string::npos);
  EXPECT_NE(diffs.front().find("+50.00%"), std::string::npos);
}

TEST(AttribUnit, GoldenJsonRoundTrip) {
  app::AttribGolden rec;
  rec.name = "rt";
  rec.seed = 9;
  rec.stage_p95_us["e2e"] = 50319.4377;
  rec.stage_p95_us["wan"] = 20099.4571;
  std::string err;
  const auto back = app::attrib_golden_from_json(
      app::attrib_golden_to_json(rec), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->name, rec.name);
  EXPECT_EQ(back->seed, rec.seed);
  EXPECT_TRUE(app::compare_attrib_golden(rec, *back).empty());
}

}  // namespace
