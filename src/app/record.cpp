#include "app/record.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#ifndef ZHUGE_BUILD_TYPE
#define ZHUGE_BUILD_TYPE ""
#endif

namespace zhuge::app {

namespace {

Json num(double v) { return Json::make_number(v); }
Json count(std::uint64_t v) {
  return Json::make_number(static_cast<double>(v));
}
Json hex(std::uint64_t v) { return Json::make_string(to_hex16(v)); }

/// count, mean, min, max and the p50/p90/p95/p99 every report reads.
Json histogram_summary(const obs::Histogram& h) {
  Json j = Json::make_object();
  j.set("count", count(h.count()));
  j.set("mean", num(h.mean()));
  j.set("min", num(h.min()));
  j.set("max", num(h.max()));
  j.set("p50", num(h.quantile(0.50)));
  j.set("p90", num(h.quantile(0.90)));
  j.set("p95", num(h.quantile(0.95)));
  j.set("p99", num(h.quantile(0.99)));
  return j;
}

/// The summary plus the CDF over the populated buckets: [{le, f}], `le`
/// the bucket's upper edge clamped to the largest sample.
Json histogram_with_cdf(const obs::Histogram& h) {
  Json j = histogram_summary(h);
  Json cdf = Json::make_array();
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    if (h.bucket_value(i) == 0) continue;
    cum += h.bucket_value(i);
    Json point = Json::make_object();
    point.set("le", num(std::min(h.bucket_upper(i), h.max())));
    point.set("f", num(static_cast<double>(cum) /
                       static_cast<double>(h.count())));
    cdf.push(std::move(point));
  }
  j.set("cdf", std::move(cdf));
  return j;
}

/// Every populated stage of one scope, in microseconds.
Json stage_scope(const obs::StageSet& set, bool with_cdf) {
  Json scope = Json::make_object();
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    const obs::Histogram& h = set.stage(stage);
    if (h.count() == 0) continue;
    scope.set(obs::stage_name(stage),
              with_cdf ? histogram_with_cdf(h) : histogram_summary(h));
  }
  return scope;
}

/// The engine counters and flow 0's latency, goodput and frames.
Json run_headline(const MultiStationResult& r) {
  Json h = Json::make_object();
  h.set("events_executed", count(r.events_executed));
  h.set("qdisc_drops", count(r.qdisc_drops));
  h.set("stranded_acks", count(r.stranded_acks));
  if (!r.flows.empty()) {
    const MultiFlowResult& flow = r.flows.front();
    h.set("rtt_p50_ms", num(flow.network_rtt_ms.quantile(0.50)));
    h.set("rtt_p99_ms", num(flow.network_rtt_ms.quantile(0.99)));
    h.set("frame_delay_p99_ms", num(flow.frame_delay_ms.quantile(0.99)));
    h.set("goodput_bps", num(flow.goodput_bps));
    h.set("frames_decoded", count(flow.frames_decoded));
  }
  return h;
}

Json run_entry(const SpecRun& run) {
  const MultiStationResult& r = run.result;
  Json j = Json::make_object();
  j.set("name", Json::make_string(run.name));
  j.set("seed", count(run.seed));
  j.set("fingerprint", hex(run.fingerprint));
  j.set("headline", run_headline(r));
  double peak = 0.0;
  for (const auto& pt : r.active_flows.points()) {
    peak = std::max(peak, pt.value);
  }
  Json agg = Json::make_object();
  agg.set("rtt_p50_ms", num(r.agg_network_rtt_ms.quantile(0.50)));
  agg.set("rtt_p99_ms", num(r.agg_network_rtt_ms.quantile(0.99)));
  agg.set("frame_delay_p99_ms", num(r.agg_frame_delay_ms.quantile(0.99)));
  agg.set("active_flows_peak", num(peak));
  agg.set("arrivals", count(r.arrivals));
  agg.set("departures", count(r.departures));
  agg.set("invariant_violations", count(r.invariant_violations));
  j.set("aggregate", std::move(agg));
  if (!r.attrib.empty()) {
    j.set("stages", stage_scope(r.attrib.all(), /*with_cdf=*/false));
  }
  return j;
}

Json cell_entry(const EvalCell& c) {
  Json j = Json::make_object();
  j.set("name", Json::make_string(c.name));
  j.set("trace", Json::make_string(c.trace));
  j.set("cca", Json::make_string(c.cca));
  j.set("mechanism", Json::make_string(c.mechanism));
  j.set("density", num(c.density));
  j.set("mechanism_active", Json::make_bool(c.mechanism_active));
  Json cdf = Json::make_array();
  for (const double v : c.frame_delay_cdf_ms) cdf.push(num(v));
  j.set("frame_delay_cdf_ms", std::move(cdf));
  j.set("frame_delay_p50_ms", num(c.frame_delay_p50_ms));
  j.set("frame_delay_p95_ms", num(c.frame_delay_p95_ms));
  j.set("frame_delay_p99_ms", num(c.frame_delay_p99_ms));
  j.set("delayed_frame_ratio", num(c.delayed_frame_ratio));
  j.set("stall_rate", num(c.stall_rate));
  j.set("rtt_p50_ms", num(c.rtt_p50_ms));
  j.set("rtt_p95_ms", num(c.rtt_p95_ms));
  j.set("goodput_bps", num(c.goodput_bps));
  j.set("frames_sent", count(c.frames_sent));
  j.set("frames_decoded", count(c.frames_decoded));
  j.set("result_fingerprint", hex(c.result_fingerprint));
  j.set("fingerprint", hex(c.fingerprint));
  return j;
}

Json slo_entry(const obs::RecoverySlo& s) {
  Json j = Json::make_object();
  j.set("triggered", Json::make_bool(s.triggered));
  j.set("recovered", Json::make_bool(s.recovered));
  j.set("time_to_detect_ms", num(s.time_to_detect_ms));
  j.set("time_to_recover_ms", num(s.time_to_recover_ms));
  Json dwell = Json::make_object();
  for (std::size_t i = 0; i < obs::kLadderLevelCount; ++i) {
    dwell.set(obs::ladder_level_name(static_cast<obs::LadderLevel>(i)),
              num(s.dwell_ms[i]));
  }
  j.set("dwell_ms", std::move(dwell));
  j.set("deepest", Json::make_string(obs::ladder_level_name(s.deepest)));
  j.set("escalations", count(s.escalations));
  j.set("step_downs", count(s.step_downs));
  j.set("frames_expected_in_transition",
        count(s.frames_expected_in_transition));
  j.set("frames_decoded_in_transition", count(s.frames_decoded_in_transition));
  j.set("frames_lost_in_transition", count(s.frames_lost_in_transition));
  j.set("healthy_p95_ms", num(s.healthy_p95_ms));
  j.set("post_recovery_p95_ms", num(s.post_recovery_p95_ms));
  j.set("post_over_healthy_p95", num(s.post_over_healthy_p95));
  return j;
}

Json verdict_entry(const ChaosVerdict& v) {
  Json j = Json::make_object();
  j.set("name", Json::make_string(v.name));
  j.set("passed", Json::make_bool(v.passed));
  j.set("failure", Json::make_string(v.failure));
  j.set("pre_fault_goodput_bps", num(v.pre_fault_goodput_bps));
  j.set("post_fault_goodput_bps", num(v.post_fault_goodput_bps));
  j.set("recovery_ratio", num(v.recovery_ratio));
  j.set("stranded_acks", count(v.stranded_acks));
  j.set("invariant_violations", count(v.invariant_violations));
  j.set("degrades", count(v.degrades));
  j.set("reactivates", count(v.reactivates));
  j.set("flushed_acks", count(v.flushed_acks));
  j.set("fault_drops", count(v.fault_drops));
  j.set("slo", slo_entry(v.slo));
  j.set("fingerprint", hex(chaos_verdict_fingerprint(v)));
  return j;
}

}  // namespace

Json make_record(std::string_view tool, const std::string& name,
                 std::uint64_t seed,
                 std::optional<std::uint64_t> fingerprint) {
  Json r = Json::make_object();
  r.set("schema", Json::make_string(std::string(kRunRecordSchema)));
  r.set("tool", Json::make_string(std::string(tool)));
  r.set("build", Json::make_string(ZHUGE_BUILD_TYPE));
  r.set("name", Json::make_string(name));
  r.set("seed", count(seed));
  r.set("fingerprint", fingerprint.has_value() ? hex(*fingerprint) : Json{});
  r.set("headline", Json::make_object());
  return r;
}

std::uint64_t spec_sweep_fingerprint(const std::vector<SpecRun>& runs) {
  if (runs.size() == 1) return runs.front().fingerprint;
  Fnv chain;
  for (const SpecRun& run : runs) chain.u64(run.fingerprint);
  return chain.h;
}

Json spec_record(const std::string& name, const std::vector<SpecRun>& runs) {
  Json rec = make_record("scenario_run", name,
                         runs.empty() ? 0 : runs.front().seed,
                         spec_sweep_fingerprint(runs));
  Json entries = Json::make_array();
  obs::Attribution merged;
  std::uint64_t events = 0;
  std::uint64_t drops = 0;
  std::uint64_t stranded = 0;
  for (const SpecRun& run : runs) {
    entries.push(run_entry(run));
    merged.merge(run.result.attrib);
    events += run.result.events_executed;
    drops += run.result.qdisc_drops;
    stranded += run.result.stranded_acks;
  }
  if (runs.size() == 1) {
    rec.set("headline", run_headline(runs.front().result));
  } else {
    Json h = Json::make_object();
    h.set("events_executed", count(events));
    h.set("qdisc_drops", count(drops));
    h.set("stranded_acks", count(stranded));
    rec.set("headline", std::move(h));
  }
  rec.set("runs", std::move(entries));
  if (!merged.empty()) add_attrib(rec, merged);
  return rec;
}

Json eval_record(const std::string& name, std::uint64_t seed,
                 const EvalMatrixResult& res) {
  Json rec = make_record("scenario_run", name, seed, res.fingerprint);
  Json cells = Json::make_array();
  for (const EvalCell& c : res.cells) cells.push(cell_entry(c));
  Json comparisons = Json::make_array();
  std::uint64_t wins = 0;
  for (const EvalHeadline& h : res.headline) {
    Json j = Json::make_object();
    j.set("name", Json::make_string(h.name));
    j.set("zhuge_p95_ms", num(h.zhuge_p95_ms));
    j.set("vanilla_p95_ms", num(h.vanilla_p95_ms));
    j.set("zhuge_wins", Json::make_bool(h.zhuge_wins));
    comparisons.push(std::move(j));
    wins += h.zhuge_wins ? 1 : 0;
  }

  Json* h = rec.find("headline");
  h->set("cells", count(res.cells.size()));
  h->set("comparisons", count(res.headline.size()));
  h->set("zhuge_wins", count(wins));
  const bool one_point = std::all_of(
      res.cells.begin(), res.cells.end(), [&res](const EvalCell& c) {
        const EvalCell& f = res.cells.front();
        return c.trace == f.trace && c.cca == f.cca && c.density == f.density;
      });
  if (one_point) {
    for (const EvalCell& c : res.cells) {
      h->set(c.mechanism + "_frame_p95_ms", num(c.frame_delay_p95_ms));
      h->set(c.mechanism + "_delayed_ratio", num(c.delayed_frame_ratio));
      h->set(c.mechanism + "_goodput_bps", num(c.goodput_bps));
    }
  }
  rec.set("cells", std::move(cells));
  rec.set("comparisons", std::move(comparisons));
  return rec;
}

Json chaos_record(const std::string& name, std::uint64_t seed,
                  const ChaosSuiteResult& res) {
  Json rec = make_record("scenario_run", name, seed, res.fingerprint);
  Json verdicts = Json::make_array();
  for (const ChaosVerdict& v : res.verdicts) verdicts.push(verdict_entry(v));

  const obs::SloAccumulator& a = res.slo;
  Json slo = Json::make_object();
  slo.set("cases", count(a.cases()));
  slo.set("triggered", count(a.triggered()));
  slo.set("recovered", count(a.recovered()));
  slo.set("unrecovered", count(a.unrecovered()));
  const std::pair<const char*, const obs::Histogram*> hists[] = {
      {"detect_ms", &a.detect_ms()},
      {"recover_ms", &a.recover_ms()},
      {"frames_lost", &a.frames_lost()},
      {"p95_ratio", &a.p95_ratio()}};
  for (const auto& [key, hist] : hists) {
    if (hist->count() > 0) slo.set(key, histogram_with_cdf(*hist));
  }

  Json* h = rec.find("headline");
  h->set("cases", count(res.verdicts.size()));
  h->set("failed", count(static_cast<std::uint64_t>(res.failed)));
  h->set("triggered", count(a.triggered()));
  h->set("recovered", count(a.recovered()));
  rec.set("verdicts", std::move(verdicts));
  rec.set("slo", std::move(slo));
  if (!res.attrib.empty()) add_attrib(rec, res.attrib);
  return rec;
}

void add_attrib(Json& record, const obs::Attribution& a) {
  Json section = Json::make_object();
  section.set("packets", count(a.packets()));
  section.set("frames", count(a.frames()));
  section.set("truncated_flows", count(a.truncated_flows()));
  Json scopes = Json::make_object();
  scopes.set("all", stage_scope(a.all(), /*with_cdf=*/true));
  if (!a.group(true).empty()) {
    scopes.set("zhuge_on", stage_scope(a.group(true), false));
  }
  if (!a.group(false).empty()) {
    scopes.set("zhuge_off", stage_scope(a.group(false), false));
  }
  section.set("scopes", std::move(scopes));
  Json flows = Json::make_object();
  for (const auto& [key, set] : a.flows()) {
    flows.set(std::to_string(key), stage_scope(set, false));
  }
  section.set("flows", std::move(flows));
  record.set("attrib", std::move(section));

  Json* h = record.find("headline");
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    const obs::Histogram& hist = a.all().stage(stage);
    if (hist.count() == 0) continue;
    h->set(std::string("stage.") + obs::stage_name(stage) + ".p95_us",
           num(hist.quantile(0.95)));
  }
}

bool write_record(const std::string& path, const Json& record) {
  std::ofstream out(path);
  if (!out) return false;
  out << record.dump(2);
  return static_cast<bool>(out);
}

std::optional<Json> parse_record(std::string_view text, std::string* err) {
  auto doc = Json::parse(text, err);
  if (!doc.has_value()) return std::nullopt;
  SpecReader r("record", err);
  if (!r.object(*doc)) return std::nullopt;
  for (const char* key :
       {"schema", "name", "seed", "fingerprint", "headline"}) {
    if (doc->find(key) == nullptr) {
      r.fail(*doc, std::string("missing \"") + key + "\"");
      return std::nullopt;
    }
  }
  std::string schema;
  std::string name;
  std::uint64_t seed = 0;
  if (!r.text(*doc->find("schema"), "schema", schema) ||
      !r.text(*doc->find("name"), "name", name) ||
      !r.integer(*doc->find("seed"), "seed", seed)) {
    return std::nullopt;
  }
  if (schema != kRunRecordSchema) {
    r.fail(*doc->find("schema"), "unknown schema \"" + schema + "\"");
    return std::nullopt;
  }
  const Json& fp = *doc->find("fingerprint");
  if (fp.kind() != Json::Kind::kNull &&
      !parse_hex16(fp.string_or("")).has_value()) {
    r.fail(fp, "\"fingerprint\" must be 16 hex digits or null");
    return std::nullopt;
  }
  const Json& headline = *doc->find("headline");
  if (!r.object(headline)) return std::nullopt;
  for (const auto& [key, value] : headline.object()) {
    if (value.kind() != Json::Kind::kNumber &&
        value.kind() != Json::Kind::kNull) {
      r.fail(value, "headline \"" + key + "\" must be a number or null");
      return std::nullopt;
    }
  }
  return doc;
}

std::optional<Json> load_record(const std::string& path, std::string* err) {
  return load_document(path, err, parse_record);
}

}  // namespace zhuge::app
