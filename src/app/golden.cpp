#include "app/golden.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "app/chaos.hpp"

namespace zhuge::app {

namespace {

std::string to_hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::optional<std::uint64_t> from_hex(const std::string& s) {
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (ec != std::errc{} || ptr != s.data() + s.size() || s.empty()) {
    return std::nullopt;
  }
  return v;
}

}  // namespace

std::vector<std::string> golden_scenario_names() {
  return {"rtp_zhuge_single", "tcp_mix", "chaos_burst"};
}

// The canonical golden specs are the chaos suite's healthy baseline at
// seed 1 (app/chaos.hpp), so drift in one shows up in the other.
std::optional<ScenarioSpec> golden_scenario_spec(const std::string& name) {
  ScenarioSpec spec;
  if (name == "rtp_zhuge_single") {
    spec = chaos_base(1);
  } else if (name == "tcp_mix") {
    // TCP/BBR video plus two CUBIC bulk competitors in the same queue.
    spec = chaos_base(1);
    spec.flows.front().kind = SpecFlowKind::kTcpBbr;
    SpecFlow bulk;
    bulk.kind = SpecFlowKind::kTcpBulk;
    spec.flows.insert(spec.flows.end(), 2, bulk);
  } else if (name == "chaos_burst") {
    // The chaos suite's wan_burst_loss incident, verbatim.
    for (ChaosCase& c : standard_chaos_suite(1)) {
      if (c.name == "wan_burst_loss") spec = std::move(c.spec);
    }
  } else {
    return std::nullopt;
  }
  spec.name = name;
  return spec;
}

std::optional<GoldenRecord> compute_golden(const std::string& name) {
  const auto spec = golden_scenario_spec(name);
  if (!spec.has_value()) return std::nullopt;

  const MultiStationResult r = run_multi_station(*spec);

  GoldenRecord rec;
  rec.name = name;
  rec.seed = spec->seed;
  rec.fingerprint = multi_result_fingerprint(r);
  const MultiFlowResult& flow = r.flows.front();
  rec.headline["rtt_p50_ms"] = flow.network_rtt_ms.quantile(0.50);
  rec.headline["rtt_p99_ms"] = flow.network_rtt_ms.quantile(0.99);
  rec.headline["frame_delay_p99_ms"] = flow.frame_delay_ms.quantile(0.99);
  rec.headline["goodput_bps"] = flow.goodput_bps;
  rec.headline["frames_decoded"] = static_cast<double>(flow.frames_decoded);
  rec.headline["qdisc_drops"] = static_cast<double>(r.qdisc_drops);
  rec.headline["events_executed"] = static_cast<double>(r.events_executed);
  rec.headline["stranded_acks"] = static_cast<double>(r.stranded_acks);
  return rec;
}

std::vector<std::string> compare_golden(const GoldenRecord& expected,
                                        const GoldenRecord& actual) {
  std::vector<std::string> diffs;
  if (expected.seed != actual.seed) {
    diffs.push_back("seed: expected " + std::to_string(expected.seed) +
                    ", got " + std::to_string(actual.seed));
  }
  if (expected.fingerprint != actual.fingerprint) {
    diffs.push_back("fingerprint: expected " + to_hex16(expected.fingerprint) +
                    ", got " + to_hex16(actual.fingerprint));
  }
  // Headlines are checked on their own, not only to explain a hash drift:
  // some (events_executed) are pinned here and nowhere else.
  for (const auto& [key, want] : expected.headline) {
    const auto it = actual.headline.find(key);
    if (it == actual.headline.end()) {
      diffs.push_back(key + ": missing from actual");
    } else if (it->second != want) {
      char line[160];
      std::snprintf(line, sizeof(line), "%s: expected %.17g, got %.17g",
                    key.c_str(), want, it->second);
      diffs.emplace_back(line);
    }
  }
  for (const auto& [key, got] : actual.headline) {
    if (!expected.headline.contains(key)) {
      diffs.push_back(key + ": unexpected in actual");
    }
  }
  return diffs;
}

Json golden_to_json(const GoldenRecord& rec) {
  Json j = Json::make_object();
  j.set("name", Json::make_string(rec.name));
  j.set("seed", Json::make_number(static_cast<double>(rec.seed)));
  j.set("fingerprint", Json::make_string(to_hex16(rec.fingerprint)));
  Json h = Json::make_object();
  for (const auto& [key, value] : rec.headline) {
    h.set(key, Json::make_number(value));
  }
  j.set("headline", std::move(h));
  return j;
}

std::optional<GoldenRecord> golden_from_json(const Json& j, std::string* err) {
  const auto fail = [err](const char* msg) -> std::optional<GoldenRecord> {
    if (err != nullptr) *err = msg;
    return std::nullopt;
  };
  if (!j.is_object()) return fail("golden record must be an object");
  GoldenRecord rec;
  const Json* name = j.find("name");
  if (name == nullptr) return fail("golden record missing \"name\"");
  rec.name = name->string_or("");
  if (rec.name.empty()) return fail("golden \"name\" must be a string");
  if (const Json* seed = j.find("seed")) {
    rec.seed = static_cast<std::uint64_t>(seed->number_or(1));
  }
  const Json* fp = j.find("fingerprint");
  if (fp == nullptr) return fail("golden record missing \"fingerprint\"");
  const auto parsed = from_hex(fp->string_or(""));
  if (!parsed.has_value()) return fail("golden \"fingerprint\" must be hex");
  rec.fingerprint = *parsed;
  if (const Json* h = j.find("headline"); h != nullptr && h->is_object()) {
    for (const auto& [key, value] : h->object()) {
      rec.headline[key] = value.number_or(std::nan(""));
    }
  }
  return rec;
}

std::optional<GoldenRecord> load_golden_file(const std::string& path,
                                             std::string* err) {
  std::ifstream in(path);
  if (!in) {
    if (err != nullptr) *err = path + ": cannot open";
    return std::nullopt;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::string perr;
  const auto j = Json::parse(text, &perr);
  if (!j.has_value()) {
    if (err != nullptr) *err = path + ": " + perr;
    return std::nullopt;
  }
  auto rec = golden_from_json(*j, err);
  if (!rec.has_value() && err != nullptr) *err = path + ": " + *err;
  return rec;
}

bool write_golden_file(const std::string& path, const GoldenRecord& rec) {
  std::ofstream out(path);
  if (!out) return false;
  out << golden_to_json(rec).dump(2) << "\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Latency-attribution goldens
// ---------------------------------------------------------------------------

AttribGolden make_attrib_golden(const std::string& name, std::uint64_t seed,
                                const obs::Attribution& attrib) {
  AttribGolden rec;
  rec.name = name;
  rec.seed = seed;
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    const obs::Histogram& h = attrib.all().stage(stage);
    if (h.count() == 0) continue;
    rec.stage_p95_us[obs::stage_name(stage)] = h.quantile(0.95);
  }
  return rec;
}

std::vector<std::string> compare_attrib_golden(const AttribGolden& expected,
                                               const AttribGolden& actual,
                                               double rel_tol) {
  std::vector<std::string> diffs;
  if (expected.seed != actual.seed) {
    diffs.push_back("seed: expected " + std::to_string(expected.seed) +
                    ", got " + std::to_string(actual.seed));
  }
  const auto close = [rel_tol](double lhs, double rhs) {
    const double scale = std::max(std::abs(lhs), std::abs(rhs));
    return std::abs(lhs - rhs) <= rel_tol * std::max(scale, 1.0);
  };
  for (const auto& [stage, want] : expected.stage_p95_us) {
    const auto it = actual.stage_p95_us.find(stage);
    if (it == actual.stage_p95_us.end()) {
      diffs.push_back("stage " + stage + ": p95 expected " +
                      std::to_string(want) + " us, missing from actual");
    } else if (!close(want, it->second)) {
      char line[192];
      // zlint-allow(float-equality): exact zero guard before dividing.
      const double pct = want != 0.0 ? (it->second - want) / want * 100.0 : 0.0;
      std::snprintf(line, sizeof(line),
                    "stage %s: p95 expected %.6g us, got %.6g us (%+.2f%%)",
                    stage.c_str(), want, it->second, pct);
      diffs.emplace_back(line);
    }
  }
  for (const auto& [stage, got] : actual.stage_p95_us) {
    if (!expected.stage_p95_us.contains(stage)) {
      diffs.push_back("stage " + stage + ": unexpected in actual (p95 " +
                      std::to_string(got) + " us)");
    }
  }
  return diffs;
}

Json attrib_golden_to_json(const AttribGolden& rec) {
  Json j = Json::make_object();
  j.set("name", Json::make_string(rec.name));
  j.set("seed", Json::make_number(static_cast<double>(rec.seed)));
  Json stages = Json::make_object();
  for (const auto& [stage, p95] : rec.stage_p95_us) {
    stages.set(stage, Json::make_number(p95));
  }
  j.set("stage_p95_us", std::move(stages));
  return j;
}

std::optional<AttribGolden> attrib_golden_from_json(const Json& j,
                                                    std::string* err) {
  const auto fail = [err](const char* msg) -> std::optional<AttribGolden> {
    if (err != nullptr) *err = msg;
    return std::nullopt;
  };
  if (!j.is_object()) return fail("attrib golden must be an object");
  AttribGolden rec;
  const Json* name = j.find("name");
  if (name == nullptr) return fail("attrib golden missing \"name\"");
  rec.name = name->string_or("");
  if (rec.name.empty()) return fail("attrib golden \"name\" must be a string");
  if (const Json* seed = j.find("seed")) {
    rec.seed = static_cast<std::uint64_t>(seed->number_or(1));
  }
  const Json* stages = j.find("stage_p95_us");
  if (stages == nullptr || !stages->is_object()) {
    return fail("attrib golden missing \"stage_p95_us\" object");
  }
  for (const auto& [key, value] : stages->object()) {
    rec.stage_p95_us[key] = value.number_or(std::nan(""));
  }
  return rec;
}

std::optional<AttribGolden> load_attrib_golden_file(const std::string& path,
                                                    std::string* err) {
  std::ifstream in(path);
  if (!in) {
    if (err != nullptr) *err = path + ": cannot open";
    return std::nullopt;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::string perr;
  const auto j = Json::parse(text, &perr);
  if (!j.has_value()) {
    if (err != nullptr) *err = path + ": " + perr;
    return std::nullopt;
  }
  auto rec = attrib_golden_from_json(*j, err);
  if (!rec.has_value() && err != nullptr) *err = path + ": " + *err;
  return rec;
}

bool write_attrib_golden_file(const std::string& path,
                              const AttribGolden& rec) {
  std::ofstream out(path);
  if (!out) return false;
  out << attrib_golden_to_json(rec).dump(2) << "\n";
  return static_cast<bool>(out);
}

}  // namespace zhuge::app
