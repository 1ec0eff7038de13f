#include "app/golden.hpp"

#include <cstdio>
#include <map>
#include <ostream>

#include "app/chaos.hpp"
#include "app/eval.hpp"
#include "app/record.hpp"
#include "app/sweep.hpp"
#include "obs/settings.hpp"

namespace zhuge::app {

namespace {

struct Anchor {
  const char* name;
  bool paper_claim;  ///< an eval anchor: Zhuge must win its comparison
};

constexpr Anchor kAnchors[] = {
    {"rtp_zhuge_single", false}, {"tcp_mix", false},
    {"chaos_burst", false},      {"eval_w1_gcc", true},
    {"eval_c1_gcc", true},       {"attrib_dense64", false},
};

/// Eval anchor geometry: GCC at 4 stations on a 2.5 Mbps/30 fps workload,
/// 20 s with 2 s warmup — dense enough that the trace's fades actually
/// congest the AP, short enough for a gating CI job.
EvalSpec eval_anchor_spec(const std::string& name,
                          trace::TraceKind trace) {
  EvalSpec spec;
  spec.name = name;
  spec.duration_s = 20.0;
  spec.warmup_s = 2.0;
  spec.mechanisms = {ApMode::kNone, ApMode::kZhuge};
  spec.ccas = {EvalCca::kGcc};
  spec.traces = {trace};
  spec.densities = {4};
  return spec;
}

/// The attribution anchor's spec, under `spec_dir`.
constexpr const char* kAttribSpecFile = "dense_64sta_churn.json";

Json run_spec_anchor(const std::string& name, const ScenarioSpec& spec) {
  return spec_record(name, run_spec_sweep({{name, spec, spec.seed}}, 1));
}

/// Headline numbers, null values left out as absent.
std::map<std::string, double> headline_numbers(const Json& record) {
  std::map<std::string, double> out;
  if (const Json* h = record.find("headline")) {
    for (const auto& [key, value] : h->object()) {
      if (value.kind() == Json::Kind::kNumber) out[key] = value.number_or(0.0);
    }
  }
  return out;
}

/// A header field rendered for comparison: its dump, so "null", a number
/// and a string all compare and print the same way.
std::string field(const Json& record, const char* key) {
  const Json* v = record.find(key);
  return v == nullptr ? "(missing)" : v->dump();
}

/// The paper claim an eval anchor pins: Zhuge won its one comparison.
bool zhuge_wins(const Json& record) {
  const auto h = headline_numbers(record);
  const auto it = h.find("zhuge_wins");
  // zlint-allow(float-equality): a stored integer count, compared exactly.
  return it != h.end() && it->second == 1.0;
}

}  // namespace

std::vector<std::string> golden_names() {
  std::vector<std::string> names;
  for (const Anchor& a : kAnchors) names.emplace_back(a.name);
  return names;
}

// The canonical scenario specs are the chaos suite's healthy baseline at
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
    for (ChaosCase& c : chaos_suite(1)) {
      if (c.name == "wan_burst_loss") spec = std::move(c.spec);
    }
  } else {
    return std::nullopt;
  }
  spec.name = name;
  return spec;
}

std::optional<Json> golden_run_record(const std::string& name,
                                      const std::string& spec_dir,
                                      std::string* err) {
  if (const auto spec = golden_scenario_spec(name)) {
    return run_spec_anchor(name, *spec);
  }
  if (name == "eval_w1_gcc" || name == "eval_c1_gcc") {
    const EvalSpec spec = eval_anchor_spec(
        name, name == "eval_w1_gcc" ? trace::TraceKind::kRestaurantWifi
                                    : trace::TraceKind::kIndoorMixed45G);
    return eval_record(name, spec.seed,
                       run_eval_matrix(expand_eval_matrix(spec), 1));
  }
  if (name == "attrib_dense64") {
    const auto spec =
        load_scenario_spec(spec_dir + "/" + kAttribSpecFile, err);
    if (!spec.has_value()) return std::nullopt;
    const bool was = obs::attrib_enabled();
    obs::set_attrib_enabled(true);
    Json rec = run_spec_anchor(name, *spec);
    obs::set_attrib_enabled(was);
    return rec;
  }
  if (err != nullptr) *err = "unknown golden anchor " + name;
  return std::nullopt;
}

Json trim_to_golden(const Json& record) {
  Json g = Json::make_object();
  for (const char* key :
       {"schema", "name", "seed", "fingerprint", "headline"}) {
    if (const Json* v = record.find(key)) g.set(key, *v);
  }
  return g;
}

std::vector<std::string> compare_golden(const Json& expected,
                                        const Json& actual) {
  std::vector<std::string> diffs;
  for (const char* key : {"schema", "name", "seed", "fingerprint"}) {
    const std::string want = field(expected, key);
    const std::string got = field(actual, key);
    if (want != got) {
      diffs.push_back(std::string(key) + ": expected " + want + ", got " + got);
    }
  }
  // Headlines are checked on their own, not only to explain a hash drift:
  // some (events_executed, the stage p95s) are pinned here and nowhere else.
  const auto want = headline_numbers(expected);
  const auto got = headline_numbers(actual);
  for (const auto& [key, value] : want) {
    const auto it = got.find(key);
    if (it == got.end()) {
      diffs.push_back(key + ": missing from actual");
    } else if (it->second != value) {
      char line[200];
      std::snprintf(line, sizeof(line), "%s: expected %.17g, got %.17g",
                    key.c_str(), value, it->second);
      diffs.emplace_back(line);
    }
  }
  for (const auto& [key, value] : got) {
    if (!want.contains(key)) diffs.push_back(key + ": unexpected in actual");
  }
  return diffs;
}

int check_goldens(const std::string& dir, const std::string& spec_dir,
                  bool update, std::ostream& out) {
  int rc = 0;
  char line[160];
  for (const Anchor& a : kAnchors) {
    const std::string path = dir + "/" + a.name + ".json";
    std::string err;
    const auto record = golden_run_record(a.name, spec_dir, &err);
    if (!record.has_value()) {
      out << "golden: " << a.name << " ERROR (" << err << ")\n";
      rc = 1;
      continue;
    }
    // Through the text form, as a stored golden went: a non-finite
    // headline value becomes null on both sides.
    const Json actual = *Json::parse(trim_to_golden(*record).dump(), nullptr);
    const std::string fp = actual.find("fingerprint")->string_or("null");
    // The eval anchors are only worth pinning while the paper claim holds:
    // a fingerprint-faithful matrix where Zhuge lost would pass a pure
    // drift check, so the claim is judged on both paths.
    const bool claim_holds = !a.paper_claim || zhuge_wins(actual);
    if (update) {
      if (!claim_holds) {
        std::snprintf(line, sizeof(line),
                      "golden: %-20s CLAIM FAILED (zhuge p95 not < vanilla), "
                      "not written\n", a.name);
        out << line;
        rc = 1;
      } else if (!write_record(path, actual)) {
        out << "golden: cannot write " << path << "\n";
        return 2;
      } else {
        out << "golden: wrote " << path << " (fp=" << fp << ")\n";
      }
      continue;
    }
    const auto expected = load_record(path, &err);
    if (!expected.has_value()) {
      out << "golden: " << err << "\n";
      rc = 1;
      continue;
    }
    const auto diffs = compare_golden(*expected, actual);
    const char* verdict = !diffs.empty() ? "DRIFT"
                          : !claim_holds ? "CLAIM FAILED"
                                         : "OK";
    std::snprintf(line, sizeof(line), "golden: %-20s %s (fp=%s)\n", a.name,
                  verdict, fp.c_str());
    out << line;
    for (const auto& d : diffs) out << "  " << d << "\n";
    if (!diffs.empty() || !claim_holds) rc = 1;
  }
  if (!update && rc != 0) {
    out << "golden drift detected. If intentional, refresh with:\n"
        << "  scenario_run --update-golden " << dir << "\n";
  }
  return rc;
}

}  // namespace zhuge::app
