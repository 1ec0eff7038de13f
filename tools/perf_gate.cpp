// perf_gate: CI comparator for bench/perf_hotpath.cpp (DESIGN.md §10).
//
// Compares a google-benchmark JSON run against the checked-in baseline
// (BENCH_pr8.json) and fails — exit 1 — when any gated benchmark's
// max-across-repetitions items_per_second falls below
// baseline * (1 - tolerance).
//
// Max-across-repetitions is deliberate: on a shared CI core, exogenous
// load only ever slows a run down, so the max over N repetitions is the
// least-biased estimate of the code's actual speed, and the one with the
// smallest false-failure rate for a given tolerance. The baseline file
// sets the tolerance band and the minimum repetition count it was
// calibrated for; runs with fewer repetitions are rejected outright so a
// mis-configured CI job cannot pass on a single lucky (or unlucky) sample.
//
// Usage:
//   perf_gate <run.json> <baseline.json>            compare, exit 0/1
//   perf_gate --bless <run.json> <baseline.json>    rewrite gate.baselines
//                                                   from this run's maxima
//
// --bless re-serialises the whole baseline document (keys sorted, 2-space
// indent); commit the result. Prose fields are preserved verbatim.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

using zhuge::obs::Json;

struct Measured {
  double max_items_per_second = 0.0;
  int repetitions = 0;
};

std::string read_file(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *ok = false;
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *ok = true;
  return ss.str();
}

/// Extract per-benchmark max items_per_second from google-benchmark JSON
/// output. Aggregate rows (_mean/_median/_stddev/_cv) are skipped: newer
/// libbenchmark tags them run_type=="aggregate", older ones only via the
/// name suffix, so both signals are checked.
std::map<std::string, Measured> collect_run(const Json& run) {
  std::map<std::string, Measured> out;
  const Json* arr = run.find("benchmarks");
  if (arr == nullptr || !arr->is_array()) return out;
  for (const Json& b : arr->array()) {
    const Json* rt = b.find("run_type");
    if (rt != nullptr && rt->string_or("iteration") != "iteration") continue;
    const Json* rn = b.find("run_name");
    std::string name = rn != nullptr ? rn->string_or("") : "";
    if (name.empty()) {
      const Json* n = b.find("name");
      name = n != nullptr ? n->string_or("") : "";
    }
    if (name.empty()) continue;
    if (rt == nullptr) {
      for (const char* suffix : {"_mean", "_median", "_stddev", "_cv"}) {
        const std::string s{suffix};
        if (name.size() > s.size() &&
            name.compare(name.size() - s.size(), s.size(), s) == 0) {
          name.clear();
          break;
        }
      }
      if (name.empty()) continue;
    }
    const Json* ips = b.find("items_per_second");
    if (ips == nullptr) continue;
    Measured& m = out[name];
    m.max_items_per_second =
        std::max(m.max_items_per_second, ips->number_or(0.0));
    ++m.repetitions;
  }
  return out;
}

std::string human(double ips) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fM/s", ips / 1e6);
  return buf;
}

int bless(const Json& run, Json baseline, const std::string& baseline_path) {
  const auto measured = collect_run(run);
  if (measured.empty()) {
    std::fprintf(stderr, "perf_gate: run has no benchmarks to bless from\n");
    return 1;
  }
  Json gate;
  if (const Json* g = baseline.find("gate"); g != nullptr) gate = *g;
  Json baselines = Json::make_object();
  for (const auto& [name, m] : measured) {
    baselines.set(name, Json::make_number(m.max_items_per_second));
  }
  gate.set("baselines", baselines);
  baseline.set("gate", gate);
  std::ofstream out(baseline_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "perf_gate: cannot write %s\n", baseline_path.c_str());
    return 1;
  }
  out << baseline.dump(2) << '\n';
  std::printf("perf_gate: blessed %zu baselines into %s\n", measured.size(),
              baseline_path.c_str());
  for (const auto& [name, m] : measured) {
    std::printf("  %-32s %s (max of %d reps)\n", name.c_str(),
                human(m.max_items_per_second).c_str(), m.repetitions);
  }
  return 0;
}

int compare(const Json& run, const Json& baseline) {
  const Json* gate = baseline.find("gate");
  const Json* baselines = gate != nullptr ? gate->find("baselines") : nullptr;
  if (baselines == nullptr || !baselines->is_object()) {
    std::fprintf(stderr, "perf_gate: baseline has no gate.baselines object\n");
    return 1;
  }
  const double tol =
      gate->find("tolerance") != nullptr
          ? gate->find("tolerance")->number_or(0.5)
          : 0.5;
  const int min_reps =
      gate->find("min_repetitions") != nullptr
          ? static_cast<int>(gate->find("min_repetitions")->number_or(1))
          : 1;

  const auto measured = collect_run(run);
  bool failed = false;

  std::printf("%-32s %12s %12s %7s  %s\n", "benchmark", "baseline", "measured",
              "ratio", "verdict");
  for (const auto& [name, base] : baselines->object()) {
    const double want = base.number_or(0.0) * (1.0 - tol);
    const auto it = measured.find(name);
    if (it == measured.end()) {
      std::printf("%-32s %12s %12s %7s  FAIL (missing from run)\n",
                  name.c_str(), human(base.number_or(0.0)).c_str(), "-", "-");
      failed = true;
      continue;
    }
    if (it->second.repetitions < min_reps) {
      std::printf("%-32s %12s %12s %7s  FAIL (%d reps < min %d)\n",
                  name.c_str(), human(base.number_or(0.0)).c_str(),
                  human(it->second.max_items_per_second).c_str(), "-",
                  it->second.repetitions, min_reps);
      failed = true;
      continue;
    }
    const double got = it->second.max_items_per_second;
    const double ratio = base.number_or(0.0) > 0.0
                             ? got / base.number_or(0.0)
                             : 0.0;
    const bool ok = got >= want;
    std::printf("%-32s %12s %12s %6.2fx  %s\n", name.c_str(),
                human(base.number_or(0.0)).c_str(), human(got).c_str(), ratio,
                ok ? "ok" : "FAIL");
    if (!ok) {
      std::printf(
          "  ^ max of %d reps is below baseline * (1 - %.2f) = %s — either a\n"
          "    real regression or a miscalibrated baseline; to re-bless run\n"
          "    perf_gate --bless <run.json> <baseline.json> and commit.\n",
          it->second.repetitions, tol, human(want).c_str());
      failed = true;
    }
  }
  for (const auto& [name, m] : measured) {
    if (baselines->find(name) == nullptr) {
      std::printf("%-32s %12s %12s %7s  warn: not in baseline (bless to gate)\n",
                  name.c_str(), "-", human(m.max_items_per_second).c_str(),
                  "-");
    }
  }
  std::printf("perf_gate: %s (tolerance %.2f, min %d reps)\n",
              failed ? "FAIL" : "PASS", tol, min_reps);
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool do_bless = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--bless") {
      do_bless = true;
    } else if (a == "-h" || a == "--help") {
      std::printf("usage: perf_gate [--bless] <run.json> <baseline.json>\n");
      return 0;
    } else {
      paths.push_back(a);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: perf_gate [--bless] <run.json> <baseline.json>\n");
    return 2;
  }

  bool ok = false;
  const std::string run_text = read_file(paths[0], &ok);
  if (!ok) {
    std::fprintf(stderr, "perf_gate: cannot read %s\n", paths[0].c_str());
    return 2;
  }
  const std::string base_text = read_file(paths[1], &ok);
  if (!ok) {
    std::fprintf(stderr, "perf_gate: cannot read %s\n", paths[1].c_str());
    return 2;
  }

  std::string err;
  const auto run = Json::parse(run_text, &err);
  if (!run.has_value()) {
    std::fprintf(stderr, "perf_gate: %s: %s\n", paths[0].c_str(), err.c_str());
    return 2;
  }
  const auto baseline = Json::parse(base_text, &err);
  if (!baseline.has_value()) {
    std::fprintf(stderr, "perf_gate: %s: %s\n", paths[1].c_str(), err.c_str());
    return 2;
  }

  return do_bless ? bless(*run, *baseline, paths[1]) : compare(*run, *baseline);
}
