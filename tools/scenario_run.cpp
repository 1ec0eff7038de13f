// scenario_run — run a declarative multi-station ScenarioSpec, sweep it
// across seeds, and maintain the golden-trace records.
//
//   scenario_run --spec FILE [--seed S] [--seeds N] [--threads N]
//                [--verify-serial] [--metrics PATH] [--print-schedule]
//   scenario_run --update-golden [DIR] | --check-golden [DIR] | --list-golden
//
// A spec run is deterministic in (spec, seed): the printed fingerprint is
// bit-identical across runs and across --threads values, which
// --verify-serial asserts by re-running the grid serially. With runtime
// invariants on (a Debug build's default) every run is checked on the
// pool, and a non-empty merged checker is printed and fails the run. The golden
// modes regenerate / verify tests/golden/*.json (see src/app/golden.hpp).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <fstream>
#include <iostream>

#include "app/golden.hpp"
#include "app/scenario.hpp"
#include "app/spec.hpp"
#include "app/sweep.hpp"
#include "obs/attrib.hpp"
#include "obs/export.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s --spec FILE [--seed S] [--seeds N] [--threads N]\n"
      "          [--verify-serial] [--metrics PATH] [--print-schedule]\n"
      "          [--attrib] [--attrib-out PATH]\n"
      "       %s --update-golden [DIR] | --check-golden [DIR] | --list-golden\n"
      "  --spec FILE       ScenarioSpec JSON (see examples/specs/)\n"
      "  --seed S          override the spec's seed\n"
      "  --seeds N         sweep seeds 1..N instead of a single run\n"
      "  --threads N       worker threads for the sweep (default 1)\n"
      "  --verify-serial   re-run serially, fail on fingerprint mismatch\n"
      "  --metrics PATH    write aggregated headline metrics JSON\n"
      "  --attrib          record per-stage latency attribution and print\n"
      "                    the merged budget report (see latency_attrib)\n"
      "  --attrib-out PATH write the attribution report to PATH instead\n"
      "  --print-schedule  print the expanded flow schedule and exit\n"
      "  --update-golden   regenerate golden records (default DIR tests/golden)\n"
      "  --check-golden    verify golden records, exit 1 on drift\n"
      "  --list-golden     print the canonical golden scenario names\n",
      argv0, argv0);
}

/// The attribution golden anchor: the dense 64-station churn spec, run at
/// its embedded seed with attribution on, pinning each stage's aggregate
/// p95. A drift report here names the stage that moved.
constexpr const char* kAttribGoldenName = "attrib_dense64";
constexpr const char* kAttribGoldenSpec = "examples/specs/dense_64sta_churn.json";

int run_attrib_golden(const std::string& dir, bool update) {
  const std::string path = dir + "/" + std::string(kAttribGoldenName) + ".json";
  std::string err;
  const auto spec = zhuge::app::load_scenario_spec(kAttribGoldenSpec, &err);
  if (!spec.has_value()) {
    // The spec lives under examples/ and is only reachable from the repo
    // root; golden upkeep from elsewhere just skips the attrib anchor.
    std::printf("golden: %-20s SKIP (%s)\n", kAttribGoldenName, err.c_str());
    return 0;
  }
  zhuge::obs::set_attrib_enabled(true);
  const auto runs =
      zhuge::app::run_spec_sweep({{spec->name, *spec, spec->seed}}, 1);
  zhuge::obs::set_attrib_enabled(false);
  const auto actual = zhuge::app::make_attrib_golden(
      kAttribGoldenName, spec->seed, runs.front().result.attrib);
  if (update) {
    if (!zhuge::app::write_attrib_golden_file(path, actual)) {
      std::fprintf(stderr, "golden: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("golden: wrote %s (%zu stages)\n", path.c_str(),
                actual.stage_p95_us.size());
    return 0;
  }
  const auto expected = zhuge::app::load_attrib_golden_file(path, &err);
  if (!expected.has_value()) {
    std::fprintf(stderr, "golden: %s\n", err.c_str());
    return 1;
  }
  const auto diffs = zhuge::app::compare_attrib_golden(*expected, actual);
  if (diffs.empty()) {
    std::printf("golden: %-20s OK (%zu stages)\n", kAttribGoldenName,
                actual.stage_p95_us.size());
    return 0;
  }
  std::printf("golden: %-20s DRIFT\n", kAttribGoldenName);
  for (const auto& d : diffs) std::printf("  %s\n", d.c_str());
  return 1;
}

void print_run(const zhuge::app::SpecRun& run) {
  const auto& r = run.result;
  std::printf(
      "%-24s fp=%016llx rtt_p50=%7.1fms rtt_p99=%7.1fms "
      "arrivals=%llu departures=%llu drops=%llu %6.2fs\n",
      run.name.c_str(), static_cast<unsigned long long>(run.fingerprint),
      r.agg_network_rtt_ms.count() > 0 ? r.agg_network_rtt_ms.quantile(0.50)
                                       : 0.0,
      r.agg_network_rtt_ms.count() > 0 ? r.agg_network_rtt_ms.quantile(0.99)
                                       : 0.0,
      static_cast<unsigned long long>(r.arrivals),
      static_cast<unsigned long long>(r.departures),
      static_cast<unsigned long long>(r.qdisc_drops), run.wall_seconds);
}

int run_golden(const std::string& dir, bool update) {
  int rc = 0;
  for (const auto& name : zhuge::app::golden_scenario_names()) {
    const std::string path = dir + "/" + name + ".json";
    const auto actual = zhuge::app::compute_golden(name);
    if (!actual.has_value()) {
      std::fprintf(stderr, "golden: unknown scenario %s\n", name.c_str());
      return 2;
    }
    if (update) {
      if (!zhuge::app::write_golden_file(path, *actual)) {
        std::fprintf(stderr, "golden: cannot write %s\n", path.c_str());
        return 2;
      }
      std::printf("golden: wrote %s (fp=%016llx)\n", path.c_str(),
                  static_cast<unsigned long long>(actual->fingerprint));
      continue;
    }
    std::string err;
    const auto expected = zhuge::app::load_golden_file(path, &err);
    if (!expected.has_value()) {
      std::fprintf(stderr, "golden: %s\n", err.c_str());
      rc = 1;
      continue;
    }
    const auto diffs = zhuge::app::compare_golden(*expected, *actual);
    if (diffs.empty()) {
      std::printf("golden: %-20s OK (fp=%016llx)\n", name.c_str(),
                  static_cast<unsigned long long>(actual->fingerprint));
    } else {
      std::printf("golden: %-20s DRIFT\n", name.c_str());
      for (const auto& d : diffs) std::printf("  %s\n", d.c_str());
      rc = 1;
    }
  }
  const int attrib_rc = run_attrib_golden(dir, update);
  rc = rc != 0 ? rc : attrib_rc;
  if (!update && rc != 0) {
    std::printf(
        "golden drift detected. If intentional, refresh with:\n"
        "  scenario_run --update-golden %s\n",
        dir.c_str());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zhuge;

  std::string spec_path;
  std::uint64_t seed = 0;
  bool seed_set = false;
  std::uint64_t n_seeds = 0;
  unsigned threads = 1;
  bool verify_serial = false;
  std::string metrics_path;
  bool attrib = false;
  std::string attrib_out;
  bool print_schedule = false;
  std::string golden_dir = "tests/golden";
  bool golden_update = false;
  bool golden_check = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto optional_dir = [&] {
      if (i + 1 < argc && argv[i + 1][0] != '-') golden_dir = argv[++i];
    };
    if (arg == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      seed_set = true;
    } else if (arg == "--seeds" && i + 1 < argc) {
      n_seeds = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--verify-serial") {
      verify_serial = true;
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--attrib") {
      attrib = true;
    } else if (arg == "--attrib-out" && i + 1 < argc) {
      attrib = true;
      attrib_out = argv[++i];
    } else if (arg == "--print-schedule") {
      print_schedule = true;
    } else if (arg == "--update-golden") {
      golden_update = true;
      optional_dir();
    } else if (arg == "--check-golden") {
      golden_check = true;
      optional_dir();
    } else if (arg == "--list-golden") {
      for (const auto& name : app::golden_scenario_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  if (golden_update || golden_check) return run_golden(golden_dir, golden_update);

  if (spec_path.empty()) {
    usage(argv[0]);
    return 2;
  }

  std::string err;
  const auto spec = app::load_scenario_spec(spec_path, &err);
  if (!spec.has_value()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  const std::uint64_t base_seed = seed_set ? seed : spec->seed;

  if (print_schedule) {
    const auto schedule = app::expand_flow_schedule(*spec, base_seed);
    std::printf("# %zu flows, %d stations, seed %llu\n", schedule.size(),
                spec->station_count(),
                static_cast<unsigned long long>(base_seed));
    for (const auto& ev : schedule) {
      std::printf("flow %3u %-10s station=%-3d zhuge=%d  %7.3fs .. %7.3fs\n",
                  ev.index, app::to_string(ev.kind), ev.station,
                  ev.zhuge ? 1 : 0, ev.start_s, ev.stop_s);
    }
    return 0;
  }

  // Build the grid: one point for --seed/spec seed, or seeds 1..N.
  std::vector<app::SpecPoint> grid;
  if (n_seeds > 0) {
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t s = 1; s <= n_seeds; ++s) seeds.push_back(s);
    grid = app::cross_spec_seeds(*spec, seeds);
  } else {
    grid.push_back({spec->name, *spec, base_seed});
  }

  std::printf("scenario: %s, %zu run(s), %u thread(s)\n", spec->name.c_str(),
              grid.size(), threads);
  obs::set_attrib_enabled(attrib);
  const auto runs = app::run_spec_sweep(grid, threads);
  for (const auto& run : runs) print_run(run);

  int rc = 0;
  // The pool merged every run's checker into this thread's context.
  const std::string inv = obs::invariants().summary();
  if (!inv.empty()) {
    std::printf("%s\n", inv.c_str());
    rc = 1;
  }
  if (attrib) {
    obs::Attribution merged;
    for (const auto& run : runs) merged.merge(run.result.attrib);
    if (attrib_out.empty()) {
      std::printf("\n");
      obs::write_attrib_report_text(merged, std::cout);
    } else {
      std::ofstream out(attrib_out);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", attrib_out.c_str());
        rc = 3;
      } else {
        obs::write_attrib_report_text(merged, out);
        std::printf("attrib report: %s\n", attrib_out.c_str());
      }
    }
  }
  if (verify_serial) {
    const auto serial = app::run_spec_sweep(grid, 1);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (serial[i].fingerprint != runs[i].fingerprint) {
        std::printf("MISMATCH %s: parallel %016llx != serial %016llx\n",
                    runs[i].name.c_str(),
                    static_cast<unsigned long long>(runs[i].fingerprint),
                    static_cast<unsigned long long>(serial[i].fingerprint));
        rc = 1;
      }
    }
    if (rc == 0) {
      std::printf("verify-serial: all %zu fingerprints match\n", runs.size());
    }
  }

  if (!metrics_path.empty()) {
    obs::Registry registry;
    app::export_spec_sweep_metrics(runs, registry);
    if (!obs::write_metrics_file(registry, metrics_path)) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      rc = rc == 0 ? 3 : rc;
    } else {
      std::printf("metrics: %s\n", metrics_path.c_str());
    }
  }
  return rc;
}
