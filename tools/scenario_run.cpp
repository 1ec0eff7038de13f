// scenario_run — run a declarative multi-station ScenarioSpec, sweep it
// across seeds, and maintain the golden anchors.
//
//   scenario_run --spec FILE [--seed S] [--seeds N] [--threads N]
//                [--verify-serial] [--attrib] [--record PATH]
//                [--print-schedule]
//   scenario_run --update-golden [DIR] | --check-golden [DIR] | --list-golden
//
// A spec run is deterministic in (spec, seed): the printed fingerprints
// and the --record file are bit-identical across runs and across
// --threads values, which --verify-serial asserts by re-running the grid
// serially. With runtime invariants on (a Debug build's default) every
// run is checked on the pool, and a non-empty merged checker is printed
// and fails the run. The golden modes regenerate / verify all six anchors
// in tests/golden/ (see src/app/golden.hpp); run them from the repository
// root, where the attribution anchor finds examples/specs/.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "app/golden.hpp"
#include "app/record.hpp"
#include "app/spec.hpp"
#include "app/sweep.hpp"
#include "obs/attrib.hpp"
#include "obs/invariants.hpp"

namespace {

/// Print the usage text; returns the exit code for a bad command line.
int usage(const char* argv0) {
  std::printf(
      "usage: %s --spec FILE [--seed S] [--seeds N] [--threads N]\n"
      "          [--verify-serial] [--attrib] [--record PATH]\n"
      "          [--print-schedule]\n"
      "       %s --update-golden [DIR] | --check-golden [DIR] | --list-golden\n"
      "  --spec FILE       ScenarioSpec JSON (see examples/specs/)\n"
      "  --seed S          override the spec's seed\n"
      "  --seeds N         sweep seeds 1..N instead of a single run\n"
      "  --threads N       worker threads for the sweep (default 1)\n"
      "  --verify-serial   re-run serially, fail on fingerprint mismatch\n"
      "  --attrib          record per-stage latency attribution and print\n"
      "                    the merged budget report\n"
      "  --record PATH     write the run record (JSON, app/record.hpp)\n"
      "  --print-schedule  print the expanded flow schedule and exit\n"
      "  --update-golden   regenerate the golden anchors (default DIR\n"
      "                    tests/golden)\n"
      "  --check-golden    verify the golden anchors, exit 1 on drift or if\n"
      "                    the paper claim no longer holds\n"
      "  --list-golden     print the golden anchor names\n",
      argv0, argv0);
  return 2;
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

}  // namespace

int main(int argc, char** argv) {
  using namespace zhuge;

  std::string spec_path;
  std::uint64_t seed = 0;
  bool seed_set = false;
  std::uint64_t n_seeds = 0;
  unsigned threads = 1;
  bool verify_serial = false;
  bool attrib = false;
  std::string record_path;
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
      const auto v = app::parse_decimal<std::uint64_t>(argv[++i]);
      if (!v) return usage(argv[0]);
      seed = *v;
      seed_set = true;
    } else if (arg == "--seeds" && i + 1 < argc) {
      const auto v = app::parse_decimal<std::uint64_t>(argv[++i]);
      if (!v) return usage(argv[0]);
      n_seeds = *v;
    } else if (arg == "--threads" && i + 1 < argc) {
      const auto v = app::parse_decimal<unsigned>(argv[++i]);
      if (!v) return usage(argv[0]);
      threads = *v;
    } else if (arg == "--verify-serial") {
      verify_serial = true;
    } else if (arg == "--attrib") {
      attrib = true;
    } else if (arg == "--record" && i + 1 < argc) {
      record_path = argv[++i];
    } else if (arg == "--print-schedule") {
      print_schedule = true;
    } else if (arg == "--update-golden") {
      golden_update = true;
      optional_dir();
    } else if (arg == "--check-golden") {
      golden_check = true;
      optional_dir();
    } else if (arg == "--list-golden") {
      for (const auto& name : app::golden_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else {
      return usage(argv[0]);
    }
  }

  if (golden_update || golden_check) {
    return app::check_goldens(golden_dir, "examples/specs", golden_update,
                              std::cout);
  }

  if (spec_path.empty()) return usage(argv[0]);

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
  if (runs.size() > 1) {
    std::printf("sweep fingerprint %s\n",
                app::to_hex16(app::spec_sweep_fingerprint(runs)).c_str());
  }

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
    std::printf("\n");
    obs::write_attrib_report_text(merged, std::cout);
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

  if (!record_path.empty()) {
    if (app::write_record(record_path, app::spec_record(spec->name, runs))) {
      std::printf("record: %s\n", record_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", record_path.c_str());
      rc = rc == 0 ? 3 : rc;
    }
  }
  return rc;
}
