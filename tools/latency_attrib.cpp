// latency_attrib — per-stage latency attribution and budget reports.
//
//   latency_attrib --spec FILE [--seed S] [--seeds N] [--threads N]
//                  [--format text|csv|json] [--out PATH]
//   latency_attrib --trace FILE [FILE ...] [--format ...] [--out PATH]
//
// Live mode runs a multi-station ScenarioSpec with the attribution switch
// on (span stamps recorded at every pipeline boundary — pacing, WAN, AP
// qdisc, air, reassembly, decode) and renders the merged latency-budget
// report. Trace mode replays "span" records from JSONL traces written by
// any bench's --trace flag, so a report can be built after the fact from
// a recorded run. Attribution never perturbs results: fingerprints are
// bit-identical with the switch on or off (tests/attrib_test.cpp).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "app/spec.hpp"
#include "app/sweep.hpp"
#include "obs/attrib.hpp"
#include "obs/trace_reader.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s --spec FILE [--seed S] [--seeds N] [--threads N]\n"
      "          [--format text|csv|json] [--out PATH]\n"
      "       %s --trace FILE [FILE ...] [--format ...] [--out PATH]\n"
      "  --spec FILE    run a ScenarioSpec with latency attribution on\n"
      "  --seed S       override the spec's seed\n"
      "  --seeds N      sweep seeds 1..N and merge the attributions\n"
      "  --threads N    worker threads for the sweep (default 1)\n"
      "  --trace FILE   replay span records from a JSONL/Chrome trace\n"
      "  --format F     report format: text (default), csv, json\n"
      "  --out PATH     write the report to PATH instead of stdout\n",
      argv0, argv0);
}

int render(const zhuge::obs::Attribution& attrib, const std::string& format,
           const std::string& out_path) {
  const auto write = [&](std::ostream& os) {
    if (format == "csv") {
      zhuge::obs::write_attrib_report_csv(attrib, os);
    } else if (format == "json") {
      zhuge::obs::write_attrib_report_json(attrib, os);
    } else {
      zhuge::obs::write_attrib_report_text(attrib, os);
    }
  };
  if (out_path.empty()) {
    write(std::cout);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 3;
  }
  write(out);
  std::fprintf(stderr, "report: %s\n", out_path.c_str());
  return out ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zhuge;

  std::string spec_path;
  std::vector<std::string> trace_paths;
  std::uint64_t seed = 0;
  bool seed_set = false;
  std::uint64_t n_seeds = 0;
  unsigned threads = 1;
  std::string format = "text";
  std::string out_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      while (i + 1 < argc && argv[i + 1][0] != '-') trace_paths.push_back(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      seed_set = true;
    } else if (arg == "--seeds" && i + 1 < argc) {
      n_seeds = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (format != "text" && format != "csv" && format != "json") {
    std::fprintf(stderr, "unknown --format %s\n", format.c_str());
    return 2;
  }
  if (spec_path.empty() == trace_paths.empty()) {
    usage(argv[0]);  // exactly one of --spec / --trace
    return 2;
  }

  obs::Attribution attrib;

  if (!trace_paths.empty()) {
    for (const auto& path : trace_paths) {
      try {
        for (const auto& ev : obs::load_trace_file(path)) {
          attrib.add_trace_event(ev);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
      }
    }
    if (attrib.empty()) {
      std::fprintf(stderr,
                   "no span records found — was the trace recorded with "
                   "attribution on (--attrib)?\n");
      return 1;
    }
    return render(attrib, format, out_path);
  }

  std::string err;
  const auto spec = app::load_scenario_spec(spec_path, &err);
  if (!spec.has_value()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  const std::uint64_t base_seed = seed_set ? seed : spec->seed;

  std::vector<app::SpecPoint> grid;
  if (n_seeds > 0) {
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t s = 1; s <= n_seeds; ++s) seeds.push_back(s);
    grid = app::cross_spec_seeds(*spec, seeds);
  } else {
    grid.push_back({spec->name, *spec, base_seed});
  }

  // Progress goes to stderr so `--format json > report.json` stays clean.
  std::fprintf(stderr, "attribution: %s, %zu run(s), %u thread(s)\n",
               spec->name.c_str(), grid.size(), threads);
  const auto runs =
      app::run_spec_sweep(grid, {.threads = threads, .attrib = true});
  for (const auto& run : runs) {
    std::fprintf(stderr, "%-24s fp=%016llx packets=%llu frames=%llu %6.2fs\n",
                 run.name.c_str(),
                static_cast<unsigned long long>(run.fingerprint),
                static_cast<unsigned long long>(run.result.attrib.packets()),
                static_cast<unsigned long long>(run.result.attrib.frames()),
                run.wall_seconds);
    attrib.merge(run.result.attrib);
  }
  if (attrib.empty()) {
    std::fprintf(stderr, "no spans recorded — did every flow miss warmup?\n");
    return 1;
  }
  return render(attrib, format, out_path);
}
