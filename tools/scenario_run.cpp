// scenario_run — the one run tool: a ScenarioSpec sweep (--spec), the
// paper evaluation matrix (--eval), the chaos suite (--chaos) or the golden
// anchors. usage() lists the flags and DESIGN.md §6 the contract: each run
// mode narrows its named runs with --only, runs them on the indexed pool
// (app/sweep.hpp) and ends in finish(), and its stdout, --record file and
// --trace/--metrics files are bit-identical for any --threads value. Run
// the golden modes from the repository root, where the attribution anchor
// finds examples/specs/.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "app/chaos.hpp"
#include "app/eval.hpp"
#include "app/golden.hpp"
#include "app/record.hpp"
#include "app/spec.hpp"
#include "app/sweep.hpp"
#include "obs/attrib.hpp"
#include "obs/context.hpp"
#include "obs/invariants.hpp"
#include "obs/session.hpp"
#include "obs/settings.hpp"
#include "obs/slo.hpp"

namespace {

using namespace zhuge;

/// Print the problem and the usage text; returns the exit code for a bad
/// command line.
int usage(const std::string& why) {
  std::fprintf(
      stderr,
      "scenario_run: %s\n"
      "usage: scenario_run (--spec FILE [--seeds N] | --eval [FILE] | --chaos)\n"
      "          [--seed S] [--threads N] [--verify-serial] [--record PATH]\n"
      "          [--only NAME]... [--list] [--trace FILE] [--metrics FILE] [--attrib]\n"
      "       scenario_run --update-golden [DIR] | --check-golden [DIR] | --list-golden\n"
      "  --spec FILE      run a ScenarioSpec; --seeds N sweeps seeds 1..N\n"
      "  --eval [FILE]    run the eval matrix, narrowed by an EvalSpec FILE\n"
      "  --chaos          run the chaos suite and judge recovery\n"
      "  --seed S         override the spec's, matrix's or suite's seed\n"
      "  --threads N      worker threads (default 1)\n"
      "  --verify-serial  re-run at one thread, fail on fingerprint mismatch\n"
      "  --record PATH    write the run record (JSON, app/record.hpp)\n"
      "  --only NAME      run only the names containing NAME (repeatable)\n"
      "  --list           print the selection (a spec's flow schedule), exit\n"
      "  --trace, --metrics, --attrib   as in figures (obs/session.hpp)\n"
      "  --update-golden, --check-golden  regenerate / verify the golden\n"
      "                   anchors in DIR (default tests/golden)\n"
      "  --list-golden    print the golden anchor names\n",
      why.c_str());
  return 2;
}

enum class Mode { kNone, kSpec, kEval, kChaos, kUpdateGolden, kCheckGolden, kListGolden };

struct Cli {
  Mode mode = Mode::kNone;
  std::string path;  ///< the spec FILE, the EvalSpec FILE or the golden DIR
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> seeds;  ///< --spec only
  unsigned threads = 1;
  bool verify_serial = false;
  std::string record_path;
  std::vector<std::string> only;
  bool list = false;
};

/// Parse the arguments ObsSession left; returns why they are bad, or an
/// empty string.
std::string parse(const std::vector<std::string_view>& args, Cli& cli) {
  const std::string one_mode = "give exactly one of --spec, --eval, --chaos and the golden flags";
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string arg(args[i]);
    const bool has_value = i + 1 < args.size();
    const Mode mode = arg == "--spec"            ? Mode::kSpec
                      : arg == "--eval"          ? Mode::kEval
                      : arg == "--chaos"         ? Mode::kChaos
                      : arg == "--update-golden" ? Mode::kUpdateGolden
                      : arg == "--check-golden"  ? Mode::kCheckGolden
                      : arg == "--list-golden"   ? Mode::kListGolden
                                                 : Mode::kNone;
    if (mode != Mode::kNone) {
      if (cli.mode != Mode::kNone) return one_mode;
      cli.mode = mode;
      // --spec needs its FILE; --eval and two golden modes take an
      // optional value: the next argument, unless it is a flag.
      if (mode == Mode::kSpec && !has_value) return arg + " needs a value";
      const bool optional = mode == Mode::kEval || mode == Mode::kUpdateGolden ||
                            mode == Mode::kCheckGolden;
      if (mode == Mode::kSpec || (optional && has_value && !args[i + 1].starts_with('-'))) {
        cli.path = args[++i];
      }
    } else if (arg == "--verify-serial") {
      cli.verify_serial = true;
    } else if (arg == "--list") {
      cli.list = true;
    } else if (arg != "--seed" && arg != "--seeds" && arg != "--threads" &&
               arg != "--record" && arg != "--only") {
      return "unknown argument " + arg;
    } else if (!has_value) {
      return arg + " needs a value";
    } else if (arg == "--record") {
      cli.record_path = args[++i];
    } else if (arg == "--only") {
      cli.only.emplace_back(args[++i]);
    } else if (arg == "--threads") {
      const auto v = app::parse_decimal<unsigned>(args[++i]);
      if (!v) return arg + " needs a decimal count";
      cli.threads = *v;
    } else {
      const auto v = app::parse_decimal<std::uint64_t>(args[++i]);
      if (!v) return arg + " needs a decimal count";
      (arg == "--seed" ? cli.seed : cli.seeds) = *v;
    }
  }
  if (cli.mode == Mode::kNone) return one_mode;
  if (cli.seeds && cli.mode != Mode::kSpec) return "--seeds needs --spec";
  // The golden modes (last in Mode) take their own flag and DIR only.
  if (cli.mode >= Mode::kUpdateGolden && args.size() > (cli.path.empty() ? 1u : 2u)) {
    return "the golden flags take no run flags";
  }
  return {};
}

/// Narrow `items` to the names containing any --only string (all of them
/// when there is none). Returns the exit code when the run ends here: 2
/// when nothing is left, 0 once --list has printed each item.
template <class T, class Print>
std::optional<int> select_runs(std::vector<T>& items, const Cli& cli, Print print) {
  std::erase_if(items, [&](const T& item) {
    return !cli.only.empty() &&
           std::none_of(cli.only.begin(), cli.only.end(), [&](const std::string& o) {
             return item.name.find(o) != std::string::npos;
           });
  });
  if (items.empty()) {
    std::fprintf(stderr, "scenario_run: no run matches --only (try --list)\n");
    return 2;
  }
  if (!cli.list) return std::nullopt;
  for (const T& item : items) print(item);
  return 0;
}

const auto print_name = [](const auto& item) { std::printf("%s\n", item.name.c_str()); };

/// What a mode's run hands the shared tail.
struct Outcome {
  std::uint64_t fingerprint = 0;  ///< the suite fingerprint
  /// Re-run the selection at one thread; its suite fingerprint.
  std::function<std::uint64_t()> serial_fingerprint;
  app::Json record;
  obs::Attribution attrib;  ///< merged in run order; empty without --attrib
  std::string summary;      ///< the closing stderr line, or empty
  bool failed = false;      ///< a chaos case failed
};

/// The tail every run mode shares; returns the exit code.
int finish(const Cli& cli, const obs::ObsSession& obs, const Outcome& out) {
  if (!out.attrib.empty()) {
    std::printf("\n");
    obs::write_attrib_report_text(out.attrib, std::cout);
  }
  int rc = out.failed ? 1 : 0;
  // The pool merged every run's checker into this thread's context.
  const std::string inv = obs::invariants().summary();
  if (!inv.empty()) {
    std::fprintf(stderr, "%s\n", inv.c_str());
    rc = 1;
  }
  if (cli.verify_serial && cli.threads > 1) {
    // A throwaway context keeps the re-run out of the trace, the metrics
    // and the invariant summary.
    obs::Context rerun;
    const obs::ContextScope scope(rerun);
    const std::uint64_t serial = out.serial_fingerprint();
    const bool same = serial == out.fingerprint;
    std::fprintf(stderr, "verify-serial: %s (%016llx vs %016llx)\n",
                 same ? "bit-identical" : "MISMATCH",
                 static_cast<unsigned long long>(out.fingerprint),
                 static_cast<unsigned long long>(serial));
    if (!same) rc = 1;
  }
  if (!cli.record_path.empty() && !app::write_record(cli.record_path, out.record)) {
    std::fprintf(stderr, "cannot write %s\n", cli.record_path.c_str());
    rc = 2;
  }
  if (!out.summary.empty()) std::fprintf(stderr, "%s\n", out.summary.c_str());
  return obs.write() ? rc : 2;
}

void print_run(const app::SpecRun& run) {
  const auto& r = run.result;
  const auto rtt = [&](double q) {
    return r.agg_network_rtt_ms.count() > 0 ? r.agg_network_rtt_ms.quantile(q) : 0.0;
  };
  std::printf(
      "%-24s fp=%016llx rtt_p50=%7.1fms rtt_p99=%7.1fms "
      "arrivals=%llu departures=%llu drops=%llu %6.2fs\n",
      run.name.c_str(), static_cast<unsigned long long>(run.fingerprint), rtt(0.50),
      rtt(0.99), static_cast<unsigned long long>(r.arrivals),
      static_cast<unsigned long long>(r.departures),
      static_cast<unsigned long long>(r.qdisc_drops), run.wall_seconds);
}

int run_spec(const Cli& cli, const obs::ObsSession& obs) {
  std::string err;
  const auto spec = app::load_scenario_spec(cli.path, &err);
  if (!spec.has_value()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  // The grid: one point for --seed or the spec's seed, or seeds 1..N.
  std::vector<app::SpecPoint> grid;
  if (cli.seeds.value_or(0) > 0) {
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t s = 1; s <= *cli.seeds; ++s) seeds.push_back(s);
    grid = app::cross_spec_seeds(*spec, seeds);
  } else {
    grid.push_back({spec->name, *spec, cli.seed.value_or(spec->seed)});
  }
  const auto print_schedule = [&](const app::SpecPoint& point) {
    const auto schedule = app::expand_flow_schedule(*spec, point.seed);
    std::printf("# %zu flows, %d stations, seed %llu\n", schedule.size(),
                spec->station_count(), static_cast<unsigned long long>(point.seed));
    for (const auto& ev : schedule) {
      std::printf("flow %3u %-10s station=%-3d zhuge=%d  %7.3fs .. %7.3fs\n",
                  ev.index, app::to_string(ev.kind), ev.station, ev.zhuge ? 1 : 0,
                  ev.start_s, ev.stop_s);
    }
  };
  if (const auto rc = select_runs(grid, cli, print_schedule)) return *rc;

  std::printf("scenario: %s, %zu run(s), %u thread(s)\n", spec->name.c_str(),
              grid.size(), cli.threads);
  const auto runs = app::run_spec_sweep(grid, cli.threads);
  for (const auto& run : runs) print_run(run);
  Outcome out;
  out.fingerprint = app::spec_sweep_fingerprint(runs);
  if (runs.size() > 1) {
    std::printf("sweep fingerprint %s\n", app::to_hex16(out.fingerprint).c_str());
  }
  out.serial_fingerprint = [&grid] {
    return app::spec_sweep_fingerprint(app::run_spec_sweep(grid, 1));
  };
  out.record = app::spec_record(spec->name, runs);
  for (const auto& run : runs) out.attrib.merge(run.result.attrib);
  return finish(cli, obs, out);
}

int run_eval(const Cli& cli, const obs::ObsSession& obs) {
  std::string err;
  auto spec = cli.path.empty() ? std::optional(app::EvalSpec{})
                               : app::load_eval_spec(cli.path, &err);
  if (!spec.has_value()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  spec->seed = cli.seed.value_or(spec->seed);
  auto cells = app::expand_eval_matrix(*spec);
  if (const auto rc = select_runs(cells, cli, print_name)) return *rc;

  const auto res = app::run_eval_matrix(cells, cli.threads);
  app::write_eval_report_text(res, std::cout);
  std::size_t wins = 0;
  for (const auto& h : res.headline) wins += h.zhuge_wins ? 1 : 0;
  Outcome out;
  out.fingerprint = res.fingerprint;
  out.serial_fingerprint = [&cells] { return app::run_eval_matrix(cells, 1).fingerprint; };
  out.record = app::eval_record(spec->name, spec->seed, res);
  char line[160];
  std::snprintf(line, sizeof line,
                "%zu cells, %zu runs, %zu/%zu headline wins (threads %u, "
                "fingerprint %016llx)",
                res.cells.size(), res.runs, wins, res.headline.size(), cli.threads,
                static_cast<unsigned long long>(res.fingerprint));
  out.summary = line;
  return finish(cli, obs, out);
}

int run_chaos(const Cli& cli, const obs::ObsSession& obs) {
  const std::uint64_t seed = cli.seed.value_or(1);
  auto cases = app::chaos_suite(seed);
  if (const auto rc = select_runs(cases, cli, print_name)) return *rc;

  obs::set_invariants_enabled(true);
  const auto res = app::run_chaos_suite(cases, cli.threads);
  for (const auto& v : res.verdicts) {
    std::printf("%s\n", app::format_verdict(v).c_str());
  }
  obs::write_slo_report_text(res.slo, std::cout);
  Outcome out;
  out.fingerprint = res.fingerprint;
  out.serial_fingerprint = [&cases] { return app::run_chaos_suite(cases, 1).fingerprint; };
  out.record = app::chaos_record("chaos_suite", seed, res);
  out.attrib = res.attrib;
  out.failed = res.failed != 0;
  char line[160];
  std::snprintf(line, sizeof line,
                "%zu/%zu cases passed (seed %llu, threads %u, fingerprint %016llx)",
                res.verdicts.size() - static_cast<std::size_t>(res.failed),
                res.verdicts.size(), static_cast<unsigned long long>(seed),
                cli.threads, static_cast<unsigned long long>(res.fingerprint));
  out.summary = line;
  return finish(cli, obs, out);
}

}  // namespace

int main(int argc, char** argv) {
  const obs::ObsSession obs(argc, argv);
  Cli cli;
  const std::string why = obs.error().empty() ? parse(obs.args(), cli) : obs.error();
  if (!why.empty()) return usage(why);

  if (cli.mode == Mode::kSpec) return run_spec(cli, obs);
  if (cli.mode == Mode::kEval) return run_eval(cli, obs);
  if (cli.mode == Mode::kChaos) return run_chaos(cli, obs);
  if (cli.mode == Mode::kListGolden) {
    for (const auto& name : app::golden_names()) std::printf("%s\n", name.c_str());
    return 0;
  }
  const int rc = app::check_goldens(cli.path.empty() ? "tests/golden" : cli.path,
                                    "examples/specs", cli.mode == Mode::kUpdateGolden,
                                    std::cout);
  return obs.write() ? rc : 2;
}
