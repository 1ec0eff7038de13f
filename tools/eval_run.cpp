// eval_run — the paper evaluation matrix / baseline tournament.
//
//   eval_run --matrix [--spec FILE] [--cell NAME]... [--list]
//            [--threads N] [--verify-serial] [--record PATH]
//
// --matrix expands the evaluation matrix (mechanisms {vanilla, zhuge,
// fastack, abc} x CCAs {gcc, cubic, bbr} x trace classes W1/W2/C1-C3 x
// station densities) into multi-station scenarios, runs each distinct one
// once on the indexed pool and prints the figure-oriented report; the
// chained cell-verdict fingerprint is bit-identical for any --threads
// value, which --verify-serial proves by re-running serially. With runtime
// invariants on (a Debug build's default) every run is checked on the
// pool, and a non-empty merged checker is printed and fails the run.
// --record writes the run record (app/record.hpp): every cell and
// comparison, bit-identical for any --threads value. The two headline
// cells pinned as golden anchors (Zhuge p95 frame delay < vanilla p95 on
// W1 and C1) are checked with `scenario_run --check-golden`.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "app/eval.hpp"
#include "app/record.hpp"
#include "app/sweep.hpp"
#include "obs/invariants.hpp"

namespace {

/// Print the usage text; returns the exit code for a bad command line.
int usage(const char* argv0) {
  std::printf(
      "usage: %s --matrix [--spec FILE] [--cell NAME]... [--list]\n"
      "          [--threads N] [--verify-serial] [--record PATH]\n"
      "  --matrix          run the evaluation matrix (default axes unless\n"
      "                    --spec narrows them)\n"
      "  --spec FILE       EvalSpec JSON (see examples/specs/eval_*.json)\n"
      "  --cell NAME       run only cells whose name contains NAME\n"
      "                    (repeatable), e.g. W1/gcc or /zhuge/\n"
      "  --list            print the expanded cell names and exit\n"
      "  --threads N       worker threads (default 1)\n"
      "  --verify-serial   re-run serially, fail on fingerprint mismatch\n"
      "  --record PATH     write the run record (JSON, app/record.hpp)\n",
      argv0);
  return 2;
}

bool selected(const std::vector<std::string>& only, const std::string& name) {
  if (only.empty()) return true;
  for (const std::string& o : only) {
    if (name.find(o) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bool matrix = false;
  std::string spec_path;
  std::vector<std::string> only;
  bool list = false;
  unsigned threads = 1;
  bool verify_serial = false;
  std::string record_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--matrix") {
      matrix = true;
    } else if (arg == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
      matrix = true;
    } else if (arg == "--cell" && i + 1 < argc) {
      only.emplace_back(argv[++i]);
      matrix = true;
    } else if (arg == "--list") {
      list = true;
      matrix = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      const auto v = zhuge::app::parse_decimal<unsigned>(argv[++i]);
      if (!v) return usage(argv[0]);
      threads = *v;
    } else if (arg == "--verify-serial") {
      verify_serial = true;
    } else if (arg == "--record" && i + 1 < argc) {
      record_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  if (!matrix) return usage(argv[0]);

  zhuge::app::EvalSpec spec;
  if (!spec_path.empty()) {
    std::string err;
    const auto loaded = zhuge::app::load_eval_spec(spec_path, &err);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    spec = *loaded;
  }

  auto cells = zhuge::app::expand_eval_matrix(spec);
  if (!only.empty()) {
    std::erase_if(cells, [&](const zhuge::app::EvalCellSpec& c) {
      return !selected(only, c.name);
    });
  }
  if (list) {
    for (const auto& c : cells) std::printf("%s\n", c.name.c_str());
    return 0;
  }
  if (cells.empty()) {
    std::fprintf(stderr, "no matching cell (try --list)\n");
    return 2;
  }

  const auto res = zhuge::app::run_eval_matrix(cells, threads);
  zhuge::app::write_eval_report_text(res, std::cout);
  // The pool merged every run's checker into this thread's context.
  const std::string inv = zhuge::obs::invariants().summary();

  if (!record_path.empty() &&
      !zhuge::app::write_record(
          record_path, zhuge::app::eval_record(spec.name, spec.seed, res))) {
    std::fprintf(stderr, "cannot write %s\n", record_path.c_str());
    return 2;
  }

  int rc = 0;
  if (!inv.empty()) {
    std::fprintf(stderr, "%s\n", inv.c_str());
    rc = 1;
  }
  if (verify_serial && threads > 1) {
    const auto serial = zhuge::app::run_eval_matrix(cells, 1);
    const bool same = serial.fingerprint == res.fingerprint;
    std::fprintf(stderr, "verify-serial: %s (%016llx vs %016llx)\n",
                 same ? "bit-identical" : "MISMATCH",
                 static_cast<unsigned long long>(res.fingerprint),
                 static_cast<unsigned long long>(serial.fingerprint));
    if (!same) rc = 1;
  }
  std::size_t wins = 0;
  for (const auto& h : res.headline) wins += h.zhuge_wins ? 1 : 0;
  std::fprintf(stderr,
               "%zu cells, %zu runs, %zu/%zu headline wins (threads %u, "
               "fingerprint %016llx)\n",
               res.cells.size(), res.runs, wins, res.headline.size(), threads,
               static_cast<unsigned long long>(res.fingerprint));
  return rc;
}
