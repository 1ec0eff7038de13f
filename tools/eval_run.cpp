// eval_run — the paper evaluation matrix / baseline tournament.
//
//   eval_run --matrix [--spec FILE] [--cell NAME]... [--list]
//            [--threads N] [--verify-serial] [--report PATH]
//   eval_run --update-golden [DIR] | --check-golden [DIR] | --list-golden
//
// --matrix expands the evaluation matrix (mechanisms {vanilla, zhuge,
// fastack, abc} x CCAs {gcc, cubic, bbr} x trace classes W1/W2/C1-C3 x
// station densities) into multi-station scenarios on the indexed pool and
// prints the figure-oriented report; the chained cell-verdict fingerprint
// is bit-identical for any --threads value, which --verify-serial proves
// by re-running serially. With runtime invariants on (a Debug build's
// default) every cell is checked on the pool, and a non-empty merged
// checker is printed and fails the run. The golden modes pin the headline cells (Zhuge
// p95 frame delay < vanilla p95 on W1 and C1) — "does this repo still
// match the paper" is `eval_run --check-golden`.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "app/eval.hpp"
#include "app/golden.hpp"
#include "obs/invariants.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s --matrix [--spec FILE] [--cell NAME]... [--list]\n"
      "          [--threads N] [--verify-serial] [--report PATH]\n"
      "       %s --update-golden [DIR] | --check-golden [DIR] | --list-golden\n"
      "  --matrix          run the evaluation matrix (default axes unless\n"
      "                    --spec narrows them)\n"
      "  --spec FILE       EvalSpec JSON (see examples/specs/eval_*.json)\n"
      "  --cell NAME       run only cells whose name contains NAME\n"
      "                    (repeatable), e.g. W1/gcc or /zhuge/\n"
      "  --list            print the expanded cell names and exit\n"
      "  --threads N       worker threads (default 1)\n"
      "  --verify-serial   re-run serially, fail on fingerprint mismatch\n"
      "  --report PATH     write the report to PATH (.json/.csv by\n"
      "                    extension, text otherwise)\n"
      "  --update-golden   regenerate the headline golden anchors\n"
      "                    (default DIR tests/golden)\n"
      "  --check-golden    verify the anchors, exit 1 on drift or if the\n"
      "                    paper claim no longer holds\n"
      "  --list-golden     print the anchor names\n",
      argv0, argv0);
}

bool selected(const std::vector<std::string>& only, const std::string& name) {
  if (only.empty()) return true;
  for (const std::string& o : only) {
    if (name.find(o) != std::string::npos) return true;
  }
  return false;
}

int run_golden(const std::string& dir, bool update) {
  int rc = 0;
  for (const auto& name : zhuge::app::eval_golden_names()) {
    const std::string path = dir + "/" + name + ".json";
    const auto actual = zhuge::app::compute_eval_golden(name);
    if (!actual.has_value()) {
      std::fprintf(stderr, "golden: unknown eval anchor %s\n", name.c_str());
      return 2;
    }
    // The anchor is only worth pinning while the paper claim holds; a
    // fingerprint-faithful matrix where Zhuge lost would "pass" a pure
    // drift check, so the claim is judged on both paths.
    const auto wins = actual->headline.find("zhuge_wins");
    const bool claim_holds =
        wins != actual->headline.end() && wins->second == 1.0;
    if (update) {
      if (!zhuge::app::write_golden_file(path, *actual)) {
        std::fprintf(stderr, "golden: cannot write %s\n", path.c_str());
        return 2;
      }
      std::printf("golden: wrote %s (fp=%016llx)\n", path.c_str(),
                  static_cast<unsigned long long>(actual->fingerprint));
      if (!claim_holds) {
        std::printf("golden: %-20s CLAIM FAILED (zhuge p95 not < vanilla)\n",
                    name.c_str());
        rc = 1;
      }
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
    if (diffs.empty() && claim_holds) {
      std::printf("golden: %-20s OK (fp=%016llx, zhuge wins)\n", name.c_str(),
                  static_cast<unsigned long long>(actual->fingerprint));
    } else {
      std::printf("golden: %-20s %s\n", name.c_str(),
                  diffs.empty() ? "CLAIM FAILED" : "DRIFT");
      for (const auto& d : diffs) std::printf("  %s\n", d.c_str());
      rc = 1;
    }
  }
  if (!update && rc != 0) {
    std::printf(
        "eval golden drift detected. If intentional, refresh with:\n"
        "  eval_run --update-golden %s\n",
        dir.c_str());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bool matrix = false;
  std::string spec_path;
  std::vector<std::string> only;
  bool list = false;
  unsigned threads = 1;
  bool verify_serial = false;
  std::string report_path;
  std::string golden_dir = "tests/golden";
  bool golden_update = false;
  bool golden_check = false;
  bool golden_list = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto optional_dir = [&] {
      if (i + 1 < argc && argv[i + 1][0] != '-') golden_dir = argv[++i];
    };
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
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--verify-serial") {
      verify_serial = true;
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg == "--update-golden") {
      golden_update = true;
      optional_dir();
    } else if (arg == "--check-golden") {
      golden_check = true;
      optional_dir();
    } else if (arg == "--list-golden") {
      golden_list = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  if (golden_list) {
    for (const auto& name : zhuge::app::eval_golden_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (golden_update || golden_check) {
    const int rc = run_golden(golden_dir, golden_update);
    if (rc != 0 || !matrix) return rc;
  }
  if (!matrix) {
    usage(argv[0]);
    return 2;
  }

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
  // The pool merged every cell's checker into this thread's context.
  const std::string inv = zhuge::obs::invariants().summary();

  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
      return 2;
    }
    const auto ends_with = [&](const char* suffix) {
      const std::string s(suffix);
      return report_path.size() >= s.size() &&
             report_path.compare(report_path.size() - s.size(), s.size(), s) ==
                 0;
    };
    if (ends_with(".json")) {
      out << zhuge::app::eval_report_to_json(res).dump(2) << "\n";
    } else if (ends_with(".csv")) {
      zhuge::app::write_eval_report_csv(res, out);
    } else {
      zhuge::app::write_eval_report_text(res, out);
    }
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
               "%zu cells, %zu/%zu headline wins (threads %u, "
               "fingerprint %016llx)\n",
               res.cells.size(), wins, res.headline.size(), threads,
               static_cast<unsigned long long>(res.fingerprint));
  return rc;
}
