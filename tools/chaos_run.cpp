// chaos_run — run chaos suites and report recovery verdicts.
//
//   chaos_run [--matrix] [--seed N] [--case NAME]... [--list] [--json]
//             [--threads N] [--verify-serial] [--slo-report PATH]
//             [--no-invariants] [--attrib] [-v]
//
// Default mode runs the 7-case standard suite (app::standard_chaos_suite)
// serially. --matrix switches to the 24-case recovery-SLO chaos matrix
// (feedback-path fault kinds x sender CCAs x channel profiles) on the
// parallel sweep pool; verdicts are bit-identical for any --threads value,
// and --verify-serial proves it by re-running serially and comparing
// matrix fingerprints. Both modes run with the runtime invariant checker
// enabled unless --no-invariants; the matrix prints the merged checker's
// summary and fails when it is non-empty. Exits non-zero when any
// selected case fails — the same judgment the CI chaos jobs
// apply via tests/chaos_test.cpp and tests/resilience_test.cpp, packaged
// for interactive use and for sweeping seeds.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "app/chaos.hpp"
#include "obs/attrib.hpp"
#include "obs/invariants.hpp"
#include "obs/slo.hpp"
#include "obs/spans.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--matrix] [--seed N] [--case NAME]... [--list] [--json]\n"
      "          [--threads N] [--verify-serial] [--slo-report PATH]\n"
      "          [--no-invariants] [--attrib] [-v]\n"
      "  --matrix         run the recovery-SLO chaos matrix instead of the\n"
      "                   standard suite\n"
      "  --seed N         RNG seed for every case (default 1)\n"
      "  --case NAME      run only cases whose name contains NAME\n"
      "                   (repeatable); default: all\n"
      "  --list           print the case names and exit\n"
      "  --json           one JSON verdict object per line instead of text\n"
      "  --threads N      matrix worker threads (default 1; matrix only)\n"
      "  --verify-serial  matrix only: re-run serially and require the\n"
      "                   bit-identical verdict fingerprint\n"
      "  --slo-report P   matrix only: write the recovery-SLO report to P\n"
      "                   (JSON when P ends in .json, text otherwise)\n"
      "  --no-invariants  leave the runtime invariant checker off\n"
      "  --attrib         record latency attribution across the ran cases\n"
      "                   and print the merged budget report at the end\n"
      "                   (standard suite only)\n"
      "  -v               also print the invariant summary per failed case\n",
      argv0);
}

/// Substring case filter: `--case fb_loss` selects every CCA/profile cell
/// of that matrix row, `--case fb_loss/gcc/steady` exactly one.
bool selected(const std::vector<std::string>& only, const std::string& name) {
  if (only.empty()) return true;
  return std::any_of(only.begin(), only.end(), [&](const std::string& o) {
    return name.find(o) != std::string::npos;
  });
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::vector<std::string> only;
  bool matrix = false;
  bool list = false;
  bool json = false;
  unsigned threads = 1;
  bool verify_serial = false;
  std::string slo_report;
  bool invariants_on = true;
  bool attrib = false;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--matrix") {
      matrix = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--case" && i + 1 < argc) {
      only.emplace_back(argv[++i]);
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--verify-serial") {
      verify_serial = true;
    } else if (arg == "--slo-report" && i + 1 < argc) {
      slo_report = argv[++i];
    } else if (arg == "--no-invariants") {
      invariants_on = false;
    } else if (arg == "--attrib") {
      attrib = true;
    } else if (arg == "-v") {
      verbose = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  zhuge::obs::set_invariants_enabled(invariants_on);

  if (matrix) {
    auto cases = zhuge::app::chaos_matrix(seed);
    if (!only.empty()) {
      std::erase_if(cases, [&](const zhuge::app::ChaosCase& c) {
        return !selected(only, c.name);
      });
    }
    if (list) {
      for (const auto& c : cases) std::printf("%s\n", c.name.c_str());
      return 0;
    }
    if (cases.empty()) {
      std::fprintf(stderr, "no matching case (try --list)\n");
      return 2;
    }

    const auto res = zhuge::app::run_chaos_matrix(cases, threads);
    for (const auto& v : res.verdicts) {
      std::printf("%s\n", json ? zhuge::app::verdict_json(v).c_str()
                               : zhuge::app::format_verdict(v).c_str());
    }
    // The pool merged every case's checker into this thread's context.
    const std::string inv = zhuge::obs::invariants().summary();
    if (!inv.empty()) std::fprintf(stderr, "%s\n", inv.c_str());

    if (!slo_report.empty()) {
      std::ofstream out(slo_report);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", slo_report.c_str());
        return 2;
      }
      const bool as_json =
          slo_report.size() >= 5 &&
          slo_report.compare(slo_report.size() - 5, 5, ".json") == 0;
      if (as_json) {
        zhuge::obs::write_slo_report_json(res.slo, out);
      } else {
        zhuge::obs::write_slo_report_text(res.slo, out);
      }
    }

    int rc = res.failed == 0 && inv.empty() ? 0 : 1;
    if (verify_serial && threads > 1) {
      const auto serial = zhuge::app::run_chaos_matrix(cases, 1);
      const bool same = serial.fingerprint == res.fingerprint;
      std::fprintf(stderr, "verify-serial: %s (%016llx vs %016llx)\n",
                   same ? "bit-identical" : "MISMATCH",
                   static_cast<unsigned long long>(res.fingerprint),
                   static_cast<unsigned long long>(serial.fingerprint));
      if (!same) rc = 1;
    }
    std::fprintf(stderr,
                 "%zu/%zu cases passed (seed %llu, threads %u, "
                 "fingerprint %016llx)\n",
                 res.verdicts.size() - static_cast<std::size_t>(res.failed),
                 res.verdicts.size(), static_cast<unsigned long long>(seed),
                 threads, static_cast<unsigned long long>(res.fingerprint));
    return rc;
  }

  const auto suite = zhuge::app::standard_chaos_suite(seed);
  if (list) {
    for (const auto& c : suite) std::printf("%s\n", c.name.c_str());
    return 0;
  }

  zhuge::obs::set_attrib_enabled(attrib);
  zhuge::obs::Attribution merged;

  int ran = 0;
  int failed = 0;
  for (const auto& c : suite) {
    if (!selected(only, c.name)) continue;
    zhuge::obs::invariants().clear();
    const auto v = zhuge::app::run_chaos_case(c, attrib ? &merged : nullptr);
    ++ran;
    std::printf("%s\n", json ? zhuge::app::verdict_json(v).c_str()
                             : zhuge::app::format_verdict(v).c_str());
    if (!v.passed) {
      ++failed;
      if (verbose) {
        const std::string inv = zhuge::obs::invariants().summary();
        if (!inv.empty()) std::printf("  %s\n", inv.c_str());
      }
    }
  }

  if (ran == 0) {
    std::fprintf(stderr, "no matching case (try --list)\n");
    return 2;
  }
  if (attrib && !merged.empty()) {
    std::printf("\n");
    zhuge::obs::write_attrib_report_text(merged, std::cout);
  }
  std::fprintf(stderr, "%d/%d cases passed (seed %llu)\n", ran - failed, ran,
               static_cast<unsigned long long>(seed));
  return failed == 0 ? 0 : 1;
}
