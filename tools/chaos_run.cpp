// chaos_run — run the chaos suite and report recovery verdicts.
//
//   chaos_run [--seed N] [--case NAME]... [--list] [--threads N]
//             [--verify-serial] [--record PATH] [--attrib]
//
// Runs the 31-case chaos suite (app::chaos_suite: seven incidents, then
// the 24-case feedback-path matrix), or the cases --case selects, on the
// sweep pool with the runtime invariant checker on. Verdicts are
// bit-identical for any --threads value, and --verify-serial proves it by
// re-running serially and comparing suite fingerprints. Prints one verdict
// line per case, the recovery-SLO report and, with --attrib, the merged
// latency-budget report; the merged invariant summary goes to stderr and
// fails the run when non-empty. --record writes the run record
// (app/record.hpp) with every verdict, the SLO aggregate CDFs and the
// attribution; its fingerprint chains the verdicts in case order. Exits
// non-zero when any selected case fails: the judgment tests/chaos_test.cpp
// and tests/resilience_test.cpp apply, packaged for interactive use and
// for sweeping seeds.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "app/chaos.hpp"
#include "app/record.hpp"
#include "app/sweep.hpp"
#include "obs/attrib.hpp"
#include "obs/invariants.hpp"
#include "obs/settings.hpp"
#include "obs/slo.hpp"

namespace {

/// Print the usage text; returns the exit code for a bad command line.
int usage(const char* argv0) {
  std::printf(
      "usage: %s [--seed N] [--case NAME]... [--list] [--threads N]\n"
      "          [--verify-serial] [--record PATH] [--attrib]\n"
      "  --seed N         RNG seed for every case (default 1)\n"
      "  --case NAME      run only cases whose name contains NAME\n"
      "                   (repeatable); default: all\n"
      "  --list           print the case names and exit\n"
      "  --threads N      worker threads (default 1)\n"
      "  --verify-serial  re-run serially and require the bit-identical\n"
      "                   suite fingerprint\n"
      "  --record PATH    write the run record (JSON, app/record.hpp)\n"
      "  --attrib         record latency attribution across the cases and\n"
      "                   print the merged budget report\n",
      argv0);
  return 2;
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
  using namespace zhuge;

  std::uint64_t seed = 1;
  std::vector<std::string> only;
  bool list = false;
  unsigned threads = 1;
  bool verify_serial = false;
  std::string record_path;
  bool attrib = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      const auto v = app::parse_decimal<std::uint64_t>(argv[++i]);
      if (!v) return usage(argv[0]);
      seed = *v;
    } else if (arg == "--case" && i + 1 < argc) {
      only.emplace_back(argv[++i]);
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      const auto v = app::parse_decimal<unsigned>(argv[++i]);
      if (!v) return usage(argv[0]);
      threads = *v;
    } else if (arg == "--verify-serial") {
      verify_serial = true;
    } else if (arg == "--record" && i + 1 < argc) {
      record_path = argv[++i];
    } else if (arg == "--attrib") {
      attrib = true;
    } else {
      return usage(argv[0]);
    }
  }

  auto cases = app::chaos_suite(seed);
  std::erase_if(cases, [&](const app::ChaosCase& c) {
    return !selected(only, c.name);
  });
  if (list) {
    for (const auto& c : cases) std::printf("%s\n", c.name.c_str());
    return 0;
  }
  if (cases.empty()) {
    std::fprintf(stderr, "no matching case (try --list)\n");
    return 2;
  }

  obs::set_invariants_enabled(true);
  obs::set_attrib_enabled(attrib);
  const auto res = app::run_chaos_suite(cases, threads);
  for (const auto& v : res.verdicts) {
    std::printf("%s\n", app::format_verdict(v).c_str());
  }
  obs::write_slo_report_text(res.slo, std::cout);
  if (!res.attrib.empty()) {
    std::printf("\n");
    obs::write_attrib_report_text(res.attrib, std::cout);
  }
  // The pool merged every case's checker into this thread's context.
  const std::string inv = obs::invariants().summary();
  if (!inv.empty()) std::fprintf(stderr, "%s\n", inv.c_str());

  if (!record_path.empty() &&
      !app::write_record(record_path, app::chaos_record("chaos_suite", seed, res))) {
    std::fprintf(stderr, "cannot write %s\n", record_path.c_str());
    return 2;
  }

  int rc = res.failed == 0 && inv.empty() ? 0 : 1;
  if (verify_serial && threads > 1) {
    const auto serial = app::run_chaos_suite(cases, 1);
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
