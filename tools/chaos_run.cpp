// chaos_run — run chaos suites and report recovery verdicts.
//
//   chaos_run [--matrix] [--seed N] [--case NAME]... [--list]
//             [--threads N] [--verify-serial] [--record PATH]
//             [--no-invariants] [--attrib] [-v]
//
// Default mode runs the 7-case standard suite (app::standard_chaos_suite)
// serially. --matrix switches to the 24-case recovery-SLO chaos matrix
// (feedback-path fault kinds x sender CCAs x channel profiles) on the
// parallel sweep pool; verdicts are bit-identical for any --threads value,
// and --verify-serial proves it by re-running serially and comparing
// matrix fingerprints. Both modes run with the runtime invariant checker
// enabled unless --no-invariants; the matrix prints the merged checker's
// summary and fails when it is non-empty. Both modes print one verdict
// line per case and the recovery-SLO report, and --record writes the run
// record (app/record.hpp) with every verdict and the SLO aggregate CDFs;
// the record's fingerprint chains the verdicts in case order. Exits
// non-zero when any
// selected case fails — the same judgment the CI chaos jobs
// apply via tests/chaos_test.cpp and tests/resilience_test.cpp, packaged
// for interactive use and for sweeping seeds.

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
#include "obs/slo.hpp"
#include "obs/spans.hpp"

namespace {

/// Print the usage text; returns the exit code for a bad command line.
int usage(const char* argv0) {
  std::printf(
      "usage: %s [--matrix] [--seed N] [--case NAME]... [--list]\n"
      "          [--threads N] [--verify-serial] [--record PATH]\n"
      "          [--no-invariants] [--attrib] [-v]\n"
      "  --matrix         run the recovery-SLO chaos matrix instead of the\n"
      "                   standard suite\n"
      "  --seed N         RNG seed for every case (default 1)\n"
      "  --case NAME      run only cases whose name contains NAME\n"
      "                   (repeatable); default: all\n"
      "  --list           print the case names and exit\n"
      "  --threads N      matrix worker threads (default 1; matrix only)\n"
      "  --verify-serial  matrix only: re-run serially and require the\n"
      "                   bit-identical verdict fingerprint\n"
      "  --record PATH    write the run record (JSON, app/record.hpp)\n"
      "  --no-invariants  leave the runtime invariant checker off\n"
      "  --attrib         record latency attribution across the ran cases\n"
      "                   and print the merged budget report at the end\n"
      "                   (standard suite only)\n"
      "  -v               also print the invariant summary per failed case\n",
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

/// Write the run record when --record was given; false on I/O failure.
bool write_chaos_record(const std::string& path, const std::string& name,
                        std::uint64_t seed,
                        const zhuge::app::ChaosMatrixResult& res,
                        const zhuge::obs::Attribution* attrib) {
  if (path.empty()) return true;
  zhuge::app::Json record = zhuge::app::chaos_record(name, seed, res);
  if (attrib != nullptr && !attrib->empty()) {
    zhuge::app::add_attrib(record, *attrib);
  }
  if (zhuge::app::write_record(path, record)) return true;
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::vector<std::string> only;
  bool matrix = false;
  bool list = false;
  unsigned threads = 1;
  bool verify_serial = false;
  std::string record_path;
  bool invariants_on = true;
  bool attrib = false;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--matrix") {
      matrix = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      const auto v = zhuge::app::parse_decimal<std::uint64_t>(argv[++i]);
      if (!v) return usage(argv[0]);
      seed = *v;
    } else if (arg == "--case" && i + 1 < argc) {
      only.emplace_back(argv[++i]);
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      const auto v = zhuge::app::parse_decimal<unsigned>(argv[++i]);
      if (!v) return usage(argv[0]);
      threads = *v;
    } else if (arg == "--verify-serial") {
      verify_serial = true;
    } else if (arg == "--record" && i + 1 < argc) {
      record_path = argv[++i];
    } else if (arg == "--no-invariants") {
      invariants_on = false;
    } else if (arg == "--attrib") {
      attrib = true;
    } else if (arg == "-v") {
      verbose = true;
    } else {
      return usage(argv[0]);
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
      std::printf("%s\n", zhuge::app::format_verdict(v).c_str());
    }
    zhuge::obs::write_slo_report_text(res.slo, std::cout);
    // The pool merged every case's checker into this thread's context.
    const std::string inv = zhuge::obs::invariants().summary();
    if (!inv.empty()) std::fprintf(stderr, "%s\n", inv.c_str());

    if (!write_chaos_record(record_path, "chaos_matrix", seed, res,
                            nullptr)) {
      return 2;
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

  std::vector<zhuge::app::ChaosVerdict> verdicts;
  for (const auto& c : suite) {
    if (!selected(only, c.name)) continue;
    zhuge::obs::invariants().clear();
    const auto& v = verdicts.emplace_back(
        zhuge::app::run_chaos_case(c, attrib ? &merged : nullptr));
    std::printf("%s\n", zhuge::app::format_verdict(v).c_str());
    if (!v.passed && verbose) {
      const std::string inv = zhuge::obs::invariants().summary();
      if (!inv.empty()) std::printf("  %s\n", inv.c_str());
    }
  }

  if (verdicts.empty()) {
    std::fprintf(stderr, "no matching case (try --list)\n");
    return 2;
  }
  const auto res = zhuge::app::chain_chaos_verdicts(std::move(verdicts));
  zhuge::obs::write_slo_report_text(res.slo, std::cout);
  if (attrib && !merged.empty()) {
    std::printf("\n");
    zhuge::obs::write_attrib_report_text(merged, std::cout);
  }
  if (!write_chaos_record(record_path, "standard_suite", seed, res,
                          attrib ? &merged : nullptr)) {
    return 2;
  }
  std::fprintf(stderr,
               "%zu/%zu cases passed (seed %llu, fingerprint %016llx)\n",
               res.verdicts.size() - static_cast<std::size_t>(res.failed),
               res.verdicts.size(), static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(res.fingerprint));
  return res.failed == 0 ? 0 : 1;
}
