// latency_attrib — per-stage latency budget of a recorded run.
//
//   latency_attrib --trace FILE [FILE ...] [--record PATH]
//
// Replays "span" records from the Chrome traces written by any bench's
// or tool's --trace flag with attribution on, so a latency budget can be
// built after the fact from a recorded run. The text report (per-stage
// table, budget waterfall, Zhuge-on vs Zhuge-off) goes to stdout; --record
// writes the run record (app/record.hpp) with the stage CDFs. A trace
// carries no run to fingerprint, so the record's fingerprint is null. For
// a live run, use `scenario_run --spec FILE --attrib [--record PATH]`.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "app/record.hpp"
#include "obs/attrib.hpp"
#include "obs/trace_reader.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s --trace FILE [FILE ...] [--record PATH]\n"
      "  --trace FILE   replay span records from Chrome traces\n"
      "  --record PATH  write the run record (JSON, app/record.hpp)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zhuge;

  std::vector<std::string> trace_paths;
  std::string record_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      while (i + 1 < argc && argv[i + 1][0] != '-') trace_paths.push_back(argv[++i]);
    } else if (arg == "--record" && i + 1 < argc) {
      record_path = argv[++i];
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (trace_paths.empty()) {
    usage(argv[0]);
    return 2;
  }

  obs::Attribution attrib;
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
  obs::write_attrib_report_text(attrib, std::cout);

  if (!record_path.empty()) {
    app::Json record = app::make_record("latency_attrib", trace_paths.front(),
                                        0, std::nullopt);
    app::add_attrib(record, attrib);
    if (!app::write_record(record_path, record)) {
      std::fprintf(stderr, "cannot write %s\n", record_path.c_str());
      return 3;
    }
  }
  return 0;
}
