// trace_summarize — per-component statistics and latency budget of
// exported traces.
//
//   trace_summarize FILE... [--record PATH]
//
// Accepts the Chrome trace JSON files written by any bench's or tool's
// --trace flag and prints, per (component, event) pair, the event count
// plus per-field count/mean/p50/p95/p99. A further section reports the
// two distributions the paper's evaluation leans on: queue sojourn times
// and Fortune Teller prediction error (predicted vs actual delivery
// delay). Traces recorded with latency attribution on (--attrib) also get
// the per-stage latency-budget report replayed from their span records
// (per-stage table, budget waterfall, Zhuge-on vs Zhuge-off). --record
// writes the run record (app/record.hpp) with the stage CDFs; a trace
// without span records then exits 1. A trace carries no run to
// fingerprint, so the record's fingerprint is null. For a live run, use
// `scenario_run --spec FILE --attrib [--record PATH]`.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "app/record.hpp"
#include "obs/attrib.hpp"
#include "obs/trace_reader.hpp"
#include "stats/distribution.hpp"

namespace {

using zhuge::obs::LoadedEvent;
using zhuge::stats::Distribution;

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s FILE... [--record PATH]\n", argv0);
  return 2;
}

void print_field_row(const std::string& name, const Distribution& st) {
  std::printf("      %-22s n=%-8zu mean=%-12.3f p50=%-12.3f p95=%-12.3f p99=%.3f\n",
              name.c_str(), st.count(), st.mean(), st.quantile(0.50),
              st.quantile(0.95), st.quantile(0.99));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zhuge;

  std::vector<std::string> trace_paths;
  std::string record_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--record" && i + 1 < argc) {
      record_path = argv[++i];
    } else if (arg.starts_with("-")) {
      return usage(argv[0]);
    } else {
      trace_paths.push_back(arg);
    }
  }
  if (trace_paths.empty()) return usage(argv[0]);

  std::vector<LoadedEvent> events;
  for (const auto& path : trace_paths) {
    try {
      auto loaded = obs::load_trace_file(path);
      events.insert(events.end(), loaded.begin(), loaded.end());
    } catch (const std::exception& e) {
      // load_trace_file already prefixes the path.
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  // (component, event name) -> field -> values.
  std::map<std::string, std::map<std::string, Distribution>> groups;
  std::map<std::string, std::size_t> group_counts;
  Distribution prediction_error_ms;
  std::map<std::string, Distribution> sojourns_by_queue;
  obs::Attribution attrib;

  double t_min = INFINITY, t_max = -INFINITY;
  for (const auto& e : events) {
    attrib.add_trace_event(e);
    t_min = std::min(t_min, e.t_us);
    t_max = std::max(t_max, e.t_us);
    const std::string key = e.component + " / " + e.name;
    ++group_counts[key];
    auto& fields = groups[key];
    double predicted = NAN, actual = NAN;
    for (const auto& [fname, fval] : e.fields) {
      fields[fname].add(fval);
      if (fname == "predicted_ms") predicted = fval;
      if (fname == "actual_ms") actual = fval;
      if (fname == "sojourn_us") sojourns_by_queue[e.component].add(fval);
    }
    if (!std::isnan(predicted) && !std::isnan(actual)) {
      prediction_error_ms.add(std::abs(predicted - actual));
    }
  }

  if (events.empty()) {
    std::printf("no events.\n");
  } else {
    std::printf("%zu events over %.3f s\n\n", events.size(),
                (t_max - t_min) / 1e6);
  }
  for (const auto& [key, fields] : groups) {
    std::printf("  %-40s x%zu\n", key.c_str(), group_counts[key]);
    for (const auto& [fname, st] : fields) print_field_row(fname, st);
  }
  if (!sojourns_by_queue.empty()) {
    std::printf("\nqueue sojourn (us):\n");
    for (const auto& [comp, st] : sojourns_by_queue) print_field_row(comp, st);
  }
  if (!prediction_error_ms.empty()) {
    std::printf("\nprediction |error| (ms):\n");
    print_field_row("fortune vs delivery", prediction_error_ms);
  }
  if (!attrib.empty()) {
    std::printf("\n");
    obs::write_attrib_report_text(attrib, std::cout);
  }

  if (record_path.empty()) return 0;
  if (attrib.empty()) {
    std::fprintf(stderr,
                 "no span records found — was the trace recorded with "
                 "attribution on (--attrib)?\n");
    return 1;
  }
  app::Json record = app::make_record("trace_summarize", trace_paths.front(),
                                      0, std::nullopt);
  app::add_attrib(record, attrib);
  if (!app::write_record(record_path, record)) {
    std::fprintf(stderr, "cannot write %s\n", record_path.c_str());
    return 3;
  }
  return 0;
}
