// trace_summarize — per-component statistics for an exported trace.
//
//   trace_summarize out.json [out2.json ...]
//
// Accepts the Chrome trace JSON files written by any bench's
// --trace flag and prints, per (component, event) pair, the event count
// plus per-field count/mean/p50/p95/p99. A final section reports the two
// distributions the paper's evaluation leans on: queue sojourn times and
// Fortune Teller prediction error (predicted vs actual delivery delay).
// Traces recorded with latency attribution on (--attrib) additionally get
// the per-stage latency-budget report (see also tools/latency_attrib).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <iostream>

#include "obs/attrib.hpp"
#include "obs/trace_reader.hpp"

namespace {

using zhuge::obs::LoadedEvent;

struct FieldStats {
  std::vector<double> values;

  void add(double v) { values.push_back(v); }

  [[nodiscard]] double quantile(double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
  }

  [[nodiscard]] double mean() const {
    if (values.empty()) return 0.0;
    double s = 0.0;
    for (double v : values) s += v;
    return s / static_cast<double>(values.size());
  }
};

void print_field_row(const std::string& name, FieldStats& st) {
  std::printf("      %-22s n=%-8zu mean=%-12.3f p50=%-12.3f p95=%-12.3f p99=%.3f\n",
              name.c_str(), st.values.size(), st.mean(), st.quantile(0.50),
              st.quantile(0.95), st.quantile(0.99));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <trace.json> [...]\n", argv[0]);
    return 2;
  }

  std::vector<LoadedEvent> events;
  for (int i = 1; i < argc; ++i) {
    try {
      auto loaded = zhuge::obs::load_trace_file(argv[i]);
      events.insert(events.end(), loaded.begin(), loaded.end());
    } catch (const std::exception& e) {
      // load_trace_file already prefixes the path.
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (events.empty()) {
    std::printf("no events.\n");
    return 0;
  }

  double t_min = events.front().t_us, t_max = events.front().t_us;
  // (component, event name) -> field -> values.
  std::map<std::string, std::map<std::string, FieldStats>> groups;
  std::map<std::string, std::size_t> group_counts;
  FieldStats prediction_error_ms;
  std::map<std::string, FieldStats> sojourns_by_queue;
  zhuge::obs::Attribution attrib;

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

  std::printf("%zu events over %.3f s\n\n", events.size(),
              (t_max - t_min) / 1e6);
  for (auto& [key, fields] : groups) {
    std::printf("  %-40s x%zu\n", key.c_str(), group_counts[key]);
    for (auto& [fname, st] : fields) print_field_row(fname, st);
  }

  if (!sojourns_by_queue.empty()) {
    std::printf("\nqueue sojourn (us):\n");
    for (auto& [comp, st] : sojourns_by_queue) print_field_row(comp, st);
  }
  if (!prediction_error_ms.values.empty()) {
    std::printf("\nprediction |error| (ms):\n");
    print_field_row("fortune vs delivery", prediction_error_ms);
  }
  if (!attrib.empty()) {
    std::printf("\n");
    zhuge::obs::write_attrib_report_text(attrib, std::cout);
  }
  return 0;
}
