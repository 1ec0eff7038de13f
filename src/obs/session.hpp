#pragma once  // zlint-allow(include-graph): consumed outside src/ — bench/figures.cpp and examples/ include it; no src-internal TU does
// CLI observability session, shared by the figures binary and the
// examples. Parses
//   --trace <file>     enable the event tracer, dump it on exit as
//                      Chrome trace_event JSON
//   --metrics <file>   enable the metrics registry, dump JSON on exit
//   --attrib           enable latency-span stamping, so traces recorded
//                      with --trace carry per-stage span records that
//                      latency_attrib --trace can aggregate
// and writes the requested files when it goes out of scope. The flags set
// the process-wide obs settings (obs/settings.hpp); the files are written
// from the calling thread's current context (obs/context.hpp), into which
// pooled runs (app::run_indexed_pool) merge their records in grid order,
// so a session covers serial and pooled runs alike. With no flags,
// instrumentation stays disabled and the run is unchanged. The examples
// emit metrics exactly the same way bench/figures.cpp does.

#include <cstdio>
#include <string>
#include <string_view>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/settings.hpp"
#include "obs/tracer.hpp"

namespace zhuge::obs {

/// RAII session: construct from argv at the top of main(), keep alive for
/// the whole run. Unknown flags are left untouched for the caller.
class ObsSession {
 public:
  ObsSession(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--trace" && i + 1 < argc) {
        trace_path_ = argv[++i];
        set_tracing_enabled(true);
      } else if (arg == "--metrics" && i + 1 < argc) {
        metrics_path_ = argv[++i];
        set_metrics_enabled(true);
      } else if (arg == "--attrib") {
        set_attrib_enabled(true);
      }
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  ~ObsSession() {
    if (!trace_path_.empty()) {
      if (write_trace_file(tracer(), trace_path_)) {
        std::fprintf(stderr, "[obs] trace: %s (%zu events", trace_path_.c_str(),
                     tracer().size());
        if (tracer().overwritten() > 0) {
          std::fprintf(stderr, ", %llu overwritten",
                       static_cast<unsigned long long>(tracer().overwritten()));
        }
        std::fprintf(stderr, ")\n");
      } else {
        std::fprintf(stderr, "[obs] failed to write trace: %s\n",
                     trace_path_.c_str());
      }
    }
    if (!metrics_path_.empty()) {
      if (write_metrics_file(metrics(), metrics_path_)) {
        std::fprintf(stderr, "[obs] metrics: %s\n", metrics_path_.c_str());
      } else {
        std::fprintf(stderr, "[obs] failed to write metrics: %s\n",
                     metrics_path_.c_str());
      }
    }
    set_tracing_enabled(false);
    set_metrics_enabled(false);
    set_attrib_enabled(false);
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
};

}  // namespace zhuge::obs
