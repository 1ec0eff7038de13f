#pragma once  // zlint-allow(include-graph): consumed outside src/ — bench/figures.cpp and examples/ include it; no src-internal TU does
// CLI observability session, shared by the figures binary and the
// examples. Parses
//   --trace <file>     enable the event tracer, dump it on exit as
//                      Chrome trace_event JSON
//   --metrics <file>   enable the metrics registry, dump JSON on exit
//   --attrib           enable latency-span stamping, so traces recorded
//                      with --trace carry per-stage span records that
//                      trace_summarize can aggregate
// and writes the requested files when it goes out of scope. Every other
// argument is handed back in args(); a --trace or --metrics with no value
// is reported in error() and enables nothing. The flags set the
// process-wide obs settings (obs/settings.hpp); the files are written
// from the calling thread's current context (obs/context.hpp), into which
// pooled runs (app::run_indexed_pool) merge their records in grid order,
// so a session covers serial and pooled runs alike. With no flags,
// instrumentation stays disabled and the run is unchanged. The examples
// emit metrics exactly the same way bench/figures.cpp does.

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/settings.hpp"
#include "obs/tracer.hpp"

namespace zhuge::obs {

/// RAII session: construct from argv at the top of main(), keep alive for
/// the whole run.
class ObsSession {
 public:
  ObsSession(int argc, char** argv) {
    bool attrib = false;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--trace" || arg == "--metrics") {
        if (i + 1 == argc) {
          error_.append(arg).append(" needs a value");
          abandon();
          return;
        }
        (arg == "--trace" ? trace_path_ : metrics_path_) = argv[++i];
      } else if (arg == "--attrib") {
        attrib = true;
      } else {
        args_.push_back(arg);
      }
    }
    set_tracing_enabled(!trace_path_.empty());
    set_metrics_enabled(!metrics_path_.empty());
    set_attrib_enabled(attrib);
  }

  /// The arguments that are not obs flags, in order.
  [[nodiscard]] const std::vector<std::string_view>& args() const { return args_; }
  /// Why the command line is bad, or empty.
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Forget the requested files: for a caller that rejects its command
  /// line and exits without running.
  void abandon() {
    trace_path_.clear();
    metrics_path_.clear();
  }

  /// For a program with no arguments of its own: true when every argument
  /// was an obs flag. Otherwise prints the problem and the usage line to
  /// stderr, abandons the session and returns false (exit 2).
  [[nodiscard]] bool only_obs_flags(const char* argv0) {
    if (error_.empty() && args_.empty()) return true;
    std::string why = error_;
    if (why.empty()) why.append("unknown argument ").append(args_.front());
    std::fprintf(stderr, "%s: %s\nusage: %s [--trace FILE] [--metrics FILE] [--attrib]\n",
                 argv0, why.c_str(), argv0);
    abandon();
    return false;
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
  std::vector<std::string_view> args_;
  std::string error_;
};

}  // namespace zhuge::obs
