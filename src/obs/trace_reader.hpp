#pragma once
// Loader for exported traces: reads the Chrome trace_event JSON that
// write_chrome_trace writes (obs/export.hpp) back into events with owned
// strings, through the repo's one JSON codec (obs/json.hpp). Used by
// tools/trace_summarize (which also replays span records into
// obs::Attribution) and the round-trip tests.

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace zhuge::obs {

/// A trace event read back from disk. Unlike the recording-side
/// TraceEvent, strings are owned (the file is the source of truth).
struct LoadedEvent {
  double t_us = 0.0;
  std::string component;
  std::string name;
  std::vector<std::pair<std::string, double>> fields;
};

/// Parse a Chrome trace JSON document ({"traceEvents":[...]} or a bare
/// event array). Metadata events and non-numeric args are skipped. Throws
/// std::runtime_error on malformed input, with the JSON codec's
/// "line N (offset M): ..." message.
[[nodiscard]] std::vector<LoadedEvent> load_trace(std::istream& in);

/// As load_trace, from a file path. Throws std::runtime_error when the
/// file cannot be opened or parsed.
[[nodiscard]] std::vector<LoadedEvent> load_trace_file(const std::string& path);

}  // namespace zhuge::obs
