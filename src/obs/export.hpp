#pragma once
// Exporters for the observability layer: the event trace as Chrome
// trace_event JSON (opens in chrome://tracing and https://ui.perfetto.dev,
// and reads back with obs/trace_reader.hpp) and a metrics-registry JSON
// summary. Both write through the repo's one JSON codec (obs/json.hpp), so
// every number round-trips exactly and a non-finite one is null.

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace zhuge::obs {

/// Chrome trace_event format: one instant event per record, components
/// mapped to named threads so each gets its own row in the viewer.
void write_chrome_trace(const Tracer& tracer, std::ostream& out);

/// Registry summary: counters and gauges by name; histograms with count,
/// sum, min/max, mean, p50/p95/p99/p999 and non-empty buckets.
void write_metrics_json(const Registry& registry, std::ostream& out);

/// File convenience wrappers. Return false when the file cannot be opened
/// or written.
bool write_trace_file(const Tracer& tracer, const std::string& path);
bool write_metrics_file(const Registry& registry, const std::string& path);

}  // namespace zhuge::obs
