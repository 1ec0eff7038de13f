#include "obs/export.hpp"

#include <fstream>
#include <map>
#include <ostream>
#include <string_view>

#include "obs/json.hpp"

namespace zhuge::obs {

void write_chrome_trace(const Tracer& tracer, std::ostream& out) {
  // Stable component -> tid mapping, in component-name order.
  std::map<std::string_view, int> tids;
  tracer.for_each([&](const TraceEvent& ev) {
    tids.emplace(ev.component, 0);
  });
  int next_tid = 1;
  for (auto& [component, tid] : tids) tid = next_tid++;

  // Streamed one event at a time through the codec's primitives: the ring
  // holds up to a million events, too many to build as one document.
  std::string buf = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& [component, tid] : tids) {
    if (!first) buf += ',';
    first = false;
    buf += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    append_json_number(buf, tid);
    buf += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    append_json_string(buf, component);
    buf += "}}";
  }
  out << buf;
  tracer.for_each([&](const TraceEvent& ev) {
    buf.clear();
    if (!first) buf += ',';
    first = false;
    buf += "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":";
    append_json_number(buf, tids[ev.component]);
    buf += ",\"ts\":";
    append_json_number(buf, static_cast<double>(ev.t_ns) / 1e3);
    buf += ",\"name\":";
    append_json_string(buf, ev.name);
    buf += ",\"cat\":";
    append_json_string(buf, ev.component);
    buf += ",\"args\":{";
    for (std::uint8_t i = 0; i < ev.n_fields; ++i) {
      if (i > 0) buf += ',';
      append_json_string(buf, ev.fields[i].key);
      buf += ':';
      append_json_number(buf, ev.fields[i].value);
    }
    buf += "}}";
    out << buf;
  });
  out << "]}\n";
}

void write_metrics_json(const Registry& registry, std::ostream& out) {
  const auto num = [](double v) { return Json::make_number(v); };
  Json counters = Json::make_object();
  for (const auto& [name, c] : registry.counters()) {
    counters.set(name, num(static_cast<double>(c.value())));
  }
  Json gauges = Json::make_object();
  for (const auto& [name, g] : registry.gauges()) {
    gauges.set(name, num(g.value()));
  }
  Json histograms = Json::make_object();
  for (const auto& [name, h] : registry.histograms()) {
    Json buckets = Json::make_array();
    for (std::size_t i = 0; i < h.bucket_count(); ++i) {
      if (h.bucket_value(i) == 0) continue;
      Json b = Json::make_object();
      b.set("ge", num(h.bucket_lower(i)));
      b.set("n", num(static_cast<double>(h.bucket_value(i))));
      buckets.push(std::move(b));
    }
    Json j = Json::make_object();
    j.set("count", num(static_cast<double>(h.count())));
    j.set("sum", num(h.sum()));
    j.set("min", num(h.min()));
    j.set("max", num(h.max()));
    j.set("mean", num(h.mean()));
    j.set("p50", num(h.quantile(0.50)));
    j.set("p95", num(h.quantile(0.95)));
    j.set("p99", num(h.quantile(0.99)));
    j.set("p999", num(h.quantile(0.999)));
    j.set("buckets", std::move(buckets));
    histograms.set(name, std::move(j));
  }
  Json doc = Json::make_object();
  doc.set("counters", std::move(counters));
  doc.set("gauges", std::move(gauges));
  doc.set("histograms", std::move(histograms));
  out << doc.dump(2);
}

bool write_trace_file(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(tracer, out);
  return static_cast<bool>(out);
}

bool write_metrics_file(const Registry& registry, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_metrics_json(registry, out);
  return static_cast<bool>(out);
}

}  // namespace zhuge::obs
