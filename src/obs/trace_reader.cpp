#include "obs/trace_reader.hpp"

#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace zhuge::obs {

namespace {

/// One trace_event element -> LoadedEvent; false for metadata and other
/// phases that are not instant or complete events.
bool load_event(const Json& v, LoadedEvent& out) {
  if (const Json* ph = v.find("ph"); ph != nullptr) {
    const std::string phase = ph->string_or("i");
    if (phase != "i" && phase != "I" && phase != "X") return false;
  }
  const Json* ts = v.find("ts");
  if (ts == nullptr) return false;
  out.t_us = ts->number_or(0.0);
  if (const Json* name = v.find("name"); name != nullptr) {
    out.name = name->string_or("");
  }
  if (const Json* cat = v.find("cat"); cat != nullptr) {
    out.component = cat->string_or("");
  }
  if (const Json* args = v.find("args"); args != nullptr) {
    for (const auto& [key, value] : args->object()) {
      if (value.kind() == Json::Kind::kNumber) {
        out.fields.emplace_back(key, value.number_or(0.0));
      }
    }
  }
  return true;
}

}  // namespace

std::vector<LoadedEvent> load_trace(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string err;
  const std::optional<Json> root = Json::parse(buf.str(), &err);
  if (!root.has_value()) throw std::runtime_error(err);

  // {"traceEvents": [...]} or the bare-array form of the format.
  const Json* events = root->is_array() ? &*root : root->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error("not a Chrome trace: no traceEvents array");
  }
  std::vector<LoadedEvent> out;
  for (const Json& v : events->array()) {
    LoadedEvent ev;
    if (load_event(v, ev)) out.push_back(std::move(ev));
  }
  return out;
}

std::vector<LoadedEvent> load_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  try {
    return load_trace(in);
  } catch (const std::runtime_error& e) {
    // Prefix the file so multi-file pipelines report which input is bad.
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace zhuge::obs
