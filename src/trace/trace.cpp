#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace zhuge::trace {

double Trace::rate_at(TimePoint t) const {
  if (samples_.empty()) return 0.0;
  if (samples_.size() == 1) return samples_.front().rate_bps;
  const std::int64_t span_ns = span().count_ns();
  std::int64_t ns = t.count_ns();
  if (span_ns > 0 && ns >= span_ns) ns %= span_ns;  // loop
  const TimePoint wrapped{ns};
  // Last sample with time <= wrapped.
  auto it = std::upper_bound(
      samples_.begin(), samples_.end(), wrapped,
      [](TimePoint v, const Sample& s) { return v < s.t; });
  if (it == samples_.begin()) return samples_.front().rate_bps;
  return std::prev(it)->rate_bps;
}

Duration Trace::span() const {
  if (samples_.size() < 2) return Duration::zero();
  // Assume uniform spacing for the trailing step.
  const Duration step = samples_[1].t - samples_[0].t;
  return (samples_.back().t - samples_.front().t) + step;
}

double Trace::mean_rate_bps() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (const auto& x : samples_) s += x.rate_bps;
  return s / static_cast<double>(samples_.size());
}

namespace {

/// Truncated copy of an offending line, safe to embed in a what() string.
std::string excerpt(const std::string& line) {
  constexpr std::size_t kMax = 60;
  std::string out = line.substr(0, kMax);
  for (char& c : out) {
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
  }
  if (line.size() > kMax) out += "...";
  return out;
}

[[noreturn]] void fail_line(const std::string& path, std::size_t lineno,
                            const std::string& line, const std::string& what) {
  throw std::runtime_error("trace: " + path + ":" + std::to_string(lineno) +
                           ": " + what + " in \"" + excerpt(line) + "\"");
}

std::string trim(const std::string& s) {
  const std::size_t a = s.find_first_not_of(" \t\r");
  if (a == std::string::npos) return {};
  const std::size_t b = s.find_last_not_of(" \t\r");
  return s.substr(a, b - a + 1);
}

/// strtod with a full-token check, so "nan"/"inf" reach the finiteness
/// diagnostic below instead of dying as generic stream-extraction
/// failures, and "1.5x" is rejected rather than silently truncated.
bool parse_number(const std::string& tok, double& out) {
  if (tok.empty()) return false;
  char* end = nullptr;
  out = std::strtod(tok.c_str(), &end);
  return end == tok.c_str() + tok.size();
}

}  // namespace

Trace load_csv(std::istream& in, const std::string& source, const std::string& name) {
  std::vector<Trace::Sample> samples;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t comma = line.find(',');
    if (comma == std::string::npos) {
      fail_line(source, lineno, line, "expected \"time_ms,rate_mbps\"");
    }
    const std::string t_tok = trim(line.substr(0, comma));
    std::string r_tok = trim(line.substr(comma + 1));
    const std::size_t extra = r_tok.find_first_of(" \t,");
    if (extra != std::string::npos) {
      fail_line(source, lineno, line,
                "trailing token \"" + trim(r_tok.substr(extra)) + "\"");
    }
    double t_ms = 0.0;
    double mbps = 0.0;
    if (!parse_number(t_tok, t_ms) || !parse_number(r_tok, mbps)) {
      fail_line(source, lineno, line, "expected \"time_ms,rate_mbps\"");
    }
    if (!std::isfinite(t_ms) || !std::isfinite(mbps)) {
      fail_line(source, lineno, line, "non-finite value");
    }
    if (mbps < 0.0) {
      fail_line(source, lineno, line, "negative rate");
    }
    if (std::fabs(t_ms) >= 9e12) {  // ~285 years: far inside int64 ns
      fail_line(source, lineno, line, "time out of range");
    }
    const TimePoint t{static_cast<std::int64_t>(t_ms * 1e6)};
    if (!samples.empty() && t < samples.back().t) {
      fail_line(source, lineno, line,
                "time going backwards (previous sample at " +
                    std::to_string(samples.back().t.to_millis()) + " ms)");
    }
    samples.push_back({t, mbps * 1e6});
  }
  if (samples.empty()) throw std::runtime_error("trace: empty file " + source);
  return Trace{name, std::move(samples)};
}

Trace load_csv(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("trace: cannot open " + path);
  return load_csv(in, path, name);
}

void save_csv(const Trace& trace, std::ostream& out) {
  out.precision(12);  // lossless enough for ns-resolution round-trips
  out << "# time_ms,rate_mbps  (" << trace.name() << ")\n";
  for (const auto& s : trace.samples()) {
    out << s.t.to_millis() << "," << s.rate_bps / 1e6 << "\n";
  }
}

void save_csv(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot write " + path);
  save_csv(trace, out);
}

}  // namespace zhuge::trace
