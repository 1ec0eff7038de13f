#pragma once
// Bandwidth traces: a time-indexed available-bandwidth (ABW) series that
// drives the wireless channel model. Piecewise-constant between samples;
// loops when read past the end so short traces can drive long simulations.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace zhuge::trace {

using sim::Duration;
using sim::TimePoint;

/// A named ABW trace. Samples must be strictly increasing in time.
class Trace {
 public:
  struct Sample {
    TimePoint t;
    double rate_bps;
  };

  Trace() = default;
  Trace(std::string name, std::vector<Sample> samples)
      : name_(std::move(name)), samples_(std::move(samples)) {}

  /// ABW at time `t`, sample-and-hold; loops past the trace end.
  [[nodiscard]] double rate_at(TimePoint t) const;

  /// Total covered span (last sample time + one nominal step).
  [[nodiscard]] Duration span() const;

  /// Mean rate over the whole trace (unweighted by sample spacing;
  /// generators emit uniform spacing so this equals the time average).
  [[nodiscard]] double mean_rate_bps() const;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

 private:
  std::string name_;
  std::vector<Sample> samples_;
};

/// Parse a "time_ms,rate_mbps" CSV (comments with '#', blank lines ok).
/// Throws std::runtime_error on malformed input, naming `source:line`.
[[nodiscard]] Trace load_csv(std::istream& in, const std::string& source,
                             const std::string& name = "csv");

/// Open `path` and parse it as above; errors name `path:line`.
[[nodiscard]] Trace load_csv(const std::string& path, const std::string& name = "csv");

/// Serialise to the same CSV format (for exporting generated traces).
void save_csv(const Trace& trace, std::ostream& out);
void save_csv(const Trace& trace, const std::string& path);

}  // namespace zhuge::trace
