#pragma once
// Runtime invariant checker: asserts the safety properties the Zhuge
// mechanism relies on without aborting the simulation.
//
// Components declare invariants at their hot paths with ZHUGE_INVARIANT;
// a violated invariant is recorded (name, first-violation detail, count)
// in the current obs::Context's checker (obs/context.hpp), which tests,
// the chaos harness and the pooled runners read back.
// Recording instead of crashing matters for chaos runs: a fault sweep
// wants to finish the scenario and report *every* property that broke,
// not die on the first one.
//
// Enabled by default in Debug builds (!NDEBUG); Release builds keep the
// checks compiled in but off behind one cold-bool branch, the same
// pattern as the metrics/tracer switches. CI's chaos job turns the
// checker on explicitly.
//
// Invariants currently declared around the codebase:
//   feedback.ack_order        - OOB release clock never goes backwards
//   feedback.hold_bound       - no ACK held past the configured cap
//   feedback.twcc_monotone    - AP-built TWCC sequences strictly increase
//   queue.nonnegative_bytes   - qdisc byte accounting never underflows
//   link.nonnegative_bytes    - wired-link buffer accounting likewise

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/settings.hpp"
#include "sim/time.hpp"

namespace zhuge::obs {

/// Collects invariant violations: total count plus the first occurrence
/// of each distinct invariant name (bounded, so a hot broken invariant
/// cannot eat memory).
class InvariantChecker {
 public:
  static constexpr std::size_t kMaxDistinct = 64;

  struct Violation {
    std::string name;    ///< invariant id, e.g. "feedback.ack_order"
    std::string detail;  ///< detail of the *first* occurrence
    double first_t_ms = 0.0;
    std::uint64_t count = 0;
  };

  void report(sim::TimePoint now, std::string_view name, std::string detail) {
    ++total_;
    for (auto& v : violations_) {
      if (v.name == name) {
        ++v.count;
        return;
      }
    }
    if (violations_.size() < kMaxDistinct) {
      violations_.push_back(
          {std::string(name), std::move(detail), now.to_millis(), 1});
    }
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }

  /// Violation count for one invariant name (0 if never violated).
  [[nodiscard]] std::uint64_t count(std::string_view name) const {
    for (const auto& v : violations_) {
      if (v.name == name) return v.count;
    }
    return 0;
  }

  /// One-line summary for logs/CLIs; empty string when clean.
  [[nodiscard]] std::string summary() const {
    if (total_ == 0) return {};
    std::string out = std::to_string(total_) + " invariant violation(s):";
    for (const auto& v : violations_) {
      out += " [" + v.name + " x" + std::to_string(v.count) + " first@" +
             std::to_string(v.first_t_ms) + "ms: " + v.detail + "]";
    }
    return out;
  }

  /// Fold `other` in after the violations already held: totals and
  /// per-name counts add; a name new to this checker keeps `other`'s
  /// first occurrence, within the same kMaxDistinct bound as report().
  void merge(const InvariantChecker& other) {
    total_ += other.total_;
    for (const auto& v : other.violations_) {
      const auto mine = std::find_if(violations_.begin(), violations_.end(),
                                     [&](const Violation& m) { return m.name == v.name; });
      if (mine != violations_.end()) {
        mine->count += v.count;
      } else if (violations_.size() < kMaxDistinct) {
        violations_.push_back(v);
      }
    }
  }

  void clear() {
    total_ = 0;
    violations_.clear();
  }

 private:
  std::uint64_t total_ = 0;
  std::vector<Violation> violations_;
};

/// The current context's checker (obs/context.hpp), used by the
/// ZHUGE_INVARIANT macro.
InvariantChecker& invariants();

}  // namespace zhuge::obs

// ZHUGE_INVARIANT(now, "component.property", cond, detail_expr)
// `detail_expr` (any expression convertible to std::string) is evaluated
// only when the condition fails and the checker is enabled.
#if ZHUGE_OBS_ENABLED
#define ZHUGE_INVARIANT(now, name, cond, detail)                      \
  do {                                                                \
    if (::zhuge::obs::invariants_enabled() && !(cond))                \
      ::zhuge::obs::invariants().report((now), (name), (detail));     \
  } while (0)
#else
#define ZHUGE_INVARIANT(now, name, cond, detail) do {} while (0)
#endif
