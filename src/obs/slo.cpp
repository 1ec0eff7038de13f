#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <utility>

namespace zhuge::obs {

namespace {

/// %.9g rendering for the text report (no Inf/NaN in its columns).
void write_number(std::ostream& out, double v) {
  if (std::isnan(v)) {
    out << "0";
    return;
  }
  if (std::isinf(v)) {
    out << (v > 0 ? "1e308" : "-1e308");
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out << buf;
}

/// Exact-rank (nearest-rank) percentile over a copy; 0 when empty.
double exact_percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(rank == 0 ? 0 : rank - 1, v.size() - 1)];
}

/// 1 ms .. 100 s for times, 20 buckets/decade like attribution stages.
HistogramSpec time_spec() { return HistogramSpec{1.0, 1e5, 20}; }
/// 0.1 .. 10000 frames lost.
HistogramSpec count_spec() { return HistogramSpec{0.1, 1e4, 10}; }
/// p95 ratios: 0.01x .. 100x.
HistogramSpec ratio_spec() { return HistogramSpec{0.01, 100.0, 20}; }

}  // namespace

const char* ladder_level_name(LadderLevel level) {
  switch (level) {
    case LadderLevel::kFull: return "full";
    case LadderLevel::kClampedPredict: return "clamped_predict";
    case LadderLevel::kHoldOnly: return "hold_only";
    case LadderLevel::kPassThrough: return "pass_through";
  }
  return "?";
}

bool parse_ladder_level(std::string_view name, LadderLevel* out) {
  for (std::size_t i = 0; i < kLadderLevelCount; ++i) {
    const auto level = static_cast<LadderLevel>(i);
    if (name == ladder_level_name(level)) {
      *out = level;
      return true;
    }
  }
  return false;
}

RecoverySlo compute_recovery_slo(const SloInputs& in) {
  RecoverySlo slo;

  std::vector<LadderTransition> ts = in.transitions;
  std::sort(ts.begin(), ts.end(),
            [](const LadderTransition& a, const LadderTransition& b) {
              if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
              return a.flow_key < b.flow_key;
            });

  // Replay per-flow levels to build the cross-flow envelope (max level over
  // all flows at any instant). Flows are assumed to start at each one's
  // first transition's `from` level (kForced init transitions are emitted
  // at t=0 when a flow starts off kFull).
  std::map<std::uint32_t, LadderLevel> flow_level;
  for (const auto& t : ts) {
    flow_level.emplace(t.flow_key, t.from);
  }
  auto envelope = [&flow_level]() {
    LadderLevel max = LadderLevel::kFull;
    for (const auto& [key, level] : flow_level) {
      (void)key;
      max = std::max(max, level);
    }
    return max;
  };

  // Envelope change points: (instant, level after the change).
  std::vector<std::pair<std::int64_t, LadderLevel>> env;
  env.emplace_back(0, envelope());
  for (const auto& t : ts) {
    if (t.to > t.from) ++slo.escalations;
    if (t.to < t.from) ++slo.step_downs;
    flow_level[t.flow_key] = t.to;
    const LadderLevel now = envelope();
    if (now != env.back().second) env.emplace_back(t.at_ns, now);
    if (t.to > t.from && t.at_ns >= in.fault_start_ns &&
        slo.time_to_detect_ms < 0.0) {
      slo.triggered = true;
      slo.time_to_detect_ms =
          static_cast<double>(t.at_ns - in.fault_start_ns) / 1e6;
    }
  }

  // Per-level dwell of the envelope within [fault_start, run_end], plus
  // the degraded (> kFull) windows for frame accounting.
  std::vector<std::pair<std::int64_t, std::int64_t>> degraded_windows;
  for (std::size_t i = 0; i < env.size(); ++i) {
    const std::int64_t seg_start = std::max(env[i].first, in.fault_start_ns);
    const std::int64_t seg_end = std::min(
        i + 1 < env.size() ? env[i + 1].first : in.run_end_ns, in.run_end_ns);
    if (seg_end <= seg_start) continue;
    slo.dwell_ms[static_cast<std::size_t>(env[i].second)] +=
        static_cast<double>(seg_end - seg_start) / 1e6;
    slo.deepest = std::max(slo.deepest, env[i].second);
    if (env[i].second > LadderLevel::kFull) {
      degraded_windows.emplace_back(seg_start, seg_end);
    }
  }

  // Recovery point: after the fault clears, the first instant the envelope
  // returns to kFull and stays there until run end.
  if (slo.triggered) {
    std::int64_t recovered_at = -1;
    for (const auto& [at, level] : env) {
      if (level == LadderLevel::kFull) {
        if (recovered_at < 0) recovered_at = std::max(at, in.fault_end_ns);
      } else {
        recovered_at = -1;
      }
    }
    if (recovered_at >= 0 && recovered_at < in.run_end_ns) {
      slo.recovered = true;
      slo.time_to_recover_ms =
          static_cast<double>(recovered_at - in.fault_end_ns) / 1e6;
      if (slo.time_to_recover_ms < 0.0) slo.time_to_recover_ms = 0.0;
    }
  } else {
    slo.recovered = true;  // nothing tripped, nothing to recover from
  }

  // Frame accounting over the degraded windows.
  if (in.video_fps > 0.0) {
    double expected = 0.0;
    for (const auto& [start, end] : degraded_windows) {
      expected += static_cast<double>(end - start) / 1e9 * in.video_fps;
    }
    slo.frames_expected_in_transition =
        static_cast<std::uint64_t>(std::floor(expected));
    for (const auto& f : in.frames) {
      for (const auto& [start, end] : degraded_windows) {
        if (f.at_ns >= start && f.at_ns < end) {
          ++slo.frames_decoded_in_transition;
          break;
        }
      }
    }
    slo.frames_lost_in_transition =
        slo.frames_expected_in_transition > slo.frames_decoded_in_transition
            ? slo.frames_expected_in_transition -
                  slo.frames_decoded_in_transition
            : 0;
  }

  // Tail comparison: frame-delay p95 before the fault vs after recovery.
  std::vector<double> healthy;
  std::vector<double> post;
  const std::int64_t recovery_ns =
      slo.recovered && slo.time_to_recover_ms >= 0.0
          ? in.fault_end_ns +
                static_cast<std::int64_t>(slo.time_to_recover_ms * 1e6)
          : in.fault_end_ns;
  for (const auto& f : in.frames) {
    if (f.at_ns < in.fault_start_ns) healthy.push_back(f.delay_ms);
    if (slo.recovered && f.at_ns >= recovery_ns) post.push_back(f.delay_ms);
  }
  slo.healthy_p95_ms = exact_percentile(std::move(healthy), 0.95);
  slo.post_recovery_p95_ms = exact_percentile(std::move(post), 0.95);
  if (slo.healthy_p95_ms > 0.0 && slo.post_recovery_p95_ms > 0.0) {
    slo.post_over_healthy_p95 = slo.post_recovery_p95_ms / slo.healthy_p95_ms;
  }
  return slo;
}

SloAccumulator::SloAccumulator()
    : detect_ms_(time_spec()),
      recover_ms_(time_spec()),
      frames_lost_(count_spec()),
      p95_ratio_(ratio_spec()) {}

void SloAccumulator::add(const std::string& case_name, const RecoverySlo& slo) {
  ++cases_;
  if (slo.triggered) {
    ++triggered_;
    if (slo.time_to_detect_ms >= 0.0) detect_ms_.observe(slo.time_to_detect_ms);
    if (slo.recovered) {
      ++recovered_;
      if (slo.time_to_recover_ms >= 0.0) {
        recover_ms_.observe(slo.time_to_recover_ms);
      }
    }
    frames_lost_.observe(static_cast<double>(slo.frames_lost_in_transition));
    if (slo.post_over_healthy_p95 > 0.0) {
      p95_ratio_.observe(slo.post_over_healthy_p95);
    }
  }
  rows_.push_back(Row{case_name, slo});
}

void write_slo_report_text(const SloAccumulator& a, std::ostream& out) {
  out << "recovery SLO: " << a.cases() << " case(s), " << a.triggered()
      << " triggered, " << a.recovered() << " recovered, " << a.unrecovered()
      << " unrecovered\n";
  if (!a.rows().empty()) {
    out << "  case                                     detect_ms recover_ms"
           "  deepest          frames_lost  p95_ratio\n";
  }
  for (const auto& row : a.rows()) {
    const RecoverySlo& s = row.slo;
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "  %-40s %9.1f %10.1f  %-15s %11llu %10.3f\n",
                  row.name.c_str(), s.time_to_detect_ms, s.time_to_recover_ms,
                  ladder_level_name(s.deepest),
                  static_cast<unsigned long long>(s.frames_lost_in_transition),
                  s.post_over_healthy_p95);
    out << buf;
  }
  const auto summary = [&out](const char* name, const Histogram& h) {
    if (h.count() == 0) return;
    out << "  " << name << ": mean ";
    write_number(out, h.mean());
    out << " p50 ";
    write_number(out, h.quantile(0.50));
    out << " p95 ";
    write_number(out, h.quantile(0.95));
    out << " max ";
    write_number(out, h.max());
    out << '\n';
  };
  summary("detect_ms", a.detect_ms());
  summary("recover_ms", a.recover_ms());
  summary("frames_lost", a.frames_lost());
  summary("p95_ratio", a.p95_ratio());
}

}  // namespace zhuge::obs
