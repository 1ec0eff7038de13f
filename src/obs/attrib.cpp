#include "obs/attrib.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <vector>

#include "obs/trace_reader.hpp"
#include "obs/tracer.hpp"

namespace zhuge::obs {

namespace {

constexpr Stage kAllStages[] = {Stage::kPacing,     Stage::kWan,
                                Stage::kApQueue,    Stage::kAir,
                                Stage::kE2e,        Stage::kReassembly,
                                Stage::kDecodeWait, Stage::kFrameE2e};

/// Interval in microseconds, or a negative sentinel when either stamp is
/// missing (-1) or the pair is inverted.
double interval_us(std::int64_t a_ns, std::int64_t b_ns) {
  if (a_ns < 0 || b_ns < 0 || b_ns < a_ns) return -1.0;
  return static_cast<double>(b_ns - a_ns) / 1e3;
}

}  // namespace

void StageSet::merge(const StageSet& other) {
  for (std::size_t i = 0; i < h.size(); ++i) h[i].merge(other.h[i]);
}

StageSet* Attribution::flow_set(std::uint32_t flow_key) {
  const auto it = by_flow_.find(flow_key);
  if (it != by_flow_.end()) return &it->second;
  if (by_flow_.size() >= kMaxFlows) {
    ++truncated_flows_;
    return nullptr;
  }
  return &by_flow_[flow_key];
}

void Attribution::record_packet(std::uint32_t flow_key, bool optimized,
                                std::int64_t sent_ns, std::int64_t ap_in_ns,
                                std::int64_t delivered_ns,
                                const PacketSpan& span) {
  ++packets_;
  StageSet* fs = flow_set(flow_key);
  StageSet& g = by_group_[optimized ? 1 : 0];

  const std::int64_t air_start_ns =
      span.first_air_ns >= 0 ? span.first_air_ns : span.ap_dequeue_ns;
  const std::int64_t origin_ns = span.paced_ns >= 0 ? span.paced_ns : sent_ns;
  const double pacing_us = interval_us(span.paced_ns, sent_ns);
  const double wan_us = interval_us(sent_ns, ap_in_ns);
  const double ap_queue_us = interval_us(ap_in_ns, span.ap_dequeue_ns);
  const double air_us = interval_us(air_start_ns, delivered_ns);
  const double e2e_us = interval_us(origin_ns, delivered_ns);

  const auto obs = [&](Stage st, double us) {
    if (us < 0.0) return;
    all_.observe(st, us);
    g.observe(st, us);
    if (fs != nullptr) fs->observe(st, us);
  };
  obs(Stage::kPacing, pacing_us);
  obs(Stage::kWan, wan_us);
  obs(Stage::kApQueue, ap_queue_us);
  obs(Stage::kAir, air_us);
  obs(Stage::kE2e, e2e_us);

  // Replayable span record (tools/trace_summarize).
  ZHUGE_TRACE(sim::TimePoint(delivered_ns), "span", "pkt",
              {"flow", static_cast<double>(flow_key)},
              {"zhuge", optimized ? 1.0 : 0.0}, {"pacing_us", pacing_us},
              {"wan_us", wan_us}, {"ap_queue_us", ap_queue_us},
              {"air_us", air_us}, {"e2e_us", e2e_us},
              {"retries", static_cast<double>(span.air_retries)});
}

void Attribution::record_frame(bool optimized, const FrameSpan& s) {
  ++frames_;
  StageSet* fs = flow_set(s.flow_key);
  StageSet& g = by_group_[optimized ? 1 : 0];

  const double reassembly_us = interval_us(s.first_arrival_ns, s.complete_ns);
  const double decode_wait_us = interval_us(s.complete_ns, s.decode_ns);
  const double frame_e2e_us = interval_us(s.capture_ns, s.decode_ns);

  const auto obs = [&](Stage st, double us) {
    if (us < 0.0) return;
    all_.observe(st, us);
    g.observe(st, us);
    if (fs != nullptr) fs->observe(st, us);
  };
  obs(Stage::kReassembly, reassembly_us);
  obs(Stage::kDecodeWait, decode_wait_us);
  obs(Stage::kFrameE2e, frame_e2e_us);

  ZHUGE_TRACE(sim::TimePoint(s.decode_ns), "span", "frame",
              {"flow", static_cast<double>(s.flow_key)},
              {"zhuge", optimized ? 1.0 : 0.0},
              {"reassembly_us", reassembly_us},
              {"decode_wait_us", decode_wait_us},
              {"frame_e2e_us", frame_e2e_us},
              {"packets", static_cast<double>(s.packets)});
}

void Attribution::add_trace_event(const LoadedEvent& ev) {
  if (ev.component != "span") return;
  const bool is_pkt = ev.name == "pkt";
  const bool is_frame = ev.name == "frame";
  if (!is_pkt && !is_frame) return;

  double flow = 0.0;
  double zhuge = 0.0;
  struct StageVal {
    Stage stage;
    double us = -1.0;
  };
  std::vector<StageVal> vals;
  for (const auto& [key, value] : ev.fields) {
    if (key == "flow") {
      flow = value;
    } else if (key == "zhuge") {
      zhuge = value;
    } else if (key == "pacing_us") {
      vals.push_back({Stage::kPacing, value});
    } else if (key == "wan_us") {
      vals.push_back({Stage::kWan, value});
    } else if (key == "ap_queue_us") {
      vals.push_back({Stage::kApQueue, value});
    } else if (key == "air_us") {
      vals.push_back({Stage::kAir, value});
    } else if (key == "e2e_us") {
      vals.push_back({Stage::kE2e, value});
    } else if (key == "reassembly_us") {
      vals.push_back({Stage::kReassembly, value});
    } else if (key == "decode_wait_us") {
      vals.push_back({Stage::kDecodeWait, value});
    } else if (key == "frame_e2e_us") {
      vals.push_back({Stage::kFrameE2e, value});
    }
  }

  if (is_pkt) {
    ++packets_;
  } else {
    ++frames_;
  }
  StageSet* fs =
      flow_set(static_cast<std::uint32_t>(std::max(0.0, flow)));
  // zlint-allow(float-equality): `zhuge` is a 0/1 flag stored in a trace
  // field (all trace values are doubles); exact compare is the decode.
  StageSet& g = by_group_[zhuge != 0.0 ? 1 : 0];
  for (const StageVal& v : vals) {
    if (v.us < 0.0) continue;  // stage was unstamped when recorded
    all_.observe(v.stage, v.us);
    g.observe(v.stage, v.us);
    if (fs != nullptr) fs->observe(v.stage, v.us);
  }
}

void Attribution::merge(const Attribution& other) {
  all_.merge(other.all_);
  by_group_[0].merge(other.by_group_[0]);
  by_group_[1].merge(other.by_group_[1]);
  for (const auto& [key, set] : other.by_flow_) {
    const auto it = by_flow_.find(key);
    if (it != by_flow_.end()) {
      it->second.merge(set);
    } else if (by_flow_.size() < kMaxFlows) {
      by_flow_[key] = set;
    } else {
      ++truncated_flows_;
    }
  }
  packets_ += other.packets_;
  frames_ += other.frames_;
  truncated_flows_ += other.truncated_flows_;
}

// ---- report rendering -----------------------------------------------------

namespace {

void print_stage_row(std::ostream& out, const char* name, const Histogram& h) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "  %-12s %10llu %12.1f %10.1f %10.1f %10.1f %12.1f\n", name,
                static_cast<unsigned long long>(h.count()), h.mean(),
                h.quantile(0.50), h.quantile(0.95), h.quantile(0.99), h.max());
  out << buf;
}

}  // namespace

void write_attrib_report_text(const Attribution& a, std::ostream& out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "latency attribution: %llu packets, %llu frames\n",
                static_cast<unsigned long long>(a.packets()),
                static_cast<unsigned long long>(a.frames()));
  out << buf;
  if (a.truncated_flows() > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  (flow table capped at %zu flows; %llu records folded "
                  "into the aggregate only)\n",
                  Attribution::kMaxFlows,
                  static_cast<unsigned long long>(a.truncated_flows()));
    out << buf;
  }
  if (a.empty()) {
    out << "  no spans recorded.\n";
    return;
  }

  out << "\n  stage             count      mean_us     p50_us     p95_us"
         "     p99_us       max_us\n";
  for (const Stage st : kAllStages) {
    const Histogram& h = a.all().stage(st);
    if (h.count() == 0) continue;
    print_stage_row(out, stage_name(st), h);
  }

  // Budget waterfall: where the mean end-to-end packet delay goes. The
  // packet stages partition [pacer, delivery], so their means should sum
  // to ~the e2e mean; the residual line makes any gap explicit instead of
  // hiding it (a stage whose stamps were missing shows up there).
  const Histogram& e2e = a.all().stage(Stage::kE2e);
  if (e2e.count() > 0) {
    out << "\n  budget waterfall (share of mean e2e packet delay "
        << "= 100%):\n";
    double attributed = 0.0;
    for (const Stage st :
         {Stage::kPacing, Stage::kWan, Stage::kApQueue, Stage::kAir}) {
      const Histogram& h = a.all().stage(st);
      if (h.count() == 0) continue;
      const double share = e2e.mean() > 0 ? 100.0 * h.mean() / e2e.mean() : 0.0;
      attributed += h.mean();
      std::snprintf(buf, sizeof(buf), "    %-12s %12.1f us  %6.1f%%\n",
                    stage_name(st), h.mean(), share);
      out << buf;
    }
    const double residual = e2e.mean() - attributed;
    std::snprintf(buf, sizeof(buf), "    %-12s %12.1f us  %6.1f%%\n",
                  "(residual)", residual,
                  e2e.mean() > 0 ? 100.0 * residual / e2e.mean() : 0.0);
    out << buf;
  }

  // Stage-resolved Zhuge-on vs Zhuge-off comparison (only when the run
  // mixed both kinds of flows, e.g. dense_64sta_churn's zhuge_fraction).
  if (!a.group(true).empty() && !a.group(false).empty()) {
    out << "\n  zhuge_on vs zhuge_off (p95 us):\n";
    out << "    stage          zhuge_on   zhuge_off       delta\n";
    for (const Stage st : kAllStages) {
      const Histogram& on = a.group(true).stage(st);
      const Histogram& off = a.group(false).stage(st);
      if (on.count() == 0 || off.count() == 0) continue;
      const double p_on = on.quantile(0.95);
      const double p_off = off.quantile(0.95);
      std::snprintf(buf, sizeof(buf), "    %-12s %10.1f  %10.1f  %+10.1f\n",
                    stage_name(st), p_on, p_off, p_on - p_off);
      out << buf;
    }
  }
}

}  // namespace zhuge::obs
