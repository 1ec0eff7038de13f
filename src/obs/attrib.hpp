#pragma once
// Online latency-attribution aggregator and budget-report renderers.
//
// An Attribution object turns span stamps (obs/spans.hpp) into per-stage
// delay distributions: one log-bucket histogram per stage over all
// traffic, split by optimisation group (Zhuge-on vs Zhuge-off flows) and
// by flow key. It is a plain value type — each scenario run owns its own
// instance and records into it single-threadedly, so parallel sweeps
// never share mutable state and the aggregate is bit-identical for any
// thread count. merge() folds run-local instances together after the
// parallel phase, in grid order.
//
// The same aggregator is fed two ways: live (record_packet/record_frame
// called from the scenario engines at delivery/decode time) or offline
// (add_trace_event replaying "span" records from a Chrome trace via
// obs/trace_reader). The text renderer below is the human view; the
// machine view is the run record's "attrib" section (app/record.hpp).

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "obs/metrics.hpp"
#include "obs/spans.hpp"

namespace zhuge::obs {

struct LoadedEvent;  // obs/trace_reader.hpp

/// Per-stage delay histograms, in microseconds.
struct StageSet {
  /// 0.1 us .. 100 s, 20 buckets/decade: ~1.3 ms relative bucket width at
  /// any scale, fine enough that a p95 shift of one bucket is ~12%.
  [[nodiscard]] static HistogramSpec stage_spec() {
    return HistogramSpec{0.1, 1e8, 20};
  }

  StageSet() { h.fill(Histogram(stage_spec())); }

  void observe(Stage s, double us) {
    h[static_cast<std::size_t>(s)].observe(us);
  }
  [[nodiscard]] const Histogram& stage(Stage s) const {
    return h[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] Histogram& stage(Stage s) {
    return h[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] bool empty() const {
    for (const auto& hist : h) {
      if (hist.count() > 0) return false;
    }
    return true;
  }
  void merge(const StageSet& other);

  std::array<Histogram, kStageCount> h;
};

/// The online aggregator. Value-semantic and copyable so results can
/// embed one (excluded from fingerprints — see sweep.cpp).
class Attribution {
 public:
  /// Flow-resolved histograms are kept for at most this many distinct
  /// flow keys; beyond that new flows fold into the aggregate only (the
  /// report notes the truncation).
  static constexpr std::size_t kMaxFlows = 128;

  /// Record one delivered packet. Boundary timestamps: `sent_ns` is the
  /// wire departure (Packet::sent_time), `ap_in_ns` the AP qdisc ingress
  /// (Packet::ap_enqueue_time), `delivered_ns` the receiver arrival.
  /// Stages whose stamps are missing (-1 / non-positive interval source)
  /// are skipped individually.
  void record_packet(std::uint32_t flow_key, bool optimized,
                     std::int64_t sent_ns, std::int64_t ap_in_ns,
                     std::int64_t delivered_ns, const PacketSpan& span);

  /// Record one decoded frame (jitter-buffer + decode stages).
  void record_frame(bool optimized, const FrameSpan& s);

  /// Replay one trace event; events other than component "span" are
  /// ignored, so a whole trace can be streamed through unfiltered.
  void add_trace_event(const LoadedEvent& ev);

  /// Fold `other` into this (histogram-bucket addition; flow tables
  /// union, truncated at kMaxFlows in key order).
  void merge(const Attribution& other);

  [[nodiscard]] bool empty() const { return packets_ == 0 && frames_ == 0; }
  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  [[nodiscard]] std::uint64_t frames() const { return frames_; }
  [[nodiscard]] std::uint64_t truncated_flows() const { return truncated_flows_; }

  [[nodiscard]] const StageSet& all() const { return all_; }
  /// Per-optimisation-group view: group(true) = Zhuge-optimised flows.
  [[nodiscard]] const StageSet& group(bool optimized) const {
    return by_group_[optimized ? 1 : 0];
  }
  [[nodiscard]] const std::map<std::uint32_t, StageSet>& flows() const {
    return by_flow_;
  }

 private:
  [[nodiscard]] StageSet* flow_set(std::uint32_t flow_key);

  StageSet all_;
  std::array<StageSet, 2> by_group_;  ///< [0] = plain, [1] = Zhuge-optimised
  std::map<std::uint32_t, StageSet> by_flow_;
  std::uint64_t packets_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t truncated_flows_ = 0;  ///< packets/frames beyond kMaxFlows
};

// ---- latency-budget report rendering --------------------------------------

/// Human-readable report: per-stage count/mean/p50/p95/p99/max table for
/// the aggregate, the budget waterfall (share of e2e mean per packet
/// stage), and a Zhuge-on vs Zhuge-off p95 comparison when both groups
/// saw traffic.
void write_attrib_report_text(const Attribution& a, std::ostream& out);

}  // namespace zhuge::obs
