#pragma once
// Queue-discipline interface for the AP downlink queue.
//
// Besides enqueue/dequeue, a Qdisc exposes the two instantaneous signals the
// Zhuge Fortune Teller reads (§4.1):
//   * byte_count()  -> cur(qSize)
//   * head_since()  -> start of the current head packet's head-of-queue
//                      sojourn, i.e. cur(qFrontWaitTime) = now - head_since()
// Per-flow variants exist because real qdiscs are often not FIFO (the paper
// notes systemd defaults to fq_codel); Zhuge must observe the RTC flow's own
// sub-queue.

#include <cstdint>
#include <optional>
#include <string>

#include "net/packet.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/time.hpp"

namespace zhuge::queue {

using net::FlowId;
using net::Packet;
using sim::Duration;
using sim::TimePoint;

/// Abstract queue discipline.
class Qdisc {
 public:
  virtual ~Qdisc() = default;

  /// Offer a packet. Returns false when the packet was dropped at enqueue
  /// time (tail drop); CoDel-style head drops happen inside dequeue().
  virtual bool enqueue(Packet&& p, TimePoint now) = 0;

  /// Remove the next packet chosen by the discipline, or nullopt if empty.
  virtual std::optional<Packet> dequeue(TimePoint now) = 0;

  /// The packet that dequeue() would return next (nullptr if empty).
  [[nodiscard]] virtual const Packet* peek() const = 0;

  [[nodiscard]] virtual std::int64_t byte_count() const = 0;
  [[nodiscard]] virtual std::size_t packet_count() const = 0;

  /// Instant the current head packet became head, or nullopt if empty.
  [[nodiscard]] virtual std::optional<TimePoint> head_since() const = 0;

  /// Per-flow views; defaults fall back to whole-queue state. fq_codel
  /// overrides these to expose the flow's own sub-queue.
  [[nodiscard]] virtual std::int64_t byte_count_flow(const FlowId&) const {
    return byte_count();
  }
  [[nodiscard]] virtual std::optional<TimePoint> head_since_flow(const FlowId&) const {
    return head_since();
  }

  /// Total packets dropped by this discipline so far (tail + AQM drops).
  [[nodiscard]] std::uint64_t drops() const { return drops_; }

 protected:
  /// `component` labels this queue's observability output (trace component
  /// and metric-name prefix), e.g. "queue.fifo".
  explicit Qdisc(const char* component = "queue")
      : obs_component_(component),
        obs_enqueued_name_(std::string(component) + ".enqueued_packets"),
        obs_dequeued_name_(std::string(component) + ".dequeued_packets"),
        obs_dropped_name_(std::string(component) + ".dropped_packets"),
        obs_sojourn_name_(std::string(component) + ".sojourn_us") {}

  /// Hooks the concrete disciplines call from enqueue()/dequeue(). Each is
  /// one cold-bool branch when observability is off, and compiles to
  /// nothing under ZHUGE_OBS_ENABLED=0 (hence [[maybe_unused]]).
  void obs_enqueued([[maybe_unused]] const Packet& p,
                    [[maybe_unused]] TimePoint now) {
    ZHUGE_METRIC_INC(obs_enqueued_name_);
    ZHUGE_TRACE(now, obs_component_, "enqueue", {"bytes", double(p.size_bytes)},
                {"depth_bytes", double(byte_count())},
                {"depth_pkts", double(packet_count())});
  }

  /// `kind` distinguishes tail drops from AQM head drops in the trace.
  void obs_dropped([[maybe_unused]] const Packet& p,
                   [[maybe_unused]] TimePoint now,
                   [[maybe_unused]] const char* kind) {
    ZHUGE_METRIC_INC(obs_dropped_name_);
    ZHUGE_TRACE(now, obs_component_, kind, {"bytes", double(p.size_bytes)},
                {"depth_bytes", double(byte_count())});
  }

  /// Mutable Packet: besides metrics/trace output, this is where the
  /// latency-attribution span records the AP-qdisc-egress boundary.
  void obs_dequeued([[maybe_unused]] Packet& p, [[maybe_unused]] TimePoint now,
                    [[maybe_unused]] Duration sojourn) {
    ZHUGE_SPAN_STAMP(p.span.ap_dequeue_ns, now);
    ZHUGE_INVARIANT(now, "queue.nonnegative_bytes", byte_count() >= 0,
                    "qdisc byte accounting went negative");
    ZHUGE_METRIC_INC(obs_dequeued_name_);
    ZHUGE_METRIC_OBSERVE(obs_sojourn_name_, sojourn.to_micros());
    ZHUGE_TRACE(now, obs_component_, "dequeue", {"bytes", double(p.size_bytes)},
                {"sojourn_us", sojourn.to_micros()},
                {"depth_bytes", double(byte_count())});
  }

  std::uint64_t drops_ = 0;

 private:
  const char* obs_component_;
  std::string obs_enqueued_name_;
  std::string obs_dequeued_name_;
  std::string obs_dropped_name_;
  std::string obs_sojourn_name_;
};

}  // namespace zhuge::queue
