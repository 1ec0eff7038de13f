#include "fault/fault.hpp"

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace zhuge::fault {

Injector::Injector(sim::Simulator& simulator, sim::Rng rng, InjectorConfig cfg,
                   net::PacketHandler sink)
    : sim_(simulator), rng_(rng), cfg_(std::move(cfg)), sink_(std::move(sink)) {}

void Injector::handle(net::Packet&& p) {
  const TimePoint now = sim_.now();

  if (cfg_.only_feedback && !is_feedback(p)) {
    ++bypassed_;
    sink_(std::move(p));  // not even counted as passed: never entered
    return;
  }

  if (in_windows(cfg_.blackouts, now)) {
    ++blackout_drops_;
    ZHUGE_METRIC_INC("fault.blackout_drops");
    ZHUGE_TRACE(now, "fault", "blackout_drop", {"bytes", double(p.size_bytes)});
    return;
  }

  const bool probabilistic_active =
      cfg_.active.empty() || in_windows(cfg_.active, now);

  // Advance the Gilbert-Elliott chain once per packet, whether or not the
  // packet ends up lost — the chain models channel state, not outcomes.
  if (cfg_.burst.enabled() && probabilistic_active) {
    if (burst_bad_) {
      if (rng_.chance(cfg_.burst.p_exit_bad)) burst_bad_ = false;
    } else if (rng_.chance(cfg_.burst.p_enter_bad)) {
      burst_bad_ = true;
    }
    const double loss = burst_bad_ ? cfg_.burst.loss_bad : cfg_.burst.loss_good;
    if (loss > 0.0 && rng_.chance(loss)) {
      ++burst_drops_;
      ZHUGE_METRIC_INC("fault.burst_drops");
      ZHUGE_TRACE(now, "fault", "burst_drop", {"bytes", double(p.size_bytes)},
                  {"bad_state", burst_bad_ ? 1.0 : 0.0});
      return;
    }
  }

  if (probabilistic_active && cfg_.loss_prob > 0.0 &&
      rng_.chance(cfg_.loss_prob)) {
    ++random_drops_;
    ZHUGE_METRIC_INC("fault.random_drops");
    ZHUGE_TRACE(now, "fault", "random_drop", {"bytes", double(p.size_bytes)});
    return;
  }

  Duration extra = Duration::zero();
  if (cfg_.fade_delay > Duration::zero() && in_windows(cfg_.fades, now)) {
    extra = cfg_.fade_delay;
  }

  if (probabilistic_active && cfg_.dup_prob > 0.0 && rng_.chance(cfg_.dup_prob)) {
    ++duplicated_;
    ZHUGE_METRIC_INC("fault.duplicated");
    deliver(net::Packet(p), extra);  // a copy; the original continues below
  }

  if (probabilistic_active && cfg_.reorder_prob > 0.0 &&
      rng_.chance(cfg_.reorder_prob)) {
    ++reordered_;
    ZHUGE_METRIC_INC("fault.reordered");
    extra += cfg_.reorder_delay;  // later packets overtake this one
  }

  if (probabilistic_active && cfg_.spike_prob > 0.0 &&
      rng_.chance(cfg_.spike_prob)) {
    ++delay_spiked_;
    ZHUGE_METRIC_INC("fault.delay_spiked");
    ZHUGE_TRACE(now, "fault", "delay_spike", {"bytes", double(p.size_bytes)},
                {"spike_ms", cfg_.spike_delay.to_millis()});
    extra += cfg_.spike_delay;
  }

  deliver(std::move(p), extra);
}

void Injector::deliver(net::Packet&& p, Duration extra) {
  ++passed_;
  if (extra <= Duration::zero()) {
    sink_(std::move(p));
    return;
  }
  sim_.schedule_after(extra, [this, p = std::move(p)]() mutable {
    sink_(std::move(p));
  });
}

}  // namespace zhuge::fault
