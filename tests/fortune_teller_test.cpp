// Unit tests for the Zhuge Fortune Teller (§4): qLong / qShort / tx
// estimation, the Eq. 1 burst adjustment, idle-gap filtering, and the
// Fig. 7 reaction shape.

#include <gtest/gtest.h>

#include <deque>
#include <utility>

#include "core/fortune_teller.hpp"
#include "queue/fifo.hpp"
#include "sim/random.hpp"

namespace zhuge::core {
namespace {

using sim::Duration;
using sim::TimePoint;
using namespace sim::literals;

TimePoint at(std::int64_t us) { return TimePoint::zero() + Duration::micros(us); }

TEST(FortuneTeller, UsesFallbacksBeforeAnyDeparture) {
  FortuneTellerConfig cfg;
  cfg.fallback_rate_bps = 8e6;
  cfg.fallback_tx = 2_ms;
  cfg.burst_adjustment = false;
  FortuneTeller ft(cfg);
  // 10 kB queued at the 8 Mbps fallback = 10 ms qLong; + 2 ms fallback tx.
  const auto pred = ft.predict(at(0), 10'000, std::nullopt);
  EXPECT_NEAR(pred.q_long.to_millis(), 10.0, 0.01);
  EXPECT_NEAR(pred.tx.to_millis(), 2.0, 0.01);
  EXPECT_EQ(pred.q_short, Duration::zero());
}

TEST(FortuneTeller, QLongUsesMeasuredTxRate) {
  FortuneTellerConfig cfg;
  cfg.burst_adjustment = false;
  FortuneTeller ft(cfg);
  // 1250 bytes per ms over the window = 10 Mbps.
  for (int i = 0; i <= 40; ++i) ft.on_dequeue(1250, at(i * 1000));
  EXPECT_NEAR(ft.tx_rate_bps(at(40'000)), 10e6, 0.3e6);
  const auto pred = ft.predict(at(40'000), 12'500, std::nullopt);
  EXPECT_NEAR(pred.q_long.to_millis(), 10.0, 0.5);
}

TEST(FortuneTeller, QShortIsHeadWaitTime) {
  FortuneTeller ft;
  const auto pred = ft.predict(at(20'000), 0, at(5'000));
  EXPECT_NEAR(pred.q_short.to_millis(), 15.0, 1e-9);
}

TEST(FortuneTeller, QShortDisabledByAblationFlag) {
  FortuneTellerConfig cfg;
  cfg.use_qshort = false;
  FortuneTeller ft(cfg);
  const auto pred = ft.predict(at(20'000), 0, at(5'000));
  EXPECT_EQ(pred.q_short, Duration::zero());
}

TEST(FortuneTeller, TxIgnoresSubMillisecondIntervals) {
  FortuneTeller ft;
  // A burst of 8 packets within 1 us of each other, then 5 ms to the next
  // burst: only the 5 ms inter-burst interval counts.
  for (int burst = 0; burst < 5; ++burst) {
    for (int i = 0; i < 8; ++i) ft.on_dequeue(1200, at(burst * 5000 + i));
  }
  EXPECT_NEAR(ft.tx_delay(at(25'000)).to_millis(), 5.0, 0.2);
}

TEST(FortuneTeller, TxSkipsIdleGaps) {
  FortuneTeller ft;
  // Two bursts 3 ms apart while backlogged, then the queue empties; the
  // next burst is 40 ms later (application idle) and must not be counted.
  for (int i = 0; i < 4; ++i) ft.on_dequeue(1200, at(i), false);
  for (int i = 0; i < 4; ++i) ft.on_dequeue(1200, at(3000 + i), i == 3);
  for (int i = 0; i < 4; ++i) ft.on_dequeue(1200, at(39'000 + i), false);
  // Within the 40 ms window the only valid interval is the 3 ms one; the
  // 36 ms idle gap after the queue emptied must have been skipped.
  EXPECT_NEAR(ft.tx_delay(at(39'100)).to_millis(), 3.0, 0.2);
}

TEST(FortuneTeller, BurstAdjustmentSubtractsMaxBurst) {
  FortuneTellerConfig cfg;
  cfg.fallback_rate_bps = 8e6;
  FortuneTeller ft(cfg);
  // One simultaneous departure of 4 x 1200 = 4800 bytes.
  for (int i = 0; i < 4; ++i) ft.on_dequeue(1200, at(100 + i));
  ft.on_dequeue(1200, at(5'000));  // closes the burst
  EXPECT_EQ(ft.max_burst_bytes(at(5'000)), 4800);
  // qSize = max(6000 - 4800, 0) = 1200 bytes. The measured window rate is
  // 6000 bytes / 40 ms = 1.2 Mbps, so qLong = 1200*8/1.2e6 = 8 ms.
  const auto pred = ft.predict(at(5'000), 6000, std::nullopt);
  EXPECT_NEAR(pred.q_long.to_millis(), 8.0, 0.5);
}

TEST(FortuneTeller, BurstAdjustmentClampsAtZero) {
  FortuneTellerConfig cfg;
  FortuneTeller ft(cfg);
  for (int i = 0; i < 8; ++i) ft.on_dequeue(1200, at(100 + i));
  ft.on_dequeue(1200, at(5'000));
  const auto pred = ft.predict(at(5'000), 5000, std::nullopt);  // < maxBurst
  EXPECT_EQ(pred.q_long, Duration::zero());
}

TEST(FortuneTeller, BurstAdjustmentAblation) {
  FortuneTellerConfig with;
  FortuneTellerConfig without;
  without.burst_adjustment = false;
  FortuneTeller a(with);
  FortuneTeller b(without);
  for (auto* ft : {&a, &b}) {
    for (int i = 0; i < 4; ++i) ft->on_dequeue(1200, at(100 + i));
    ft->on_dequeue(1200, at(5'000));
  }
  EXPECT_LT(a.predict(at(5'000), 6000, std::nullopt).q_long,
            b.predict(at(5'000), 6000, std::nullopt).q_long);
}

TEST(FortuneTeller, PredictionClampedAtMaximum) {
  FortuneTellerConfig cfg;
  cfg.max_prediction = 1_s;
  cfg.fallback_rate_bps = 1e3;  // absurdly slow: raw qLong would be hours
  cfg.burst_adjustment = false;
  FortuneTeller ft(cfg);
  const auto pred = ft.predict(at(0), 10'000'000, std::nullopt);
  EXPECT_LE(pred.total(), 1_s + 1_ms);
}

TEST(FortuneTeller, PredictViaQdiscReadsPerFlowState) {
  FortuneTellerConfig cfg;
  cfg.fallback_rate_bps = 8e6;
  cfg.burst_adjustment = false;
  FortuneTeller ft(cfg);
  queue::DropTailFifo q(-1);
  net::Packet p;
  p.size_bytes = 10'000;
  q.enqueue(std::move(p), at(1'000));
  const auto pred = ft.predict(at(3'000), q, net::FlowId{});
  EXPECT_NEAR(pred.q_long.to_millis(), 10.0, 0.01);
  EXPECT_NEAR(pred.q_short.to_millis(), 2.0, 0.01);  // head since t=1ms
}

// Fig. 7 shape: on an ABW stall, qShort rises immediately (head packet
// stuck) while qLong reacts only as the measured rate decays.
TEST(FortuneTeller, QShortLeadsQLongAfterAbwDrop) {
  FortuneTellerConfig cfg;
  FortuneTeller ft(cfg);
  // Steady state: 1250-byte departures every 1 ms (10 Mbps).
  std::int64_t t_us = 0;
  for (; t_us < 40'000; t_us += 1000) ft.on_dequeue(1250, at(t_us));
  // Channel stalls at t=40ms: no departures; head waits.
  // The queue itself is still small early in the stall (2 packets) and
  // has built up by 30 ms in (10 packets).
  const TimePoint stall_start = at(40'000);
  const auto early = ft.predict(at(45'000), 2'500, stall_start);
  const auto later = ft.predict(at(70'000), 12'500, stall_start);
  // 5 ms into the stall: qShort = 5 ms dominates its own rise.
  EXPECT_NEAR(early.q_short.to_millis(), 5.0, 1e-6);
  // 30 ms in: qShort has kept growing...
  EXPECT_NEAR(later.q_short.to_millis(), 30.0, 1e-6);
  // ...and qLong also grew because the windowed rate collapsed.
  EXPECT_GT(later.q_long, early.q_long);
  // The early rise is dominated by qShort, not qLong (the 40 ms window
  // still holds pre-stall departures).
  EXPECT_GT(early.q_short, early.q_long);
}

// ---- SoA ↔ deque bit-equivalence -----------------------------------------
// The PR 8 hot-path rewrite moved the windowed estimators from std::deque
// storage to SoA rings and inlined predict(). The reference below is the
// pre-rewrite layout — deque-of-pairs estimators with the arithmetic
// preserved operation-for-operation — so any reordering or dropped
// operation in the SoA path shows up as a bitwise mismatch here. The
// end-to-end counterpart is the golden fingerprint suite (basic_rtp,
// dense_64sta_churn, tcp_mix_fade) plus the attrib_dense64 stage-p95
// anchor, which pin the same property through whole simulations.

struct RefRate {
  explicit RefRate(Duration w) : window(w) {}
  Duration window;
  std::deque<std::pair<std::int64_t, std::int64_t>> q;  // (t_ns, bytes)
  std::int64_t total = 0;
  void evict(TimePoint now) {
    const std::int64_t cutoff = (now - window).count_ns();
    while (!q.empty() && q.front().first < cutoff) {
      total -= q.front().second;
      q.pop_front();
    }
  }
  void record(TimePoint t, std::int64_t bytes) {
    q.emplace_back(t.count_ns(), bytes);
    total += bytes;
    evict(t);
  }
  double rate_or(TimePoint now, double fallback) {
    evict(now);
    if (q.empty()) return fallback;
    const double secs = window.to_seconds();
    if (secs <= 0.0) return fallback;
    const double r = static_cast<double>(total) * 8.0 / secs;
    return r <= 0.0 ? fallback : r;
  }
};

struct RefMean {
  explicit RefMean(Duration w) : window(w) {}
  Duration window;
  std::deque<std::pair<std::int64_t, double>> q;
  double sum = 0.0;
  std::uint32_t since_resum = 0;
  void evict(TimePoint now) {
    const std::int64_t cutoff = (now - window).count_ns();
    while (!q.empty() && q.front().first < cutoff) {
      sum -= q.front().second;
      q.pop_front();
    }
  }
  void record(TimePoint t, double v) {
    q.emplace_back(t.count_ns(), v);
    sum += v;
    evict(t);
    if (++since_resum >= 4096) {  // mirrors WindowedMean::kResumPeriod
      since_resum = 0;
      double s = 0.0;
      for (const auto& [qt, qv] : q) s += qv;
      sum = s;
    }
  }
  std::optional<double> mean(TimePoint now) {
    evict(now);
    if (q.empty()) return std::nullopt;
    return sum / static_cast<double>(q.size());
  }
};

struct RefMax {
  explicit RefMax(Duration w) : window(w) {}
  Duration window;
  std::deque<std::pair<std::int64_t, double>> q;  // monotonic by value
  void evict(TimePoint now) {
    const std::int64_t cutoff = (now - window).count_ns();
    while (!q.empty() && q.front().first < cutoff) q.pop_front();
  }
  void record(TimePoint t, double v) {
    while (!q.empty() && q.back().second <= v) q.pop_back();
    q.emplace_back(t.count_ns(), v);
    evict(t);
  }
  double max(TimePoint now, double fallback) {
    evict(now);
    return q.empty() ? fallback : q.front().second;
  }
};

struct RefFortuneTeller {
  FortuneTellerConfig cfg;
  RefRate tx_rate;
  RefMean dequeue_interval;
  RefMax burst_max;
  std::optional<TimePoint> last_dequeue;
  bool last_left_queue_empty = false;
  std::int64_t current_burst_bytes = 0;

  explicit RefFortuneTeller(FortuneTellerConfig c)
      : cfg(c),
        tx_rate(c.window),
        dequeue_interval(c.window),
        burst_max(FortuneTeller::kBurstWindow) {}

  void on_dequeue(std::int64_t bytes, TimePoint now, bool queue_empty_after) {
    tx_rate.record(now, bytes);
    if (last_dequeue.has_value()) {
      const Duration gap = now - *last_dequeue;
      if (gap >= FortuneTeller::kBurstResolution) {
        if (current_burst_bytes > 0) {
          burst_max.record(now, static_cast<double>(current_burst_bytes));
        }
        current_burst_bytes = 0;
        if (!last_left_queue_empty) {
          dequeue_interval.record(now, gap.to_seconds());
        }
        current_burst_bytes = bytes;
      } else {
        current_burst_bytes += bytes;
      }
    } else {
      current_burst_bytes = bytes;
    }
    last_dequeue = now;
    last_left_queue_empty = queue_empty_after;
  }

  std::int64_t max_burst_bytes(TimePoint now) {
    const double past = burst_max.max(now, 0.0);
    return static_cast<std::int64_t>(
        std::max(past, static_cast<double>(current_burst_bytes)));
  }

  Duration tx_delay(TimePoint now) {
    const auto m = dequeue_interval.mean(now);
    if (!m.has_value()) return cfg.fallback_tx;
    return Duration::from_seconds(*m);
  }

  FortuneTeller::Prediction predict(TimePoint now, std::int64_t queue_bytes,
                                    std::optional<TimePoint> head_since) {
    FortuneTeller::Prediction out{};
    std::int64_t q_size = queue_bytes;
    if (cfg.burst_adjustment) {
      q_size = std::max<std::int64_t>(queue_bytes - max_burst_bytes(now), 0);
    }
    const double rate = tx_rate.rate_or(now, cfg.fallback_rate_bps);
    out.q_long = Duration::from_seconds(static_cast<double>(q_size) * 8.0 / rate);
    if (cfg.use_qshort && head_since.has_value()) out.q_short = now - *head_since;
    out.tx = tx_delay(now);
    const Duration total = out.q_long + out.q_short + out.tx;
    if (total > cfg.max_prediction) {
      const double scale = cfg.max_prediction.ratio(total);
      out.q_long = out.q_long * scale;
      out.q_short = out.q_short * scale;
      out.tx = out.tx * scale;
    }
    return out;
  }
};

TEST(FortuneTeller, SoaPredictBitEquivalentToDequeReference) {
  FortuneTellerConfig cfg;  // defaults: burst adjustment + qShort on
  FortuneTeller ft(cfg);
  RefFortuneTeller ref(cfg);
  sim::Rng rng(4242);
  TimePoint t = TimePoint::zero();

  // 8000 bursts: enough dequeue-interval records to cross the 4096-record
  // resummation boundary inside the mean estimator, with idle gaps, AMPDU
  // sub-ms bursts, and multi-window silences mixed in.
  for (int burst = 0; burst < 8'000; ++burst) {
    const bool idle = rng.uniform_int(50) == 0;
    t += idle ? Duration::millis(30 + rng.uniform_int(300))
              : Duration::micros(1'000 + rng.uniform_int(9'000));
    const auto pkts = 1 + rng.uniform_int(8);
    for (std::uint32_t k = 0; k < pkts; ++k) {
      if (k > 0) t += Duration::micros(rng.uniform_int(2) == 0 ? 0 : 10);
      const auto bytes = static_cast<std::int64_t>(200 + rng.uniform_int(1400));
      const bool empties = (k + 1 == pkts) && rng.uniform_int(4) == 0;
      ft.on_dequeue(bytes, t, empties);
      ref.on_dequeue(bytes, t, empties);
    }

    const auto qb = static_cast<std::int64_t>(rng.uniform_int(200'000));
    std::optional<TimePoint> head;
    if (rng.uniform_int(3) != 0) {
      head = t - Duration::micros(rng.uniform_int(50'000));
    }
    // The underlying doubles, exactly — not just the rounded durations.
    ASSERT_EQ(ft.tx_rate_bps(t), ref.tx_rate.rate_or(t, cfg.fallback_rate_bps))
        << "rate diverged at burst " << burst;
    ASSERT_EQ(ft.max_burst_bytes(t), ref.max_burst_bytes(t))
        << "burst max diverged at burst " << burst;
    const auto got = ft.predict(t, qb, head);
    const auto want = ref.predict(t, qb, head);
    ASSERT_EQ(got.q_long.count_ns(), want.q_long.count_ns())
        << "qLong diverged at burst " << burst;
    ASSERT_EQ(got.q_short.count_ns(), want.q_short.count_ns())
        << "qShort diverged at burst " << burst;
    ASSERT_EQ(got.tx.count_ns(), want.tx.count_ns())
        << "tx diverged at burst " << burst;
  }
}

}  // namespace
}  // namespace zhuge::core
