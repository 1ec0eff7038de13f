// Hot-path performance baseline (PR 3, re-baselined in PR 8): events/sec
// through the simulator core, Fortune Teller predictions/sec, ack-scheduler
// ops/sec, the windowed measurement primitives, the AP FIFO and downlink
// dispatch, and the RTP media and in-order TCP paths. Run
// in Release; the JSON output is the perf trajectory future PRs compare
// against:
//
//   ./build/bench/perf_hotpath --benchmark_format=json > perf.json
//
// BENCH_pr8.json in the repository root is the gating baseline: CI runs
// these benchmarks and tools/perf_gate fails the build when any benchmark
// falls out of its tolerance band (see DESIGN.md "Performance" for the
// band rationale and README for the re-bless procedure). BENCH_pr3.json
// records the previous optimization pass for historical comparison.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "app/access_point.hpp"
#include "cca/cca.hpp"
#include "core/ack_scheduler.hpp"
#include "core/fortune_teller.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "queue/fifo.hpp"
#include "rtc/video.hpp"
#include "sim/pool.hpp"
#include "sim/simulator.hpp"
#include "stats/windowed.hpp"
#include "transport/rtp_receiver.hpp"
#include "transport/rtp_sender.hpp"
#include "transport/tcp_receiver.hpp"
#include "transport/tcp_sender.hpp"
#include "wireless/channel.hpp"
#include "wireless/medium.hpp"

namespace {

using namespace zhuge;
using sim::Duration;
using sim::TimePoint;

// ---- simulator core ------------------------------------------------------

/// Adversarial heap stress: 64 self-rescheduling timers with *mutually
/// prime-ish periods*, so pop order is maximally unpredictable and every
/// sift comparison is a coin-flip branch — the worst case for the event
/// queue. Closures carry this + three words (32 bytes), which already
/// exceeds libstdc++'s 16-byte std::function SBO, so the pre-PR event
/// loop additionally paid one heap allocation per event.
void BM_SimTimerEvents(benchmark::State& state) {
  sim::Simulator simu;
  struct Timer {
    sim::Simulator* s;
    std::uint64_t acc;
    std::uint64_t step;
    std::uint64_t period_ns;
    void operator()() {
      acc += step;
      s->schedule_after(Duration::nanos(static_cast<std::int64_t>(period_ns)),
                        Timer{*this});
    }
  };
  for (std::uint64_t k = 0; k < 64; ++k) {
    simu.schedule_after(Duration::micros(static_cast<std::int64_t>(k)),
                        Timer{&simu, k, k + 1, 100'000 + 1'000 * k});
  }
  for (auto _ : state) {
    simu.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimTimerEvents);

/// Headline packets/sec through the event loop, in the PR-8 wire shape:
/// in-flight packets park in a sim::Pool and each delivery event carries
/// a pooled *aggregate* of kAggPackets — the one-event-per-TTI/AMPDU
/// batching the links now use. Items are packets, so the number is
/// directly comparable with the pre-batching per-packet-event figure in
/// BENCH_pr3.json (and with BM_SimPacketEventsUnbatched below, which
/// preserves that old shape).
void BM_SimPacketEvents(benchmark::State& state) {
  constexpr std::size_t kAggPackets = 8;  // typical TTI/AMPDU batch
  sim::Simulator simu;
  sim::Pool<std::vector<net::Packet>> pool;
  struct DeliverAggregate {
    sim::Simulator* s;
    sim::Pool<std::vector<net::Packet>>* pool;
    sim::Pool<std::vector<net::Packet>>::Index idx;
    void operator()() {
      std::vector<net::Packet>& agg = pool->at(idx);
      for (net::Packet& p : agg) {
        p.delivered_time = s->now();
        p.size_bytes += 1;
      }
      s->schedule_after(Duration::micros(120), DeliverAggregate{*this});
    }
  };
  for (std::uint64_t k = 0; k < 4; ++k) {
    std::vector<net::Packet> agg(kAggPackets);
    for (std::size_t i = 0; i < kAggPackets; ++i) {
      net::Packet& p = agg[i];
      p.uid = k * kAggPackets + i;
      p.size_bytes = 1240;
      p.header = net::RtpHeader{};
      p.flow = net::FlowId{1, static_cast<std::uint32_t>(100 + k), 5000, 6000, 17};
    }
    const auto idx = pool.put(std::move(agg));
    simu.schedule_after(Duration::micros(static_cast<std::int64_t>(k)),
                        DeliverAggregate{&simu, &pool, idx});
  }
  for (auto _ : state) {
    simu.step();
  }
  state.SetItemsProcessed(state.iterations() * kAggPackets);
}
BENCHMARK(BM_SimPacketEvents);

/// The pre-PR-8 wire shape, kept for reference: every hop schedules a
/// callback that *owns* the in-flight Packet (~170 bytes including the
/// header variant) — one ~200-byte memcpy into the event engine per hop.
/// The gap between this and BM_SimPacketEvents is what the pooling +
/// aggregate batching buys.
void BM_SimPacketEventsUnbatched(benchmark::State& state) {
  sim::Simulator simu;
  struct Deliver {
    sim::Simulator* s;
    net::Packet p;
    void operator()() {
      p.delivered_time = s->now();
      p.size_bytes += 1;
      s->schedule_after(Duration::micros(120), Deliver{s, std::move(p)});
    }
  };
  for (std::uint64_t k = 0; k < 32; ++k) {
    net::Packet p;
    p.uid = k;
    p.size_bytes = 1240;
    p.header = net::RtpHeader{};
    p.flow = net::FlowId{1, static_cast<std::uint32_t>(100 + k), 5000, 6000, 17};
    simu.schedule_after(Duration::micros(static_cast<std::int64_t>(k)),
                        Deliver{&simu, std::move(p)});
  }
  for (auto _ : state) {
    simu.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimPacketEventsUnbatched);

/// Cancel/reschedule churn: the AckScheduler re-arms its release timer on
/// every hold/retreat, cancelling the previous one. Exercises cancel cost
/// and the event queue's tolerance of stale entries.
void BM_SimCancelRescheduleChurn(benchmark::State& state) {
  sim::Simulator simu;
  sim::EventId timer = 0;
  std::uint64_t fired = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    if (timer != 0) simu.cancel(timer);
    timer = simu.schedule_after(Duration::micros(50), [&fired] { ++fired; });
    if ((++i & 0xFF) == 0) {
      simu.run_until(simu.now() + Duration::micros(10));
    }
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimCancelRescheduleChurn);

/// The event queue as dense_64sta_churn loads it: ~300 live
/// self-rescheduling events (40% of them re-arm more than 10 ms out, the
/// rest within 10 ms) plus a population of re-armable timers whose
/// cancel/re-arm leaves stale entries behind, so that about 45% of the
/// heap is stale — the shape a profile of that run shows (~560 entries,
/// ~300 live). Delays come from a fixed xorshift stream, so every run
/// sees the same event sequence. `stale_share` reports the measured
/// stale fraction of the heap.
struct DenseHoldLoad {
  static constexpr int kHolds = 300;
  static constexpr std::size_t kTimers = 32;
  sim::Simulator simu;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::vector<sim::EventId> timers = std::vector<sim::EventId>(kTimers, 0);
  std::uint64_t timer_fires = 0;

  std::uint64_t next() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
  void hold() {
    const std::uint64_t r = next();
    const auto spread = static_cast<std::int64_t>(r >> 40);
    simu.schedule_after((r & 0xFF) < 102 ? Duration::micros(10'000 + spread % 90'000)
                                         : Duration::micros(10 + spread % 9'990),
                        [this] { hold(); });
    if (((r >> 8) & 0xFF) >= 56) return;  // 22% of holds re-arm a timer
    const std::size_t k = (r >> 16) % kTimers;
    simu.cancel(timers[k]);
    timers[k] = simu.schedule_after(
        Duration::millis(20 + static_cast<std::int64_t>((r >> 24) % 180)),
        [this, k] {
          timers[k] = 0;
          ++timer_fires;
        });
  }
};

void BM_SimDenseHold(benchmark::State& state) {
  DenseHoldLoad load;
  for (int i = 0; i < DenseHoldLoad::kHolds; ++i) {
    load.simu.schedule_after(Duration::micros(i), [&load] { load.hold(); });
  }
  for (int i = 0; i < 200'000; ++i) load.simu.step();  // reach steady state
  double stale = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t n = 0;
  for (auto _ : state) {
    load.simu.step();
    if ((++n & 0x3FF) == 0) {
      stale += 1.0 - static_cast<double>(load.simu.pending()) /
                         static_cast<double>(load.simu.queue_size());
      ++samples;
    }
  }
  benchmark::DoNotOptimize(load.timer_fires);
  state.SetItemsProcessed(state.iterations());
  state.counters["stale_share"] = samples > 0 ? stale / static_cast<double>(samples) : 0.0;
  state.counters["heap_entries"] = static_cast<double>(load.simu.queue_size());
}
BENCHMARK(BM_SimDenseHold);

// ---- measurement primitives ---------------------------------------------

/// The per-packet Fortune Teller path: one departure record plus one
/// prediction (Fig. 6: qLong + qShort + tx), as every downlink arrival
/// triggers at the AP.
void BM_FortuneTellerPredict(benchmark::State& state) {
  core::FortuneTeller ft;
  std::int64_t t = 0;
  for (auto _ : state) {
    ft.on_dequeue(1500, TimePoint{t}, false);
    auto pred = ft.predict(TimePoint{t}, 25'000, TimePoint{t - 500'000});
    // Observe the whole prediction, not just q_long: with only one
    // component consumed the optimizer may discard the qShort/tx
    // arithmetic entirely (PR 8 bench audit).
    benchmark::DoNotOptimize(pred);
    t += 2'000'000;  // 2 ms between AMPDU bursts
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FortuneTellerPredict);

/// WindowedMean record + max(): BBR's bandwidth filter calls max() on
/// every delivery-rate sample. Pre-PR this rescanned the whole window.
void BM_WindowedMeanRecordMax(benchmark::State& state) {
  stats::WindowedMean wm(Duration::millis(400));
  std::int64_t t = 0;
  double v = 1e6;
  for (auto _ : state) {
    v = (v * 1.000037 > 4e6) ? 1e6 : v * 1.000037;  // wander, deterministic
    wm.record(TimePoint{t}, v);
    const auto m = wm.max(TimePoint{t});
    benchmark::DoNotOptimize(m);
    t += 1'000'000;  // 1 ms apart -> ~400 samples in window
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowedMeanRecordMax);

/// WindowedRate record + rate query: avg(txRate) on every dequeue.
void BM_WindowedRateRecord(benchmark::State& state) {
  stats::WindowedRate wr(Duration::millis(40));
  std::int64_t t = 0;
  for (auto _ : state) {
    wr.record(TimePoint{t}, 1500);
    const auto r = wr.rate_bps(TimePoint{t});
    benchmark::DoNotOptimize(r);
    t += 500'000;  // 0.5 ms
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowedRateRecord);

// ---- feedback updater ----------------------------------------------------

/// Ack-scheduler ops/sec: hold (with its re-arm) plus the eventual timed
/// release, measured over batches that drain through the simulator.
void BM_AckSchedulerHoldRelease(benchmark::State& state) {
  sim::Simulator simu;
  std::uint64_t released = 0;
  core::AckScheduler sched(simu, [&released](net::Packet) { ++released; });
  net::Packet ack;
  ack.size_bytes = 64;
  net::TcpHeader h;
  h.is_ack = true;
  ack.header = h;
  std::uint64_t i = 0;
  for (auto _ : state) {
    net::Packet p = ack;
    p.uid = i;
    sched.hold(std::move(p), simu.now() + Duration::micros(100));
    if ((++i & 0x3F) == 0) {
      simu.run_until(simu.now() + Duration::millis(1));
    }
  }
  sched.flush();
  benchmark::DoNotOptimize(released);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AckSchedulerHoldRelease);

// ---- AP qdisc ------------------------------------------------------------

/// DropTailFifo at a steady depth of 64 packets: one enqueue and one
/// dequeue per item, the AP downlink's per-packet queue work.
void BM_FifoChurn(benchmark::State& state) {
  queue::DropTailFifo fifo(-1);
  net::Packet proto;
  proto.size_bytes = 1240;
  proto.header = net::TcpHeader{};
  TimePoint now = TimePoint::zero();
  for (int i = 0; i < 64; ++i) fifo.enqueue(net::Packet(proto), now);
  for (auto _ : state) {
    now = now + Duration::micros(1);
    fifo.enqueue(net::Packet(proto), now);
    auto p = fifo.dequeue(now);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoChurn);

/// AP downlink dispatch as a dense run drives it: 64 Wi-Fi stations with
/// FIFO queues behind one Zhuge AP, 24 flows three to a station on eight of
/// them, one segment per flow every 8 ms. Each packet pays the station and
/// flow lookups, a Fortune Teller prediction, the qdisc and the AMPDU
/// link, and its dequeue feeds the three tellers of its station. The flows
/// are pinned at HoldOnly (no ACKs come back to spend Full mode's delay
/// tokens), as in tests/alloc_test.cpp. Items are packets dispatched.
void BM_ApDownlinkDispatch(benchmark::State& state) {
  constexpr int kStations = 64;
  constexpr int kFlows = 24;
  sim::Simulator simu;
  sim::Rng rng(3);
  wireless::Medium medium(simu, rng);
  std::vector<std::unique_ptr<wireless::Channel>> channels;
  app::AccessPoint::Config cfg;
  cfg.mode = app::ApMode::kZhuge;
  cfg.zhuge.watchdog.initial_level = obs::LadderLevel::kHoldOnly;
  app::AccessPoint ap(simu, rng, medium, cfg, [](net::Packet&&) {}, [](net::Packet&&) {});
  for (int i = 0; i < kStations; ++i) {
    channels.push_back(std::make_unique<wireless::Channel>(7));
    ap.register_station(static_cast<std::uint32_t>(100 + i), *channels.back(), {});
  }
  std::vector<net::FlowId> flows;
  for (int i = 0; i < kFlows; ++i) {
    flows.push_back(net::FlowId{1, static_cast<std::uint32_t>(100 + i % 8), 5000,
                                static_cast<std::uint16_t>(6000 + i), 6});
    ap.register_rtc_flow(flows.back());
  }
  net::Packet proto;
  proto.size_bytes = 1240;
  proto.header = net::TcpHeader{};
  const auto round = [&] {
    for (const net::FlowId& f : flows) {
      net::Packet p(proto);
      p.flow = f;
      ap.from_wan(std::move(p));
    }
    simu.run_until(simu.now() + Duration::millis(8));
  };
  for (int i = 0; i < 250; ++i) round();  // warm-up: 2 s
  for (auto _ : state) round();
  state.SetItemsProcessed(state.iterations() * kFlows);
}
BENCHMARK(BM_ApDownlinkDispatch);

// ---- RTP media path ------------------------------------------------------

/// The RTP media path end to end over a clean 10 ms path each way: frame
/// packetisation and pacing, the sender's send histories, receiver frame
/// reassembly and loss tracking, TWCC reports and their reconstruction into
/// GCC observations. The encoder cap is raised to 20 Mbps so a 24 fps frame
/// spans ~90 packets. Items are media packets received.
void BM_RtpMediaLoop(benchmark::State& state) {
  sim::Simulator simu;
  sim::Rng rng(1);
  net::PacketUidSource uids;
  rtc::FrameStats stats;
  transport::RtpSender::Config cfg;
  cfg.video.max_bitrate_bps = 20e6;
  cfg.gcc.max_rate_bps = 20e6;
  std::unique_ptr<transport::RtpReceiver> rx;
  transport::RtpSender tx(simu, rng, net::FlowId{1, 2, 10, 20, 17}, cfg, uids,
                          [&simu, &rx](net::Packet&& p) {
                            simu.schedule_after(
                                Duration::millis(10),
                                [&rx, p = std::move(p)] { rx->on_rtp(p); });
                          });
  rx = std::make_unique<transport::RtpReceiver>(
      simu, transport::RtpReceiver::Config{}, uids,
      [&simu, &tx](net::Packet&& p) {
        simu.schedule_after(Duration::millis(10),
                            [&tx, p = std::move(p)] { tx.on_rtcp(p); });
      },
      stats);
  tx.start();
  // Warm-up: GCC ramps to the cap and the windows reach their peak size.
  simu.run_until(TimePoint::zero() + Duration::seconds(10));
  const std::uint64_t start = rx->packets_received();
  for (auto _ : state) {
    simu.run_until(simu.now() + Duration::millis(100));
  }
  const std::uint64_t packets = rx->packets_received() - start;
  benchmark::DoNotOptimize(packets);
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
}
BENCHMARK(BM_RtpMediaLoop);

// ---- TCP in-order path ---------------------------------------------------

/// A fixed 64-segment window, unpaced, so the loop has a steady state.
class FixedWindow : public cca::CongestionControl {
 public:
  void on_ack(const cca::AckEvent&) override {}
  void on_loss(TimePoint, std::uint64_t) override {}
  void on_rto(TimePoint) override {}
  [[nodiscard]] std::uint64_t cwnd_bytes() const override { return 64 * cca::kMss; }
  [[nodiscard]] double pacing_rate_bps() const override { return 0.0; }
  [[nodiscard]] std::string name() const override { return "fixed"; }
};

/// In-order TCP segments end to end: TcpSender over a 50 Mbps / 5 ms
/// PointToPointLink to a TcpReceiver, whose ACKs return over a second
/// link — the sender's in-flight table, both links and the receiver's
/// reassembly, with no loss. Items are segments received in order.
void BM_TcpInOrderLoop(benchmark::State& state) {
  sim::Simulator simu;
  net::PacketUidSource uids;
  std::unique_ptr<transport::TcpSender> tx;
  std::unique_ptr<transport::TcpReceiver> rx;
  net::PointToPointLink::Config link_cfg;
  link_cfg.rate_bps = 50e6;
  link_cfg.prop_delay = Duration::millis(5);
  net::PointToPointLink down(simu, link_cfg, [&rx](net::Packet&& p) { rx->on_data(p); });
  net::PointToPointLink up(simu, link_cfg, [&tx](net::Packet&& p) { tx->on_ack(p); });
  tx = std::make_unique<transport::TcpSender>(
      simu, net::FlowId{1, 2, 10, 20, 6}, std::make_unique<FixedWindow>(),
      uids,
      [&down](net::Packet&& p) { down.send(std::move(p)); });
  rx = std::make_unique<transport::TcpReceiver>(
      simu, uids,
      [&up](net::Packet&& p) { up.send(std::move(p)); }, nullptr);
  tx->write_frame(0, simu.now(), std::uint64_t{1} << 50);
  simu.run_until(TimePoint::zero() + Duration::seconds(1));  // warm-up
  const std::uint64_t start = rx->contiguous_received();
  for (auto _ : state) {
    simu.run_until(simu.now() + Duration::millis(10));
  }
  const std::uint64_t segments = (rx->contiguous_received() - start) / cca::kMss;
  benchmark::DoNotOptimize(segments);
  state.SetItemsProcessed(static_cast<std::int64_t>(segments));
}
BENCHMARK(BM_TcpInOrderLoop);

}  // namespace

BENCHMARK_MAIN();
