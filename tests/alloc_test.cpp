// Heap-allocation regression tests for the packet path. This binary
// replaces the global operator new/delete with counting versions (the
// replacement is per executable, so no other test sees it) and pins:
//  * zero allocations in steady-state enqueue/dequeue cycles on the three
//    qdiscs, once each has reached its peak depth;
//  * zero allocations for in-order segments through TcpSender ->
//    PointToPointLink -> TcpReceiver (and the ACKs back), and through the
//    FastAck shadow receiver;
//  * zero allocations in steady-state AP downlink dispatch (from_wan ->
//    station FIFO -> WiFi dequeue observer -> Fortune Tellers) with 24
//    Zhuge flows registered over 64 stations;
//  * fewer than 0.2 allocations per executed event over the whole tcp_mix
//    golden run, setup and result collection included.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "app/access_point.hpp"
#include "app/golden.hpp"
#include "app/scenario.hpp"
#include "baseline/fastack.hpp"
#include "cca/cca.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "queue/codel.hpp"
#include "queue/fifo.hpp"
#include "queue/fq_codel.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp_receiver.hpp"
#include "transport/tcp_sender.hpp"
#include "wireless/channel.hpp"
#include "wireless/medium.hpp"

namespace {

// zlint-allow(shared-mutable-state): the allocation counter is the point of this binary
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Out of line on purpose: where a replacement operator delete inlines
// into a container's deallocate, GCC 12 pairs the free() it then sees
// with the container's operator new and flags the pair
// (-Wmismatched-new-delete), although every operator new here is malloc.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

// No type in the code is over-aligned, so the align_val_t forms are left
// to the library.
void* operator new(std::size_t n) { return or_throw(counted_malloc(n)); }
void* operator new[](std::size_t n) { return or_throw(counted_malloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace zhuge {
namespace {

using net::Packet;
using sim::Duration;
using sim::TimePoint;

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

TEST(AllocCounter, SeesOperatorNew) {
  const std::uint64_t before = allocations();
  auto p = std::make_unique<std::string>(100, 'x');
  EXPECT_GE(allocations() - before, 2u);  // the string object and its buffer
}

Packet tcp_packet(std::uint32_t flow, std::uint64_t seq) {
  Packet p;
  p.uid = seq;
  p.flow = net::FlowId{1, 2, 10, static_cast<std::uint16_t>(20 + flow), 6};
  p.size_bytes = 1240;
  net::TcpHeader h;
  h.seq = seq;
  h.end_seq = seq + 1200;
  p.header = h;
  return p;
}

/// Allocations over `cycles` enqueue+dequeue pairs at a steady depth of
/// `depth` packets spread over `flows` flows, after a warm-up that takes
/// the queue to that depth and cycles it as long again.
std::uint64_t steady_state_allocations(queue::Qdisc& q, int depth, int flows,
                                       int cycles) {
  TimePoint now = TimePoint::zero();
  std::uint64_t seq = 0;
  const auto cycle = [&] {
    now = now + Duration::micros(1);
    EXPECT_TRUE(q.enqueue(tcp_packet(static_cast<std::uint32_t>(seq % flows), seq), now));
    ++seq;
    EXPECT_TRUE(q.dequeue(now).has_value());
  };
  for (int i = 0; i < depth; ++i) {
    EXPECT_TRUE(q.enqueue(tcp_packet(static_cast<std::uint32_t>(seq % flows), seq), now));
    ++seq;
  }
  for (int i = 0; i < cycles; ++i) cycle();
  const std::uint64_t before = allocations();
  for (int i = 0; i < cycles; ++i) cycle();
  const std::uint64_t n = allocations() - before;
  EXPECT_EQ(q.packet_count(), static_cast<std::size_t>(depth));
  return n;
}

constexpr int kCycles = 20'000;

TEST(AllocQdisc, DropTailFifoSteadyStateIsAllocationFree) {
  queue::DropTailFifo fifo(-1);
  EXPECT_EQ(steady_state_allocations(fifo, 100, 1, kCycles), 0u);
}

TEST(AllocQdisc, CoDelSteadyStateIsAllocationFree) {
  queue::CoDel codel;
  EXPECT_EQ(steady_state_allocations(codel, 100, 1, kCycles), 0u);
}

TEST(AllocQdisc, FqCoDelSteadyStateIsAllocationFree) {
  queue::FqCoDel fq;
  EXPECT_EQ(steady_state_allocations(fq, 100, 4, kCycles), 0u);
  EXPECT_EQ(fq.flow_count(), 4u);
}

/// A fixed window, unpaced: the in-flight table stays at one depth, so a
/// steady state exists.
class FixedWindow : public cca::CongestionControl {
 public:
  explicit FixedWindow(std::uint64_t cwnd) : cwnd_(cwnd) {}
  void on_ack(const cca::AckEvent&) override {}
  void on_loss(TimePoint, std::uint64_t) override {}
  void on_rto(TimePoint) override {}
  [[nodiscard]] std::uint64_t cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] double pacing_rate_bps() const override { return 0.0; }
  [[nodiscard]] std::string name() const override { return "fixed"; }

 private:
  std::uint64_t cwnd_;
};

TEST(AllocTcp, InOrderSegmentsThroughLinksAreAllocationFree) {
  sim::Simulator sim;
  net::PacketUidSource uids;
  std::unique_ptr<transport::TcpSender> tx;
  std::unique_ptr<transport::TcpReceiver> rx;
  net::PointToPointLink::Config link_cfg;
  link_cfg.rate_bps = 50e6;
  link_cfg.prop_delay = Duration::millis(5);
  net::PointToPointLink down(sim, link_cfg, [&rx](Packet&& p) { rx->on_data(p); });
  net::PointToPointLink up(sim, link_cfg, [&tx](Packet&& p) { tx->on_ack(p); });
  tx = std::make_unique<transport::TcpSender>(
      sim, net::FlowId{1, 2, 10, 20, 6}, std::make_unique<FixedWindow>(64 * cca::kMss),
      uids,
      [&down](Packet&& p) { down.send(std::move(p)); });
  std::uint64_t frames = 0;
  rx = std::make_unique<transport::TcpReceiver>(
      sim, uids,
      [&up](Packet&& p) { up.send(std::move(p)); },
      [&frames](std::uint32_t, TimePoint, TimePoint) { ++frames; });
  // One frame far larger than the run: every segment carries the same
  // frame end, so frame reassembly holds one entry throughout.
  tx->write_frame(0, sim.now(), std::uint64_t{1} << 40);

  sim.run_until(TimePoint::zero() + Duration::seconds(2));  // warm-up
  const std::uint64_t acked_before = rx->contiguous_received();
  const std::uint64_t before = allocations();
  sim.run_until(TimePoint::zero() + Duration::seconds(4));
  const std::uint64_t n = allocations() - before;
  const std::uint64_t segments = (rx->contiguous_received() - acked_before) / cca::kMss;

  EXPECT_GT(segments, 5'000u);
  EXPECT_EQ(n, 0u) << "over " << segments << " in-order segments";
  EXPECT_EQ(tx->retransmissions(), 0u);
  EXPECT_EQ(frames, 0u);
}

TEST(AllocTcp, FastAckInOrderIsAllocationFree) {
  baseline::FastAck fa;
  std::uint64_t seq = 0;
  const auto deliver = [&] {
    const auto ack = fa.on_wireless_delivered(tcp_packet(0, seq), TimePoint::zero(), seq);
    seq += 1200;
    return ack.has_value() && ack->tcp().ack == seq;
  };
  EXPECT_TRUE(deliver());
  const std::uint64_t before = allocations();
  bool all_acked = true;
  for (int i = 0; i < kCycles; ++i) all_acked &= deliver();
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_TRUE(all_acked);
}

/// 64 Wi-Fi stations with FIFO queues behind one Zhuge AP; flow i of 24
/// rides station i % 8, so eight stations carry three tellers each. The
/// flows are pinned at HoldOnly: with no client behind the AP no ACK ever
/// spends the delay tokens a Full-mode flow banks, so only a pinned flow
/// has a steady state. Every lookup, the prediction and the teller fan-out
/// still run per packet.
TEST(AllocAp, DownlinkDispatchIsAllocationFree) {
  constexpr int kStations = 64;
  constexpr int kFlows = 24;
  sim::Simulator sim;
  sim::Rng rng(3);
  wireless::Medium medium(sim, rng);
  std::vector<std::unique_ptr<wireless::Channel>> channels;
  app::AccessPoint::Config cfg;
  cfg.mode = app::ApMode::kZhuge;
  cfg.zhuge.watchdog.initial_level = obs::LadderLevel::kHoldOnly;
  std::uint64_t delivered = 0;
  app::AccessPoint ap(sim, rng, medium, cfg, [&delivered](Packet&&) { ++delivered; },
                      [](Packet&&) {});
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
  // One segment per flow every 8 ms: about 30 Mbps over the shared medium,
  // well inside its capacity, so every queue has a steady peak depth.
  std::uint64_t seq = 0;
  const auto round = [&] {
    for (const net::FlowId& f : flows) {
      Packet p = tcp_packet(0, seq);
      p.flow = f;
      seq += 1200;
      ap.from_wan(std::move(p));
    }
    sim.run_until(sim.now() + Duration::millis(8));
  };
  for (int i = 0; i < 250; ++i) round();  // warm-up: 2 s
  const std::uint64_t delivered_before = delivered;
  const std::uint64_t before = allocations();
  for (int i = 0; i < 500; ++i) round();
  const std::uint64_t n = allocations() - before;
  EXPECT_EQ(delivered - delivered_before, 500u * kFlows);  // no backlog, no drop
  EXPECT_EQ(n, 0u) << "over " << 500 * kFlows << " downlink packets";
}

TEST(AllocRun, TcpMixGoldenRunUnderBudget) {
  const std::optional<app::ScenarioSpec> spec = app::golden_scenario_spec("tcp_mix");
  ASSERT_TRUE(spec.has_value());
  const std::uint64_t before = allocations();
  const app::MultiStationResult r = app::run_multi_station(*spec);
  const std::uint64_t n = allocations() - before;
  ASSERT_GT(r.events_executed, 0u);
  const double per_event = static_cast<double>(n) / static_cast<double>(r.events_executed);
  RecordProperty("allocations", std::to_string(n));
  RecordProperty("events_executed", std::to_string(r.events_executed));
  std::printf("tcp_mix: %llu allocations over %llu events (%.3f per event)\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(r.events_executed), per_event);
  EXPECT_LT(per_event, 0.2);
}

}  // namespace
}  // namespace zhuge
