// Randomized invariant tests (tests/prop.hpp harness) for the core
// primitives whose correctness everything else leans on:
//  * FortuneTeller Eq. 1 — qSize = max(bytes - maxBurstSize, 0) is never
//    negative and qLong is monotone in the queue depth;
//  * SeqUnwrapper — round-trips arbitrary 16-bit walks whose true step
//    stays within the +-32768 disambiguation window;
//  * AckScheduler — never reorders held feedback under random hold deltas
//    and random retreats;
//  * PointToPointLink — the closed-form link delivers, drops and draws its
//    Rng exactly like the two-event (serialization end, then delivery)
//    model it replaced, at one event per delivered packet;
//  * synthetic ABW traces — seed-determinism, class rate envelopes, and
//    rate_at() piecewise/sample-and-hold consistency (the eval matrix's
//    trace axis leans on all three);
//  * Simulator — fires in exactly the (time, scheduling order) sequence of
//    an ordered-set reference model under random schedules, cancels,
//    steps, bounded runs and stops;
//  * sim::LookupTable — finds, overwrites and erases like a std::map under
//    colliding hashes, growth and erase in any order;
//  * multi_result_fingerprint — no sequence of Distribution reads moves
//    it, so every caller hashes a run alike whatever it read first;
//  * stats::Distribution — every order-statistic read by selection equals
//    the full sort's bit for bit, under ties, signed zeros and
//    interleaved adds, and leaves the multiset's digest where it was;
//  * sim::Ring — behaves as a std::deque FIFO under random push/pop/clear
//    sequences across every growth, and constructs and destroys each
//    element exactly once;
//  * TcpReceiver and FastAck in-order fast paths — the same prefix, ACK
//    stream and delivered frames as the map-only algorithms they shortcut,
//    under reordering, duplicates and overlapping segments.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "app/scenario.hpp"
#include "app/sweep.hpp"
#include "baseline/fastack.hpp"
#include "core/ack_scheduler.hpp"
#include "core/fortune_teller.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/seq.hpp"
#include "net/tcp_ack.hpp"
#include "prop.hpp"
#include "sim/lookup_table.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "stats/distribution.hpp"
#include "trace/synthetic.hpp"
#include "transport/tcp_receiver.hpp"

namespace zhuge {
namespace {

using sim::Duration;
using sim::TimePoint;

TimePoint at_ms(double ms) {
  return TimePoint::zero() + Duration::from_seconds(ms / 1e3);
}

// ---------------------------------------------------------------------------
// FortuneTeller
// ---------------------------------------------------------------------------

TEST(PropFortuneTeller, QLongNeverNegativeAndClampedByBurst) {
  prop::for_all([](sim::Rng& rng, int) {
    core::FortuneTeller teller;
    double now_ms = 0.0;
    // Random dequeue history: bursts of 1..4 MPDUs, gaps 0.1..30 ms.
    const int departures = static_cast<int>(rng.uniform_int(40)) + 1;
    for (int i = 0; i < departures; ++i) {
      now_ms += rng.uniform(0.1, 30.0);
      const int in_burst = static_cast<int>(rng.uniform_int(4)) + 1;
      for (int k = 0; k < in_burst; ++k) {
        teller.on_dequeue(static_cast<std::int64_t>(rng.uniform_int(1501)),
                          at_ms(now_ms), rng.chance(0.2));
      }
    }
    const TimePoint now = at_ms(now_ms + rng.uniform(0.0, 5.0));
    const std::int64_t queue_bytes =
        static_cast<std::int64_t>(rng.uniform_int(400'000));
    const auto pred = teller.predict(now, queue_bytes, std::nullopt);
    // Eq. 1's max(..., 0): no queue depth may ever predict negative delay.
    EXPECT_GE(pred.q_long, Duration::zero());
    EXPECT_GE(pred.total(), Duration::zero());
    // Bytes at or below maxBurstSize are one aggregate in flight, not
    // queue build-up: qLong must clamp to exactly zero there.
    if (queue_bytes <= teller.max_burst_bytes(now)) {
      EXPECT_EQ(pred.q_long, Duration::zero());
    }
  });
}

TEST(PropFortuneTeller, QLongMonotoneInQueueDepth) {
  prop::for_all([](sim::Rng& rng, int) {
    core::FortuneTeller teller;
    double now_ms = 0.0;
    const int departures = static_cast<int>(rng.uniform_int(30)) + 5;
    for (int i = 0; i < departures; ++i) {
      now_ms += rng.uniform(0.5, 10.0);
      teller.on_dequeue(static_cast<std::int64_t>(rng.uniform_int(1501)),
                        at_ms(now_ms), rng.chance(0.3));
    }
    const TimePoint now = at_ms(now_ms + 1.0);
    const auto a = static_cast<std::int64_t>(rng.uniform_int(200'000));
    const auto b = a + static_cast<std::int64_t>(rng.uniform_int(200'000));
    // Same teller state, same instant: deeper queue, never smaller qLong.
    const auto pa = teller.predict(now, a, std::nullopt);
    const auto pb = teller.predict(now, b, std::nullopt);
    EXPECT_LE(pa.q_long, pb.q_long)
        << "qLong(" << a << " B) > qLong(" << b << " B)";
  });
}

// ---------------------------------------------------------------------------
// SeqUnwrapper
// ---------------------------------------------------------------------------

TEST(PropSeqUnwrapper, RoundTripsRandomWalks) {
  prop::for_all([](sim::Rng& rng, int) {
    net::SeqUnwrapper unwrapper;
    // Anchor anywhere on the wire; the unwrapper adopts the first value.
    std::int64_t true_seq =
        static_cast<std::int64_t>(rng.uniform_int(0x10000));
    ASSERT_EQ(unwrapper.unwrap(static_cast<std::uint16_t>(true_seq)),
              true_seq);
    const int steps = static_cast<int>(rng.uniform_int(300)) + 1;
    for (int i = 0; i < steps; ++i) {
      // Any step the uint16 disambiguation window can represent:
      // backward up to 32767 (reordering), forward up to 32768 (loss
      // bursts; +0x8000 exactly is pinned to forward).
      const std::int64_t delta =
          static_cast<std::int64_t>(rng.uniform_int(0x10000)) - 0x7FFF;
      true_seq += delta;
      const auto wire = static_cast<std::uint16_t>(true_seq & 0xFFFF);
      const std::int64_t got = unwrapper.unwrap(wire);
      ASSERT_EQ(got, true_seq)
          << "step " << i << " delta " << delta << " wire " << wire;
      ASSERT_EQ(static_cast<std::uint16_t>(got & 0xFFFF), wire);
    }
  });
}

// ---------------------------------------------------------------------------
// AckScheduler
// ---------------------------------------------------------------------------

TEST(PropAckScheduler, NeverReordersUnderRandomHoldsAndRetreats) {
  prop::for_all([](sim::Rng& rng, int) {
    sim::Simulator sim;
    std::vector<std::uint64_t> released;
    core::AckScheduler sched(sim, [&released](net::Packet p) {
      released.push_back(p.uid);
    });

    // Random schedule: 1..60 holds at random instants, each held for a
    // random delta past the previous release (the updater's
    // order-preserving floor), with random retreats interleaved.
    const int holds = static_cast<int>(rng.uniform_int(60)) + 1;
    double t_ms = 0.0;
    std::uint64_t next_uid = 1;
    for (int i = 0; i < holds; ++i) {
      t_ms += rng.uniform(0.0, 8.0);
      const double hold_ms = rng.uniform(0.0, 50.0);
      sim.schedule_at(at_ms(t_ms), [&sched, &sim, uid = next_uid, hold_ms] {
        net::Packet p;
        p.uid = uid;
        const TimePoint release = std::max(
            sched.last_release(sim.now()),
            sim.now() + Duration::from_seconds(hold_ms / 1e3));
        sched.hold(std::move(p), release);
      });
      ++next_uid;
      if (rng.chance(0.3)) {
        const double retreat_ms = rng.uniform(0.0, 30.0);
        sim.schedule_at(at_ms(t_ms + rng.uniform(0.0, 5.0)),
                        [&sched, retreat_ms] {
                          sched.retreat(
                              Duration::from_seconds(retreat_ms / 1e3));
                        });
      }
    }
    sim.run_until(at_ms(t_ms + 200.0));
    sched.flush();

    ASSERT_EQ(released.size(), static_cast<std::size_t>(holds));
    // Release order must equal hold order — uids were minted 1..N.
    EXPECT_TRUE(std::is_sorted(released.begin(), released.end()))
        << "feedback reordered";
  });
}

// ---------------------------------------------------------------------------
// PointToPointLink
// ---------------------------------------------------------------------------

/// The link as it was before its closed form, kept as the reference: one
/// event at serialization end (draw loss, then jitter, start the next
/// packet) and one at delivery. Same Config, same drop-tail rule (the
/// buffer holds the packets not yet being serialized).
class TwoEventLink {
 public:
  TwoEventLink(sim::Simulator& simulator, net::PointToPointLink::Config cfg,
               net::PacketHandler sink, sim::Rng* rng)
      : sim_(simulator), cfg_(cfg), sink_(std::move(sink)), rng_(rng) {}

  bool send(net::Packet&& p) {
    if (cfg_.buffer_bytes >= 0 &&
        queued_bytes_ + p.size_bytes > cfg_.buffer_bytes) {
      ++drops_;
      return false;
    }
    queued_bytes_ += p.size_bytes;
    queue_.push_back(std::move(p));
    if (!busy_) transmit_next();
    return true;
  }

  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t random_drops() const { return random_drops_; }

 private:
  void transmit_next() {
    busy_ = !queue_.empty();
    if (!busy_) return;
    net::Packet p = std::move(queue_.front());
    queue_.pop_front();
    queued_bytes_ -= p.size_bytes;
    const Duration tx = Duration::from_seconds(
        static_cast<double>(p.size_bytes) * 8.0 / cfg_.rate_bps);
    sim_.schedule_after(tx, [this, p = std::move(p)]() mutable {
      on_serialized(std::move(p));
    });
  }

  void on_serialized(net::Packet&& p) {
    if (cfg_.loss_prob > 0.0 && rng_->chance(cfg_.loss_prob)) {
      ++random_drops_;
    } else {
      Duration extra = cfg_.prop_delay;
      if (cfg_.jitter_max > Duration::zero()) {
        extra += Duration::from_seconds(
            rng_->uniform(0.0, cfg_.jitter_max.to_seconds()));
      }
      sim_.schedule_after(extra, [this, p = std::move(p)]() mutable {
        sink_(std::move(p));
      });
    }
    transmit_next();
  }

  sim::Simulator& sim_;
  net::PointToPointLink::Config cfg_;
  net::PacketHandler sink_;
  sim::Rng* rng_;
  std::deque<net::Packet> queue_;
  std::int64_t queued_bytes_ = 0;
  bool busy_ = false;
  std::uint64_t drops_ = 0;
  std::uint64_t random_drops_ = 0;
};

struct LinkSend {
  TimePoint at;
  std::uint32_t bytes;
};

struct LinkOutcome {
  std::vector<std::pair<std::uint64_t, TimePoint>> delivered;  ///< uid, instant
  std::vector<std::uint64_t> tail_dropped;  ///< uids send() refused
  std::uint64_t drops = 0;
  std::uint64_t random_drops = 0;
  std::uint64_t events = 0;
};

/// Offer `sends` to a link built by `make(sim, sink, rng)`, each from the
/// top level once every event due by its instant has fired, so a send
/// never races a same-instant serialization end of the reference model.
template <typename Make>
LinkOutcome drive_link(const std::vector<LinkSend>& sends, std::uint64_t rng_seed,
                       Make&& make) {
  sim::Simulator simu;
  sim::Rng link_rng(rng_seed, /*stream=*/5);
  LinkOutcome out;
  auto link = make(simu, [&](net::Packet&& p) {
    out.delivered.emplace_back(p.uid, simu.now());
  }, &link_rng);
  for (std::size_t i = 0; i < sends.size(); ++i) {
    simu.run_until(sends[i].at);
    net::Packet p;
    p.uid = i;
    p.size_bytes = sends[i].bytes;
    if (!link->send(std::move(p))) out.tail_dropped.push_back(i);
  }
  simu.run();
  out.drops = link->drops();
  out.random_drops = link->random_drops();
  out.events = simu.events_executed();
  return out;
}

TEST(PropLink, ClosedFormMatchesTwoEventModel) {
  prop::for_all([](sim::Rng& rng, int) {
    // Half the cases put sizes on a 100-byte grid and send gaps on the
    // matching serialization-time grid, so sends often land exactly on a
    // serialization start or end.
    const bool grid = rng.chance(0.5);
    const std::uint32_t us_per_byte = rng.uniform_int(8) + 1;
    net::PointToPointLink::Config cfg;
    cfg.rate_bps = grid ? 8e6 / us_per_byte : std::pow(10.0, rng.uniform(5.0, 9.0));
    cfg.prop_delay = rng.chance(0.2) ? Duration::zero()
                                     : Duration::from_seconds(rng.uniform(0.0, 0.02));
    cfg.buffer_bytes = rng.chance(0.3) ? -1 : rng.uniform_int(6000);
    cfg.loss_prob = rng.chance(0.5) ? 0.0 : rng.uniform(0.0, 0.5);
    cfg.jitter_max = rng.chance(0.5) ? Duration::zero()
                                     : Duration::from_seconds(rng.uniform(0.0, 0.005));

    // Offered load around the link rate: a mean gap of one mean packet
    // time, with 30% back-to-back sends, so the queue both builds and
    // drains; 10% zero-byte packets off the grid.
    const double mean_tx_s = 750.0 * 8.0 / cfg.rate_bps;
    const int n = static_cast<int>(rng.uniform_int(200)) + 1;
    std::vector<LinkSend> sends;
    TimePoint t = TimePoint::zero();
    for (int i = 0; i < n; ++i) {
      if (!rng.chance(0.3)) {
        t += grid ? Duration::micros(100 * us_per_byte * rng.uniform_int(16))
                  : Duration::from_seconds(rng.uniform(0.0, 2.0 * mean_tx_s));
      }
      const std::uint32_t bytes = grid             ? 100 * rng.uniform_int(16)
                                  : rng.chance(0.1) ? 0u
                                                    : rng.uniform_int(1500) + 1;
      sends.push_back({t, bytes});
    }
    const std::uint64_t link_seed = rng.uniform_int(1u << 30);

    const LinkOutcome ref = drive_link(
        sends, link_seed, [&](sim::Simulator& simu, net::PacketHandler sink, sim::Rng* r) {
          return std::make_unique<TwoEventLink>(simu, cfg, std::move(sink), r);
        });
    const LinkOutcome got = drive_link(
        sends, link_seed, [&](sim::Simulator& simu, net::PacketHandler sink, sim::Rng* r) {
          auto link = std::make_unique<net::PointToPointLink>(simu, cfg, std::move(sink));
          link->set_rng(r);
          return link;
        });

    EXPECT_EQ(got.delivered, ref.delivered);  // instants and order
    EXPECT_EQ(got.tail_dropped, ref.tail_dropped);
    EXPECT_EQ(got.drops, ref.drops);
    EXPECT_EQ(got.random_drops, ref.random_drops);
    EXPECT_EQ(got.delivered.size() + got.tail_dropped.size() + got.random_drops,
              sends.size());
    EXPECT_EQ(got.events, got.delivered.size());  // one event per delivery
  });
}

// ---------------------------------------------------------------------------
// Synthetic ABW traces (the eval matrix's W1/W2/C1-C3 axis)
// ---------------------------------------------------------------------------

constexpr trace::TraceKind kWirelessClasses[] = {
    trace::TraceKind::kRestaurantWifi, trace::TraceKind::kOfficeWifi,
    trace::TraceKind::kIndoorMixed45G, trace::TraceKind::kCity4G,
    trace::TraceKind::kCity5G};

TEST(PropSyntheticTrace, DeterministicInKindAndSeed) {
  prop::for_all(prop::Config{.iterations = 40}, [](sim::Rng& rng, int) {
    const auto kind = kWirelessClasses[rng.uniform_int(5)];
    const auto seed = rng.uniform_int(1'000'000);
    const auto dur = sim::Duration::from_seconds(rng.uniform(1.0, 20.0));
    const trace::Trace a = trace::make_trace(kind, seed, dur);
    const trace::Trace b = trace::make_trace(kind, seed, dur);
    ASSERT_EQ(a.samples().size(), b.samples().size());
    for (std::size_t i = 0; i < a.samples().size(); ++i) {
      // Bitwise, not approximate: the eval fingerprints depend on it.
      ASSERT_EQ(a.samples()[i].t, b.samples()[i].t) << "sample " << i;
      ASSERT_EQ(a.samples()[i].rate_bps, b.samples()[i].rate_bps)
          << "sample " << i;
    }
    // A different seed must produce a different trace (same length), or
    // dense station groups would fade in lockstep.
    const trace::Trace c = trace::make_trace(kind, seed + 1, dur);
    ASSERT_EQ(a.samples().size(), c.samples().size());
    bool any_diff = false;
    for (std::size_t i = 0; i < a.samples().size(); ++i) {
      any_diff = any_diff || a.samples()[i].rate_bps != c.samples()[i].rate_bps;
    }
    EXPECT_TRUE(any_diff) << trace::short_name(kind)
                          << ": seed does not perturb the trace";
  });
}

TEST(PropSyntheticTrace, RatesStayInsideClassEnvelope) {
  prop::for_all(prop::Config{.iterations = 40}, [](sim::Rng& rng, int) {
    const auto kind = kWirelessClasses[rng.uniform_int(5)];
    const auto params = trace::params_for(kind);
    const auto dur = sim::Duration::from_seconds(rng.uniform(5.0, 30.0));
    const trace::Trace t =
        trace::make_trace(kind, rng.uniform_int(1'000'000), dur);
    ASSERT_FALSE(t.empty());
    // Documented generator envelope: mean*floor_ratio .. mean*ceil_ratio.
    const double lo = params.mean_bps * params.floor_ratio;
    const double hi = params.mean_bps * params.ceil_ratio;
    for (const auto& s : t.samples()) {
      ASSERT_GE(s.rate_bps, lo) << trace::short_name(kind);
      ASSERT_LE(s.rate_bps, hi) << trace::short_name(kind);
    }
    // The long-run mean should sit well inside the envelope: within 3x of
    // the class mean either way (the AR(1) process is mean-reverting; the
    // fades only pull downward).
    EXPECT_LE(t.mean_rate_bps(), params.mean_bps * 3.0);
    EXPECT_GE(t.mean_rate_bps(), params.mean_bps / 3.0);
    // Uniform sample spacing at the documented step.
    for (std::size_t i = 1; i < t.samples().size(); ++i) {
      ASSERT_EQ(t.samples()[i].t - t.samples()[i - 1].t, params.step);
    }
  });
}

TEST(PropSyntheticTrace, RateAtMatchesSampleAndHold) {
  prop::for_all(prop::Config{.iterations = 40}, [](sim::Rng& rng, int) {
    const auto kind = kWirelessClasses[rng.uniform_int(5)];
    const auto dur = sim::Duration::from_seconds(rng.uniform(2.0, 10.0));
    const trace::Trace t =
        trace::make_trace(kind, rng.uniform_int(1'000'000), dur);
    ASSERT_GE(t.samples().size(), 2u);
    const std::int64_t span_ns = t.span().count_ns();
    ASSERT_GT(span_ns, 0);
    for (int q = 0; q < 50; ++q) {
      // Query up to 3 spans out so the loop path is exercised too.
      const std::int64_t ns = static_cast<std::int64_t>(
          rng.uniform(0.0, 3.0 * static_cast<double>(span_ns)));
      const TimePoint at{ns};
      // Reference: last sample at or before the wrapped instant.
      const TimePoint wrapped{ns % span_ns};
      double expect = t.samples().front().rate_bps;
      for (const auto& s : t.samples()) {
        if (s.t <= wrapped) expect = s.rate_bps;
      }
      ASSERT_EQ(t.rate_at(at), expect) << "query " << ns << " ns";
      // Looping: one whole span later is bitwise the same rate.
      ASSERT_EQ(t.rate_at(at), t.rate_at(TimePoint{ns + span_ns}));
    }
  });
}

// ---------------------------------------------------------------------------
// Simulator event order
// ---------------------------------------------------------------------------

// The engine promises strict (time, scheduling order) firing, so a
// std::set of (t_ns, serial) pairs is a complete reference model. Each
// event checks, as it fires, that it is the model's head: any priority
// queue that breaks a tie, loses a cancel, resurrects a stale entry or
// mis-orders after compaction fails here at the first wrong event.
TEST(PropSimulator, FiringOrderMatchesOrderedSetModel) {
  std::uint64_t compactions = 0;  // cancels that swept the queue
  prop::for_all(prop::Config{.iterations = 60}, [&compactions](sim::Rng& rng, int) {
    using Key = std::pair<std::int64_t, std::uint64_t>;  // (t_ns, serial)
    sim::Simulator simu;
    std::set<Key> model;
    std::vector<std::pair<sim::EventId, Key>> minted;  // every id ever handed out
    std::uint64_t next_serial = 0;
    std::int64_t model_now = 0;
    bool stop_requested = false;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;

    // Tie-heavy delays: most land on an already-used nanosecond.
    const auto delay = [&rng]() -> std::int64_t {
      switch (rng.uniform_int(8)) {
        case 0: case 1: case 2: return 0;
        case 3: return 1;
        case 4: return 2;
        case 5: return 1'000;
        case 6: return static_cast<std::int64_t>(rng.uniform_int(50'000));
        default: return 10'000'000 + static_cast<std::int64_t>(rng.uniform_int(1'000));
      }
    };

    std::function<void(std::int64_t, int)> schedule = [&](std::int64_t t, int depth) {
      const bool child = depth < 3 && rng.chance(0.3);
      const std::int64_t child_delay = child ? delay() : 0;
      const bool stops = rng.chance(0.03);
      const Key key{std::max(t, model_now), next_serial++};
      const sim::EventId id = simu.schedule_at(
          TimePoint::zero() + Duration::nanos(t),
          [&, key, child, child_delay, stops, depth] {
            if (model.empty() || *model.begin() != key) {
              ADD_FAILURE() << "fired (" << key.first << ", " << key.second
                            << ") but the model's head is "
                            << (model.empty() ? std::string("empty")
                                              : std::to_string(model.begin()->first) + ", " +
                                                    std::to_string(model.begin()->second));
            }
            model.erase(key);
            model_now = key.first;
            EXPECT_EQ(simu.now().count_ns(), key.first);
            ++fired;
            if (child) schedule(key.first + child_delay, depth + 1);
            if (stops) {
              stop_requested = true;
              simu.stop();
            }
          });
      model.insert(key);
      minted.emplace_back(id, key);
    };

    const auto check_state = [&] {
      EXPECT_EQ(simu.pending(), model.size());
      EXPECT_EQ(simu.now().count_ns(), model_now);
    };

    for (int op = 0; op < 400 && !::testing::Test::HasFailure(); ++op) {
      const std::uint32_t pick = rng.uniform_int(100);
      if (pick < 35) {
        // Some requests land in the past and must clamp to now.
        schedule(model_now + delay() - (rng.chance(0.1) ? 5 : 0), 0);
      } else if (pick < 55) {
        if (rng.chance(0.05)) {
          EXPECT_FALSE(simu.cancel(0));  // never minted
        } else if (!minted.empty()) {
          // Live, already fired, already cancelled, or a handle whose
          // slot a newer event now occupies: only a live one cancels.
          const auto& [id, key] = minted[rng.uniform_int(static_cast<std::uint32_t>(minted.size()))];
          const bool live = model.count(key) > 0;
          EXPECT_EQ(simu.cancel(id), live);
          if (live) {
            model.erase(key);
            ++cancelled;
            EXPECT_LE(simu.queue_size(), 4 * simu.pending() + 64);
          }
        }
      } else if (pick < 67) {
        stop_requested = false;
        EXPECT_EQ(simu.step(), !model.empty());
      } else if (pick < 82) {
        const std::int64_t end = model_now + delay();
        stop_requested = false;
        simu.run_until(TimePoint::zero() + Duration::nanos(end));
        model_now = std::max(model_now, end);
        if (!stop_requested && !model.empty()) {
          EXPECT_GT(model.begin()->first, end);
        }
        // Schedule between the boundary and the head the engine peeked.
        if (!model.empty() && model.begin()->first > model_now) {
          const auto gap = static_cast<std::uint32_t>(
              std::min<std::int64_t>(model.begin()->first - model_now, 1 << 30));
          for (int i = 0; i < 3; ++i) schedule(model_now + rng.uniform_int(gap), 0);
        }
      } else if (pick < 85) {
        stop_requested = false;
        simu.run();
        if (!stop_requested) {
          EXPECT_TRUE(model.empty());
        }
      } else {
        // Cancel churn: far-future timers that almost all die pending,
        // enough of them to push stale entries past the 4:1 compaction
        // trigger.
        const std::size_t first = minted.size();
        for (int i = 0; i < 120; ++i) schedule(model_now + 1'000'000'000 + i % 7, 0);
        for (std::size_t i = first; i < minted.size(); ++i) {
          if (rng.chance(0.9) && model.count(minted[i].second) > 0) {
            const std::size_t before = simu.queue_size();
            EXPECT_TRUE(simu.cancel(minted[i].first));
            if (simu.queue_size() + 1 < before) ++compactions;
            model.erase(minted[i].second);
            ++cancelled;
            EXPECT_LE(simu.queue_size(), 4 * simu.pending() + 64);
          }
        }
      }
      check_state();
    }

    // Drain: whatever stops along the way, everything left fires in order
    // and the stale entries go with it.
    do {
      simu.run();
    } while (simu.pending() > 0 && !::testing::Test::HasFailure());
    EXPECT_TRUE(model.empty());
    EXPECT_EQ(fired + cancelled, next_serial);
    EXPECT_EQ(simu.events_executed(), fired);
    EXPECT_EQ(simu.events_cancelled(), cancelled);
    EXPECT_EQ(simu.queue_size(), 0u);
  });
  EXPECT_GT(compactions, 0u);
}

// ---------------------------------------------------------------------------
// sim::LookupTable
// ---------------------------------------------------------------------------

/// Maps keys onto a handful of hash values, so most keys collide and share
/// long probe runs (and runs wrap around the end of the array).
struct CollidingHash {
  std::size_t operator()(std::uint32_t k) const { return k % 5; }
};

// Random inserts, overwrites, lookups, erases and clears against a
// std::map model. Keys come from a small range, so erases hit present and
// absent keys alike and in any order, and the table grows through several
// doublings; the colliding hash makes backward-shift erase move entries
// across probe runs on every step.
TEST(PropLookupTable, MatchesMapModel) {
  prop::for_all(prop::Config{.iterations = 100}, [](sim::Rng& rng, int c) {
    sim::LookupTable<std::uint32_t, std::uint64_t, CollidingHash> colliding;
    sim::LookupTable<std::uint32_t, std::uint64_t> spread;
    std::map<std::uint32_t, std::uint64_t> model;
    const std::uint32_t range = c % 2 == 0 ? 40 : 400;
    const auto check_all = [&] {
      ASSERT_EQ(colliding.size(), model.size());
      ASSERT_EQ(spread.size(), model.size());
      for (std::uint32_t k = 0; k < range; ++k) {
        const auto it = model.find(k);
        const std::uint64_t* a = colliding.find(k);
        const std::uint64_t* b = spread.find(k);
        if (it == model.end()) {
          ASSERT_EQ(a, nullptr) << "key " << k;
          ASSERT_EQ(b, nullptr) << "key " << k;
        } else {
          ASSERT_NE(a, nullptr) << "key " << k;
          ASSERT_NE(b, nullptr) << "key " << k;
          EXPECT_EQ(*a, it->second);
          EXPECT_EQ(*b, it->second);
        }
      }
    };
    for (int op = 0; op < 600; ++op) {
      const std::uint32_t k = rng.uniform_int(range);
      const std::uint32_t pick = rng.uniform_int(100);
      if (pick < 50) {
        const std::uint64_t v = rng.next_u32();
        colliding.insert_or_assign(k, v);
        spread.insert_or_assign(k, v);
        model[k] = v;
      } else if (pick < 95) {
        const bool present = model.erase(k) > 0;
        EXPECT_EQ(colliding.erase(k), present);
        EXPECT_EQ(spread.erase(k), present);
      } else if (pick < 97) {
        colliding.clear();
        spread.clear();
        model.clear();
      }
      if (op % 10 == 0 || pick >= 50) check_all();
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Drain in a random order.
    std::vector<std::uint32_t> keys;
    for (const auto& [k, v] : model) keys.push_back(k);
    for (std::size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.uniform_int(static_cast<std::uint32_t>(i))]);
    }
    for (const std::uint32_t k : keys) {
      EXPECT_TRUE(colliding.erase(k));
      EXPECT_TRUE(spread.erase(k));
      model.erase(k);
      check_all();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_TRUE(colliding.empty());
    EXPECT_TRUE(spread.empty());
  });
}

// Move-only values (the AP owns its per-flow optimisers through the table)
// survive growth and backward shifts, and erase destroys the value.
TEST(PropLookupTable, OwnsMoveOnlyValues) {
  sim::LookupTable<net::FlowId, std::unique_ptr<int>, net::FlowIdHash> t;
  std::vector<net::FlowId> flows;
  for (std::uint16_t i = 0; i < 100; ++i) {
    flows.push_back(net::FlowId{1, 100u + i % 7, 5000, static_cast<std::uint16_t>(6000 + i), 6});
    t.insert_or_assign(flows.back(), std::make_unique<int>(i));
  }
  ASSERT_EQ(t.size(), 100u);
  for (std::uint16_t i = 0; i < 100; i += 2) EXPECT_TRUE(t.erase(flows[i]));
  for (std::uint16_t i = 0; i < 100; ++i) {
    const std::unique_ptr<int>* v = t.find(flows[i]);
    if (i % 2 == 0) {
      EXPECT_EQ(v, nullptr);
    } else {
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(**v, i);
    }
  }
  EXPECT_FALSE(t.contains(flows[0].reversed()));
}

// ---------------------------------------------------------------------------
// Result fingerprint vs. Distribution reads
// ---------------------------------------------------------------------------

/// Two stations, a Zhuge RTP flow and a TCP flow that leaves mid-run:
/// every per-flow and aggregate distribution gets samples.
app::ScenarioSpec short_mixed_spec() {
  app::ScenarioSpec spec;
  spec.name = "read_order";
  spec.duration_s = 4.0;
  spec.warmup_s = 1.0;
  spec.ap_mode = app::ApMode::kZhuge;
  spec.stations = {app::StationGroupSpec{}};
  spec.stations.front().count = 2;
  app::SpecFlow rtp;
  rtp.zhuge = true;
  app::SpecFlow tcp;
  tcp.kind = app::SpecFlowKind::kTcpCubic;
  tcp.station = 1;
  tcp.stop_s = 3.0;
  spec.flows = {rtp, tcp};
  return spec;
}

TEST(PropFingerprint, DistributionReadsNeverMoveIt) {
  const app::MultiStationResult run = app::run_multi_station(short_mixed_spec());
  const std::uint64_t want = app::multi_result_fingerprint(run);
  prop::for_all({.iterations = 40}, [&](sim::Rng& rng, int) {
    app::MultiStationResult r = run;  // fresh, unread sample order
    std::vector<const stats::Distribution*> dists = {
        &r.agg_network_rtt_ms, &r.agg_frame_delay_ms, &r.prediction_error_ms};
    for (const auto& f : r.flows) {
      dists.insert(dists.end(),
                   {&f.network_rtt_ms, &f.downlink_owd_ms, &f.frame_delay_ms});
    }
    const int reads = 1 + static_cast<int>(rng.uniform_int(12));
    for (int i = 0; i < reads; ++i) {
      const stats::Distribution& d = *dists[rng.uniform_int(
          static_cast<std::uint32_t>(dists.size()))];
      const double x = rng.uniform(0.0, 100.0);
      switch (rng.uniform_int(7)) {
        case 0: (void)d.quantile(rng.uniform()); break;
        case 1: (void)d.min(); break;
        case 2: (void)d.max(); break;
        case 3: (void)d.ratio_above(x); break;
        case 4: (void)d.ratio_below(x); break;
        case 5: (void)d.ccdf(x); break;
        default: (void)d.mean(); break;
      }
    }
    EXPECT_EQ(app::multi_result_fingerprint(r), want);
  });
}

// ---------------------------------------------------------------------------
// stats::Distribution order statistics by selection
// ---------------------------------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The reads of a fully sorted sample vector: sort the multiset in
/// Distribution's rank order (-0.0 before +0.0), then index and search.
struct SortedModel {
  std::vector<double> v;
  bool sorted = true;

  void add(double x) {
    v.push_back(x);
    sorted = false;
  }
  const std::vector<double>& ranked() {
    if (!sorted) std::sort(v.begin(), v.end(), stats::Distribution::before);
    sorted = true;
    return v;
  }
  double quantile(double q) {
    const std::vector<double>& s = ranked();
    if (s.empty()) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return s[lo] * (1.0 - frac) + s[hi] * frac;
  }
  double min() { return v.empty() ? 0.0 : ranked().front(); }
  double max() { return v.empty() ? 0.0 : ranked().back(); }
  double ratio_above(double t) {
    const std::vector<double>& s = ranked();
    if (s.empty()) return 0.0;
    const auto it = std::upper_bound(s.begin(), s.end(), t);
    return static_cast<double>(s.end() - it) / static_cast<double>(s.size());
  }
  double ratio_below(double t) {
    const std::vector<double>& s = ranked();
    if (s.empty()) return 0.0;
    const auto it = std::lower_bound(s.begin(), s.end(), t);
    return static_cast<double>(it - s.begin()) / static_cast<double>(s.size());
  }
};

/// A sample drawn to collide: small integers (duplicates), both signed
/// zeros, negatives, wide magnitudes and the infinities.
double colliding_sample(sim::Rng& rng) {
  switch (rng.uniform_int(8)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return static_cast<double>(rng.uniform_int(7)) - 3.0;
    case 3: return rng.normal(0.0, 1.0);
    case 4: return rng.uniform(-1e6, 1e6);
    case 5: return rng.chance(0.5) ? 1e-300 : -1e-300;
    case 6: return rng.chance(0.5) ? HUGE_VAL : -HUGE_VAL;
    default: return rng.uniform(0.0, 500.0);
  }
}

TEST(PropDistribution, SelectionMatchesSortedModel) {
  prop::for_all([](sim::Rng& rng, int c) {
    stats::Distribution d;
    SortedModel model;
    const auto digest = [&d] {
      app::Fnv f;
      f.dist(d);
      return f.h;
    };
    const auto threshold = [&rng, &model] {
      // Often exactly a sample (ties at the threshold), else anywhere.
      if (!model.v.empty() && rng.chance(0.5)) {
        return model.v[rng.uniform_int(static_cast<std::uint32_t>(model.v.size()))];
      }
      return colliding_sample(rng);
    };
    // One read of each kind, compared bit for bit; no read moves the
    // multiset's digest.
    const auto read_all = [&](double q) {
      const std::uint64_t before = digest();
      EXPECT_EQ(bits(d.quantile(q)), bits(model.quantile(q))) << "q " << q;
      const double t = threshold();
      EXPECT_EQ(bits(d.ratio_above(t)), bits(model.ratio_above(t))) << "t " << t;
      EXPECT_EQ(bits(d.ratio_below(t)), bits(model.ratio_below(t))) << "t " << t;
      EXPECT_EQ(bits(d.ccdf(t)), bits(model.ratio_above(t))) << "t " << t;
      EXPECT_EQ(bits(d.min()), bits(model.min()));
      EXPECT_EQ(bits(d.max()), bits(model.max()));
      EXPECT_EQ(digest(), before);
      EXPECT_EQ(d.count(), model.v.size());
    };

    read_all(rng.uniform());  // empty: every read is 0
    // Sizes up to 2 000, most of them small so ties and edges dominate.
    const std::uint32_t n =
        1 + rng.uniform_int(c % 4 == 0 ? 2000 : (c % 4 == 1 ? 60 : 8));
    while (d.count() < n) {
      if (rng.chance(0.2)) {
        stats::Distribution other;
        const std::uint32_t k = 1 + rng.uniform_int(n - static_cast<std::uint32_t>(d.count()));
        for (std::uint32_t i = 0; i < k; ++i) {
          const double x = colliding_sample(rng);
          other.add(x);
          model.add(x);
        }
        if (rng.chance(0.5)) (void)other.quantile(rng.uniform());  // permuted
        d.add_all(other);
      } else {
        const double x = colliding_sample(rng);
        d.add(x);
        model.add(x);
      }
      if (rng.chance(0.1)) read_all(rng.uniform());
      if (::testing::Test::HasFailure()) return;
    }
    for (const double q : {0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75,
                           0.8, 0.9, 0.95, 0.99, 0.999, 1.0, -0.5, 1.5}) {
      read_all(q);
    }
    for (int i = 0; i < 20; ++i) read_all(rng.uniform());
  });
}

// ---------------------------------------------------------------------------
// sim::Ring
// ---------------------------------------------------------------------------

/// Every live Tracked object, by address: a construction must find its
/// address free and a destruction must find it taken, so a leak, a double
/// destroy or a use of a destroyed slot shows up as a set mismatch.
struct LiveSet {
  std::set<const void*> live;
  std::uint64_t constructed = 0;
  std::uint64_t destroyed = 0;
  bool misuse = false;

  void born(const void* p) {
    ++constructed;
    misuse |= !live.insert(p).second;
  }
  void died(const void* p) {
    ++destroyed;
    misuse |= live.erase(p) != 1;
  }
};

/// Move-only element that owns heap memory and reports its lifetime.
class Tracked {
 public:
  Tracked(int v, LiveSet* s) : v_(std::make_unique<int>(v)), s_(s) { s_->born(this); }
  Tracked(Tracked&& o) noexcept : v_(std::move(o.v_)), s_(o.s_) { s_->born(this); }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() { s_->died(this); }

  [[nodiscard]] int value() const { return v_ ? *v_ : -1; }

 private:
  std::unique_ptr<int> v_;
  LiveSet* s_;
};

TEST(PropRing, MatchesDequeModelWithBalancedLifetimes) {
  prop::for_all([](sim::Rng& rng, int) {
    LiveSet set;
    {
      sim::Ring<Tracked> ring;
      std::deque<int> model;
      int next = 0;
      std::size_t cap_seen = 0;
      // Phases alternate push-heavy and pop-heavy runs, so the head sits
      // at a random offset each time the ring fills and doubles.
      const int ops = 200 + static_cast<int>(rng.uniform_int(1200));
      double push_p = 0.7;
      for (int op = 0; op < ops; ++op) {
        if (rng.chance(0.02)) push_p = rng.uniform(0.2, 0.9);
        const double r = rng.uniform();
        if (r < 0.003) {
          ring.clear();
          model.clear();
        } else if (r < push_p || model.empty()) {
          const std::size_t before = ring.capacity();
          const bool full = ring.size() == before;
          if (rng.chance(0.5)) {
            ring.push_back(Tracked(next, &set));
          } else {
            EXPECT_EQ(ring.emplace_back(next, &set).value(), next);
          }
          model.push_back(next++);
          // Growth happens exactly when full, by doubling.
          if (!full) {
            EXPECT_EQ(ring.capacity(), before);
          } else if (before > 0) {
            EXPECT_EQ(ring.capacity(), 2 * before);
          }
        } else {
          ASSERT_EQ(ring.front().value(), model.front());
          ring.pop_front();
          model.pop_front();
        }
        ASSERT_EQ(ring.size(), model.size());
        ASSERT_EQ(ring.empty(), model.empty());
        EXPECT_GE(ring.capacity(), cap_seen) << "capacity shrank";
        cap_seen = ring.capacity();
        EXPECT_EQ(cap_seen & (cap_seen - 1), 0u) << "capacity not a power of two";
        if (!model.empty()) {
          EXPECT_EQ(ring.front().value(), model.front());
          EXPECT_EQ(ring.back().value(), model.back());
        }
        // Index and range-for walks give FIFO order.
        if (rng.chance(0.1)) {
          for (std::size_t i = 0; i < model.size(); ++i) {
            ASSERT_EQ(ring[i].value(), model[i]) << "index " << i;
          }
          std::size_t i = 0;
          for (const Tracked& t : ring) {
            ASSERT_LT(i, model.size());
            ASSERT_EQ(t.value(), model[i++]);
          }
          EXPECT_EQ(i, model.size());
        }
        // Live objects are exactly the ring's elements.
        ASSERT_EQ(set.live.size(), model.size());
      }
    }
    EXPECT_FALSE(set.misuse) << "double construct/destroy of one slot";
    EXPECT_TRUE(set.live.empty()) << set.live.size() << " leaked";
    EXPECT_EQ(set.constructed, set.destroyed);
  });
}

TEST(PropRing, PushOfOwnElementSurvivesGrowth) {
  // Pushing a reference into the ring while it is full must read the
  // element before growth moves it out (std::deque allows this too).
  sim::Ring<std::string> ring;
  for (int i = 0; i < 3; ++i) {  // move the head off slot 0
    ring.push_back("x");
    ring.pop_front();
  }
  while (ring.size() < ring.capacity()) {
    ring.push_back(std::string(40, static_cast<char>('a' + ring.size() % 26)));
  }
  const std::string front = ring.front();
  ring.push_back(ring.front());
  EXPECT_EQ(ring.back(), front);
}

// ---------------------------------------------------------------------------
// TCP sequence tables: the receiver's fast paths vs the map-only algorithm,
// and the contiguous-prefix tracker vs a byte set
// ---------------------------------------------------------------------------

/// One data segment of a random stream.
struct Seg {
  std::uint64_t seq;
  std::uint64_t end;
  std::uint32_t frame_id;
  std::uint64_t frame_end;
};

/// A byte stream cut into frames and MSS segments, then perturbed:
/// segments split in two with the halves swapped (a hole as small as one
/// byte), adjacent swaps and short-range moves (reordering), re-sends of
/// earlier segments (duplicates), and spans straddling segment edges
/// (overlaps). Every segment is non-empty.
std::vector<Seg> random_stream(sim::Rng& rng) {
  std::vector<std::uint64_t> frame_ends;
  std::uint64_t off = 0;
  const int frames = 1 + static_cast<int>(rng.uniform_int(30));
  for (int f = 0; f < frames; ++f) {
    off += 1 + rng.uniform_int(6000);
    frame_ends.push_back(off);
  }
  const auto frame_of = [&](std::uint64_t seq) {
    const auto it = std::upper_bound(frame_ends.begin(), frame_ends.end(), seq);
    return static_cast<std::uint32_t>(it - frame_ends.begin());
  };
  const auto make = [&](std::uint64_t a, std::uint64_t b) {
    const std::uint32_t f = frame_of(a);
    return Seg{a, b, f, frame_ends[f]};
  };
  std::vector<Seg> segs;
  std::uint64_t start = 0;
  for (std::uint64_t fe : frame_ends) {
    while (start < fe) {
      const std::uint64_t end = std::min<std::uint64_t>(start + 1200, fe);
      segs.push_back(make(start, end));
      start = end;
    }
  }
  const double split = rng.uniform(0.0, 0.2);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const Seg seg = segs[i];
    if (seg.end - seg.seq < 2 || !rng.chance(split)) continue;
    const std::uint64_t cut =
        seg.seq + 1 + (rng.chance(0.5) ? 0 : rng.uniform_int(static_cast<std::uint32_t>(seg.end - seg.seq - 1)));
    segs[i] = Seg{cut, seg.end, seg.frame_id, seg.frame_end};
    segs.insert(segs.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                Seg{seg.seq, cut, seg.frame_id, seg.frame_end});
    ++i;
  }
  const double reorder = rng.uniform(0.0, 0.3);
  const double dup = rng.uniform(0.0, 0.15);
  const double overlap = rng.uniform(0.0, 0.15);
  for (std::size_t i = 0; i + 1 < segs.size(); ++i) {
    if (rng.chance(reorder)) {
      const std::size_t j = std::min(segs.size() - 1, i + 1 + rng.uniform_int(6));
      std::swap(segs[i], segs[j]);
    }
  }
  std::vector<Seg> out;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    out.push_back(segs[i]);
    if (rng.chance(dup)) out.push_back(segs[rng.uniform_int(static_cast<std::uint32_t>(i + 1))]);
    if (rng.chance(overlap)) {
      const std::uint64_t a = rng.uniform_int(static_cast<std::uint32_t>(off));
      const std::uint64_t b = std::min<std::uint64_t>(off, a + 1 + rng.uniform_int(3000));
      out.push_back(make(a, b));
    }
  }
  return out;
}

/// TcpReceiver's sequence bookkeeping as it was before the in-order fast
/// path: every segment goes through the out-of-order interval map, and a
/// frame end is registered with emplace.
class MapReceiverModel {
 public:
  void on_data(const Seg& s) {
    merge_interval(s.seq, s.end);
    if (s.frame_end > frames_delivered_upto_) {
      frame_ends_.emplace(s.frame_end, s.frame_id);
    }
    while (!frame_ends_.empty()) {
      auto it = frame_ends_.begin();
      if (it->first > rcv_nxt_) break;
      frames.push_back(it->second);
      frames_delivered_upto_ = it->first;
      frame_ends_.erase(it);
    }
  }

  std::uint64_t rcv_nxt_ = 0;
  std::vector<std::uint32_t> frames;

 private:
  void merge_interval(std::uint64_t start, std::uint64_t end) {
    if (end <= rcv_nxt_) return;
    start = std::max(start, rcv_nxt_);
    auto it = ooo_.lower_bound(start);
    if (it != ooo_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= start) {
        start = prev->first;
        end = std::max(end, prev->second);
        it = ooo_.erase(prev);
      }
    }
    while (it != ooo_.end() && it->first <= end) {
      end = std::max(end, it->second);
      it = ooo_.erase(it);
    }
    ooo_.emplace(start, end);
    while (!ooo_.empty()) {
      auto first = ooo_.begin();
      if (first->first > rcv_nxt_) break;
      rcv_nxt_ = std::max(rcv_nxt_, first->second);
      ooo_.erase(first);
    }
  }

  std::map<std::uint64_t, std::uint64_t> ooo_;
  std::map<std::uint64_t, std::uint32_t> frame_ends_;
  std::uint64_t frames_delivered_upto_ = 0;
};

net::Packet data_packet(const Seg& s, std::uint64_t ts) {
  net::Packet p;
  p.flow = net::FlowId{1, 2, 3, 4, 6};
  net::TcpHeader h;
  h.seq = s.seq;
  h.end_seq = s.end;
  h.ts_val = ts;
  h.frame_id = s.frame_id;
  h.frame_end_seq = s.frame_end;
  p.header = h;
  return p;
}

TEST(PropTcpReceiver, InOrderFastPathMatchesMapModel) {
  std::uint64_t segments = 0;
  prop::for_all([&segments](sim::Rng& rng, int) {
    sim::Simulator sim;
    net::PacketUidSource uids;
    std::vector<net::TcpHeader> acks;
    std::vector<std::uint32_t> frames;
    transport::TcpReceiver rx(
        sim, uids, [&acks](net::Packet&& a) { acks.push_back(a.tcp()); },
        [&frames](std::uint32_t id, TimePoint, TimePoint) { frames.push_back(id); });
    MapReceiverModel model;
    std::uint64_t max_seen = 0;
    const std::vector<Seg> stream = random_stream(rng);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      rx.on_data(data_packet(stream[i], i + 1));
      model.on_data(stream[i]);
      max_seen = std::max(max_seen, stream[i].end);
      ASSERT_EQ(rx.contiguous_received(), model.rcv_nxt_) << "segment " << i;
      ASSERT_EQ(acks.size(), i + 1);
      EXPECT_EQ(acks.back().ack, model.rcv_nxt_);
      EXPECT_EQ(acks.back().sack_upto, max_seen);
      EXPECT_EQ(acks.back().ts_echo, i + 1);
      ASSERT_EQ(frames, model.frames) << "segment " << i;
    }
    segments += stream.size();
  });
  EXPECT_GT(segments, 1000u);
}

/// The contiguous prefix by brute force: one flag per stream byte.
class ByteSetModel {
 public:
  void add(std::uint64_t start, std::uint64_t end) {
    if (got_.size() < end) got_.resize(end, false);
    for (std::uint64_t b = start; b < end; ++b) got_[b] = true;
    while (prefix < got_.size() && got_[prefix]) ++prefix;
    highest = std::max(highest, end);
  }

  std::uint64_t prefix = 0;
  std::uint64_t highest = 0;

 private:
  std::vector<bool> got_;
};

TEST(PropContiguousPrefix, MatchesByteSetModel) {
  prop::for_all([](sim::Rng& rng, int) {
    // Segment streams as a sender cuts them, and short random intervals
    // over a small range, where partial overlaps are the rule.
    std::vector<Seg> stream = random_stream(rng);
    for (int i = 0; i < 300; ++i) {
      const std::uint64_t a = rng.uniform_int(400);
      stream.push_back(Seg{a, a + 1 + rng.uniform_int(60), 0, 0});
    }
    net::ContiguousPrefix rcv;
    ByteSetModel model;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      rcv.add(stream[i].seq, stream[i].end);
      model.add(stream[i].seq, stream[i].end);
      ASSERT_EQ(rcv.prefix(), model.prefix) << "interval " << i;
      ASSERT_EQ(rcv.highest(), model.highest) << "interval " << i;
    }
  });
}

TEST(PropFastAck, ForgedAckMatchesByteSetModel) {
  prop::for_all([](sim::Rng& rng, int) {
    baseline::FastAck fa;
    ByteSetModel model;
    const std::vector<Seg> stream = random_stream(rng);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto ack = fa.on_wireless_delivered(data_packet(stream[i], i + 1),
                                                TimePoint::zero(), i + 1);
      model.add(stream[i].seq, stream[i].end);
      ASSERT_TRUE(ack.has_value());
      ASSERT_EQ(ack->tcp().ack, model.prefix) << "segment " << i;
      EXPECT_EQ(ack->tcp().sack_upto, model.highest);
      EXPECT_EQ(ack->tcp().ts_echo, i + 1);
      EXPECT_EQ(ack->uid, i + 1);
    }
    EXPECT_EQ(fa.forged(), stream.size());
  });
}

}  // namespace
}  // namespace zhuge
