// Unit tests for the discrete-event engine: time arithmetic, event
// ordering, cancellation, and deterministic randomness.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace zhuge::sim {
namespace {

using namespace literals;

TEST(Time, DurationFactoriesAgree) {
  EXPECT_EQ(Duration::micros(1).count_ns(), 1000);
  EXPECT_EQ(Duration::millis(1).count_ns(), 1'000'000);
  EXPECT_EQ(Duration::seconds(1).count_ns(), 1'000'000'000);
  EXPECT_EQ(Duration::from_seconds(0.5), Duration::millis(500));
  EXPECT_EQ(Duration::from_millis(1.5), Duration::micros(1500));
  EXPECT_EQ(1_ms, Duration::millis(1));
  EXPECT_EQ(2_s, Duration::seconds(2));
  EXPECT_EQ(3_us, Duration::micros(3));
  EXPECT_EQ(7_ns, Duration::nanos(7));
}

TEST(Time, DurationArithmetic) {
  const Duration a = 10_ms;
  const Duration b = 4_ms;
  EXPECT_EQ(a + b, 14_ms);
  EXPECT_EQ(a - b, 6_ms);
  EXPECT_EQ(-b, Duration::millis(-4));
  EXPECT_EQ(a * 2.0, 20_ms);
  EXPECT_EQ(a / 2, 5_ms);
  EXPECT_DOUBLE_EQ(a.ratio(b), 2.5);
  EXPECT_DOUBLE_EQ(a.to_seconds(), 0.010);
  EXPECT_DOUBLE_EQ(a.to_millis(), 10.0);
  EXPECT_DOUBLE_EQ(a.to_micros(), 10'000.0);
}

TEST(Time, TimePointArithmetic) {
  TimePoint t = TimePoint::zero();
  t += 5_ms;
  EXPECT_EQ(t.count_ns(), 5'000'000);
  EXPECT_EQ(t + 5_ms - t, 5_ms);
  EXPECT_EQ((t + 5_ms) - 5_ms, t);
  EXPECT_LT(t, t + 1_ns);
}

TEST(Time, Ordering) {
  EXPECT_LT(1_ms, 2_ms);
  EXPECT_GT(1_s, 999_ms);
  EXPECT_LE(Duration::zero(), 0_ns);
  EXPECT_LT(Duration::millis(-1), Duration::zero());
}

TEST(Time, ToStringPicksUnits) {
  EXPECT_EQ(to_string(1500_ns), "1.500us");
  EXPECT_EQ(to_string(12_ms), "12.000ms");
  EXPECT_EQ(to_string(2_s), "2.000s");
  EXPECT_EQ(to_string(5_ns), "5ns");
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(3_ms, [&] { order.push_back(3); });
  sim.schedule_after(1_ms, [&] { order.push_back(1); });
  sim.schedule_after(2_ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint::zero() + 3_ms);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(1_ms, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedSchedulingSeesCurrentTime) {
  Simulator sim;
  TimePoint inner_time;
  sim.schedule_after(1_ms, [&] {
    sim.schedule_after(2_ms, [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_time, TimePoint::zero() + 3_ms);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_after(1_ms, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  EXPECT_FALSE(sim.cancel(9999));  // unknown id
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelAfterFireIsRejected) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_after(1_ms, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  // The id has already fired; cancel must refuse it and must not corrupt
  // the pending count (the seed implementation tombstoned fired ids,
  // leaving pending() permanently wrong).
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 0u);
  sim.schedule_after(1_ms, [&] { ++fired; });
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, DoubleCancelCountsOnce) {
  Simulator sim;
  const EventId id = sim.schedule_after(1_ms, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.events_cancelled(), 1u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, PendingExcludesLazilyDiscardedEvents) {
  Simulator sim;
  // Cancelled events stay in the priority queue until the run loop would
  // pop them; pending() must not count them in the meantime.
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(sim.schedule_after(Duration::millis(i + 1), [] {}));
  }
  EXPECT_EQ(sim.pending(), 5u);
  EXPECT_TRUE(sim.cancel(ids[1]));
  EXPECT_TRUE(sim.cancel(ids[3]));
  EXPECT_EQ(sim.pending(), 3u);  // before any discard happens
  sim.run_until(TimePoint::zero() + 2500_us);  // fires ids[0]; discards ids[1]
  EXPECT_EQ(sim.pending(), 2u);                // ids[2], ids[4] remain
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_EQ(sim.events_scheduled(), 5u);
  EXPECT_EQ(sim.events_cancelled(), 2u);
}

TEST(Simulator, PendingTracksNestedScheduling) {
  Simulator sim;
  sim.schedule_after(1_ms, [&] {
    EXPECT_EQ(sim.pending(), 0u);  // this event already left pending state
    sim.schedule_after(1_ms, [] {});
    EXPECT_EQ(sim.pending(), 1u);
  });
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(1_ms, [&] { ++fired; });
  sim.schedule_after(10_ms, [&] { ++fired; });
  sim.run_until(TimePoint::zero() + 5_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::zero() + 5_ms);
  sim.run_until(TimePoint::zero() + 20_ms);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StopEndsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(1_ms, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_after(2_ms, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(Duration::millis(-5), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), TimePoint::zero());
}

TEST(Simulator, FootprintBoundedUnderCancelFireChurn) {
  // Regression test for the states_ leak: the seed engine kept one map
  // entry per event *ever* scheduled, so long cancel/fire churn grew
  // memory without bound. The pooled engine must recycle slots — after
  // 200k events the node pool stays at the peak concurrent-pending count
  // and the heap stays within the compaction bound.
  Simulator sim;
  constexpr int kRounds = 2'000;
  constexpr int kBatch = 100;  // peak concurrent pending per round
  std::uint64_t fired = 0;
  std::vector<EventId> ids;
  for (int r = 0; r < kRounds; ++r) {
    ids.clear();
    for (int i = 0; i < kBatch; ++i) {
      ids.push_back(
          sim.schedule_after(Duration::micros(i + 1), [&] { ++fired; }));
    }
    for (int i = 0; i < kBatch; i += 2) EXPECT_TRUE(sim.cancel(ids[i]));
    sim.run();
  }
  EXPECT_EQ(sim.events_scheduled(), kRounds * kBatch);
  EXPECT_EQ(fired, kRounds * kBatch / 2);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_LE(sim.pool_slots(), static_cast<std::size_t>(kBatch));
  EXPECT_LE(sim.queue_size(), 4 * sim.pending() + 64);
}

TEST(Simulator, QueueCompactsUnderCancelOnlyChurn) {
  // Cancel without ever running: lazy discard never gets a chance, so
  // compaction alone must keep the heap from accumulating stale entries.
  Simulator sim;
  for (int r = 0; r < 1'000; ++r) {
    std::vector<EventId> ids;
    for (int i = 0; i < 64; ++i) {
      ids.push_back(sim.schedule_after(Duration::millis(i + 1), [] {}));
    }
    for (const EventId id : ids) EXPECT_TRUE(sim.cancel(id));
    EXPECT_LE(sim.queue_size(), 4 * sim.pending() + 64);
  }
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_LE(sim.pool_slots(), 64u);
}

TEST(Simulator, StaleIdFromRecycledSlotIsRejected) {
  // After a slot is recycled, an old EventId that maps to it must not
  // cancel the new occupant: generations disambiguate.
  Simulator sim;
  const EventId old_id = sim.schedule_after(1_ms, [] {});
  ASSERT_TRUE(sim.cancel(old_id));
  int fired = 0;
  const EventId new_id = sim.schedule_after(1_ms, [&] { ++fired; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(sim.cancel(old_id));  // stale handle, same slot
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, GenerationWraparoundNeverRevalidatesAncientId) {
  // A slot's generation counter is 32 bits. Without a wrap guard, the
  // 2^32-th reuse of a slot walks its generation back to a value it has
  // already issued, and an EventId held since then validates against an
  // unrelated future event — cancel(ancient_id) kills someone else's
  // timer. The guard retires a slot whose generation wraps to 0 instead
  // of recycling it; this drives the wrap via the test hook rather than
  // four billion real schedule/release cycles.
  Simulator sim;

  // First event ever: slot 0, generation 0.
  const EventId ancient_id = sim.schedule_after(1_ms, [] {});
  sim.run();  // fires; slot 0 freed at generation 1
  const auto slot_of = [](EventId id) {
    return static_cast<std::uint32_t>(id) - 1;
  };
  ASSERT_EQ(slot_of(ancient_id), 0u);
  ASSERT_EQ(ancient_id >> 32, 0u);  // minted at generation 0

  // Fast-forward slot 0 to the last generation before the wrap and burn
  // one more schedule/fire cycle through it.
  sim.set_slot_generation_for_test(0, 0xFFFFFFFFu);
  const EventId last_gen_id = sim.schedule_after(1_ms, [] {});
  ASSERT_EQ(slot_of(last_gen_id), 0u);
  ASSERT_EQ(last_gen_id >> 32, 0xFFFFFFFFu);
  sim.run();  // fires; ++generation wraps to 0 → slot must retire

  // The next event must not land in slot 0: if it did, it would be
  // minted at generation 0 and ancient_id would alias it exactly.
  int fired = 0;
  const EventId fresh_id = sim.schedule_after(1_ms, [&] { ++fired; });
  EXPECT_NE(slot_of(fresh_id), 0u);
  EXPECT_NE(fresh_id, ancient_id);

  // The ancient handle stays dead, and cancelling it must not disturb
  // the live event.
  EXPECT_FALSE(sim.cancel(ancient_id));
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, SerialBoundFailsLoudly) {
  // A queue entry packs a 40-bit event serial over a 24-bit slot. Past
  // 2^40 - 1 the serial would spill into the slot bits and alias another
  // event's order and liveness, so scheduling must throw instead. The
  // test hook jumps the serial rather than scheduling 2^40 real events.
  Simulator sim;
  sim.set_next_serial_for_test(Simulator::kMaxSerial - 1);
  std::vector<int> order;
  sim.schedule_after(1_ms, [&] { order.push_back(1); });
  sim.schedule_after(1_ms, [&] { order.push_back(2); });  // the last legal serial
  EXPECT_THROW(sim.schedule_after(1_ms, [&] { order.push_back(3); }),
               std::length_error);
  EXPECT_EQ(sim.pending(), 2u);  // the refused event left no trace
  EXPECT_EQ(sim.events_scheduled(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // the top serials still order FIFO
  EXPECT_THROW(sim.schedule_after(1_ms, [] {}), std::length_error);
  EXPECT_EQ(sim.pool_slots(), 2u);
}

TEST(Callback, TypicalEventClosuresStayInline) {
  // The whole point of the 224-byte buffer: a closure owning a ~170-byte
  // packet payload plus a simulator pointer must not heap-allocate.
  struct FakePacket {
    unsigned char payload[168];
  };
  Simulator* sim = nullptr;
  FakePacket pkt{};
  auto closure = [sim, pkt] { (void)sim; };
  EXPECT_TRUE(Callback::fits_inline<decltype(closure)>());

  struct Oversized {
    unsigned char blob[Callback::kInlineSize + 1];
    void operator()() const {}
  };
  EXPECT_FALSE(Callback::fits_inline<Oversized>());
}

TEST(Callback, OversizedCallableStillRunsViaHeapFallback) {
  struct Big {
    unsigned char blob[512];
    int* out;
    void operator()() const { *out = static_cast<int>(blob[0]) + 1; }
  };
  static_assert(!Callback::fits_inline<Big>());
  int result = 0;
  Simulator sim;
  sim.schedule_after(1_ms, Big{{}, &result});
  sim.run();
  EXPECT_EQ(result, 1);
}

TEST(Callback, MoveOnlyCaptureIsSupported) {
  // std::function required copyable callables; Callback must not.
  auto owned = std::make_unique<int>(41);
  int result = 0;
  Simulator sim;
  sim.schedule_after(1_ms,
                     [p = std::move(owned), &result] { result = *p + 1; });
  sim.run();
  EXPECT_EQ(result, 42);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42, 1), b(42, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, StreamsDiffer) {
  Rng a(42, 1), b(42, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBound) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100'000; ++i) {
    const auto v = rng.uniform_int(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int c : counts) {
    EXPECT_GT(c, 9'000);
    EXPECT_LT(c, 11'000);
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(7);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(7);
  double sum = 0, sq = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 3.0, 0.05);
}

TEST(Rng, ParetoBoundedBelowByScale) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) EXPECT_GE(rng.pareto(4.0, 1.3), 4.0);
}

}  // namespace
}  // namespace zhuge::sim
