// Unit tests for the observability layer: metrics registry, log-bucket
// histograms, tracer enable/disable semantics, ring-buffer behaviour,
// merging run-local sinks, context routing, and exporter round-trips
// (Chrome trace JSON back through the trace reader).

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/context.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_reader.hpp"
#include "obs/tracer.hpp"
#include "sim/time.hpp"

namespace zhuge::obs {
namespace {

using sim::Duration;
using sim::TimePoint;

/// Guard restoring global obs state so tests cannot leak into each other.
class ObsStateGuard {
 public:
  ObsStateGuard() { reset_all(); }
  ~ObsStateGuard() { reset_all(); }

 private:
  static void reset_all() {
    set_metrics_enabled(false);
    set_tracing_enabled(false);
    reset();
  }
};

TEST(Registry, CountersGaugesHistogramsByName) {
  Registry reg;
  reg.counter("a.events").inc();
  reg.counter("a.events").inc(4);
  EXPECT_EQ(reg.counter("a.events").value(), 5u);

  reg.gauge("a.depth").set(7.5);
  reg.gauge("a.depth").add(0.5);
  EXPECT_DOUBLE_EQ(reg.gauge("a.depth").value(), 8.0);

  reg.histogram("a.delay_us").observe(10.0);
  reg.histogram("a.delay_us").observe(20.0);
  EXPECT_EQ(reg.histogram("a.delay_us").count(), 2u);
  EXPECT_DOUBLE_EQ(reg.histogram("a.delay_us").sum(), 30.0);

  // Distinct names are distinct metrics; repeated lookups hit the same one.
  EXPECT_EQ(reg.counter("b.events").value(), 0u);
  EXPECT_EQ(reg.counters().size(), 2u);
  reg.clear();
  EXPECT_TRUE(reg.counters().empty());
  EXPECT_TRUE(reg.histograms().empty());
}

TEST(Histogram, BucketIndexCoversRangeWithUnderAndOverflow) {
  const HistogramSpec spec{.lo = 1.0, .hi = 1000.0, .buckets_per_decade = 1};
  Histogram h(spec);
  // 3 decades, 1 bucket each, plus underflow [0] and overflow [4].
  EXPECT_EQ(h.bucket_count(), 5u);
  EXPECT_EQ(h.bucket_index(0.5), 0u);            // underflow
  EXPECT_EQ(h.bucket_index(-3.0), 0u);           // negative -> underflow
  EXPECT_EQ(h.bucket_index(std::nan("")), 0u);   // NaN -> underflow
  EXPECT_EQ(h.bucket_index(1.0), 1u);
  EXPECT_EQ(h.bucket_index(9.9), 1u);
  EXPECT_EQ(h.bucket_index(10.0), 2u);
  EXPECT_EQ(h.bucket_index(999.0), 3u);
  EXPECT_EQ(h.bucket_index(1000.0), 4u);         // overflow
  EXPECT_EQ(h.bucket_index(1e12), 4u);

  // Bucket edges are the decade boundaries.
  EXPECT_DOUBLE_EQ(h.bucket_lower(1), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(1), 10.0);
  EXPECT_DOUBLE_EQ(h.bucket_lower(4), 1000.0);
  EXPECT_TRUE(std::isinf(h.bucket_upper(4)));
}

TEST(Histogram, CountSumMinMaxExact) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  for (double v : {5.0, 1.0, 9.0}) h.observe(v);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 15.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
}

TEST(Histogram, QuantilesClampToObservedRangeAndOrder) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(h.quantile(0.0), p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.quantile(1.0));
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(h.quantile(1.0), 1000.0);
  // Log-bucket interpolation: p50 within a bucket width of the truth.
  EXPECT_NEAR(p50, 500.0, 500.0 * 0.6);
  EXPECT_NEAR(p99, 990.0, 990.0 * 0.6);
}

TEST(Tracer, DisabledMacroRecordsNothing) {
  ObsStateGuard guard;
  EXPECT_FALSE(tracing_enabled());
  ZHUGE_TRACE(TimePoint::zero(), "test", "ev", {"x", 1.0});
  EXPECT_EQ(tracer().size(), 0u);
  EXPECT_EQ(tracer().recorded(), 0u);

  set_tracing_enabled(true);
  ZHUGE_TRACE(TimePoint::zero() + Duration::millis(2), "test", "ev", {"x", 1.0});
  EXPECT_EQ(tracer().size(), 1u);
  const TraceEvent& e = tracer().at(0);
  EXPECT_EQ(e.t_ns, 2'000'000);
  EXPECT_STREQ(e.component, "test");
  EXPECT_STREQ(e.name, "ev");
  ASSERT_EQ(e.n_fields, 1);
  EXPECT_STREQ(e.fields[0].key, "x");
  EXPECT_DOUBLE_EQ(e.fields[0].value, 1.0);

  set_tracing_enabled(false);
  ZHUGE_TRACE(TimePoint::zero(), "test", "ev2");
  EXPECT_EQ(tracer().size(), 1u);
}

TEST(Tracer, MetricsMacrosHonourRuntimeSwitch) {
  ObsStateGuard guard;
  ZHUGE_METRIC_INC("test.count");
  ZHUGE_METRIC_OBSERVE("test.hist", 5.0);
  EXPECT_TRUE(metrics().counters().empty());
  EXPECT_TRUE(metrics().histograms().empty());

  set_metrics_enabled(true);
  ZHUGE_METRIC_INC("test.count");
  ZHUGE_METRIC_ADD("test.count", 2);
  ZHUGE_METRIC_SET("test.gauge", 3.5);
  ZHUGE_METRIC_OBSERVE("test.hist", 5.0);
  EXPECT_EQ(metrics().counter("test.count").value(), 3u);
  EXPECT_DOUBLE_EQ(metrics().gauge("test.gauge").value(), 3.5);
  EXPECT_EQ(metrics().histogram("test.hist").count(), 1u);
}

TEST(Tracer, RingOverwritesOldestBeyondCapacity) {
  Tracer t(4);
  for (int i = 0; i < 10; ++i) {
    t.record(TimePoint::zero() + Duration::millis(i), "c", "e",
             {{"i", static_cast<double>(i)}});
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.recorded(), 10u);
  EXPECT_EQ(t.overwritten(), 6u);
  // Chronological order, most recent window retained.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(t.at(i).fields[0].value, static_cast<double>(6 + i));
  }
}

TEST(Tracer, FieldsBeyondMaxAreDropped) {
  Tracer t;
  t.record(TimePoint::zero(), "c", "e",
           {{"f0", 0}, {"f1", 1}, {"f2", 2}, {"f3", 3}, {"f4", 4},
            {"f5", 5}, {"f6", 6}, {"f7", 7}, {"f8", 8}, {"f9", 9}});
  EXPECT_EQ(t.at(0).n_fields, TraceEvent::kMaxFields);
}

// ---- merging run-local sinks (what app::run_indexed_pool does) ----------

TEST(Merge, CountersAdd) {
  Registry a;
  Registry b;
  a.counter("x").inc(3);
  b.counter("x").inc(4);
  b.counter("only_b").inc(1);
  a.merge(b);
  EXPECT_EQ(a.counter("x").value(), 7u);
  EXPECT_EQ(a.counter("only_b").value(), 1u);
}

TEST(Merge, GaugesKeepTheLaterWrite) {
  Registry merged;
  Registry first;
  Registry second;
  first.gauge("depth").set(5.0);
  first.gauge("only_first").set(1.0);
  second.gauge("depth").set(2.0);
  merged.merge(first);
  merged.merge(second);
  EXPECT_DOUBLE_EQ(merged.gauge("depth").value(), 2.0);  // grid order, not max
  EXPECT_DOUBLE_EQ(merged.gauge("only_first").value(), 1.0);
}

TEST(Merge, HistogramsAreBucketExact) {
  const HistogramSpec spec{.lo = 1.0, .hi = 1e4, .buckets_per_decade = 3};
  Registry direct;
  Registry a;
  Registry b;
  for (int i = 1; i <= 50; ++i) {
    const double v = 3.7 * i;
    direct.histogram("h", spec).observe(v);
    (i % 3 == 0 ? a : b).histogram("h", spec).observe(v);
  }
  Registry merged;
  merged.merge(a);
  merged.merge(b);
  const Histogram& m = merged.histograms().at("h");
  const Histogram& d = direct.histograms().at("h");
  EXPECT_EQ(m.spec().buckets_per_decade, 3);  // a new name keeps its layout
  ASSERT_EQ(m.bucket_count(), d.bucket_count());
  for (std::size_t i = 0; i < d.bucket_count(); ++i) {
    EXPECT_EQ(m.bucket_value(i), d.bucket_value(i)) << "bucket " << i;
  }
  EXPECT_EQ(m.count(), d.count());
  EXPECT_DOUBLE_EQ(m.sum(), d.sum());
  EXPECT_EQ(m.min(), d.min());
  EXPECT_EQ(m.max(), d.max());
}

TEST(Merge, TracerAppendWrapsLikeRecording) {
  const auto record = [](Tracer& t, int i) {
    t.record(TimePoint::zero() + Duration::millis(i), "c", "e",
             {{"i", static_cast<double>(i)}});
  };
  Tracer direct(4);
  Tracer first(4);
  Tracer second(4);  // wraps: 5 events into 4 slots
  for (int i = 0; i < 3; ++i) record(first, i);
  for (int i = 3; i < 8; ++i) record(second, i);
  for (int i = 0; i < 8; ++i) record(direct, i);

  Tracer merged(4);
  merged.append(first);
  merged.append(second);
  EXPECT_EQ(merged.size(), direct.size());
  EXPECT_EQ(merged.recorded(), direct.recorded());
  EXPECT_EQ(merged.overwritten(), direct.overwritten());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(merged.at(i).t_ns, direct.at(i).t_ns) << i;
  }
  EXPECT_DOUBLE_EQ(merged.at(0).fields[0].value, 4.0);  // newest 4 of 8
}

TEST(Merge, InvariantsAddAndKeepFirstOccurrencesUpToTheCap) {
  constexpr std::size_t kCap = InvariantChecker::kMaxDistinct;
  InvariantChecker merged;
  InvariantChecker first;
  InvariantChecker second;
  for (std::size_t i = 0; i + 1 < kCap; ++i) {
    first.report(TimePoint::zero(), "inv." + std::to_string(i), "first");
  }
  second.report(TimePoint::zero(), "inv.0", "second");
  second.report(TimePoint::zero(), "new.a", "second a");
  second.report(TimePoint::zero(), "new.b", "second b");  // over the cap
  merged.merge(first);
  merged.merge(second);

  EXPECT_EQ(merged.total(), first.total() + second.total());
  ASSERT_EQ(merged.violations().size(), kCap);
  EXPECT_EQ(merged.violations().front().detail, "first");  // earlier run wins
  EXPECT_EQ(merged.count("inv.0"), 2u);
  EXPECT_EQ(merged.violations().back().name, "new.a");
  EXPECT_EQ(merged.count("new.b"), 0u);  // dropped, but still in total()
}

TEST(Context, ScopeRoutesHooksAndRestores) {
  ObsStateGuard guard;
  set_metrics_enabled(true);
  Context run;
  {
    const ContextScope scope(run);
    EXPECT_EQ(&current(), &run);
    ZHUGE_METRIC_INC("scoped");
  }
  ZHUGE_METRIC_INC("outside");
  EXPECT_NE(&current(), &run);
  EXPECT_EQ(run.metrics.counter("scoped").value(), 1u);
  EXPECT_EQ(run.metrics.counters().count("outside"), 0u);
  EXPECT_EQ(metrics().counters().count("scoped"), 0u);
  EXPECT_EQ(metrics().counter("outside").value(), 1u);
}

TEST(Export, ChromeTraceRoundTrip) {
  Tracer t;
  t.record(TimePoint::zero() + Duration::millis(1), "fortune", "predict",
           {{"qLong_ms", 12.5}, {"qShort_ms", 0.25}, {"tx_ms", 2.0}});
  t.record(TimePoint::zero() + Duration::millis(3), "queue.fifo", "dequeue",
           {{"sojourn_us", 1500.0}});
  t.record(TimePoint::zero() + Duration::millis(4), "app", "note", {});

  std::stringstream ss;
  write_chrome_trace(t, ss);
  const auto events = load_trace(ss);
  ASSERT_EQ(events.size(), 3u);

  EXPECT_DOUBLE_EQ(events[0].t_us, 1000.0);
  EXPECT_EQ(events[0].component, "fortune");
  EXPECT_EQ(events[0].name, "predict");
  ASSERT_EQ(events[0].fields.size(), 3u);
  EXPECT_EQ(events[0].fields[0].first, "qLong_ms");
  EXPECT_DOUBLE_EQ(events[0].fields[0].second, 12.5);
  EXPECT_EQ(events[0].fields[1].first, "qShort_ms");
  EXPECT_DOUBLE_EQ(events[0].fields[1].second, 0.25);

  EXPECT_EQ(events[1].component, "queue.fifo");
  EXPECT_DOUBLE_EQ(events[1].fields[0].second, 1500.0);
  EXPECT_EQ(events[2].name, "note");
  EXPECT_TRUE(events[2].fields.empty());
}

TEST(Export, MetricsJsonContainsAllSections) {
  Registry reg;
  reg.counter("c.events").inc(3);
  reg.gauge("g.depth").set(1.5);
  reg.histogram("h.delay").observe(10.0);
  std::stringstream ss;
  write_metrics_json(reg, ss);
  const std::string out = ss.str();
  EXPECT_NE(out.find("\"c.events\": 3"), std::string::npos);
  EXPECT_NE(out.find("\"g.depth\": 1.5"), std::string::npos);
  EXPECT_NE(out.find("\"h.delay\""), std::string::npos);
  EXPECT_NE(out.find("\"p99\""), std::string::npos);
}

TEST(Export, EscapesAndNonFiniteValues) {
  Tracer t;
  t.record(TimePoint::zero(), "c\"x", "e\\y",
           {{"nan", std::nan("")}, {"inf", HUGE_VAL}});
  std::stringstream ss;
  write_chrome_trace(t, ss);
  const auto events = load_trace(ss);  // must still parse
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].component, "c\"x");
  EXPECT_EQ(events[0].name, "e\\y");
}

TEST(Reader, RejectsMalformedInput) {
  std::stringstream ss("{\"traceEvents\": [ {\"ph\": ");
  EXPECT_THROW((void)load_trace(ss), std::runtime_error);
  EXPECT_THROW((void)load_trace_file("/nonexistent/trace.json"),
               std::runtime_error);
  // Past the codec's nesting limit: an error, not a stack overflow.
  std::stringstream deep(std::string(200000, '[') + std::string(200000, ']'));
  EXPECT_THROW((void)load_trace(deep), std::runtime_error);
}

/// What load_trace says about `text`; empty when it parses fine.
std::string reader_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    (void)load_trace(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(Reader, TruncatedDocumentErrorShowsOffsetAndEnd) {
  const std::string msg = reader_error("{\"traceEvents\": [ {\"ph\": ");
  EXPECT_NE(msg.find("offset"), std::string::npos) << msg;
  EXPECT_NE(msg.find("at end of input"), std::string::npos) << msg;
}

TEST(Reader, GarbageTokenErrorShowsSnippet) {
  const std::string msg = reader_error("{\"ts\": @@garbage@@}");
  EXPECT_NE(msg.find("near \""), std::string::npos) << msg;
  EXPECT_NE(msg.find("@@garbage@@"), std::string::npos) << msg;
}

TEST(Reader, ControlCharactersSanitizedInSnippet) {
  const std::string msg = reader_error(std::string("{\"ts\": \x01\x02oops}"));
  EXPECT_FALSE(msg.empty());
  for (char c : msg) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(Reader, FileErrorsArePrefixedWithPath) {
  const std::string path = "/tmp/zhuge_obs_bad_trace.json";
  {
    std::ofstream out(path);
    out << "{\"traceEvents\": [ {\"ph\": ";
  }
  std::string msg;
  try {
    (void)load_trace_file(path);
  } catch (const std::runtime_error& e) {
    msg = e.what();
  }
  std::filesystem::remove(path);
  EXPECT_EQ(msg.rfind(path + ": ", 0), 0u) << msg;
}

}  // namespace
}  // namespace zhuge::obs
