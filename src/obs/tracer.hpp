#pragma once
// Structured event tracer: typed (time, component, name, fields...) records
// in an in-memory ring buffer, exportable as Chrome trace_event JSON (loads
// in chrome://tracing and Perfetto; see obs/export.hpp).
//
// Recording goes through the ZHUGE_TRACE macro into the current
// obs::Context's tracer (obs/context.hpp); the macro compiles away when
// ZHUGE_OBS_ENABLED is 0 and otherwise costs one cold-bool branch until
// set_tracing_enabled(true). Component/name/field-key strings must be
// string literals (or otherwise outlive the tracer): events store the
// pointers, not copies — the hot path never allocates per-string.

#include <array>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "obs/settings.hpp"
#include "sim/time.hpp"

namespace zhuge::obs {

/// One typed key/value pair attached to a trace event. Values are doubles:
/// every signal this simulator traces (bytes, delays, rates, counts) is
/// numeric, and a fixed-size value keeps events POD.
struct Field {
  const char* key;
  double value;
};

/// One trace record. POD; fields beyond `n_fields` are unspecified.
struct TraceEvent {
  static constexpr std::size_t kMaxFields = 8;

  std::int64_t t_ns = 0;
  const char* component = "";
  const char* name = "";
  std::array<Field, kMaxFields> fields{};
  std::uint8_t n_fields = 0;
};

/// Append buffer with ring semantics: when `capacity` events are held, new
/// records overwrite the oldest (a long run keeps the most recent window,
/// the common case when chasing a misprediction near the end of a run).
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1u << 20) : capacity_(capacity) {}

  /// Change the ring capacity; discards currently-held events.
  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    clear();
  }

  void record(sim::TimePoint t, const char* component, const char* name,
              std::initializer_list<Field> fields) {
    TraceEvent ev;
    ev.t_ns = t.count_ns();
    ev.component = component;
    ev.name = name;
    for (const Field& f : fields) {
      if (ev.n_fields >= TraceEvent::kMaxFields) break;
      ev.fields[ev.n_fields++] = f;
    }
    push(ev);
  }

  /// Append `other`'s events after the ones already held, as if they had
  /// been recorded here: the ring keeps its capacity and wraps the same
  /// way, and `other`'s overwritten events count as recorded-then-lost.
  void append(const Tracer& other) {
    recorded_ += other.overwritten();
    other.for_each([this](const TraceEvent& ev) { push(ev); });
  }

  /// Events currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  /// Total events ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t overwritten() const {
    return recorded_ - events_.size();
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// i-th retained event in chronological order.
  [[nodiscard]] const TraceEvent& at(std::size_t i) const {
    return events_[(head_ + i) % events_.size()];
  }

  /// Visit retained events in chronological order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < events_.size(); ++i) fn(at(i));
  }

  void clear() {
    events_.clear();
    head_ = 0;
    recorded_ = 0;
  }

 private:
  void push(const TraceEvent& ev) {
    ++recorded_;
    if (events_.size() < capacity_) {
      events_.push_back(ev);
    } else if (capacity_ > 0) {
      events_[head_] = ev;
      head_ = (head_ + 1) % capacity_;
    }
  }

  std::size_t capacity_;
  std::vector<TraceEvent> events_;
  std::size_t head_ = 0;  ///< index of the oldest event once wrapped
  std::uint64_t recorded_ = 0;
};

/// The current context's tracer (obs/context.hpp), used by the
/// ZHUGE_TRACE macro.
Tracer& tracer();

/// Clear the current context's metrics, trace and invariant records
/// (between scenario runs in one process, e.g. multi-seed benches that
/// export per-run outputs).
void reset();

}  // namespace zhuge::obs

// ZHUGE_TRACE(now, "component", "event", {"key", value}, ...)
// Field arguments are braced {key, value} pairs; they are only evaluated
// when tracing is enabled at runtime.
#if ZHUGE_OBS_ENABLED
#define ZHUGE_TRACE(now, component, name, ...)                          \
  do {                                                                  \
    if (::zhuge::obs::tracing_enabled())                                \
      ::zhuge::obs::tracer().record((now), (component), (name), {__VA_ARGS__}); \
  } while (0)
#else
#define ZHUGE_TRACE(now, component, name, ...) do {} while (0)
#endif
