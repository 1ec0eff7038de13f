#pragma once
// Where obs records go. The settings (obs/settings.hpp) decide *what* the
// hooks record; a Context holds the sinks they record *into*: a metrics
// registry, an event tracer and an invariant checker. Each thread has a
// current context, reached through one thread-local pointer and only on
// the enabled path of a hook, so a disabled hook never touches it.
//
// Serial callers record into the default context, which obs::metrics(),
// tracer(), invariants() and reset() act on when nothing else is
// installed. app::run_indexed_pool gives every grid index a fresh
// context, installs it on the worker running that index, and merges the
// contexts into the caller's one at a time and in grid order, each once
// every earlier index has finished (Context::merge). Serial and pooled
// runs therefore leave bit-identical sinks, and no two workers ever write
// the same one.

#include <cstddef>

#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace zhuge::obs {

struct Context {
  Context() = default;
  /// A fresh context whose trace ring has `trace_capacity` slots.
  explicit Context(std::size_t trace_capacity) : tracer(trace_capacity) {}

  Registry metrics;
  Tracer tracer;
  InvariantChecker invariants;

  /// Fold one run's records in after the ones already held, as if the
  /// run had recorded here: counters and invariant totals add, gauges
  /// keep the later write, histograms merge bucket-exactly, trace events
  /// append into this ring, and first-occurrence invariant details keep
  /// their order up to InvariantChecker::kMaxDistinct.
  void merge(const Context& run);
  void clear();
};

/// This thread's current context: the one a ContextScope installed, or
/// the process's default context.
[[nodiscard]] Context& current();

/// RAII: make `ctx` this thread's current context; the previous one is
/// restored on destruction. Non-copyable, non-movable.
class ContextScope {
 public:
  explicit ContextScope(Context& ctx);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  Context* previous_;
};

}  // namespace zhuge::obs
