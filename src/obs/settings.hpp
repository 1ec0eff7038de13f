#pragma once
// What the obs hooks record: four process-wide switches (metrics, tracing,
// invariant checks, latency-span stamping), read by every instrumented
// hot path. Where the records go is a separate decision, made per thread
// by obs::Context (obs/context.hpp).
//
// The switches are plain globals, not thread-locals, so a disabled hook
// is one load and one predicted branch with no thread-pointer access.
// Contract: settings change only outside a pool — the setters run before
// app::run_indexed_pool starts its workers and after it joins them — so
// workers, and the merges they run, only ever read them.

namespace zhuge::obs {

struct Settings {
  bool metrics = false;
  bool tracing = false;
  /// Default-on in Debug builds so every ctest run checks the properties;
  /// default-off in Release so the hot paths pay one predictable branch.
#ifndef NDEBUG
  bool invariants = true;
#else
  bool invariants = false;
#endif
  bool attrib = false;
};

// zlint-allow(shared-mutable-state): reviewed obs settings; written only outside a pool (before workers start, after they join), read-only inside one, never result-affecting
inline Settings g_settings;

[[nodiscard]] inline bool metrics_enabled() { return g_settings.metrics; }
inline void set_metrics_enabled(bool on) { g_settings.metrics = on; }

[[nodiscard]] inline bool tracing_enabled() { return g_settings.tracing; }
inline void set_tracing_enabled(bool on) { g_settings.tracing = on; }

[[nodiscard]] inline bool invariants_enabled() { return g_settings.invariants; }
inline void set_invariants_enabled(bool on) { g_settings.invariants = on; }

[[nodiscard]] inline bool attrib_enabled() { return g_settings.attrib; }
inline void set_attrib_enabled(bool on) { g_settings.attrib = on; }

}  // namespace zhuge::obs

// Compile-time kill switch: build with -DZHUGE_OBS_ENABLED=0 to remove all
// instrumentation (the acceptance bar for "zero-cost when disabled").
#ifndef ZHUGE_OBS_ENABLED
#define ZHUGE_OBS_ENABLED 1
#endif
