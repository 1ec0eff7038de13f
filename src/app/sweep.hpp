#pragma once
// Parallel scenario-sweep runner and the result fingerprint.
//
// A sweep is a grid of (ScenarioSpec, seed) points, each an independent
// deterministic simulation. Points are distributed over a thread pool of
// N workers; because a Simulator is a self-contained single-threaded
// timeline and run_multi_station() is deterministic in (spec, seed), the
// per-run outputs are bit-identical whether the grid runs serially or on
// 8 threads — a property the test suite asserts via result fingerprints.
//
// Thread-safety contract: the only process-global mutable state the
// scenario layer touches is the obs layer (metrics registry, tracer,
// invariant counter). run_spec_sweep() turns all three off for the
// duration of the sweep and restores the switches afterwards, so
// concurrent runs never race on them; per-run headline metrics are
// aggregated *after* the parallel phase, serially and in grid order, via
// export_spec_sweep_metrics().

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "app/scenario.hpp"
#include "obs/metrics.hpp"

namespace zhuge::app {

/// FNV-1a64 running hash over raw bit patterns. Doubles are hashed via
/// bit_cast, not value conversion, so -0.0 vs 0.0 or NaN payload changes
/// are detected — "bit-identical" means exactly that. Shared by the sweep
/// fingerprints and the chaos-matrix verdict fingerprints.
struct Fnv {
  std::uint64_t h = 14695981039346656037ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// splitmix64's finaliser: a bijection that spreads every input bit
  /// over the whole word before the commutative folds in dist().
  static constexpr std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// A Distribution enters as the multiset of its samples, because the
  /// order of samples() is unspecified (any read may sort them in place):
  /// the count, then a wrapping sum and a rotate-xor of each sample's
  /// mixed bit pattern. Both folds commute, so no read before or after
  /// hashing moves the digest; the sum sees duplicate pairs that the xor
  /// cancels; each sample is still bit-exact, so -0.0 vs 0.0 differ.
  void dist(const stats::Distribution& d) {
    std::uint64_t sum = 0;
    std::uint64_t rx = 0;
    for (const double v : d.samples()) {
      const std::uint64_t m = mix64(std::bit_cast<std::uint64_t>(v));
      sum += m;
      rx ^= std::rotl(m, 32);
    }
    u64(d.count());
    u64(sum);
    u64(rx);
  }
  void series(const stats::TimeSeries& s) {
    u64(s.points().size());
    for (const auto& p : s.points()) {
      u64(static_cast<std::uint64_t>(p.t.count_ns()));
      f64(p.value);
    }
  }
};

/// Run `fn(0..n-1)` on `threads` workers pulling indices from a shared
/// atomic counter; serial on the calling thread when threads <= 1. Each
/// index is claimed exactly once, so `fn` needs no internal locking as
/// long as distinct indices touch distinct state. Every parallel runner
/// in the app layer (sweeps, spec sweeps, the chaos matrix) goes through
/// this one pool so the bit-identity argument is made in one place.
template <typename Fn>
void run_indexed_pool(std::size_t n, unsigned threads, Fn&& fn) {
  const std::size_t n_workers = std::min<std::size_t>(std::max(1u, threads), n);
  if (n_workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(i);
      }
    });
  }
  for (auto& t : pool) t.join();
}

struct SweepOptions {
  /// Worker threads; 0 or 1 runs the grid serially on the calling thread.
  unsigned threads = 1;
  /// Enable per-stage latency attribution during the sweep. ObsFreeze
  /// forces the attrib switch off like every other obs switch; this opt-in
  /// re-enables it for the pool. Safe under any thread count: the switch
  /// is written once before workers start, and each run records into its
  /// own result-local obs::Attribution (no shared mutable state).
  bool attrib = false;
};

/// RAII freeze of the process-global obs switches (metrics, tracing,
/// invariant counting): all three are forced off at construction and the
/// previous switch states restored at destruction. Every parallel runner
/// holds one for the duration of its pool, because the registries are
/// shared and unsynchronized. Fingerprints do not need one: no switch
/// changes a simulated output, and no read changes a hash.
/// Non-copyable, non-movable.
class ObsFreeze {
 public:
  ObsFreeze();
  ~ObsFreeze();
  ObsFreeze(const ObsFreeze&) = delete;
  ObsFreeze& operator=(const ObsFreeze&) = delete;

 private:
  bool metrics_was_;
  bool tracing_was_;
  bool invariants_was_;
  bool attrib_was_;
};

/// One grid point: a labelled spec plus the seed to run it under (`seed`
/// overrides `spec.seed`, so a seed axis crosses onto a spec axis without
/// touching specs).
struct SpecPoint {
  std::string name;
  ScenarioSpec spec;
  std::uint64_t seed = 1;
};

/// Per-run output of a spec sweep; `fingerprint` covers every numeric
/// field of the MultiStationResult (see multi_result_fingerprint).
struct SpecRun {
  std::string name;
  std::uint64_t seed = 0;
  MultiStationResult result;
  std::uint64_t fingerprint = 0;
  double wall_seconds = 0.0;
};

/// FNV-1a64 over the bit patterns of every simulated field of `r`:
/// per-flow and per-station outputs, aggregate distributions (each as a
/// sample multiset, see Fnv::dist), the concurrency series, the scalar
/// counters, the fault counters and the flow-0 series. Behaviour only:
/// the observability outputs (attrib, ladder_log) and the engine's
/// bookkeeping (events_executed, pinned as a golden headline instead) are
/// left out, and no Distribution read before or after the call moves it.
/// The golden-trace suite stores these hashes, so adding a field here
/// intentionally invalidates goldens.
[[nodiscard]] std::uint64_t multi_result_fingerprint(const MultiStationResult& r);

/// Run every grid point on `opts.threads` workers with the obs switches
/// frozen, returning per-run results in grid order (regardless of
/// completion order). Deterministic per point for any thread count.
[[nodiscard]] std::vector<SpecRun> run_spec_sweep(
    std::vector<SpecPoint> grid, const SweepOptions& opts = {});

/// One spec across many seeds, named "<spec.name>/s<seed>".
[[nodiscard]] std::vector<SpecPoint> cross_spec_seeds(
    const ScenarioSpec& spec, const std::vector<std::uint64_t>& seeds);

/// Aggregate spec-sweep headline metrics, serially, in grid order:
/// gauges `mssweep.<name>.{rtt_p50_ms,rtt_p99_ms,frame_delay_p99_ms,
/// active_flows_peak,wall_seconds}`, counters `mssweep.<name>.{events,
/// arrivals,departures,qdisc_drops,stranded_acks,invariant_violations}`,
/// plus `mssweep.total.*`. Runs that recorded latency attribution
/// additionally get `mssweep.<name>.stage.<stage>.{p50_us,p95_us,
/// p99_us,count}` per populated stage.
void export_spec_sweep_metrics(const std::vector<SpecRun>& runs,
                               obs::Registry& registry);

}  // namespace zhuge::app
