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
// scenario layer touches is the obs layer. Its settings (what to record)
// change only outside a pool; its sinks (where records go) are per index:
// run_indexed_pool() gives each grid index its own obs::Context and
// merges them into the caller's context one at a time, in grid order, as
// soon as every earlier index has finished. Runs therefore record
// metrics, traces and invariant violations exactly as they would
// serially, and leave bit-identical sinks for any thread count.

#include <atomic>
#include <bit>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "app/scenario.hpp"
#include "obs/context.hpp"

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
  /// order of samples() is unspecified (a quantile read permutes them):
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

/// 16 lower-case hex digits: how a record stores a 64-bit fingerprint (a
/// JSON number, a double, cannot hold 64 bits exactly).
[[nodiscard]] std::string to_hex16(std::uint64_t v);
/// Inverse of to_hex16; nullopt unless `s` is 1..16 hex digits.
[[nodiscard]] std::optional<std::uint64_t> parse_hex16(std::string_view s);

/// A CLI seed or count (`--seed`, `--seeds`, `--threads`): nullopt unless
/// `s` is one or more decimal digits, with no sign, space or trailing
/// junk, whose value fits in `T`.
template <std::unsigned_integral T>
[[nodiscard]] std::optional<T> parse_decimal(std::string_view s) {
  T v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

/// Run `fn(0..n-1)` on `threads` workers pulling indices from a shared
/// atomic counter; serial on the calling thread when threads <= 1. Each
/// index is claimed exactly once, so `fn` needs no internal locking as
/// long as distinct indices touch distinct state. Every parallel runner
/// in the app layer (spec sweeps, the eval and chaos matrices) goes
/// through this one pool so the bit-identity argument is made in one place.
///
/// Each index records into its own obs::Context (trace ring sized like the
/// caller's), installed on whichever thread runs it. When an index ends,
/// every finished context of the grid-order prefix is merged into the
/// caller's current context and freed, so the merge order is the grid
/// order and a finished run's records wait only on earlier indices still
/// running, not on the whole grid. The serial path does the same, so
/// `threads=1` and `threads=8` leave the caller's sinks bit-identical.
template <typename Fn>
void run_indexed_pool(std::size_t n, unsigned threads, Fn&& fn) {
  obs::Context& caller = obs::current();
  std::vector<std::unique_ptr<obs::Context>> sinks(n);
  for (auto& sink : sinks) {
    sink = std::make_unique<obs::Context>(caller.tracer.capacity());
  }
  std::mutex merge_mu;
  std::vector<bool> done(n, false);  // guarded by merge_mu
  std::size_t merged = 0;            // guarded by merge_mu
  const auto run = [&](std::size_t i) {
    {
      const obs::ContextScope scope(*sinks[i]);
      fn(i);
    }
    const std::lock_guard<std::mutex> lock(merge_mu);
    done[i] = true;
    for (; merged < n && done[merged]; ++merged) {
      caller.merge(*sinks[merged]);
      sinks[merged].reset();
    }
  };

  const std::size_t n_workers = std::min<std::size_t>(std::max(1u, threads), n);
  if (n_workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) run(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w) {
      pool.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) return;
          run(i);
        }
      });
    }
    for (auto& t : pool) t.join();
  }
}

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

/// Run every grid point on `threads` workers (0 or 1: serially on the
/// calling thread), returning per-run results in grid order (regardless of
/// completion order). Deterministic per point for any thread count; obs
/// records merge into the caller's context as run_indexed_pool describes.
[[nodiscard]] std::vector<SpecRun> run_spec_sweep(std::vector<SpecPoint> grid,
                                                  unsigned threads);

/// One spec across many seeds, named "<spec.name>/s<seed>".
[[nodiscard]] std::vector<SpecPoint> cross_spec_seeds(
    const ScenarioSpec& spec, const std::vector<std::uint64_t>& seeds);

}  // namespace zhuge::app
