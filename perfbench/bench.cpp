// perfbench — end-to-end benchmark of the simulator through the public app
// API. One process runs one workload for a host-time budget and prints its
// metrics as the last line of stdout, as one JSON object.
//
//   perfbench --workload dense_churn|rtp_trace|eval_matrix --spec FILE
//             --seed N --seconds S [--trace] [--spans FILE] [--induce-failure]
//
// The spec runs under kSubseeds sub-seeds derived from N, so the simulated
// metrics rest on that many independent realisations instead of one.
// Without --trace the process repeats the workload, cycling through the
// sub-seeds, with program observability off, and reports the end-to-end
// metrics; the first run of each input is a checked run with the
// program's invariant checks on, kept out of the timing. With
// --trace it alternates untraced and traced repetitions of the first
// sub-seed (obs metrics, latency attribution and invariant checks on) and
// reports the per-layer metrics, read from the counters the program
// exports and from spans the benchmark records around each public call it
// makes. Every repetition is checked (fingerprint stable across repeats
// and across traced/untraced, frames decoded; stranded feedback and
// invariant violations wherever the run exposes them, as listed in
// perfbench/README.md); the process exits 1 when any check failed.
// --induce-failure corrupts the first fingerprint compared with its
// reference, so a self-check can see that counted.
//
// Everything runs on the calling thread except run_eval_matrix's own pool,
// which freezes the obs globals itself, so the process-global obs switches
// are never touched concurrently.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/eval.hpp"
#include "app/scenario.hpp"
#include "app/spec.hpp"
#include "app/sweep.hpp"
#include "obs/attrib.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace zhuge;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Spans: one per public call the benchmark makes, kept in memory and
// written out when the benchmark ends.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  int run = 0;
};

class SpanLog {
 public:
  int open(std::string name, int parent, int run) {
    spans_.push_back({std::move(name), now_ms(), 0.0, parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Ends span `id` and returns its duration in ms.
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ms = now_ms();
    return s.end_ms - s.start_ms;
  }
  [[nodiscard]] double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0_).count();
  }

  /// Writes every span with its self time (duration minus the time its
  /// children cover; children never overlap because every call is made
  /// serially) and the self time summed per span name.
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
      }
    }
    app::Json list = app::Json::make_array();
    std::map<std::string, double> self_by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double self = s.end_ms - s.start_ms - child_ms[i];
      self_by_name[s.name] += self;
      app::Json j = app::Json::make_object();
      j.set("id", app::Json::make_number(static_cast<double>(i)));
      j.set("name", app::Json::make_string(s.name));
      j.set("start_ms", app::Json::make_number(s.start_ms));
      j.set("end_ms", app::Json::make_number(s.end_ms));
      j.set("parent", app::Json::make_number(s.parent));
      j.set("run", app::Json::make_number(s.run));
      j.set("self_ms", app::Json::make_number(self));
      list.push(std::move(j));
    }
    app::Json self = app::Json::make_object();
    for (const auto& [name, ms] : self_by_name) {
      self.set(name, app::Json::make_number(ms));
    }
    app::Json doc = app::Json::make_object();
    doc.set("workload", app::Json::make_string(workload));
    doc.set("seed", app::Json::make_number(static_cast<double>(seed)));
    doc.set("spans", std::move(list));
    doc.set("self_ms_by_name", std::move(self));
    std::ofstream out(path);
    out << doc.dump(1) << "\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double fastest(const std::vector<double>& v) { return percentile(v, 0.0); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Host-speed reference. The benchmark runs on shared vCPUs whose speed
// drifts by tens of percent within minutes, with user time rising as much
// as wall time (contention for the core, not for a time slice). So every
// run also times a fixed reference kernel, interleaved with the workload,
// and reports throughput scaled to a nominal host on which the kernel takes
// kNominalReferenceMs: t_nominal = t_host * kNominalReferenceMs /
// (fastest reference sample). On five seeds of dense_churn this cut the
// spread of sim_s_per_wall_s from 0.30 to 0.11, on eval_matrix from 0.07
// to 0.02; on setup_s it helped one workload and hurt the other, so set-up
// stays in host seconds. The kernel is benchmark-owned code that no
// simulator change touches: a timer-heap churn and a sort, the
// simulator's two hottest patterns. Raw host times stay visible in the
// per-layer metrics (app.*_ms, host.reference_ms).
// ---------------------------------------------------------------------------

constexpr double kNominalReferenceMs = 20.0;

double reference_kernel_ms() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {  // xorshift64
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  using Event = std::pair<std::uint64_t, std::uint64_t>;
  // Sized past the caches, like a dense run's event heap and packets.
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  for (int i = 0; i < (1 << 16); ++i) heap.push({next() % 1000000, next()});
  std::uint64_t sum = 0;
  for (int i = 0; i < 50000; ++i) {
    const Event e = heap.top();
    heap.pop();
    sum += e.second;
    heap.push({e.first + next() % 1000, next()});
  }
  std::vector<std::uint64_t> v(200000);
  for (std::uint64_t& e : v) e = next();
  std::sort(v.begin(), v.end());
  sum += v[v.size() / 2];
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  // The checksum feeds the result so the kernel cannot be optimised away;
  // it never makes a time negative.
  return ms + static_cast<double>(sum % 2) * 1e-12;
}

/// Attempted and failed repetitions; a repetition fails on its first
/// failed output check.
struct Tally {
  int attempted = 0;
  int failed = 0;
  void add(const std::string& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    std::fprintf(stderr, "perfbench: repetition %d failed: %s\n", attempted,
                 why.c_str());
  }
};

/// The per-result checks shared by every workload.
std::string check_result(const app::MultiStationResult& r) {
  std::uint64_t decoded = 0;
  for (const app::MultiFlowResult& f : r.flows) decoded += f.frames_decoded;
  if (r.stranded_acks > 0) {
    return r.name + ": stranded_acks=" + std::to_string(r.stranded_acks);
  }
  if (r.invariant_violations > 0) {
    return r.name + ": invariant_violations=" +
           std::to_string(r.invariant_violations);
  }
  if (decoded == 0) return r.name + ": no frames decoded";
  return {};
}

std::string check_fingerprint(const std::string& what, std::uint64_t want,
                              std::uint64_t got) {
  if (want == got) return {};
  return what + " fingerprint " + hex(got) + " != " + hex(want);
}

/// multi_result_fingerprint with every distribution sorted first, so it
/// compares samples as multisets. Reading a quantile sorts a Distribution
/// in place and the plain fingerprint hashes sample order; the engine's
/// metrics-on path reads agg_network_rtt_ms quantiles before returning, so
/// a traced result's plain fingerprint differs from the untraced one by
/// sample order alone.
std::uint64_t sorted_fingerprint(app::MultiStationResult& r) {
  const auto sort = [](const stats::Distribution& d) {
    if (!d.empty()) (void)d.quantile(0.5);
  };
  sort(r.agg_network_rtt_ms);
  sort(r.agg_frame_delay_ms);
  sort(r.prediction_error_ms);
  for (const app::MultiFlowResult& f : r.flows) {
    sort(f.network_rtt_ms);
    sort(f.downlink_owd_ms);
    sort(f.frame_delay_ms);
  }
  return app::multi_result_fingerprint(r);
}

/// The verdict run_eval_matrix computes for one cell, rebuilt from a serial
/// run so the serial passes chain to a matrix fingerprint comparable with
/// the pool's. It follows run_eval_cell in app/eval.cpp step for step,
/// including which distributions are read before the result is hashed.
app::EvalCell judge_cell(const app::EvalCellSpec& cs,
                         const app::MultiStationResult& r) {
  app::EvalCell c;
  c.name = cs.name;
  c.mechanism = app::eval_mechanism_name(cs.mechanism);
  c.cca = app::to_string(cs.cca);
  c.trace = trace::short_name(cs.trace);
  c.density = cs.density;
  c.mechanism_active = cs.mechanism_active;
  const stats::Distribution& fd = r.agg_frame_delay_ms;
  for (int d = 1; d <= app::kEvalCdfDeciles; ++d) {
    c.frame_delay_cdf_ms.push_back(fd.quantile(0.1 * d));
  }
  c.frame_delay_p50_ms = fd.quantile(0.50);
  c.frame_delay_p95_ms = fd.quantile(0.95);
  c.frame_delay_p99_ms = fd.quantile(0.99);
  c.delayed_frame_ratio = fd.ratio_above(400.0);
  for (const app::MultiFlowResult& f : r.flows) {
    c.frames_sent += f.frames_sent;
    c.frames_decoded += f.frames_decoded;
    c.goodput_bps += f.goodput_bps;
  }
  c.stall_rate = c.frames_sent > 0
                     ? 1.0 - static_cast<double>(c.frames_decoded) /
                                 static_cast<double>(c.frames_sent)
                     : 0.0;
  c.rtt_p50_ms = r.agg_network_rtt_ms.quantile(0.50);
  c.rtt_p95_ms = r.agg_network_rtt_ms.quantile(0.95);
  c.result_fingerprint = app::multi_result_fingerprint(r);
  c.fingerprint = app::eval_cell_fingerprint(c);
  return c;
}

/// The program's invariant checks on for one checked or traced
/// repetition (a Release build has them off). A traced repetition also
/// clears the counters and enables metrics and latency attribution. All
/// off again when the scope ends.
class ObsScope {
 public:
  explicit ObsScope(bool traced) : traced_(traced) {
    if (traced_) obs::metrics().clear();
    set(true);
  }
  ~ObsScope() { set(false); }
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

 private:
  void set(bool on) const {
    obs::set_invariants_enabled(on);
    if (!traced_) return;
    obs::set_metrics_enabled(on);
    obs::set_attrib_enabled(on);
  }
  bool traced_;
};

/// Times trace::make_trace for every trace-class station of `spec`, with
/// the class, seed and duration the engine's station build uses.
double probe_make_trace(const app::ScenarioSpec& spec, SpanLog& spans,
                        int parent, int run) {
  double ms = 0.0;
  for (int i = 0; i < spec.station_count(); ++i) {
    const app::StationGroupSpec& g = spec.station_group(i);
    if (!g.trace_class.has_value()) continue;
    const int s = spans.open("make_trace", parent, run);
    const trace::Trace t = trace::make_trace(
        *g.trace_class, spec.seed + static_cast<std::uint64_t>(i),
        sim::Duration::from_seconds(spec.duration_s));
    ms += spans.close(s);
  }
  return ms;
}

// ---------------------------------------------------------------------------
// What a workload observed, for the metric tables
// ---------------------------------------------------------------------------

/// Summed over every scenario one traced repetition ran.
struct Traced {
  std::uint64_t events = 0;
  double sim_s = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  double airtime_s = 0.0;
  double make_trace_ms = 0.0;
  stats::Distribution prediction_error_ms;
  obs::StageSet all;       ///< latency stages, all traffic
  obs::StageSet zhuge;     ///< Zhuge-optimised traffic
  obs::StageSet baseline;  ///< the traffic it is compared against

  void add(const app::MultiStationResult& r, double duration_s) {
    events += r.events_executed;
    sim_s += duration_s;
    arrivals += r.arrivals;
    departures += r.departures;
    for (const app::StationResult& s : r.stations) airtime_s += s.airtime_s;
    for (const double v : r.prediction_error_ms.samples()) {
      prediction_error_ms.add(v);
    }
    all.merge(r.attrib.all());
  }
};

struct Observed {
  std::vector<double> reference_ms;  ///< host-speed reference samples
  // End to end, host times.
  double setup_ms = 0.0;
  double sim_s_per_wall_s = 0.0;
  double frame_delay_p95_ms = 0.0;
  double zhuge_p95_ratio = 0.0;
  // Benchmark spans: medians over repetitions.
  double parse_ms = 0.0;
  double expand_ms = 0.0;
  double run_ms = 0.0;         ///< engine time, program tracing off
  double traced_run_ms = 0.0;  ///< the same with program tracing on
  double fingerprint_ms = 0.0;
  // eval_matrix only.
  double pool_matrix_ms = 0.0;
  std::vector<double> cell_ms;  ///< serial cell walls
  std::map<std::string, std::vector<double>> cell_ms_by_mechanism;
  unsigned workers = 1;
  Traced traced;
};

/// p95 RTP frame delay of one run, and that of its Zhuge-optimised flows
/// over that of its other RTP flows. TCP-framed video is left out; its
/// tail swings with bufferbloat and would dominate the p95.
struct FrameDelay {
  double p95_ms = 0.0;
  double zhuge_ratio = 0.0;
};

FrameDelay frame_delay(const app::MultiStationResult& r) {
  stats::Distribution all;
  stats::Distribution zhuge;
  stats::Distribution plain;
  for (const app::MultiFlowResult& f : r.flows) {
    if (f.kind != app::SpecFlowKind::kRtpGcc) continue;
    for (const double v : f.frame_delay_ms.samples()) {
      all.add(v);
      (f.zhuge ? zhuge : plain).add(v);
    }
  }
  FrameDelay d;
  d.p95_ms = all.empty() ? 0.0 : all.quantile(0.95);
  if (!zhuge.empty() && !plain.empty()) {
    d.zhuge_ratio = zhuge.quantile(0.95) / plain.quantile(0.95);
  }
  return d;
}

// ---------------------------------------------------------------------------
// Set-up: load and parse the spec, override its seed, expand it
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::string spec_path;
  std::string spans_path;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool induce_failure = false;
};

/// Independent realisations per --seed. One realisation of a churned or
/// trace-driven run swings its p95 by 10-25 % from seed to seed; the median
/// over 16 stays within a few percent.
constexpr int kSubseeds = 16;

/// Sub-seed i of --seed S is (S * kSubseeds + i) * kSeedStride, so distinct
/// seeds never share an input. The engine seeds trace-class station j with
/// sub-seed + j; the stride keeps those traces distinct across sub-seeds.
constexpr std::uint64_t kSeedStride = 100;

/// The workload's inputs, one per sub-seed.
struct Inputs {
  bool is_eval = false;
  std::vector<std::uint64_t> seeds;
  std::vector<app::ScenarioSpec> scenarios;              ///< scenario workloads
  std::vector<std::vector<app::EvalCellSpec>> matrices;  ///< eval_matrix
};

/// Set-up samples. One set-up takes well under a millisecond, so a single
/// sample is mostly timer and cache noise: set-up is repeated in batches
/// spread over the whole run and the median kept.
struct SetupSamples {
  std::vector<double> total_ms;
  std::vector<double> parse_ms;
  std::vector<double> expand_ms;
  std::size_t next = 0;  ///< sub-seed of the next set-up
};

constexpr int kSetupBatch = 10;

/// One complete set-up for sub-seed `i`, from reading the spec file to the
/// input of the first engine call. Returns false (with `*err`) on a bad
/// spec.
bool set_up(const Options& o, SpanLog& spans, int run, std::size_t i,
            Inputs& in, SetupSamples& samples, std::string* err) {
  const std::uint64_t seed = in.seeds[i];
  const int root = spans.open("setup", -1, run);
  int s = spans.open("spec_parse", root, run);
  app::EvalSpec eval;
  if (in.is_eval) {
    std::ifstream file(o.spec_path);
    if (!file) {
      *err = "cannot open " + o.spec_path;
      return false;
    }
    std::ostringstream text;
    text << file.rdbuf();
    auto spec = app::parse_eval_spec(text.str(), err);
    if (!spec.has_value()) return false;
    eval = std::move(*spec);
    eval.seed = seed;
  } else {
    auto spec = app::load_scenario_spec(o.spec_path, err);
    if (!spec.has_value()) return false;
    in.scenarios[i] = std::move(*spec);
    in.scenarios[i].seed = seed;
  }
  samples.parse_ms.push_back(spans.close(s));

  s = spans.open("expand", root, run);
  std::size_t n = 0;
  if (in.is_eval) {
    in.matrices[i] = app::expand_eval_matrix(eval);
    n = in.matrices[i].size();
  } else {
    n = app::expand_flow_schedule(in.scenarios[i], seed).size();
  }
  samples.expand_ms.push_back(spans.close(s));
  samples.total_ms.push_back(spans.close(root));
  if (n == 0) {
    *err = "spec expands to no flows or cells";
    return false;
  }
  return true;
}

/// Runs `n` set-ups, cycling through the sub-seeds. A spec that fails to
/// load ends the process without a result.
void sample_setup(const Options& o, SpanLog& spans, int& run, Inputs& in,
                  SetupSamples& samples, int n) {
  for (int k = 0; k < n; ++k) {
    std::string err;
    if (!set_up(o, spans, ++run, samples.next, in, samples, &err)) {
      std::fprintf(stderr, "perfbench: %s\n", err.c_str());
      std::exit(2);
    }
    samples.next = (samples.next + 1) % in.seeds.size();
  }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Work done before every repetition, so that set-up and host-speed
/// samples spread over the whole run: a batch of set-ups and one
/// reference-kernel sample.
void between_repetitions(const Options& o, SpanLog& spans, int& run, Inputs& in,
                         SetupSamples& setups, Observed& seen) {
  sample_setup(o, spans, run, in, setups, kSetupBatch);
  seen.reference_ms.push_back(reference_kernel_ms());
}

/// Repetition budget: at least `min_reps`, then more while another
/// repetition of the average length still fits in `seconds`.
bool more(const SpanLog& spans, double start_ms, int reps, int min_reps,
          double seconds) {
  if (reps < min_reps) return true;
  const double elapsed = spans.now_ms() - start_ms;
  return elapsed + elapsed / reps <= seconds * 1000.0;
}

/// Simulated seconds per host second over one pass through every
/// sub-seed, each timed at its fastest repetition. Interference on a shared
/// host only ever slows a repetition down, so the fastest one is the
/// steadiest estimate of what the code costs.
class Throughput {
 public:
  explicit Throughput(std::size_t k) : sim_s_(k, 0.0), best_ms_(k, 0.0) {}
  void add(std::size_t i, double sim_s, double ms) {
    sim_s_[i] = sim_s;
    best_ms_[i] = best_ms_[i] > 0.0 ? std::min(best_ms_[i], ms) : ms;
  }
  [[nodiscard]] double sim_s_per_s() const {
    double sim = 0.0;
    double ms = 0.0;
    for (std::size_t i = 0; i < sim_s_.size(); ++i) {
      sim += sim_s_[i];
      ms += best_ms_[i];
    }
    return ms > 0.0 ? sim / (ms / 1000.0) : 0.0;
  }

 private:
  std::vector<double> sim_s_;
  std::vector<double> best_ms_;
};

/// The state a workload runs with, and the fingerprints it hands back.
struct Context {
  const Options& o;
  Inputs& in;
  SpanLog& spans;
  SetupSamples& setups;
  int& run;
  Tally& tally;
  Observed& seen;
  std::vector<std::uint64_t> fingerprints;  ///< per sub-seed
  bool induced = false;  ///< --induce-failure has corrupted a fingerprint
};

/// With --induce-failure, corrupts the first fingerprint that is compared
/// with a reference.
std::uint64_t maybe_corrupt(Context& ctx, std::uint64_t fp) {
  if (!ctx.o.induce_failure || ctx.induced) return fp;
  ctx.induced = true;
  return fp ^ 1u;
}

/// dense_churn and rtp_trace: one multi-station spec run to completion per
/// repetition. Untraced, repetitions cycle through the sub-seeds, and the
/// first pass over them is checked (invariant checks on) and untimed;
/// traced, they alternate untraced and traced runs of the first sub-seed.
void run_scenario_workload(Context& ctx) {
  const Options& o = ctx.o;
  SpanLog& spans = ctx.spans;
  Observed& seen = ctx.seen;
  const std::size_t k = o.trace ? 1 : ctx.in.seeds.size();
  std::vector<std::optional<std::uint64_t>> ref(k);
  std::uint64_t ref_sorted = 0;
  Throughput rate(k);
  std::vector<double> run_ms;
  std::vector<double> traced_ms;
  std::vector<double> fp_ms;
  std::vector<double> p95_ms;  ///< per sub-seed
  std::vector<double> ratio;   ///< per sub-seed
  const double start = spans.now_ms();
  // Untraced: every sub-seed once checked, then at least once timed.
  const int min_reps = o.trace ? 2 : 2 * static_cast<int>(k);
  for (int rep = 0; more(spans, start, rep, min_reps, o.seconds); ++rep) {
    between_repetitions(o, spans, ctx.run, ctx.in, ctx.setups, seen);
    const std::size_t i = static_cast<std::size_t>(rep) % k;
    const app::ScenarioSpec& spec = ctx.in.scenarios[i];
    const bool traced = o.trace && rep % 2 == 1;
    const bool checked = !o.trace && rep < static_cast<int>(k);
    const int root = spans.open(traced    ? "traced_repetition"
                                : checked ? "checked_repetition"
                                          : "repetition",
                                -1, ++ctx.run);
    std::optional<ObsScope> scope;
    double make_trace_ms = 0.0;
    if (traced || checked) scope.emplace(traced);
    if (traced) make_trace_ms = probe_make_trace(spec, spans, root, ctx.run);
    int s = spans.open("run_multi_station", root, ctx.run);
    app::MultiStationResult r = app::run_multi_station(spec);
    const double ms = spans.close(s);
    s = spans.open("fingerprint", root, ctx.run);
    const std::uint64_t fp = app::multi_result_fingerprint(r);
    fp_ms.push_back(spans.close(s));
    spans.close(root);
    if (traced) {
      traced_ms.push_back(ms);
    } else if (!checked) {
      run_ms.push_back(ms);
      rate.add(i, spec.duration_s, ms);
    }

    std::string why = check_result(r);
    if (!ref[i].has_value()) {
      ref[i] = fp;
      if (i == 0) ref_sorted = sorted_fingerprint(r);
      const FrameDelay d = frame_delay(r);
      p95_ms.push_back(d.p95_ms);
      ratio.push_back(d.zhuge_ratio);
    } else if (why.empty()) {
      why = traced ? check_fingerprint("traced", ref_sorted,
                                       maybe_corrupt(ctx, sorted_fingerprint(r)))
                   : check_fingerprint("repeat", *ref[i], maybe_corrupt(ctx, fp));
    }
    ctx.tally.add(why);
    if (traced) {
      // The registry was cleared when this repetition started, so keep
      // this repetition's observations only.
      seen.traced = Traced{};
      seen.traced.make_trace_ms = make_trace_ms;
      seen.traced.add(r, spec.duration_s);
      seen.traced.zhuge = r.attrib.group(true);
      seen.traced.baseline = r.attrib.group(false);
    }
  }
  for (const auto& fp : ref) ctx.fingerprints.push_back(fp.value_or(0));
  // Medians over sub-seeds: one sub-seed with a heavy tail would dominate
  // a pooled p95.
  seen.frame_delay_p95_ms = median(p95_ms);
  seen.zhuge_p95_ratio = median(ratio);
  seen.sim_s_per_wall_s = rate.sim_s_per_s();
  seen.run_ms = median(run_ms);
  seen.traced_run_ms = median(traced_ms);
  seen.fingerprint_ms = median(fp_ms);
}

/// The kinds of serial pass over the first sub-seed's matrix. The pool
/// runs with the obs switches frozen off and its cell verdicts carry no
/// stranded-ack or invariant count, so only a serial pass can check those.
enum class SerialPass {
  kChecked,  ///< invariant checks on, untimed (untraced run)
  kTimed,    ///< program observability off, cell walls recorded
  kTraced,   ///< program observability on, counters recorded
};

/// eval_matrix: a whole matrix on the pool per repetition, cycling through
/// the sub-seeds. Untraced, the first sub-seed's matrix is also run once in
/// a checked serial pass. Traced, each round runs the first sub-seed's
/// matrix on the pool and then in a timed and a traced serial pass. The
/// cell verdicts of every serial pass must chain to the pool's matrix
/// fingerprint.
void run_eval_workload(Context& ctx) {
  const Options& o = ctx.o;
  SpanLog& spans = ctx.spans;
  Observed& seen = ctx.seen;
  Tally& tally = ctx.tally;
  seen.workers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  const std::size_t k = o.trace ? 1 : ctx.in.seeds.size();

  std::vector<std::optional<std::uint64_t>> ref(k);
  std::vector<std::uint64_t> ref_cells;  ///< first sub-seed's cell verdicts
  Throughput rate(k);
  std::vector<double> pool_ms;
  std::vector<double> serial_ms;
  std::vector<double> traced_ms;
  std::vector<double> fp_ms;
  double log_p95_sum = 0.0;
  std::size_t n_cells = 0;
  std::vector<double> ratio;

  const auto pool_pass = [&](std::size_t i) {
    const std::vector<app::EvalCellSpec>& cells = ctx.in.matrices[i];
    double sim_s = 0.0;
    for (const app::EvalCellSpec& c : cells) sim_s += c.scenario.duration_s;
    const int root = spans.open("repetition", -1, ++ctx.run);
    const int s = spans.open("run_eval_matrix", root, ctx.run);
    const app::EvalMatrixResult res = app::run_eval_matrix(cells, seen.workers);
    const double ms = spans.close(s);
    spans.close(root);
    pool_ms.push_back(ms);
    rate.add(i, sim_s, ms);

    std::string why;
    for (const app::EvalCell& c : res.cells) {
      if (c.frames_decoded == 0) {
        why = c.name + ": no frames decoded";
        break;
      }
    }
    if (!ref[i].has_value()) {
      ref[i] = res.fingerprint;
      for (const app::EvalCell& c : res.cells) {
        if (i == 0) ref_cells.push_back(c.fingerprint);
        log_p95_sum += std::log(std::max(c.frame_delay_p95_ms, 1e-9));
        ++n_cells;
      }
      for (const app::EvalHeadline& h : res.headline) {
        if (h.vanilla_p95_ms > 0) ratio.push_back(h.zhuge_p95_ms / h.vanilla_p95_ms);
      }
    } else if (why.empty()) {
      why = check_fingerprint("repeat matrix", *ref[i],
                              maybe_corrupt(ctx, res.fingerprint));
    }
    tally.add(why);
  };

  const auto serial_pass = [&](SerialPass kind) {
    const bool traced = kind == SerialPass::kTraced;
    const std::vector<app::EvalCellSpec>& cells = ctx.in.matrices[0];
    const std::string pass = traced                         ? "traced_serial"
                             : kind == SerialPass::kChecked ? "checked_serial"
                                                            : "serial";
    const int root = spans.open(pass + "_matrix", -1, ++ctx.run);
    std::optional<ObsScope> scope;
    if (kind != SerialPass::kTimed) scope.emplace(traced);
    if (traced) {
      seen.traced = Traced{};
    } else if (kind == SerialPass::kTimed) {
      seen.cell_ms.clear();
      seen.cell_ms_by_mechanism.clear();
    }
    std::string why;
    double run_total = 0.0;
    double fp_total = 0.0;
    app::Fnv chain;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const app::EvalCellSpec& cell = cells[i];
      const int c = spans.open("cell", root, ctx.run);
      if (traced) {
        seen.traced.make_trace_ms +=
            probe_make_trace(cell.scenario, spans, c, ctx.run);
      }
      int s = spans.open("run_multi_station", c, ctx.run);
      const app::MultiStationResult r = app::run_multi_station(cell.scenario);
      run_total += spans.close(s);
      // Covers the verdict's quantile reads as well as the hashes, which
      // is what run_eval_matrix pays per cell too.
      s = spans.open("fingerprint", c, ctx.run);
      const app::EvalCell verdict = judge_cell(cell, r);
      fp_total += spans.close(s);
      const double wall = spans.close(c);
      const std::uint64_t fp = maybe_corrupt(ctx, verdict.fingerprint);
      chain.u64(fp);

      if (why.empty()) why = check_result(r);
      if (why.empty()) {
        why = check_fingerprint(cell.name + " " + pass + " cell vs pool",
                                ref_cells[i], fp);
      }
      if (traced) {
        seen.traced.add(r, cell.scenario.duration_s);
        if (cell.mechanism == app::ApMode::kZhuge) seen.traced.zhuge.merge(r.attrib.all());
        if (cell.mechanism == app::ApMode::kNone) seen.traced.baseline.merge(r.attrib.all());
      } else if (kind == SerialPass::kTimed) {
        seen.cell_ms.push_back(wall);
        seen.cell_ms_by_mechanism[app::eval_mechanism_name(cell.mechanism)]
            .push_back(wall);
      }
    }
    spans.close(root);
    if (why.empty()) why = check_fingerprint(pass + " matrix vs pool", *ref[0], chain.h);
    tally.add(why);
    if (traced) {
      traced_ms.push_back(run_total);
    } else if (kind == SerialPass::kTimed) {
      serial_ms.push_back(run_total);
      fp_ms.push_back(fp_total);
    }
  };

  const double start = spans.now_ms();
  if (!o.trace) {
    for (int rep = 0; more(spans, start, rep, static_cast<int>(k) + 1, o.seconds);
         ++rep) {
      between_repetitions(o, spans, ctx.run, ctx.in, ctx.setups, seen);
      pool_pass(static_cast<std::size_t>(rep) % k);
      if (rep == 0) serial_pass(SerialPass::kChecked);
    }
  } else {
    for (int round = 0; more(spans, start, round, 1, o.seconds); ++round) {
      between_repetitions(o, spans, ctx.run, ctx.in, ctx.setups, seen);
      pool_pass(0);
      serial_pass(SerialPass::kTimed);
      serial_pass(SerialPass::kTraced);
    }
  }
  for (const auto& fp : ref) ctx.fingerprints.push_back(fp.value_or(0));
  // Geometric mean: cell p95s span W2's tens of ms to W1's hundreds, so
  // their median jumps between the two clusters from seed to seed.
  seen.frame_delay_p95_ms =
      n_cells > 0 ? std::exp(log_p95_sum / static_cast<double>(n_cells)) : 0.0;
  seen.zhuge_p95_ratio = median(ratio);
  seen.sim_s_per_wall_s = rate.sim_s_per_s();
  seen.pool_matrix_ms = median(pool_ms);
  seen.run_ms = o.trace ? median(serial_ms) : seen.pool_matrix_ms;
  seen.traced_run_ms = median(traced_ms);
  seen.fingerprint_ms = median(fp_ms);
}

// ---------------------------------------------------------------------------
// Metric tables (names and units must match BENCHMARK.json)
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::vector<Metric> end_to_end_metrics(const Observed& o) {
  // Host time -> nominal-host time (see kNominalReferenceMs).
  const double scale = kNominalReferenceMs / fastest(o.reference_ms);
  return {
      {"sim_s_per_wall_s", "s/s", o.sim_s_per_wall_s / scale},
      {"setup_s", "s", o.setup_ms / 1000.0},
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"frame_delay_p95_ms", "ms", o.frame_delay_p95_ms},
      {"zhuge_p95_ratio", "ratio", o.zhuge_p95_ratio},
  };
}

std::vector<Metric> layer_metrics(const Observed& o, bool is_eval) {
  const obs::Registry& reg = obs::metrics();
  const auto counter = [&](const char* name) {
    const auto it = reg.counters().find(name);
    return it == reg.counters().end() ? 0.0 : static_cast<double>(it->second.value());
  };
  const auto hist = [&](const std::string& name) -> const obs::Histogram* {
    const auto it = reg.histograms().find(name);
    return it == reg.histograms().end() ? nullptr : &it->second;
  };
  const auto hist_p95 = [&](const std::string& name) {
    const obs::Histogram* h = hist(name);
    return h == nullptr ? 0.0 : h->quantile(0.95);
  };
  const Traced& t = o.traced;
  const double run_s = o.run_ms / 1000.0;

  std::vector<Metric> m = {
      {"host.reference_ms", "ms", fastest(o.reference_ms)},
      {"sim.events", "count", static_cast<double>(t.events)},
      {"sim.events_per_sim_s", "1/s",
       t.sim_s > 0 ? static_cast<double>(t.events) / t.sim_s : 0.0},
      {"sim.events_per_wall_s", "1/s",
       run_s > 0 ? static_cast<double>(t.events) / run_s : 0.0},
      {"app.spec_parse_ms", "ms", o.parse_ms},
      {"app.expand_ms", "ms", o.expand_ms},
      {"app.run_ms", "ms", o.run_ms},
      {"app.traced_run_ms", "ms", o.traced_run_ms},
      {"app.trace_overhead", "ratio", o.run_ms > 0 ? o.traced_run_ms / o.run_ms : 0.0},
      {"app.fingerprint_ms", "ms", o.fingerprint_ms},
      {"app.flow_arrivals", "count", static_cast<double>(t.arrivals)},
      {"app.flow_departures", "count", static_cast<double>(t.departures)},
  };

  double cell_sum = 0.0;
  for (const double v : o.cell_ms) cell_sum += v;
  const double pool = o.pool_matrix_ms * static_cast<double>(o.workers);
  m.push_back({"app.pool.matrix_wall_ms", "ms", o.pool_matrix_ms});
  m.push_back({"app.pool.cell_wall_p50_ms", "ms", percentile(o.cell_ms, 0.5)});
  m.push_back({"app.pool.cell_wall_p90_ms", "ms", percentile(o.cell_ms, 0.9)});
  m.push_back({"app.pool.utilisation", "ratio", pool > 0 ? cell_sum / pool : 0.0});
  for (const char* mech : {"vanilla", "zhuge", "fastack", "abc"}) {
    const auto it = o.cell_ms_by_mechanism.find(mech);
    m.push_back({std::string("app.cell_wall_p50_ms.") + mech, "ms",
                 it == o.cell_ms_by_mechanism.end() ? 0.0 : median(it->second)});
  }

  for (const char* name : {"ap.downlink_packets", "ap.uplink_forwarded",
                           "ap.uplink_delayed", "ap.uplink_dropped"}) {
    m.push_back({name, "count", counter(name)});
  }
  m.push_back({"trace.make_trace_ms", "ms", t.make_trace_ms});

  const obs::Histogram* ampdu = hist("wireless.wifi.ampdu_packets");
  m.push_back({"wireless.wifi.frames", "count", counter("wireless.wifi.frames")});
  m.push_back({"wireless.wifi.ampdu_packets.mean", "count",
               ampdu == nullptr ? 0.0 : ampdu->mean()});
  m.push_back({"wireless.wifi.retries", "count", counter("wireless.wifi.retries")});
  m.push_back({"wireless.wifi.delivered_packets", "count",
               counter("wireless.wifi.delivered_packets")});
  m.push_back({"wireless.airtime_s", "s", t.airtime_s});

  for (const std::string q : {"queue.fifo", "queue.fq_codel"}) {
    const double enq = counter((q + ".enqueued_packets").c_str());
    const double drop = counter((q + ".dropped_packets").c_str());
    m.push_back({q + ".enqueued_packets", "count", enq});
    m.push_back({q + ".dropped_packets", "count", drop});
    m.push_back({q + ".sojourn_us.p95", "us", hist_p95(q + ".sojourn_us")});
    m.push_back({q + ".drop_ratio", "ratio", enq > 0 ? drop / enq : 0.0});
  }
  m.push_back({"link.drops", "count", counter("link.drops")});

  for (const char* name :
       {"fortune.predictions", "feedback.inband.rtp_recorded",
        "feedback.inband.twcc_sent", "feedback.oob.acks", "feedback.oob.floor_acks"}) {
    m.push_back({name, "count", counter(name)});
  }
  m.push_back({"feedback.oob.ack_hold_ms.p95", "ms", hist_p95("feedback.oob.ack_hold_ms")});
  m.push_back({"core.prediction_error_p95_ms", "ms",
               t.prediction_error_ms.empty() ? 0.0 : t.prediction_error_ms.quantile(0.95)});
  m.push_back({"core.p95_reduction", "ratio", is_eval ? 1.0 - o.zhuge_p95_ratio : 0.0});
  m.push_back({"zhuge.degrade", "count", counter("zhuge.degrade")});
  m.push_back({"zhuge.reactivate", "count", counter("zhuge.reactivate")});

  for (std::size_t i = 0; i < obs::kStageCount; ++i) {
    const auto s = static_cast<obs::Stage>(i);
    m.push_back({std::string("stage.") + obs::stage_name(s) + ".p95_us", "us",
                 t.all.stage(s).quantile(0.95)});
  }
  for (const obs::Stage s : {obs::Stage::kApQueue, obs::Stage::kFrameE2e}) {
    const std::string base = std::string("stage.") + obs::stage_name(s) + ".p95_us";
    m.push_back({base + ".zhuge", "us", t.zhuge.stage(s).quantile(0.95)});
    m.push_back({base + ".baseline", "us", t.baseline.stage(s).quantile(0.95)});
  }
  return m;
}

// ---------------------------------------------------------------------------

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload dense_churn|rtp_trace|eval_matrix "
               "--spec FILE --seed N --seconds S\n"
               "          [--trace] [--spans FILE] [--induce-failure]\n",
               argv0);
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--spec" && has_value) {
      o.spec_path = argv[++i];
    } else if (a == "--spans" && has_value) {
      o.spans_path = argv[++i];
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      o.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (a == "--seconds" && has_value) {
      char* end = nullptr;
      o.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(o.seconds > 0)) return std::nullopt;
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--induce-failure") {
      o.induce_failure = true;
    } else {
      return std::nullopt;
    }
  }
  const bool known = o.workload == "dense_churn" || o.workload == "rtp_trace" ||
                     o.workload == "eval_matrix";
  if (!known || o.spec_path.empty()) return std::nullopt;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opts = parse_args(argc, argv);
  if (!opts.has_value()) {
    usage(argv[0]);
    return 2;
  }
  const Options& o = *opts;

  Inputs in;
  in.is_eval = o.workload == "eval_matrix";
  for (int i = 0; i < kSubseeds; ++i) {
    in.seeds.push_back((o.seed * static_cast<std::uint64_t>(kSubseeds) +
                        static_cast<std::uint64_t>(i)) *
                       kSeedStride);
  }
  in.scenarios.resize(in.seeds.size());
  in.matrices.resize(in.seeds.size());

  SpanLog spans;
  SetupSamples setups;
  int run = 0;
  Tally tally;
  Observed seen;
  Context ctx{o, in, spans, setups, run, tally, seen, {}, false};
  // Every sub-seed's inputs exist before the first engine call.
  sample_setup(o, spans, run, in, setups, std::max(kSetupBatch, kSubseeds));
  if (in.is_eval) {
    run_eval_workload(ctx);
  } else {
    run_scenario_workload(ctx);
  }
  seen.setup_ms = median(setups.total_ms);
  seen.parse_ms = median(setups.parse_ms);
  seen.expand_ms = median(setups.expand_ms);

  for (std::size_t i = 0; i < ctx.fingerprints.size(); ++i) {
    std::printf("perfbench %s seed=%llu sub_seed=%llu %s=%s\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(in.seeds[i]),
                in.is_eval ? "matrix_fingerprint" : "result_fingerprint",
                hex(ctx.fingerprints[i]).c_str());
  }
  std::printf("perfbench %s repetitions=%d failed=%d", o.workload.c_str(),
              tally.attempted, tally.failed);
  if (in.is_eval) {
    std::printf(" p95_reduction=%.6f (median over headline rows)",
                1.0 - seen.zhuge_p95_ratio);
  }
  std::printf("\n");
  // The throughput before scaling to the nominal host.
  std::printf("perfbench %s host_reference_ms=%.6g unscaled_sim_s_per_wall_s=%.6g\n",
              o.workload.c_str(), fastest(seen.reference_ms), seen.sim_s_per_wall_s);

  const std::vector<Metric> metrics =
      o.trace ? layer_metrics(seen, in.is_eval) : end_to_end_metrics(seen);
  bool correct = tally.failed == 0;
  app::Json jm = app::Json::make_object();
  for (const Metric& m : metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      correct = false;
      v = 0.0;
    }
    app::Json e = app::Json::make_object();
    e.set("value", app::Json::make_number(v));
    e.set("unit", app::Json::make_string(m.unit));
    jm.set(m.name, std::move(e));
  }

  if (o.trace && !o.spans_path.empty() &&
      !spans.write(o.spans_path, o.workload, o.seed)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.spans_path.c_str());
    correct = false;
  }

  app::Json out = app::Json::make_object();
  out.set("correct", app::Json::make_bool(correct));
  out.set("attempted", app::Json::make_number(tally.attempted));
  out.set("failed", app::Json::make_number(tally.failed));
  out.set("metrics", std::move(jm));
  std::printf("%s\n", out.dump().c_str());
  return correct ? 0 : 1;
}
