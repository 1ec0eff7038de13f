#include "app/eval.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace zhuge::app {

namespace {

/// The flow kind a cell schedules: GCC is RTP; TCP columns keep their CCA
/// except under the ABC mechanism, where the host stack is replaced by
/// cooperating tcp_abc senders (ABC is an end-to-end redesign — the CCA
/// column records which host stack it displaced).
SpecFlowKind cell_flow_kind(ApMode mechanism, EvalCca cca) {
  switch (cca) {
    case EvalCca::kGcc: return SpecFlowKind::kRtpGcc;
    case EvalCca::kCubic:
      return mechanism == ApMode::kAbc ? SpecFlowKind::kTcpAbc
                                       : SpecFlowKind::kTcpCubic;
    case EvalCca::kBbr:
      return mechanism == ApMode::kAbc ? SpecFlowKind::kTcpAbc
                                       : SpecFlowKind::kTcpBbr;
  }
  return SpecFlowKind::kRtpGcc;
}

/// Whether the AP mechanism can act on the workload at all. FastAck and
/// ABC operate on TCP only; vanilla is the no-mechanism control.
bool mechanism_acts_on(ApMode mechanism, EvalCca cca) {
  switch (mechanism) {
    case ApMode::kNone: return false;
    case ApMode::kZhuge: return true;
    case ApMode::kFastAck: return cca != EvalCca::kGcc;
    case ApMode::kAbc: return cca != EvalCca::kGcc;
  }
  return false;
}

/// Give `c` the axis-point labels of `cs` and hash it: the verdict of one
/// run, told as the cell `cs`.
void label_cell(EvalCell& c, const EvalCellSpec& cs) {
  c.name = cs.name;
  c.mechanism = eval_mechanism_name(cs.mechanism);
  c.cca = to_string(cs.cca);
  c.trace = trace::short_name(cs.trace);
  c.density = cs.density;
  c.mechanism_active = cs.mechanism_active;
  c.fingerprint = eval_cell_fingerprint(c);
}

}  // namespace

EvalCell run_eval_cell(const EvalCellSpec& cs) {
  const MultiStationResult r = run_multi_station(cs.scenario);

  EvalCell c;
  const stats::Distribution& fd = r.agg_frame_delay_ms;
  c.frame_delay_cdf_ms.reserve(kEvalCdfDeciles);
  for (int d = 1; d <= kEvalCdfDeciles; ++d) {
    c.frame_delay_cdf_ms.push_back(fd.quantile(0.1 * d));
  }
  c.frame_delay_p50_ms = fd.quantile(0.50);
  c.frame_delay_p95_ms = fd.quantile(0.95);
  c.frame_delay_p99_ms = fd.quantile(0.99);
  c.delayed_frame_ratio = fd.ratio_above(400.0);

  for (const MultiFlowResult& f : r.flows) {
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

  c.result_fingerprint = multi_result_fingerprint(r);
  label_cell(c, cs);
  return c;
}

namespace {

/// Axis-point key ("W1/gcc/d4") the headline comparisons pair cells by.
std::string point_key(const EvalCell& c) {
  return c.trace + "/" + c.cca + "/d" + std::to_string(c.density);
}

std::vector<EvalHeadline> compute_headline(const std::vector<EvalCell>& cells) {
  std::vector<EvalHeadline> out;
  for (const EvalCell& z : cells) {
    if (z.mechanism != "zhuge") continue;
    for (const EvalCell& v : cells) {
      if (v.mechanism != "vanilla") continue;
      if (v.trace != z.trace || v.cca != z.cca || v.density != z.density) {
        continue;
      }
      EvalHeadline h;
      h.name = point_key(z);
      h.zhuge_p95_ms = z.frame_delay_p95_ms;
      h.vanilla_p95_ms = v.frame_delay_p95_ms;
      h.zhuge_wins = z.frame_delay_p95_ms < v.frame_delay_p95_ms;
      out.push_back(std::move(h));
      break;
    }
  }
  return out;
}

}  // namespace

std::vector<EvalCellSpec> expand_eval_matrix(const EvalSpec& spec) {
  std::vector<EvalCellSpec> cells;
  cells.reserve(spec.traces.size() * spec.ccas.size() *
                spec.mechanisms.size() * spec.densities.size());
  for (const trace::TraceKind trace : spec.traces) {
    for (const EvalCca cca : spec.ccas) {
      for (const ApMode mech : spec.mechanisms) {
        for (const int density : spec.densities) {
          EvalCellSpec cell;
          cell.mechanism = mech;
          cell.cca = cca;
          cell.trace = trace;
          cell.density = density;
          cell.mechanism_active = mechanism_acts_on(mech, cca);
          cell.name = std::string(trace::short_name(trace)) + "/" +
                      to_string(cca) + "/" + eval_mechanism_name(mech) +
                      "/d" + std::to_string(density);

          ScenarioSpec& s = cell.scenario;
          s.name = cell.name;
          s.duration_s = spec.duration_s;
          s.warmup_s = spec.warmup_s;
          s.seed = spec.seed;
          // An inert mechanism runs the vanilla control it stands for.
          s.ap_mode = cell.mechanism_active ? mech : ApMode::kNone;

          StationGroupSpec g;
          g.count = density;
          g.mcs = 7;
          g.trace_class = trace;
          s.stations.push_back(g);

          for (int i = 0; i < density; ++i) {
            SpecFlow f;
            f.kind = cell_flow_kind(mech, cca);
            f.station = i;
            // "Optimised" marker: the AP registers the flow whenever the
            // mechanism exists; vanilla ignores it by construction.
            f.zhuge = true;
            // Small stagger so dense cells don't key their frame clocks
            // in phase.
            f.start_s = 0.1 * i;
            f.max_bitrate_mbps = spec.max_bitrate_mbps;
            f.fps = spec.fps;
            s.flows.push_back(f);
          }
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  return cells;
}

std::uint64_t eval_cell_fingerprint(const EvalCell& cell) {
  Fnv fp;
  fp.bytes(cell.name.data(), cell.name.size());
  fp.u64(static_cast<std::uint64_t>(cell.density));
  fp.u64(cell.mechanism_active ? 1 : 0);
  fp.u64(cell.frame_delay_cdf_ms.size());
  for (const double v : cell.frame_delay_cdf_ms) fp.f64(v);
  fp.f64(cell.frame_delay_p50_ms);
  fp.f64(cell.frame_delay_p95_ms);
  fp.f64(cell.frame_delay_p99_ms);
  fp.f64(cell.delayed_frame_ratio);
  fp.f64(cell.stall_rate);
  fp.f64(cell.rtt_p50_ms);
  fp.f64(cell.rtt_p95_ms);
  fp.f64(cell.goodput_bps);
  fp.u64(cell.frames_sent);
  fp.u64(cell.frames_decoded);
  fp.u64(cell.result_fingerprint);
  return fp.h;
}

EvalMatrixResult run_eval_matrix(const std::vector<EvalCellSpec>& cells,
                                 unsigned threads) {
  // One run per distinct scenario: `runs` holds, in grid order, the first
  // cell of each group of cells whose specs are equal apart from the name,
  // and `run_of[i]` is cell i's group.
  std::vector<std::size_t> runs;
  std::vector<std::size_t> run_of(cells.size());
  std::vector<ScenarioSpec> unnamed;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ScenarioSpec s = cells[i].scenario;
    s.name.clear();
    const auto it = std::find(unnamed.begin(), unnamed.end(), s);
    run_of[i] = static_cast<std::size_t>(it - unnamed.begin());
    if (it == unnamed.end()) {
      unnamed.push_back(std::move(s));
      runs.push_back(i);
    }
  }
  std::vector<EvalCell> judged(runs.size());
  run_indexed_pool(runs.size(), threads, [&](std::size_t r) {
    judged[r] = run_eval_cell(cells[runs[r]]);
  });

  EvalMatrixResult out;
  out.runs = runs.size();
  out.cells.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EvalCell c = judged[run_of[i]];
    label_cell(c, cells[i]);
    out.cells.push_back(std::move(c));
  }
  // Chain serially in grid order: the matrix fingerprint is independent of
  // worker count and completion order by construction.
  Fnv chain;
  for (const EvalCell& c : out.cells) chain.u64(c.fingerprint);
  out.fingerprint = chain.h;
  out.headline = compute_headline(out.cells);
  return out;
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

void write_eval_report_text(const EvalMatrixResult& res, std::ostream& out) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "eval matrix: %zu cells, fingerprint %s\n", res.cells.size(),
                to_hex16(res.fingerprint).c_str());
  out << line;
  out << "trace cca    mech     dens act  fd_p50   fd_p95   fd_p99  "
         ">400ms   stall  rtt_p95  goodput\n";
  for (const EvalCell& c : res.cells) {
    std::snprintf(line, sizeof(line),
                  "%-5s %-6s %-8s %4d %3s %7.1f  %7.1f  %7.1f  %5.2f%%  "
                  "%5.2f%%  %7.1f  %6.2fM\n",
                  c.trace.c_str(), c.cca.c_str(), c.mechanism.c_str(),
                  c.density, c.mechanism_active ? "yes" : "-",
                  c.frame_delay_p50_ms, c.frame_delay_p95_ms,
                  c.frame_delay_p99_ms, c.delayed_frame_ratio * 100.0,
                  c.stall_rate * 100.0, c.rtt_p95_ms, c.goodput_bps / 1e6);
    out << line;
  }
  if (!res.headline.empty()) {
    out << "\nheadline (zhuge p95 frame delay < vanilla p95):\n";
    for (const EvalHeadline& h : res.headline) {
      std::snprintf(line, sizeof(line),
                    "  %-12s zhuge %7.1f ms vs vanilla %7.1f ms -> %s\n",
                    h.name.c_str(), h.zhuge_p95_ms, h.vanilla_p95_ms,
                    h.zhuge_wins ? "ZHUGE WINS" : "no win");
      out << line;
    }
  }
}

}  // namespace zhuge::app
