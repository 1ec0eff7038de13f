#include "app/eval.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

namespace zhuge::app {

namespace {

std::string to_hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// "line N: " prefix (same idiom as the scenario-spec validator).
std::string at_line(const Json& v) {
  return v.line() > 0 ? "line " + std::to_string(v.line()) + ": " : "";
}

bool parse_mechanism(const std::string& s, ApMode& out) {
  if (s == "vanilla") out = ApMode::kNone;
  else if (s == "zhuge") out = ApMode::kZhuge;
  else if (s == "fastack") out = ApMode::kFastAck;
  else if (s == "abc") out = ApMode::kAbc;
  else return false;
  return true;
}

bool parse_cca(const std::string& s, EvalCca& out) {
  if (s == "gcc") out = EvalCca::kGcc;
  else if (s == "cubic") out = EvalCca::kCubic;
  else if (s == "bbr") out = EvalCca::kBbr;
  else return false;
  return true;
}

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

}  // namespace

EvalCell run_eval_cell(const EvalCellSpec& cs) {
  const MultiStationResult r = run_multi_station(cs.scenario);

  EvalCell c;
  c.name = cs.name;
  c.mechanism = eval_mechanism_name(cs.mechanism);
  c.cca = to_string(cs.cca);
  c.trace = trace::short_name(cs.trace);
  c.density = cs.density;
  c.mechanism_active = cs.mechanism_active;

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
  c.fingerprint = eval_cell_fingerprint(c);
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

/// Anchor geometry for the pinned headline cells: GCC at 4 stations on a
/// 2.5 Mbps/30 fps workload, 20 s with 2 s warmup — dense enough that the
/// trace's fades actually congest the AP, short enough for a gating CI
/// job.
constexpr int kAnchorDensity = 4;
constexpr double kAnchorDurationS = 20.0;
constexpr double kAnchorWarmupS = 2.0;

}  // namespace

const char* to_string(EvalCca cca) {
  switch (cca) {
    case EvalCca::kGcc: return "gcc";
    case EvalCca::kCubic: return "cubic";
    case EvalCca::kBbr: return "bbr";
  }
  return "?";
}

const char* eval_mechanism_name(ApMode mode) {
  switch (mode) {
    case ApMode::kNone: return "vanilla";
    case ApMode::kZhuge: return "zhuge";
    case ApMode::kFastAck: return "fastack";
    case ApMode::kAbc: return "abc";
  }
  return "?";
}

std::optional<EvalSpec> parse_eval_spec(std::string_view text,
                                        std::string* err) {
  const auto fail = [err](const std::string& msg) -> std::optional<EvalSpec> {
    if (err != nullptr) *err = msg;
    return std::nullopt;
  };

  std::string jerr;
  const auto doc = Json::parse(text, &jerr);
  if (!doc.has_value()) return fail(jerr);
  if (!doc->is_object()) return fail("eval spec must be a JSON object");

  // Strict key set: a typo'd axis name would silently run the default
  // axis while claiming a narrowed matrix (or vice versa).
  static constexpr std::string_view kKnown[] = {
      "name", "duration_s", "warmup_s",   "seed",      "max_bitrate_mbps",
      "fps",  "mechanisms", "ccas",       "traces",    "densities"};
  for (const auto& [key, value] : doc->object()) {
    if (std::find(std::begin(kKnown), std::end(kKnown), key) ==
        std::end(kKnown)) {
      return fail(at_line(value) + "eval: unknown key \"" + key + "\"");
    }
  }

  EvalSpec spec;
  if (const Json* v = doc->find("name")) spec.name = v->string_or(spec.name);
  if (const Json* v = doc->find("duration_s")) {
    spec.duration_s = v->number_or(spec.duration_s);
  }
  if (const Json* v = doc->find("warmup_s")) {
    spec.warmup_s = v->number_or(spec.warmup_s);
  }
  if (spec.duration_s <= 0) return fail("duration_s must be > 0");
  if (spec.warmup_s < 0 || spec.warmup_s >= spec.duration_s) {
    return fail("warmup_s must be in [0, duration_s)");
  }
  if (const Json* v = doc->find("seed")) {
    spec.seed = static_cast<std::uint64_t>(
        v->number_or(static_cast<double>(spec.seed)));
  }
  if (const Json* v = doc->find("max_bitrate_mbps")) {
    spec.max_bitrate_mbps = v->number_or(spec.max_bitrate_mbps);
  }
  if (const Json* v = doc->find("fps")) spec.fps = v->number_or(spec.fps);
  if (spec.max_bitrate_mbps <= 0 || spec.fps <= 0) {
    return fail("max_bitrate_mbps and fps must be > 0");
  }

  const auto parse_axis = [&](const char* key, auto& dst, auto parse_one,
                              const char* expect) -> bool {
    const Json* arr = doc->find(key);
    if (arr == nullptr) return true;  // keep the default axis
    if (!arr->is_array() || arr->array().empty()) {
      if (err != nullptr) {
        *err = at_line(*arr) + std::string(key) + " must be a non-empty array";
      }
      return false;
    }
    dst.clear();
    for (const Json& e : arr->array()) {
      typename std::decay_t<decltype(dst)>::value_type parsed{};
      if (!parse_one(e, parsed)) {
        if (err != nullptr) {
          *err = at_line(e) + std::string(key) + "[] must be " + expect;
        }
        return false;
      }
      dst.push_back(parsed);
    }
    return true;
  };

  if (!parse_axis(
          "mechanisms", spec.mechanisms,
          [](const Json& e, ApMode& out) {
            return parse_mechanism(e.string_or(""), out);
          },
          "vanilla|zhuge|fastack|abc")) {
    return std::nullopt;
  }
  if (!parse_axis(
          "ccas", spec.ccas,
          [](const Json& e, EvalCca& out) {
            return parse_cca(e.string_or(""), out);
          },
          "gcc|cubic|bbr")) {
    return std::nullopt;
  }
  if (!parse_axis(
          "traces", spec.traces,
          [](const Json& e, trace::TraceKind& out) {
            return parse_trace_class(e.string_or(""), out);
          },
          "W1|W2|C1|C2|C3|ETH|ABC")) {
    return std::nullopt;
  }
  if (!parse_axis(
          "densities", spec.densities,
          [](const Json& e, int& out) {
            if (e.kind() != Json::Kind::kNumber) return false;
            out = static_cast<int>(e.number_or(0));
            return out >= 1 && out <= 64;
          },
          "integers in [1, 64]")) {
    return std::nullopt;
  }
  return spec;
}

std::optional<EvalSpec> load_eval_spec(const std::string& path,
                                       std::string* err) {
  std::ifstream in(path);
  if (!in) {
    if (err != nullptr) *err = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  auto spec = parse_eval_spec(ss.str(), err);
  if (!spec.has_value() && err != nullptr) *err = path + ": " + *err;
  return spec;
}

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
          s.ap_mode = mech;

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
  EvalMatrixResult out;
  out.cells.resize(cells.size());
  {
    const ObsFreeze freeze;
    run_indexed_pool(cells.size(), threads,
                     [&](std::size_t i) { out.cells[i] = run_eval_cell(cells[i]); });
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

namespace {

/// %.17g: shortest representation that round-trips an IEEE double.
std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void write_eval_report_csv(const EvalMatrixResult& res, std::ostream& out) {
  out << "cell,trace,cca,mechanism,density,mechanism_active,"
         "frame_delay_p50_ms,frame_delay_p95_ms,frame_delay_p99_ms,"
         "delayed_frame_ratio,stall_rate,rtt_p50_ms,rtt_p95_ms,goodput_bps,"
         "frames_sent,frames_decoded";
  for (int d = 1; d <= kEvalCdfDeciles; ++d) out << ",cdf_p" << d * 10;
  out << ",result_fingerprint,fingerprint\n";
  for (const EvalCell& c : res.cells) {
    out << c.name << ',' << c.trace << ',' << c.cca << ',' << c.mechanism
        << ',' << c.density << ',' << (c.mechanism_active ? 1 : 0) << ','
        << g17(c.frame_delay_p50_ms) << ',' << g17(c.frame_delay_p95_ms)
        << ',' << g17(c.frame_delay_p99_ms) << ','
        << g17(c.delayed_frame_ratio) << ',' << g17(c.stall_rate) << ','
        << g17(c.rtt_p50_ms) << ',' << g17(c.rtt_p95_ms) << ','
        << g17(c.goodput_bps) << ',' << c.frames_sent << ','
        << c.frames_decoded;
    for (const double v : c.frame_delay_cdf_ms) out << ',' << g17(v);
    out << ',' << to_hex16(c.result_fingerprint) << ','
        << to_hex16(c.fingerprint) << '\n';
  }
}

Json eval_report_to_json(const EvalMatrixResult& res) {
  Json j = Json::make_object();
  j.set("fingerprint", Json::make_string(to_hex16(res.fingerprint)));
  Json cells = Json::make_array();
  for (const EvalCell& c : res.cells) {
    Json cj = Json::make_object();
    cj.set("name", Json::make_string(c.name));
    cj.set("trace", Json::make_string(c.trace));
    cj.set("cca", Json::make_string(c.cca));
    cj.set("mechanism", Json::make_string(c.mechanism));
    cj.set("density", Json::make_number(c.density));
    cj.set("mechanism_active", Json::make_bool(c.mechanism_active));
    Json cdf = Json::make_array();
    for (const double v : c.frame_delay_cdf_ms) cdf.push(Json::make_number(v));
    cj.set("frame_delay_cdf_ms", std::move(cdf));
    cj.set("frame_delay_p50_ms", Json::make_number(c.frame_delay_p50_ms));
    cj.set("frame_delay_p95_ms", Json::make_number(c.frame_delay_p95_ms));
    cj.set("frame_delay_p99_ms", Json::make_number(c.frame_delay_p99_ms));
    cj.set("delayed_frame_ratio", Json::make_number(c.delayed_frame_ratio));
    cj.set("stall_rate", Json::make_number(c.stall_rate));
    cj.set("rtt_p50_ms", Json::make_number(c.rtt_p50_ms));
    cj.set("rtt_p95_ms", Json::make_number(c.rtt_p95_ms));
    cj.set("goodput_bps", Json::make_number(c.goodput_bps));
    cj.set("frames_sent",
           Json::make_number(static_cast<double>(c.frames_sent)));
    cj.set("frames_decoded",
           Json::make_number(static_cast<double>(c.frames_decoded)));
    cj.set("result_fingerprint",
           Json::make_string(to_hex16(c.result_fingerprint)));
    cj.set("cell_fingerprint", Json::make_string(to_hex16(c.fingerprint)));
    cells.push(std::move(cj));
  }
  j.set("cells", std::move(cells));
  Json headline = Json::make_array();
  for (const EvalHeadline& h : res.headline) {
    Json hj = Json::make_object();
    hj.set("name", Json::make_string(h.name));
    hj.set("zhuge_p95_ms", Json::make_number(h.zhuge_p95_ms));
    hj.set("vanilla_p95_ms", Json::make_number(h.vanilla_p95_ms));
    hj.set("zhuge_wins", Json::make_bool(h.zhuge_wins));
    headline.push(std::move(hj));
  }
  j.set("headline", std::move(headline));
  return j;
}

namespace {

std::optional<std::uint64_t> hex_field(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  if (v == nullptr) return std::nullopt;
  const std::string s = v->string_or("");
  if (s.empty()) return std::nullopt;
  std::uint64_t out = 0;
  for (const char ch : s) {
    int digit;
    if (ch >= '0' && ch <= '9') digit = ch - '0';
    else if (ch >= 'a' && ch <= 'f') digit = 10 + ch - 'a';
    else return std::nullopt;
    out = out << 4 | static_cast<std::uint64_t>(digit);
  }
  return out;
}

}  // namespace

std::optional<EvalMatrixResult> eval_report_from_json(const Json& j,
                                                      std::string* err) {
  const auto fail = [err](const char* msg) -> std::optional<EvalMatrixResult> {
    if (err != nullptr) *err = msg;
    return std::nullopt;
  };
  if (!j.is_object()) return fail("eval report must be an object");
  EvalMatrixResult res;
  const auto fp = hex_field(j, "fingerprint");
  if (!fp.has_value()) return fail("eval report missing hex \"fingerprint\"");
  res.fingerprint = *fp;

  const Json* cells = j.find("cells");
  if (cells == nullptr || !cells->is_array()) {
    return fail("eval report missing \"cells\" array");
  }
  for (const Json& cj : cells->array()) {
    if (!cj.is_object()) return fail("cells[] entries must be objects");
    EvalCell c;
    c.name = cj.find("name") != nullptr ? cj.find("name")->string_or("") : "";
    if (c.name.empty()) return fail("cells[] entry missing \"name\"");
    c.trace = cj.find("trace") != nullptr ? cj.find("trace")->string_or("") : "";
    c.cca = cj.find("cca") != nullptr ? cj.find("cca")->string_or("") : "";
    c.mechanism =
        cj.find("mechanism") != nullptr ? cj.find("mechanism")->string_or("") : "";
    if (const Json* v = cj.find("density")) {
      c.density = static_cast<int>(v->number_or(1));
    }
    if (const Json* v = cj.find("mechanism_active")) {
      c.mechanism_active = v->bool_or(false);
    }
    if (const Json* v = cj.find("frame_delay_cdf_ms"); v != nullptr && v->is_array()) {
      for (const Json& e : v->array()) {
        c.frame_delay_cdf_ms.push_back(e.number_or(0.0));
      }
    }
    const auto num = [&cj](const char* key, double& dst) {
      if (const Json* v = cj.find(key)) dst = v->number_or(dst);
    };
    num("frame_delay_p50_ms", c.frame_delay_p50_ms);
    num("frame_delay_p95_ms", c.frame_delay_p95_ms);
    num("frame_delay_p99_ms", c.frame_delay_p99_ms);
    num("delayed_frame_ratio", c.delayed_frame_ratio);
    num("stall_rate", c.stall_rate);
    num("rtt_p50_ms", c.rtt_p50_ms);
    num("rtt_p95_ms", c.rtt_p95_ms);
    num("goodput_bps", c.goodput_bps);
    if (const Json* v = cj.find("frames_sent")) {
      c.frames_sent = static_cast<std::uint64_t>(v->number_or(0));
    }
    if (const Json* v = cj.find("frames_decoded")) {
      c.frames_decoded = static_cast<std::uint64_t>(v->number_or(0));
    }
    const auto rfp = hex_field(cj, "result_fingerprint");
    const auto cfp = hex_field(cj, "cell_fingerprint");
    if (!rfp.has_value() || !cfp.has_value()) {
      return fail("cells[] entry missing hex fingerprints");
    }
    c.result_fingerprint = *rfp;
    c.fingerprint = *cfp;
    res.cells.push_back(std::move(c));
  }

  if (const Json* headline = j.find("headline");
      headline != nullptr && headline->is_array()) {
    for (const Json& hj : headline->array()) {
      if (!hj.is_object()) return fail("headline[] entries must be objects");
      EvalHeadline h;
      h.name = hj.find("name") != nullptr ? hj.find("name")->string_or("") : "";
      if (const Json* v = hj.find("zhuge_p95_ms")) {
        h.zhuge_p95_ms = v->number_or(0.0);
      }
      if (const Json* v = hj.find("vanilla_p95_ms")) {
        h.vanilla_p95_ms = v->number_or(0.0);
      }
      if (const Json* v = hj.find("zhuge_wins")) {
        h.zhuge_wins = v->bool_or(false);
      }
      res.headline.push_back(std::move(h));
    }
  }
  return res;
}

// ---------------------------------------------------------------------------
// Golden anchors
// ---------------------------------------------------------------------------

std::vector<std::string> eval_golden_names() {
  return {"eval_w1_gcc", "eval_c1_gcc"};
}

std::optional<GoldenRecord> compute_eval_golden(const std::string& name) {
  trace::TraceKind trace;
  if (name == "eval_w1_gcc") {
    trace = trace::TraceKind::kRestaurantWifi;
  } else if (name == "eval_c1_gcc") {
    trace = trace::TraceKind::kIndoorMixed45G;
  } else {
    return std::nullopt;
  }

  EvalSpec spec;
  spec.name = name;
  spec.duration_s = kAnchorDurationS;
  spec.warmup_s = kAnchorWarmupS;
  spec.mechanisms = {ApMode::kNone, ApMode::kZhuge};
  spec.ccas = {EvalCca::kGcc};
  spec.traces = {trace};
  spec.densities = {kAnchorDensity};

  const auto cells = expand_eval_matrix(spec);
  const EvalMatrixResult res = run_eval_matrix(cells, 1);

  GoldenRecord rec;
  rec.name = name;
  rec.seed = spec.seed;
  rec.fingerprint = res.fingerprint;
  rec.headline["cells"] = static_cast<double>(res.cells.size());
  for (const EvalCell& c : res.cells) {
    const std::string prefix = c.mechanism + "_";
    rec.headline[prefix + "frame_p95_ms"] = c.frame_delay_p95_ms;
    rec.headline[prefix + "delayed_ratio"] = c.delayed_frame_ratio;
    rec.headline[prefix + "goodput_bps"] = c.goodput_bps;
  }
  if (!res.headline.empty()) {
    rec.headline["zhuge_wins"] = res.headline.front().zhuge_wins ? 1.0 : 0.0;
  }
  return rec;
}

}  // namespace zhuge::app
