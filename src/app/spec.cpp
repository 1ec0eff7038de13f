#include "app/spec.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "obs/slo.hpp"
#include "sim/random.hpp"
#include "sim/substreams.hpp"

namespace zhuge::app {

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

const char* to_string(SpecFlowKind kind) {
  switch (kind) {
    case SpecFlowKind::kRtpGcc: return "rtp_gcc";
    case SpecFlowKind::kTcpCubic: return "tcp_cubic";
    case SpecFlowKind::kTcpBbr: return "tcp_bbr";
    case SpecFlowKind::kTcpAbc: return "tcp_abc";
    case SpecFlowKind::kTcpCopa: return "tcp_copa";
    case SpecFlowKind::kTcpBulk: return "tcp_bulk";
  }
  return "?";
}

const fault::FaultPlan& ScenarioSpec::fault_plan() const {
  static const fault::FaultPlan kNone{};
  return faults != nullptr ? *faults : kNone;
}

int ScenarioSpec::station_count() const {
  int n = 0;
  for (const auto& g : stations) n += g.count;
  return n;
}

const StationGroupSpec& ScenarioSpec::station_group(int station) const {
  for (const auto& g : stations) {
    if (station < g.count) return g;
    station -= g.count;
  }
  return stations.back();
}

namespace {

bool parse_flow_kind(const std::string& s, SpecFlowKind& out) {
  if (s == "rtp_gcc") out = SpecFlowKind::kRtpGcc;
  else if (s == "tcp_cubic") out = SpecFlowKind::kTcpCubic;
  else if (s == "tcp_bbr") out = SpecFlowKind::kTcpBbr;
  else if (s == "tcp_abc") out = SpecFlowKind::kTcpAbc;
  else if (s == "tcp_copa") out = SpecFlowKind::kTcpCopa;
  else if (s == "tcp_bulk") out = SpecFlowKind::kTcpBulk;
  else return false;
  return true;
}

bool parse_qdisc_kind(const std::string& s, QdiscKind& out) {
  if (s == "fifo") out = QdiscKind::kFifo;
  else if (s == "codel") out = QdiscKind::kCoDel;
  else if (s == "fq_codel") out = QdiscKind::kFqCoDel;
  else return false;
  return true;
}

bool parse_link_kind(const std::string& s, LinkKind& out) {
  if (s == "wifi") out = LinkKind::kWifi;
  else if (s == "cellular") out = LinkKind::kCellular;
  else return false;
  return true;
}

bool parse_ap_mode(const std::string& s, ApMode& out) {
  if (s == "none") out = ApMode::kNone;
  else if (s == "zhuge") out = ApMode::kZhuge;
  else if (s == "fastack") out = ApMode::kFastAck;
  else if (s == "abc") out = ApMode::kAbc;  // pair with tcp_abc flows
  else return false;
  return true;
}

}  // namespace

bool parse_trace_class(const std::string& s, trace::TraceKind& out) {
  static constexpr trace::TraceKind kAll[] = {
      trace::TraceKind::kRestaurantWifi, trace::TraceKind::kOfficeWifi,
      trace::TraceKind::kIndoorMixed45G, trace::TraceKind::kCity4G,
      trace::TraceKind::kCity5G,         trace::TraceKind::kEthernet,
      trace::TraceKind::kLegacyCellular};
  for (const trace::TraceKind k : kAll) {
    if (s == trace::short_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

namespace {

/// "line N: " prefix from a value's recorded source line (empty for built
/// documents, which carry line 0).
std::string at_line(const Json& v) {
  return v.line() > 0 ? "line " + std::to_string(v.line()) + ": " : "";
}

std::string quoted(std::string_view key) {
  std::string out(1, '"');
  out.append(key);
  out += '"';
  return out;
}

}  // namespace

// Every message reads "line N: <path>: message", with the line of the
// offending value (empty for built documents, which carry line 0).
bool SpecReader::fail(const Json& at, const std::string& msg) {
  if (err_ != nullptr) {
    *err_ = at_line(at) + (path_.empty() ? "" : path_ + ": ") + msg;
  }
  return false;
}

bool SpecReader::unknown(std::string_view key, const Json& v) {
  return fail(v, "unknown key " + quoted(key));
}

bool SpecReader::object(const Json& v) {
  return v.is_object() || fail(v, "must be an object");
}

bool SpecReader::num(const Json& v, std::string_view key, double& out) {
  if (v.kind() != Json::Kind::kNumber) return fail(v, quoted(key) + " must be a number");
  out = v.number_or(out);
  return true;
}

bool SpecReader::text(const Json& v, std::string_view key, std::string& out) {
  if (v.kind() != Json::Kind::kString) return fail(v, quoted(key) + " must be a string");
  out = v.string_or(out);
  return true;
}

bool SpecReader::boolean(const Json& v, std::string_view key, bool& out) {
  if (v.kind() != Json::Kind::kBool) {
    return fail(v, quoted(key) + " must be true or false");
  }
  out = v.bool_or(out);
  return true;
}

bool SpecReader::whole_in_range(double d, bool is_signed, int digits) {
  const double bound = std::ldexp(1.0, digits);
  // zlint-allow(float-equality): exact test for a whole number.
  return std::trunc(d) == d && d < bound && d >= (is_signed ? -bound : 0.0);
}

namespace {

/// Spec-only typed reads on top of SpecReader.
class Reader : public SpecReader {
 public:
  using SpecReader::SpecReader;

  bool prob(const Json& v, std::string_view key, double& out) {
    if (!num(v, key, out)) return false;
    return (out >= 0.0 && out <= 1.0) || fail(v, quoted(key) + " must be in [0, 1]");
  }

  /// Milliseconds >= 0 into a Duration.
  bool delay(const Json& v, std::string_view key, sim::Duration& out) {
    double ms = 0.0;
    if (!num(v, key, ms)) return false;
    if (ms < 0.0) return fail(v, quoted(key) + " must be >= 0");
    out = sim::Duration::from_seconds(ms / 1e3);
    return true;
  }
};

sim::TimePoint at_s(double seconds) {
  return sim::TimePoint::zero() + sim::Duration::from_seconds(seconds);
}

/// "[[start_s, end_s], ...]" windows (injector blackouts and fades).
bool parse_windows(const Json& v, Reader& r, std::vector<fault::Window>& out) {
  if (!v.is_array()) return r.fail(v, "windows must be [[start_s, end_s], ...]");
  for (const Json& w : v.array()) {
    const auto& a = w.array();
    if (!w.is_array() || a.size() != 2 || a[0].kind() != Json::Kind::kNumber ||
        a[1].kind() != Json::Kind::kNumber) {
      return r.fail(w, "windows must be [start_s, end_s] number pairs");
    }
    const double from = a[0].number_or(0.0);
    const double to = a[1].number_or(0.0);
    if (from < 0.0 || to <= from) {
      return r.fail(w, "window needs 0 <= start_s < end_s");
    }
    out.push_back(fault::Window{at_s(from), at_s(to)});
  }
  return true;
}

bool parse_burst(const Json& obj, const std::string& path,
                 fault::GilbertElliott& ge, std::string* err) {
  Reader r(path, err);
  if (!r.object(obj)) return false;
  for (const auto& [key, v] : obj.object()) {
    const bool ok = key == "p_enter_bad"  ? r.prob(v, key, ge.p_enter_bad)
                    : key == "p_exit_bad" ? r.prob(v, key, ge.p_exit_bad)
                    : key == "loss_good"  ? r.prob(v, key, ge.loss_good)
                    : key == "loss_bad"   ? r.prob(v, key, ge.loss_bad)
                                          : r.unknown(key, v);
    if (!ok) return false;
  }
  return true;
}

/// One injector boundary of the "faults" section.
bool parse_injector(const Json& obj, const std::string& path,
                    double duration_s, bool feedback_only,
                    fault::InjectorConfig& out, std::string* err) {
  Reader r(path, err);
  if (!r.object(obj)) return false;
  const Json* start_j = nullptr;
  const Json* end_j = nullptr;
  double start_s = 0.0;
  double end_s = duration_s;
  for (const auto& [key, v] : obj.object()) {
    bool ok = true;
    if (key == "loss_prob") ok = r.prob(v, key, out.loss_prob);
    else if (key == "dup_prob") ok = r.prob(v, key, out.dup_prob);
    else if (key == "reorder_prob") ok = r.prob(v, key, out.reorder_prob);
    else if (key == "spike_prob") ok = r.prob(v, key, out.spike_prob);
    else if (key == "reorder_delay_ms") ok = r.delay(v, key, out.reorder_delay);
    else if (key == "spike_delay_ms") ok = r.delay(v, key, out.spike_delay);
    else if (key == "fade_delay_ms") ok = r.delay(v, key, out.fade_delay);
    else if (key == "start_s") ok = (start_j = &v, r.num(v, key, start_s));
    else if (key == "end_s") ok = (end_j = &v, r.num(v, key, end_s));
    else if (key == "burst") ok = parse_burst(v, path + ".burst", out.burst, err);
    else if (key == "blackouts") ok = parse_windows(v, r, out.blackouts);
    else if (key == "fades") ok = parse_windows(v, r, out.fades);
    else ok = r.unknown(key, v);
    if (!ok) return false;
  }
  // Optional active window [start_s, end_s) for the probabilistic faults;
  // defaults span the whole run. Only materialised when a bound is given,
  // so an unwindowed boundary keeps `active` empty (always-on semantics).
  if (start_j != nullptr || end_j != nullptr) {
    if (start_s < 0.0) return r.fail(*start_j, "\"start_s\" must be >= 0");
    if (end_s <= start_s) {
      return r.fail(end_j != nullptr ? *end_j : *start_j,
                    "\"end_s\" must be > start_s");
    }
    out.active = {fault::Window{at_s(start_s), at_s(end_s)}};
  }
  // The control-loop boundaries impair feedback only; the engine forces
  // this again at build time, setting it here keeps a parsed config
  // faithful when used directly.
  out.only_feedback = feedback_only;
  return true;
}

/// The "faults" section: six injector boundaries plus the scheduled
/// non-packet faults (AP clock jumps and optimiser restarts).
bool parse_faults(const Json& obj, double duration_s, fault::FaultPlan& plan,
                  std::string* err) {
  Reader r("faults", err);
  if (!r.object(obj)) return false;
  for (const auto& [key, v] : obj.object()) {
    const std::string path = "faults." + key;
    bool ok = true;
    if (key == "downlink_wan") {
      ok = parse_injector(v, path, duration_s, false, plan.downlink_wan, err);
    } else if (key == "uplink_wireless") {
      ok = parse_injector(v, path, duration_s, false, plan.uplink_wireless, err);
    } else if (key == "downlink_wireless") {
      ok = parse_injector(v, path, duration_s, false, plan.downlink_wireless, err);
    } else if (key == "uplink_wan") {
      ok = parse_injector(v, path, duration_s, false, plan.uplink_wan, err);
    } else if (key == "ap_feedback") {
      ok = parse_injector(v, path, duration_s, true, plan.ap_feedback, err);
    } else if (key == "uplink_rtcp") {
      ok = parse_injector(v, path, duration_s, true, plan.uplink_rtcp, err);
    } else if (key == "clock_jumps" && v.is_array()) {
      for (const Json& j : v.array()) {
        Reader jr(path, err);
        double at = -1.0;
        double delta_ms = 0.0;
        if (!jr.object(j)) return false;
        for (const auto& [jkey, jv] : j.object()) {
          const bool jok = jkey == "at_s"       ? jr.num(jv, jkey, at)
                           : jkey == "delta_ms" ? jr.num(jv, jkey, delta_ms)
                                                : jr.unknown(jkey, jv);
          if (!jok) return false;
        }
        if (at < 0.0) return jr.fail(j, "\"at_s\" must be given and >= 0");
        plan.clock_jumps.push_back(
            fault::ClockJump{at_s(at), sim::Duration::from_seconds(delta_ms / 1e3)});
      }
    } else if (key == "ap_restarts_s" && v.is_array()) {
      for (const Json& t : v.array()) {
        if (t.kind() != Json::Kind::kNumber || t.number_or(-1.0) < 0.0) {
          return r.fail(t, "\"ap_restarts_s\" entries must be numbers >= 0");
        }
        plan.ap_restarts.push_back(at_s(t.number_or(0.0)));
      }
    } else if (key == "clock_jumps" || key == "ap_restarts_s") {
      ok = r.fail(v, quoted(key) + " must be an array");
    } else {
      ok = r.unknown(key, v);
    }
    if (!ok) return false;
  }
  return true;
}

/// A station group's "trace": a class name, an object giving a class with
/// an explicit seed, or a fixed rate with an optional step.
bool parse_station_trace(const Json& v, const std::string& path,
                         StationGroupSpec& g, std::string* err) {
  Reader r(path, err);
  constexpr const char* kClasses = "W1|W2|C1|C2|C3|ETH|ABC";
  trace::TraceKind kind{};
  if (v.kind() == Json::Kind::kString) {
    if (!parse_trace_class(v.string_or(""), kind)) {
      return r.fail(v, std::string("must be ") + kClasses);
    }
    g.trace_class = kind;
    return true;
  }
  if (!r.object(v)) return false;
  const Json* to_j = nullptr;
  const Json* at_j = nullptr;
  RateTraceSpec& t = g.rate_trace;
  for (const auto& [key, kv] : v.object()) {
    bool ok = true;
    if (key == "class") {
      ok = r.choice(kv, key, parse_trace_class, kind, kClasses);
      g.trace_class = kind;
    } else if (key == "seed") {
      std::uint64_t seed = 0;
      ok = r.integer(kv, key, seed);
      g.trace_seed = seed;
    } else if (key == "mbps") {
      ok = r.num(kv, key, t.mbps) && (t.mbps > 0.0 || r.fail(kv, "\"mbps\" must be > 0"));
    } else if (key == "to_mbps") {
      ok = (to_j = &kv, r.num(kv, key, t.to_mbps));
    } else if (key == "at_s") {
      ok = (at_j = &kv, r.num(kv, key, t.at_s));
    } else {
      ok = r.unknown(key, kv);
    }
    if (!ok) return false;
  }
  if (g.trace_class.has_value() == (t.mbps > 0.0)) {
    return r.fail(v, "needs exactly one of \"class\", \"mbps\"");
  }
  if (g.trace_seed.has_value() && !g.trace_class.has_value()) {
    return r.fail(v, "\"seed\" applies to a \"class\" trace");
  }
  if ((to_j != nullptr || at_j != nullptr) &&
      (to_j == nullptr || at_j == nullptr || t.to_mbps <= 0.0 || t.at_s < 0.0 ||
       g.trace_class.has_value())) {
    return r.fail(v, "a step needs \"mbps\", \"to_mbps\" > 0 and \"at_s\" >= 0");
  }
  return true;
}

bool parse_fade(const Json& obj, const std::string& path, FadeSpec& fade,
                std::string* err) {
  Reader r(path, err);
  if (!r.object(obj)) return false;
  for (const auto& [key, v] : obj.object()) {
    const bool ok = key == "period_s"    ? r.num(v, key, fade.period_s)
                    : key == "depth_mcs" ? r.integer(v, key, fade.depth_mcs)
                    : key == "duty"      ? r.num(v, key, fade.duty)
                                         : r.unknown(key, v);
    if (!ok) return false;
  }
  if (fade.period_s < 0 || fade.duty < 0 || fade.duty > 1) {
    return r.fail(obj, "period_s >= 0, duty in [0,1]");
  }
  return true;
}

bool parse_station(const Json& sj, const std::string& path,
                   StationGroupSpec& g, std::string* err) {
  Reader r(path, err);
  if (!r.object(sj)) return false;
  for (const auto& [key, v] : sj.object()) {
    bool ok = true;
    if (key == "count") {
      // Bounded so that summing the groups' counts cannot overflow.
      ok = r.integer(v, key, g.count) &&
           ((g.count >= 1 && g.count <= 1024) ||
            r.fail(v, "count must be in [1, 1024]"));
    } else if (key == "mcs") {
      ok = r.integer(v, key, g.mcs) &&
           ((g.mcs >= 0 && g.mcs <= 7) || r.fail(v, "mcs must be 0..7"));
    } else if (key == "qdisc") {
      ok = r.choice(v, key, parse_qdisc_kind, g.qdisc, "fifo|codel|fq_codel");
    } else if (key == "link") {
      ok = r.choice(v, key, parse_link_kind, g.link, "wifi|cellular");
    } else if (key == "queue_limit_pkts") {
      double pkts = 0.0;
      ok = r.num(v, key, pkts) &&
           (pkts >= 1.0 || r.fail(v, "queue_limit_pkts must be >= 1"));
      g.queue_limit_bytes = static_cast<std::int64_t>(pkts * 1500.0);
    } else if (key == "leave_s") {
      ok = r.num(v, key, g.leave_s);
    } else if (key == "trace") {
      ok = parse_station_trace(v, path + ".trace", g, err);
    } else if (key == "fade") {
      ok = parse_fade(v, path + ".fade", g.fade, err);
    } else {
      ok = r.unknown(key, v);
    }
    if (!ok) return false;
  }
  return true;
}

bool parse_flow(const Json& fj, const std::string& path, int n_stations,
                SpecFlow& f, std::string* err) {
  Reader r(path, err);
  if (!r.object(fj)) return false;
  const Json* onoff = nullptr;
  for (const auto& [key, v] : fj.object()) {
    bool ok = true;
    if (key == "kind") {
      ok = r.choice(v, key, parse_flow_kind, f.kind,
                    "rtp_gcc|tcp_cubic|tcp_bbr|tcp_abc|tcp_copa|tcp_bulk");
    } else if (key == "station") {
      ok = r.integer(v, key, f.station) &&
           ((f.station >= 0 && f.station < n_stations) ||
            r.fail(v, "station out of range"));
    } else if (key == "zhuge") {
      ok = r.boolean(v, key, f.zhuge);
    } else if (key == "start_s") {
      ok = r.num(v, key, f.start_s);
    } else if (key == "stop_s") {
      ok = r.num(v, key, f.stop_s);
    } else if (key == "max_bitrate_mbps") {
      ok = r.num(v, key, f.max_bitrate_mbps) &&
           (f.max_bitrate_mbps > 0 || r.fail(v, "max_bitrate_mbps must be > 0"));
    } else if (key == "fps") {
      ok = r.num(v, key, f.fps) && (f.fps > 0 || r.fail(v, "fps must be > 0"));
    } else if (key == "onoff") {
      ok = (onoff = &v, r.boolean(v, key, f.onoff));
    } else {
      ok = r.unknown(key, v);
    }
    if (!ok) return false;
  }
  if (onoff != nullptr && f.onoff && f.kind != SpecFlowKind::kTcpBulk) {
    return r.fail(*onoff, "onoff only applies to tcp_bulk");
  }
  return true;
}

bool parse_churn(const Json& cj, ChurnSpec& c, std::string* err) {
  Reader r("churn", err);
  if (!r.object(cj)) return false;
  c.enabled = true;
  for (const auto& [key, v] : cj.object()) {
    bool ok = true;
    if (key == "enabled") ok = r.boolean(v, key, c.enabled);
    else if (key == "mean_interarrival_s") ok = r.num(v, key, c.mean_interarrival_s);
    else if (key == "mean_lifetime_s") ok = r.num(v, key, c.mean_lifetime_s);
    else if (key == "max_lifetime_s") ok = r.num(v, key, c.max_lifetime_s);
    else if (key == "max_concurrent") ok = r.integer(v, key, c.max_concurrent);
    else if (key == "mix_rtp_gcc") ok = r.num(v, key, c.mix_rtp_gcc);
    else if (key == "mix_tcp_cubic") ok = r.num(v, key, c.mix_tcp_cubic);
    else if (key == "mix_tcp_bbr") ok = r.num(v, key, c.mix_tcp_bbr);
    else if (key == "zhuge_fraction") ok = r.num(v, key, c.zhuge_fraction);
    else if (key == "start_s") ok = r.num(v, key, c.start_s);
    else if (key == "stop_s") ok = r.num(v, key, c.stop_s);
    else if (key == "max_bitrate_mbps") ok = r.num(v, key, c.max_bitrate_mbps);
    else if (key == "fps") ok = r.num(v, key, c.fps);
    else ok = r.unknown(key, v);
    if (!ok) return false;
  }
  if (c.mean_interarrival_s <= 0 || c.mean_lifetime_s <= 0 ||
      c.max_concurrent < 1) {
    return r.fail(cj, "interarrival/lifetime > 0, max_concurrent >= 1");
  }
  if (c.mix_rtp_gcc < 0 || c.mix_tcp_cubic < 0 || c.mix_tcp_bbr < 0 ||
      c.mix_rtp_gcc + c.mix_tcp_cubic + c.mix_tcp_bbr <= 0) {
    return r.fail(cj, "mix_* weights must be >= 0 and sum to > 0");
  }
  return true;
}

bool parse_ladder(const std::string& s, obs::LadderLevel& out) {
  return obs::parse_ladder_level(s, &out);
}

}  // namespace

std::optional<ScenarioSpec> parse_scenario_spec(std::string_view text,
                                                std::string* err) {
  std::string jerr;
  const auto doc = Json::parse(text, &jerr);
  if (!doc.has_value()) {
    if (err != nullptr) *err = jerr;
    return std::nullopt;
  }

  ScenarioSpec spec;
  Reader r("", err);
  const auto fail = [&r](const Json& at, const std::string& msg) {
    r.fail(at, msg);
    return std::optional<ScenarioSpec>{};
  };
  if (!r.object(*doc)) return std::nullopt;
  // Sections that depend on other keys (station count, run length) are
  // parsed after the pass, in dependency order.
  const Json* stations = nullptr;
  const Json* flows = nullptr;
  const Json* churn = nullptr;
  const Json* faults = nullptr;
  for (const auto& [key, v] : doc->object()) {
    bool ok = true;
    if (key == "name") {
      ok = r.text(v, key, spec.name);
    } else if (key == "duration_s") {
      ok = r.num(v, key, spec.duration_s);
    } else if (key == "warmup_s") {
      ok = r.num(v, key, spec.warmup_s);
    } else if (key == "seed") {
      ok = r.integer(v, key, spec.seed);
    } else if (key == "ap_mode") {
      ok = r.choice(v, key, parse_ap_mode, spec.ap_mode, "none|zhuge|fastack|abc");
    } else if (key == "wan_one_way_ms") {
      ok = r.num(v, key, spec.wan_one_way_ms);
    } else if (key == "wan_rate_mbps") {
      ok = r.num(v, key, spec.wan_rate_mbps);
    } else if (key == "interferers") {
      ok = r.integer(v, key, spec.interferers) &&
           (spec.interferers >= 0 || r.fail(v, "interferers must be >= 0"));
    } else if (key == "mcs_reroll") {
      ok = r.boolean(v, key, spec.mcs_reroll);
    } else if (key == "series") {
      ok = r.boolean(v, key, spec.series);
    } else if (key == "zhuge_initial_ladder") {
      ok = r.choice(v, key, parse_ladder, spec.zhuge.watchdog.initial_level,
                    "full|clamped_predict|hold_only|pass_through");
    } else if (key == "stations") {
      stations = &v;
    } else if (key == "flows") {
      flows = &v;
    } else if (key == "churn") {
      churn = &v;
    } else if (key == "faults") {
      faults = &v;
    } else {
      ok = r.unknown(key, v);
    }
    if (!ok) return std::nullopt;
  }
  if (spec.duration_s <= 0) return fail(*doc, "duration_s must be > 0");
  if (spec.warmup_s < 0 || spec.warmup_s >= spec.duration_s) {
    return fail(*doc, "warmup_s must be in [0, duration_s)");
  }
  if (spec.wan_one_way_ms < 0 || spec.wan_rate_mbps <= 0) {
    return fail(*doc, "wan_one_way_ms must be >= 0 and wan_rate_mbps > 0");
  }

  if (stations == nullptr || !stations->is_array() ||
      stations->array().empty()) {
    return fail(stations != nullptr ? *stations : *doc,
                "spec needs a non-empty \"stations\" array");
  }
  for (const auto& sj : stations->array()) {
    StationGroupSpec g;
    const std::string path =
        "stations[" + std::to_string(spec.stations.size()) + "]";
    if (!parse_station(sj, path, g, err)) return std::nullopt;
    spec.stations.push_back(g);
  }
  const int n_stations = spec.station_count();

  if (flows != nullptr) {
    if (!flows->is_array()) return fail(*flows, "\"flows\" must be an array");
    for (const auto& fj : flows->array()) {
      SpecFlow f;
      const std::string path = "flows[" + std::to_string(spec.flows.size()) + "]";
      if (!parse_flow(fj, path, n_stations, f, err)) return std::nullopt;
      spec.flows.push_back(f);
    }
  }
  if (churn != nullptr && !parse_churn(*churn, spec.churn, err)) {
    return std::nullopt;
  }
  if (faults != nullptr) {
    fault::FaultPlan plan;
    if (!parse_faults(*faults, spec.duration_s, plan, err)) return std::nullopt;
    spec.faults = std::make_shared<const fault::FaultPlan>(std::move(plan));
  }
  return spec;
}

std::optional<ScenarioSpec> load_scenario_spec(const std::string& path,
                                               std::string* err) {
  std::ifstream in(path);
  if (!in) {
    if (err != nullptr) *err = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  auto spec = parse_scenario_spec(ss.str(), err);
  if (!spec.has_value() && err != nullptr) *err = path + ": " + *err;
  return spec;
}

// ---------------------------------------------------------------------------
// Schedule expansion
// ---------------------------------------------------------------------------

std::vector<FlowEvent> expand_flow_schedule(const ScenarioSpec& spec,
                                            std::uint64_t seed) {
  std::vector<FlowEvent> out;
  const double end = spec.duration_s;

  for (const auto& f : spec.flows) {
    FlowEvent ev;
    ev.index = static_cast<std::uint32_t>(out.size());
    ev.kind = f.kind;
    ev.station = f.station;
    ev.zhuge = f.zhuge;
    ev.start_s = std::max(0.0, f.start_s);
    ev.stop_s = f.stop_s < 0 ? end : std::min(f.stop_s, end);
    ev.max_bitrate_mbps = f.max_bitrate_mbps;
    ev.fps = f.fps;
    ev.onoff = f.onoff;
    if (ev.start_s < ev.stop_s && ev.start_s < end) out.push_back(ev);
  }

  const ChurnSpec& c = spec.churn;
  if (!c.enabled) return out;

  // Dedicated substream: the same spec on a different seed gets a different
  // schedule, and the main scenario RNG (kScenarioMain/kScenarioAux)
  // never shifts.
  sim::Rng rng(seed, sim::substreams::kSpecFlowChurn);
  const int n_stations = spec.station_count();
  const double churn_end = c.stop_s < 0 ? end : std::min(c.stop_s, end);
  const double w_total = c.mix_rtp_gcc + c.mix_tcp_cubic + c.mix_tcp_bbr;

  // Admitted churn windows, for the concurrency cap.
  std::vector<std::pair<double, double>> admitted;

  double t = c.start_s;
  while (true) {
    // Fixed draw order per arrival; all five draws happen whether or not
    // the arrival is admitted (see header).
    t += rng.exponential(c.mean_interarrival_s);
    const double lifetime =
        std::min(rng.exponential(c.mean_lifetime_s), c.max_lifetime_s);
    const double kind_roll = rng.uniform() * w_total;
    const int station = static_cast<int>(
        rng.uniform_int(static_cast<std::uint32_t>(n_stations)));
    const bool zhuge = rng.chance(c.zhuge_fraction);
    if (t >= churn_end) break;

    int concurrent = 0;
    for (const auto& [s, e] : admitted) {
      if (s <= t && t < e) ++concurrent;
    }
    if (concurrent >= c.max_concurrent) continue;

    FlowEvent ev;
    ev.index = static_cast<std::uint32_t>(out.size());
    ev.kind = kind_roll < c.mix_rtp_gcc ? SpecFlowKind::kRtpGcc
              : kind_roll < c.mix_rtp_gcc + c.mix_tcp_cubic
                  ? SpecFlowKind::kTcpCubic
                  : SpecFlowKind::kTcpBbr;
    ev.station = station;
    ev.zhuge = ev.kind == SpecFlowKind::kRtpGcc && zhuge;
    ev.start_s = t;
    ev.stop_s = std::min(t + std::max(lifetime, 0.1), end);
    ev.max_bitrate_mbps = c.max_bitrate_mbps;
    ev.fps = c.fps;
    if (ev.start_s < ev.stop_s) {
      admitted.emplace_back(ev.start_s, ev.stop_s);
      out.push_back(ev);
    }
  }
  return out;
}

}  // namespace zhuge::app
