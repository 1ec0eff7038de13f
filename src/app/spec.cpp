#include "app/spec.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "app/eval.hpp"
#include "obs/slo.hpp"
#include "sim/random.hpp"
#include "sim/substreams.hpp"

namespace zhuge::app {

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

SpecReader SpecReader::child(std::string_view key) const {
  std::string path(key);
  return {path_.empty() ? path : path_ + "." + path, err_};
}

// Every message reads "line N: <path>: message", with the line of the
// offending value (empty for built documents, which carry line 0).
bool SpecReader::fail(const Json& at, const std::string& msg) {
  if (err_ != nullptr) {
    *err_ = at_line(at) + (path_.empty() ? "" : path_ + ": ") + msg;
  }
  return false;
}

bool SpecReader::must_be(const Json& at, std::string_view key,
                         std::string_view what) {
  return fail(at, quoted(key) + " must be " + std::string(what));
}

bool SpecReader::unknown(std::string_view key, const Json& v) {
  return fail(v, "unknown key " + quoted(key));
}

bool SpecReader::object(const Json& v) {
  return v.is_object() || fail(v, "must be an object");
}

bool SpecReader::num(const Json& v, std::string_view key, double& out) {
  if (v.kind() != Json::Kind::kNumber) return must_be(v, key, "a number");
  out = v.number_or(out);
  return true;
}

bool SpecReader::text(const Json& v, std::string_view key, std::string& out) {
  if (v.kind() != Json::Kind::kString) return must_be(v, key, "a string");
  out = v.string_or(out);
  return true;
}

bool SpecReader::boolean(const Json& v, std::string_view key, bool& out) {
  if (v.kind() != Json::Kind::kBool) return must_be(v, key, "true or false");
  out = v.bool_or(out);
  return true;
}

bool SpecReader::whole_in_range(double d, bool is_signed, int digits) {
  const double bound = std::ldexp(1.0, digits);
  // zlint-allow(float-equality): exact test for a whole number.
  return std::trunc(d) == d && d < bound && d >= (is_signed ? -bound : 0.0);
}

// ---------------------------------------------------------------------------
// Key tables: a row names one JSON key, the member it sets, its codec and,
// for a number, its range. read_keys reads an object through its table
// (found by a scan, nothing built per parse); write_keys writes every
// member that is not at its default. Rules across keys are checks after
// the pass.
// ---------------------------------------------------------------------------

namespace {

// Each enum's one name table, indexed by the enum's value: it parses,
// prints and spells the "must be a|b|c" message. TraceKind's and
// LadderLevel's live with their enums.
constexpr const char* kFlowKindNames[] = {"rtp_gcc",  "tcp_cubic", "tcp_bbr",
                                          "tcp_abc",  "tcp_copa",  "tcp_bulk"};
constexpr const char* kQdiscNames[] = {"fifo", "codel", "fq_codel"};
constexpr const char* kLinkNames[] = {"wifi", "cellular"};
// Shipped files spell ApMode::kNone both ways: "none" as a scenario's
// ap_mode, "vanilla" on the eval mechanisms axis.
constexpr const char* kApModeNames[] = {"none", "zhuge", "fastack", "abc"};
constexpr const char* kMechanismNames[] = {"vanilla", "zhuge", "fastack",
                                           "abc"};
constexpr const char* kCcaNames[] = {"gcc", "cubic", "bbr"};
using obs::kLadderLevelNames;
using trace::kTraceKindNames;

template <typename Names>
std::string joined_names(const Names& names) {
  std::string out;
  for (const char* n : names) {
    if (!out.empty()) out += '|';
    out += n;
  }
  return out;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Upper bound of every time key: far above the longest shipped run
/// (300 s), and low enough that any accepted time fits int64 nanoseconds.
constexpr double kMaxSeconds = 1e6;
constexpr double kMaxMillis = kMaxSeconds * 1e3;

/// The values a numeric key accepts: [lo, hi], or (lo, hi] when `lo_open`.
/// A value below names the lower bound, one above the whole range.
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;

  [[nodiscard]] constexpr bool contains(double x) const {
    return (lo_open ? x > lo : x >= lo) && x <= hi;
  }
  [[nodiscard]] std::string describe(double x) const {
    std::string lo_text;
    std::string hi_text;
    obs::append_json_number(lo_text, lo);
    obs::append_json_number(hi_text, hi);
    if (lo_open ? x <= lo : x < lo) return (lo_open ? "> " : ">= ") + lo_text;
    return "in [" + lo_text + ", " + hi_text + "]";
  }
};

constexpr Range from(double lo, double hi = kInf) { return {lo, hi}; }
constexpr Range above(double lo, double hi = kInf) { return {lo, hi, true}; }

constexpr Range kProb = from(0, 1);
constexpr Range kTime = from(0, kMaxSeconds);
/// A time where -1 means "not set": the run end, no departure, no step.
constexpr Range kTimeOrUnset = from(-1, kMaxSeconds);
constexpr Range kDelayMs = from(0, kMaxMillis);
/// Rates in Mbps: the floor keeps a packet's serialization time, or a
/// pacing interval, inside the time range.
constexpr Range kRateMbps = from(1e-3, 1e6);
/// Frames per second: the floor keeps the frame interval under 1000 s.
constexpr Range kFps = from(1e-3, 1e3);

bool check_range(SpecReader& r, const Json& v, std::string_view key,
                 const Range& range, double x) {
  return range.contains(x) || r.must_be(v, key, range.describe(x));
}

sim::TimePoint at_s(double seconds) {
  return sim::TimePoint::zero() + sim::Duration::from_seconds(seconds);
}

/// What a row's codec sees of it.
struct KeyInfo {
  std::string_view name;
  Range range{};          ///< a list's range applies to each element
  bool required = false;  ///< absent is an error; always written
};

template <typename T>
struct SpecKey {
  KeyInfo info;
  bool (*read)(const KeyInfo&, SpecReader&, const Json&, T&);
  void (*write)(const KeyInfo&, const T&, Json&);
};

template <typename T, std::size_t N>
bool read_keys(SpecReader& r, const Json& obj, const SpecKey<T> (&keys)[N],
               T& out) {
  if (!r.object(obj)) return false;
  for (const auto& [name, v] : obj.object()) {
    const SpecKey<T>* row = std::find_if(keys, keys + N, [&](const auto& k) {
      return k.info.name == name;
    });
    if (row == keys + N) return r.unknown(name, v);
    if (!row->read(row->info, r, v, out)) return false;
  }
  for (const SpecKey<T>& k : keys) {
    if (k.info.required && obj.find(k.info.name) == nullptr) {
      return r.must_be(obj, k.info.name, "given");
    }
  }
  return true;
}

template <typename T, std::size_t N>
Json write_keys(const T& t, const SpecKey<T> (&keys)[N]) {
  Json out = Json::make_object();
  for (const SpecKey<T>& k : keys) k.write(k.info, t, out);
  return out;
}

template <typename T, typename M>
T owner_of(M T::*);

/// A row of T: the member at `Path` (a member pointer, or a chain of them
/// into a nested struct) through `Codec`.
template <typename T, typename Codec, auto... Path>
struct Member {
  static auto& at(auto& t) { return (t .* ... .* Path); }
  static bool read(const KeyInfo& k, SpecReader& r, const Json& v, T& t) {
    return Codec::read(k, r, v, at(t));
  }
  static void write(const KeyInfo& k, const T& t, Json& out) {
    static const T kDefaults{};
    const auto& member = at(t);
    if (k.required || !(member == at(kDefaults))) {
      out.set(std::string(k.name), Codec::write(member));
    }
  }
};

template <typename Codec, auto First, auto... Rest>
constexpr auto key(std::string_view name, Range range = {},
                   bool required = false) {
  using T = decltype(owner_of(First));
  using Row = Member<T, Codec, First, Rest...>;
  return SpecKey<T>{{name, range, required}, &Row::read, &Row::write};
}

// ---- Codecs ---------------------------------------------------------------

/// A number in the row's range, converted by `From` and back by `To`.
template <auto From, auto To>
struct Converted {
  template <typename X>
  static bool read(const KeyInfo& k, SpecReader& r, const Json& v, X& out) {
    double d = 0.0;
    if (!r.num(v, k.name, d) || !check_range(r, v, k.name, k.range, d)) {
      return false;
    }
    out = From(d);
    return true;
  }
  static std::string expected(const Range& range, const Json& v) {
    return "numbers " + range.describe(v.number_or(range.lo - 1));
  }
  template <typename X>
  static Json write(const X& x) { return Json::make_number(To(x)); }
};

constexpr auto kSame = [](double d) { return d; };
using Number = Converted<kSame, kSame>;
using Millis =
    Converted<[](double ms) { return sim::Duration::from_millis(ms); },
              [](sim::Duration d) { return d.to_millis(); }>;
using Seconds =
    Converted<at_s, [](sim::TimePoint t) { return t.to_seconds(); }>;
/// "queue_limit_pkts": a depth in 1500-byte packets, kept in bytes.
using Packets = Converted<
    [](double pkts) { return static_cast<std::int64_t>(pkts * 1500.0); },
    [](std::int64_t bytes) { return static_cast<double>(bytes) / 1500.0; }>;

struct Integer {
  template <typename I>
  static bool read(const KeyInfo& k, SpecReader& r, const Json& v, I& out) {
    return r.integer(v, k.name, out) &&
           check_range(r, v, k.name, k.range, static_cast<double>(out));
  }
  static std::string expected(const Range& range, const Json& /*v*/) {
    return "integers " + range.describe(range.hi);
  }
  template <typename I>
  static Json write(I x) { return Json::make_number(static_cast<double>(x)); }
};

/// A bool or a string, read by SpecReader's `Read` and written by `Make`.
template <auto Read, auto Make>
struct Scalar {
  template <typename X>
  static bool read(const KeyInfo& k, SpecReader& r, const Json& v, X& x) {
    return (r.*Read)(v, k.name, x);
  }
  template <typename X>
  static Json write(const X& x) { return Make(x); }
};
using Boolean = Scalar<&SpecReader::boolean, &Json::make_bool>;
using Text = Scalar<&SpecReader::text, &Json::make_string>;

/// One of the names of an enum's table.
template <const auto& Names>
struct Choice {
  template <typename E>
  static bool read(const KeyInfo& k, SpecReader& r, const Json& v, E& out) {
    const std::string s = v.string_or("");
    for (std::size_t i = 0; i < std::size(Names); ++i) {
      if (s == Names[i]) {
        out = static_cast<E>(i);
        return true;
      }
    }
    const std::string name(k.name);
    return r.fail(v, (name.empty() ? "" : name + " ") + "must be " +
                         joined_names(Names));
  }
  static std::string expected(const Range& /*range*/, const Json& /*v*/) {
    return joined_names(Names);
  }
  template <typename E>
  static Json write(E x) {
    return Json::make_string(Names[static_cast<std::size_t>(x)]);
  }
};

/// An optional member (a trace class or seed): its value through `Codec`.
template <typename Codec>
struct Optional {
  template <typename X>
  static bool read(const KeyInfo& k, SpecReader& r, const Json& v,
                   std::optional<X>& out) {
    return Codec::read(k, r, v, out.emplace());
  }
  template <typename X>
  static Json write(const std::optional<X>& x) { return Codec::write(*x); }
};

/// One [start_s, end_s] pair of a window list (injector blackouts, fades).
struct Span {
  static bool read(const KeyInfo& /*k*/, SpecReader& /*r*/, const Json& v,
                   fault::Window& w) {
    const auto& a = v.array();
    const double start = a.size() == 2 ? a[0].number_or(-1.0) : -1.0;
    const double end = a.size() == 2 ? a[1].number_or(-1.0) : -1.0;
    if (!(start >= 0.0 && start < end && end <= kMaxSeconds)) return false;
    w = fault::Window{at_s(start), at_s(end)};
    return true;
  }
  static std::string expected(const Range& /*range*/, const Json& /*v*/) {
    return "[start_s, end_s] with 0 <= start_s < end_s <= 1000000";
  }
  static Json write(const fault::Window& w) {
    Json pair = Json::make_array();
    pair.push(Seconds::write(w.start));
    pair.push(Seconds::write(w.end));
    return pair;
  }
};

/// A non-empty array of values, each read by `Elem` within the row's
/// range, replacing the default list. A bad element names the array, not
/// the object path: "key[] must be ...".
template <typename Elem>
struct ValueList {
  template <typename X>
  static bool read(const KeyInfo& k, SpecReader& r, const Json& v,
                   std::vector<X>& out) {
    if (!v.is_array() || v.array().empty()) {
      return r.must_be(v, k.name, "a non-empty array");
    }
    out.clear();
    SpecReader quiet("", nullptr);
    for (const Json& e : v.array()) {
      if (!Elem::read(k, quiet, e, out.emplace_back())) {
        return r.root().fail(e, std::string(k.name) + "[] must be " +
                                    Elem::expected(k.range, e));
      }
    }
    return true;
  }
  template <typename X>
  static Json write(const std::vector<X>& xs) {
    Json out = Json::make_array();
    for (const X& x : xs) out.push(Elem::write(x));
    return out;
  }
};

constexpr auto kNoCheck = [](SpecReader&, const Json&, const auto&) {
  return true;
};

/// A nested object, read through its own table and then `Check`ed.
template <const auto& Keys, auto Check = kNoCheck>
struct Object {
  template <typename U>
  static bool read_in(SpecReader& r, const Json& v, U& out) {
    return read_keys(r, v, Keys, out) && Check(r, v, out);
  }
  template <typename U>
  static bool read(const KeyInfo& k, SpecReader& r, const Json& v, U& out) {
    SpecReader child = r.child(k.name);
    return read_in(child, v, out);
  }
  template <typename U>
  static Json write(const U& x) { return write_keys(x, Keys); }
};

/// An array of nested objects; element i reads with the path "key[i]".
template <const auto& Keys, auto Check = kNoCheck>
struct ObjectList : ValueList<Object<Keys>> {
  template <typename U>
  static bool read(const KeyInfo& k, SpecReader& r, const Json& v,
                   std::vector<U>& out) {
    if (!v.is_array()) return r.must_be(v, k.name, "an array");
    for (const Json& e : v.array()) {
      SpecReader child = r.child(std::string(k.name).append("[").append(
          std::to_string(out.size())).append("]"));
      if (!Object<Keys, Check>::read_in(child, e, out.emplace_back())) {
        return false;
      }
    }
    return true;
  }
};

// ---- Faults ---------------------------------------------------------------

using fault::FaultPlan;
using fault::GilbertElliott;
using fault::InjectorConfig;

constexpr SpecKey<GilbertElliott> kBurstKeys[] = {
    key<Number, &GilbertElliott::p_enter_bad>("p_enter_bad", kProb),
    key<Number, &GilbertElliott::p_exit_bad>("p_exit_bad", kProb),
    key<Number, &GilbertElliott::loss_good>("loss_good", kProb),
    key<Number, &GilbertElliott::loss_bad>("loss_bad", kProb),
};

/// An injector's "start_s" or "end_s": a bound of the one `active` window
/// of its probabilistic faults, else open from 0 to past any run's end.
template <bool kEnd>
struct ActiveBound {
  static bool read(const KeyInfo& k, SpecReader& r, const Json& v,
                   std::vector<fault::Window>& active) {
    if (active.empty()) active = {{at_s(0), at_s(kMaxSeconds)}};
    fault::Window& w = active.front();
    return Seconds::read(k, r, v, kEnd ? w.end : w.start) &&
           (w.start < w.end || r.fail(v, "\"end_s\" must be > start_s"));
  }
  static Json write(const std::vector<fault::Window>& active) {
    return Seconds::write(kEnd ? active.front().end : active.front().start);
  }
};

// only_feedback has no key: the engine sets it on the two control-loop
// boundaries when it builds their injectors.
constexpr SpecKey<InjectorConfig> kInjectorKeys[] = {
    key<Number, &InjectorConfig::loss_prob>("loss_prob", kProb),
    key<Number, &InjectorConfig::dup_prob>("dup_prob", kProb),
    key<Number, &InjectorConfig::reorder_prob>("reorder_prob", kProb),
    key<Number, &InjectorConfig::spike_prob>("spike_prob", kProb),
    key<Millis, &InjectorConfig::reorder_delay>("reorder_delay_ms", kDelayMs),
    key<Millis, &InjectorConfig::spike_delay>("spike_delay_ms", kDelayMs),
    key<Millis, &InjectorConfig::fade_delay>("fade_delay_ms", kDelayMs),
    key<ActiveBound<false>, &InjectorConfig::active>("start_s", kTime),
    key<ActiveBound<true>, &InjectorConfig::active>("end_s", kTime),
    key<Object<kBurstKeys>, &InjectorConfig::burst>("burst"),
    key<ValueList<Span>, &InjectorConfig::blackouts>("blackouts"),
    key<ValueList<Span>, &InjectorConfig::fades>("fades"),
};
using Injector = Object<kInjectorKeys>;

constexpr SpecKey<fault::ClockJump> kClockJumpKeys[] = {
    key<Seconds, &fault::ClockJump::at>("at_s", kTime, /*required=*/true),
    key<Millis, &fault::ClockJump::delta>("delta_ms",
                                         from(-kMaxMillis, kMaxMillis)),
};

/// Six injector boundaries, AP clock jumps and optimiser restarts.
constexpr SpecKey<FaultPlan> kFaultKeys[] = {
    key<Injector, &FaultPlan::downlink_wan>("downlink_wan"),
    key<Injector, &FaultPlan::uplink_wireless>("uplink_wireless"),
    key<Injector, &FaultPlan::downlink_wireless>("downlink_wireless"),
    key<Injector, &FaultPlan::uplink_wan>("uplink_wan"),
    key<Injector, &FaultPlan::ap_feedback>("ap_feedback"),
    key<Injector, &FaultPlan::uplink_rtcp>("uplink_rtcp"),
    key<ObjectList<kClockJumpKeys>, &FaultPlan::clock_jumps>("clock_jumps"),
    key<ValueList<Seconds>, &FaultPlan::ap_restarts>("ap_restarts_s", kTime),
};

struct Faults {
  static bool read(const KeyInfo& k, SpecReader& r, const Json& v,
                   SharedFaultPlan& out) {
    fault::FaultPlan plan;
    if (!Object<kFaultKeys>::read(k, r, v, plan)) return false;
    out = std::make_shared<const fault::FaultPlan>(std::move(plan));
    return true;
  }
  static Json write(const SharedFaultPlan& plan) {
    return write_keys(*plan, kFaultKeys);
  }
};

// ---- Stations, flows, churn, top level -------------------------------------

/// A "trace" object is a class (with an optional seed) or a fixed rate
/// (with an optional step to "to_mbps" at "at_s").
bool check_trace(SpecReader& r, const Json& v, StationGroupSpec& g) {
  if (g.trace_class.has_value() == (g.rate_trace.mbps > 0.0)) {
    return r.fail(v, "needs exactly one of \"class\", \"mbps\"");
  }
  if (g.trace_seed.has_value() && !g.trace_class.has_value()) {
    return r.fail(v, "\"seed\" applies to a \"class\" trace");
  }
  const bool to = v.find("to_mbps") != nullptr;
  const bool at = v.find("at_s") != nullptr;
  if ((to || at) && (!to || !at || g.trace_class.has_value())) {
    return r.fail(v,
                  "a step needs \"mbps\", \"to_mbps\" > 0 and \"at_s\" >= 0");
  }
  return true;
}

using Group = StationGroupSpec;

constexpr SpecKey<Group> kTraceKeys[] = {
    key<Optional<Choice<kTraceKindNames>>, &Group::trace_class>("class"),
    key<Optional<Integer>, &Group::trace_seed>("seed"),
    key<Number, &Group::rate_trace, &RateTraceSpec::mbps>("mbps", kRateMbps),
    key<Number, &Group::rate_trace, &RateTraceSpec::to_mbps>("to_mbps",
                                                             kRateMbps),
    key<Number, &Group::rate_trace, &RateTraceSpec::at_s>("at_s", kTime),
};

/// A station group's "trace": a class name, or an object read through
/// kTraceKeys (the shape it is written in, when the group has a trace).
struct Trace {
  static bool read(const KeyInfo& k, SpecReader& r, const Json& v, Group& g) {
    SpecReader tr = r.child(k.name);
    if (v.kind() == Json::Kind::kString) {
      return Optional<Choice<kTraceKindNames>>::read({}, tr, v, g.trace_class);
    }
    return Object<kTraceKeys, check_trace>::read_in(tr, v, g);
  }
  static void write(const KeyInfo& k, const Group& g, Json& out) {
    const Json keys = write_keys(g, kTraceKeys);
    if (!keys.object().empty()) out.set(std::string(k.name), keys);
  }
};

constexpr SpecKey<FadeSpec> kFadeKeys[] = {
    key<Number, &FadeSpec::period_s>("period_s", kTime),
    key<Integer, &FadeSpec::depth_mcs>("depth_mcs", from(0, 7)),
    key<Number, &FadeSpec::duty>("duty", kProb),
};

constexpr SpecKey<Group> kStationKeys[] = {
    // Bounded so that summing the groups' counts cannot overflow.
    key<Integer, &Group::count>("count", from(1, 1024)),
    key<Integer, &Group::mcs>("mcs", from(0, 7)),
    key<Choice<kQdiscNames>, &Group::qdisc>("qdisc"),
    key<Choice<kLinkNames>, &Group::link>("link"),
    key<Packets, &Group::queue_limit_bytes>("queue_limit_pkts",
                                            from(1, 1e6)),
    key<Number, &Group::leave_s>("leave_s", kTimeOrUnset),
    SpecKey<Group>{{"trace"}, &Trace::read, &Trace::write},
    key<Object<kFadeKeys>, &Group::fade>("fade"),
};

bool check_flow(SpecReader& r, const Json& v, SpecFlow& f) {
  if (f.onoff && f.kind != SpecFlowKind::kTcpBulk) {
    return r.fail(*v.find("onoff"), "onoff only applies to tcp_bulk");
  }
  return true;
}

// "station" is checked against the station count after the pass.
constexpr SpecKey<SpecFlow> kFlowKeys[] = {
    key<Choice<kFlowKindNames>, &SpecFlow::kind>("kind"),
    key<Integer, &SpecFlow::station>("station", from(0)),
    key<Boolean, &SpecFlow::zhuge>("zhuge"),
    key<Number, &SpecFlow::start_s>("start_s", kTime),
    key<Number, &SpecFlow::stop_s>("stop_s", kTimeOrUnset),
    key<Number, &SpecFlow::max_bitrate_mbps>("max_bitrate_mbps", kRateMbps),
    key<Number, &SpecFlow::fps>("fps", kFps),
    key<Boolean, &SpecFlow::onoff>("onoff"),
};

/// "churn" present means enabled, unless it says "enabled": false.
bool check_churn(SpecReader& r, const Json& v, ChurnSpec& c) {
  c.enabled = c.enabled || v.find("enabled") == nullptr;
  if (c.mix_rtp_gcc + c.mix_tcp_cubic + c.mix_tcp_bbr <= 0) {
    return r.fail(v, "mix_* weights must be >= 0 and sum to > 0");
  }
  return true;
}

constexpr SpecKey<ChurnSpec> kChurnKeys[] = {
    key<Boolean, &ChurnSpec::enabled>("enabled"),
    // The floor bounds the arrivals a run draws: about duration / 1 ms.
    key<Number, &ChurnSpec::mean_interarrival_s>(
        "mean_interarrival_s", from(1e-3, kMaxSeconds)),
    key<Number, &ChurnSpec::mean_lifetime_s>("mean_lifetime_s",
                                             above(0, kMaxSeconds)),
    key<Number, &ChurnSpec::max_lifetime_s>("max_lifetime_s", kTime),
    key<Integer, &ChurnSpec::max_concurrent>("max_concurrent", from(1)),
    key<Number, &ChurnSpec::mix_rtp_gcc>("mix_rtp_gcc", from(0)),
    key<Number, &ChurnSpec::mix_tcp_cubic>("mix_tcp_cubic", from(0)),
    key<Number, &ChurnSpec::mix_tcp_bbr>("mix_tcp_bbr", from(0)),
    key<Number, &ChurnSpec::zhuge_fraction>("zhuge_fraction", kProb),
    key<Number, &ChurnSpec::start_s>("start_s", kTime),
    key<Number, &ChurnSpec::stop_s>("stop_s", kTimeOrUnset),
    key<Number, &ChurnSpec::max_bitrate_mbps>("max_bitrate_mbps", kRateMbps),
    key<Number, &ChurnSpec::fps>("fps", kFps),
};

using Spec = ScenarioSpec;

constexpr SpecKey<Spec> kTopKeys[] = {
    key<Text, &Spec::name>("name"),
    key<Number, &Spec::duration_s>("duration_s", above(0, kMaxSeconds)),
    key<Number, &Spec::warmup_s>("warmup_s", kTime),
    key<Integer, &Spec::seed>("seed"),
    key<Choice<kApModeNames>, &Spec::ap_mode>("ap_mode"),
    key<Number, &Spec::wan_one_way_ms>("wan_one_way_ms", kDelayMs),
    key<Number, &Spec::wan_rate_mbps>("wan_rate_mbps", kRateMbps),
    key<Integer, &Spec::interferers>("interferers", from(0, 1024)),
    key<Boolean, &Spec::mcs_reroll>("mcs_reroll"),
    key<Boolean, &Spec::series>("series"),
    key<Choice<kLadderLevelNames>, &Spec::zhuge, &core::ZhugeConfig::watchdog,
        &core::WatchdogConfig::initial_level>("zhuge_initial_ladder"),
    key<ObjectList<kStationKeys>, &Spec::stations>("stations"),
    key<ObjectList<kFlowKeys, check_flow>, &Spec::flows>("flows"),
    key<Object<kChurnKeys, check_churn>, &Spec::churn>("churn"),
    key<Faults, &Spec::faults>("faults"),
};

// A typo'd axis name would silently run the default axis while claiming a
// narrowed matrix (or vice versa).
constexpr SpecKey<EvalSpec> kEvalKeys[] = {
    key<Text, &EvalSpec::name>("name"),
    key<Number, &EvalSpec::duration_s>("duration_s", above(0, kMaxSeconds)),
    key<Number, &EvalSpec::warmup_s>("warmup_s", kTime),
    key<Integer, &EvalSpec::seed>("seed"),
    key<Number, &EvalSpec::max_bitrate_mbps>("max_bitrate_mbps", kRateMbps),
    key<Number, &EvalSpec::fps>("fps", kFps),
    key<ValueList<Choice<kMechanismNames>>, &EvalSpec::mechanisms>(
        "mechanisms"),
    key<ValueList<Choice<kCcaNames>>, &EvalSpec::ccas>("ccas"),
    key<ValueList<Choice<kTraceKindNames>>, &EvalSpec::traces>("traces"),
    key<ValueList<Integer>, &EvalSpec::densities>("densities", from(1, 64)),
};

/// `text` read through `keys`, then `check`ed across keys.
template <typename T, std::size_t N, typename Check>
std::optional<T> read_document(std::string_view text, const char* path,
                               const SpecKey<T> (&keys)[N], std::string* err,
                               Check check) {
  const auto doc = Json::parse(text, err);
  if (!doc.has_value()) return std::nullopt;
  T out;
  SpecReader r(path, err);
  if (!read_keys(r, *doc, keys, out) || !check(r, *doc, out)) {
    return std::nullopt;
  }
  return out;
}

/// Fail at `obj`'s member `key`, or at `obj` when the key is absent.
bool fail_at(SpecReader& r, const Json& obj, const char* key,
             const std::string& msg) {
  const Json* v = obj.find(key);
  return r.fail(v != nullptr ? *v : obj, msg);
}

}  // namespace

const char* to_string(SpecFlowKind kind) {
  return kFlowKindNames[static_cast<std::size_t>(kind)];
}
const char* to_string(EvalCca cca) {
  return kCcaNames[static_cast<std::size_t>(cca)];
}
const char* eval_mechanism_name(ApMode mode) {
  return kMechanismNames[static_cast<std::size_t>(mode)];
}

std::optional<ScenarioSpec> parse_scenario_spec(std::string_view text,
                                                std::string* err) {
  return read_document(
      text, "", kTopKeys, err,
      [](SpecReader& r, const Json& doc, const ScenarioSpec& spec) {
        if (spec.warmup_s >= spec.duration_s) {
          return fail_at(r, doc, "warmup_s",
                         "warmup_s must be in [0, duration_s)");
        }
        if (spec.stations.empty()) {
          return fail_at(r, doc, "stations",
                         "spec needs a non-empty \"stations\" array");
        }
        const int n_stations = spec.station_count();
        for (std::size_t i = 0; i < spec.flows.size(); ++i) {
          if (spec.flows[i].station < n_stations) continue;
          SpecReader fr = r.child(
              std::string("flows[").append(std::to_string(i)).append("]"));
          return fail_at(fr, doc.find("flows")->array()[i], "station",
                         "station out of range");
        }
        return true;
      });
}

std::optional<ScenarioSpec> load_scenario_spec(const std::string& path,
                                               std::string* err) {
  return load_document(path, err, parse_scenario_spec);
}

std::optional<Json> write_scenario_spec(const ScenarioSpec& spec,
                                        std::string* err) {
  Json doc = write_keys(spec, kTopKeys);
  // A member no key reads (an ablation field of `zhuge`, a second active
  // window) would not come back, so the writer parses its own output.
  std::string perr;
  const auto back = parse_scenario_spec(doc.dump(), &perr);
  if (back.has_value() && *back == spec) return doc;
  if (err != nullptr) {
    *err = "spec \"" + spec.name + "\" " +
           (back.has_value() ? "has a value no key can express"
                             : "does not parse back: " + perr);
  }
  return std::nullopt;
}

std::optional<EvalSpec> parse_eval_spec(std::string_view text,
                                        std::string* err) {
  return read_document(
      text, "eval", kEvalKeys, err,
      [](SpecReader& r, const Json& doc, const EvalSpec& spec) {
        return spec.warmup_s < spec.duration_s ||
               fail_at(r, doc, "warmup_s",
                       "warmup_s must be in [0, duration_s)");
      });
}

std::optional<EvalSpec> load_eval_spec(const std::string& path,
                                       std::string* err) {
  return load_document(path, err, parse_eval_spec);
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
