#pragma once
// Declarative multi-station scenario specs.
//
// A ScenarioSpec describes N stations on one AP (per-station MCS and fade
// profile), a set of statically scheduled flows, and an optional flow-churn
// process whose arrival/departure schedule is drawn from a dedicated RNG
// substream — the versioned-workload idea from the closed-loop benchmarking
// literature: the workload is data, not code, so dense scale scenarios are
// reproducible, diffable, and shareable.
//
// Specs are JSON, read and written by the repo's one codec (obs/json.hpp)
// through one key table per spec object (spec.cpp): the same table drives
// the strict parser and the canonical writer, of scenario and eval specs
// alike, and a written spec parses back to an equal one. SpecReader, the
// strict typed reads under both, also serves the run records
// (app/record.hpp).

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "app/access_point.hpp"
#include "fault/fault.hpp"
#include "obs/json.hpp"
#include "obs/slo.hpp"
#include "trace/synthetic.hpp"

namespace zhuge::app {

/// The JSON value type lives in obs (obs/json.hpp), the lowest layer that
/// reads or writes JSON; app code names it app::Json.
using Json = obs::Json;

/// Strict typed reads from one JSON object of outside input (scenario
/// specs, eval specs, run records). Each read checks the value's kind and
/// otherwise fails with "line N: <path>: message" in `*err`; integers must
/// also be whole and fit the destination, so "seed": -1 or "count": 2.7
/// is an error rather than a different scenario than the one written.
class SpecReader {
 public:
  SpecReader(std::string path, std::string* err)
      : path_(std::move(path)), err_(err) {}

  /// The reader of the value under `key` ("path.key"), and of the top level.
  [[nodiscard]] SpecReader child(std::string_view key) const;
  [[nodiscard]] SpecReader root() const { return {"", err_}; }

  bool fail(const Json& at, const std::string& msg);
  /// "\"key\" must be <what>".
  bool must_be(const Json& at, std::string_view key, std::string_view what);
  bool unknown(std::string_view key, const Json& v);
  bool object(const Json& v);
  bool num(const Json& v, std::string_view key, double& out);
  bool text(const Json& v, std::string_view key, std::string& out);
  bool boolean(const Json& v, std::string_view key, bool& out);

  template <typename Int>
  bool integer(const Json& v, std::string_view key, Int& out) {
    double d = 0.0;
    if (!num(v, key, d)) return false;
    if (!whole_in_range(d, std::numeric_limits<Int>::is_signed,
                        std::numeric_limits<Int>::digits)) {
      return must_be(v, key, "an integer in range");
    }
    out = static_cast<Int>(d);
    return true;
  }

 private:
  /// `d` is whole and inside [-2^digits, 2^digits) (signed) or
  /// [0, 2^digits) (unsigned), so the cast to the integer is exact.
  static bool whole_in_range(double d, bool is_signed, int digits);

  std::string path_;
  std::string* err_;
};

// ---------------------------------------------------------------------------
// Spec model
// ---------------------------------------------------------------------------

/// Flow families a spec can schedule. rtp_gcc is the paper's RTC workload;
/// tcp_cubic, tcp_bbr and tcp_copa stream the same video over TCP (§7.3;
/// Copa is the paper's TCP CCA); tcp_abc is the cooperating sender for the
/// ABC baseline AP — its cwnd follows the router's accelerate/brake marks,
/// so it only makes sense under ap_mode "abc". tcp_bulk is a CUBIC bulk
/// transfer with no video (the Fig. 16 competitors and the Fig. 18 "scp"
/// transfer). New kinds append: the numeric value is hashed.
enum class SpecFlowKind : std::uint8_t {
  kRtpGcc, kTcpCubic, kTcpBbr, kTcpAbc, kTcpCopa, kTcpBulk
};

[[nodiscard]] const char* to_string(SpecFlowKind kind);

/// Periodic PHY fade: every `period_s` the station drops `depth_mcs` MCS
/// indices for `duty` of the period (mmWave-blockage-style square wave).
/// period_s == 0 disables fading.
struct FadeSpec {
  double period_s = 0.0;
  int depth_mcs = 0;
  double duty = 0.5;

  friend bool operator==(const FadeSpec&, const FadeSpec&) = default;
};

/// Fixed-rate downlink trace ("trace": {"mbps": R} constant; add "to_mbps"
/// and "at_s" for one step to R2 at T s — the Fig. 4/14/15 ABW drop).
/// mbps == 0 leaves the station in trace-class or MCS mode.
struct RateTraceSpec {
  double mbps = 0.0;
  double to_mbps = 0.0;
  double at_s = -1.0;  ///< < 0 = no step

  friend bool operator==(const RateTraceSpec&, const RateTraceSpec&) = default;
};

/// A group of `count` identical stations.
struct StationGroupSpec {
  int count = 1;
  int mcs = 7;  ///< 802.11n-like MCS index 0..7
  QdiscKind qdisc = QdiscKind::kFifo;
  std::int64_t queue_limit_bytes = 300 * 1500;
  /// Last hop ("link": "wifi"|"cellular"): AMPDU Wi-Fi on the shared CSMA
  /// medium, or a per-UE TTI-scheduled cellular link (both directions).
  LinkKind link = LinkKind::kWifi;
  FadeSpec fade{};
  /// When set ("trace": "W1"|"W2"|"C1"|"C2"|"C3"|"ETH"|"ABC", or
  /// {"class": ..., "seed": N}) the station's downlink PHY follows a
  /// synthetic trace of that class instead of a fixed MCS rate; each
  /// station in the group gets its own trace drawn from (trace_seed, or
  /// the run seed) + station index so a dense group doesn't fade in
  /// lockstep. `mcs` still sets the uplink rate. Unset = MCS mode.
  std::optional<trace::TraceKind> trace_class{};
  std::optional<std::uint64_t> trace_seed{};
  RateTraceSpec rate_trace{};
  /// When > 0 every station in the group deassociates at this time: the AP
  /// quiesces it (AccessPoint::unregister_station) and its remaining
  /// downlink traffic black-holes. -1 = stays for the whole run.
  double leave_s = -1.0;

  friend bool operator==(const StationGroupSpec&, const StationGroupSpec&) = default;
};

/// One statically scheduled flow.
struct SpecFlow {
  SpecFlowKind kind = SpecFlowKind::kRtpGcc;
  int station = 0;        ///< station index after group expansion
  bool zhuge = false;     ///< per-flow AP optimisation on/off
  double start_s = 0.0;
  double stop_s = -1.0;   ///< -1 = run end
  double max_bitrate_mbps = 2.5;
  double fps = 30.0;
  /// tcp_bulk only: the transfer starts paused and toggles on/off every
  /// 30 s ("onoff", the Fig. 18 "scp" competitor); off = always on.
  bool onoff = false;

  friend bool operator==(const SpecFlow&, const SpecFlow&) = default;
};

/// Flow-churn process: Poisson-like arrivals with exponential lifetimes,
/// drawn from a dedicated RNG substream (see expand_flow_schedule).
struct ChurnSpec {
  bool enabled = false;
  double mean_interarrival_s = 1.0;
  double mean_lifetime_s = 10.0;
  double max_lifetime_s = 60.0;   ///< clamp for the exponential tail
  int max_concurrent = 16;        ///< arrivals beyond this are skipped
  double mix_rtp_gcc = 1.0;       ///< relative weights of the flow kinds
  double mix_tcp_cubic = 0.0;
  double mix_tcp_bbr = 0.0;
  double zhuge_fraction = 1.0;    ///< P(churn flow gets Zhuge), RTP only
  double start_s = 0.0;
  double stop_s = -1.0;           ///< -1 = run end
  double max_bitrate_mbps = 2.5;
  double fps = 30.0;

  friend bool operator==(const ChurnSpec&, const ChurnSpec&) = default;
};

/// A fault plan shared by the copies of a spec (null = no faults) that
/// compares by value.
struct SharedFaultPlan : std::shared_ptr<const fault::FaultPlan> {
  using std::shared_ptr<const fault::FaultPlan>::shared_ptr;
  SharedFaultPlan() = default;
  SharedFaultPlan(std::shared_ptr<const fault::FaultPlan> plan)  // NOLINT
      : std::shared_ptr<const fault::FaultPlan>(std::move(plan)) {}

  friend bool operator==(const SharedFaultPlan& a, const SharedFaultPlan& b) {
    return a.get() == b.get() || (a && b && *a == *b);
  }
  friend bool operator==(const SharedFaultPlan& a, std::nullptr_t) {
    return !a;
  }
};

/// Full declarative multi-station scenario.
struct ScenarioSpec {
  std::string name = "unnamed";
  double duration_s = 30.0;
  double warmup_s = 5.0;
  std::uint64_t seed = 1;
  ApMode ap_mode = ApMode::kZhuge;
  double wan_one_way_ms = 20.0;
  double wan_rate_mbps = 1000.0;
  std::vector<StationGroupSpec> stations;
  std::vector<SpecFlow> flows;
  ChurnSpec churn{};

  /// Saturating wireless interferers on other APs sharing the channel
  /// ("interferers", Fig. 17): each medium grant is lost to them with
  /// probability n/(n+1).
  int interferers = 0;
  /// Every 30 s each MCS-mode station re-draws its MCS uniformly from
  /// 0..5 ("mcs_reroll", the Fig. 18 "mcs" scenario).
  bool mcs_reroll = false;
  /// Record the flow-0 time series ("series": true). Off by default: the
  /// sampler adds events, and runs that only need distributions (eval,
  /// sweeps) should not pay for them.
  bool series = false;

  /// Fault injection ("faults" section, strictly validated): per-packet
  /// injectors at the data-path and control-loop boundaries, AP clock
  /// jumps and optimiser restarts. The ap_feedback and uplink_rtcp
  /// boundaries run feedback-only; data packets pass them untouched.
  /// Shared and immutable so that copying a spec (the eval matrix makes
  /// one per cell) stays cheap; null = no faults.
  SharedFaultPlan faults;

  /// AP-side Zhuge configuration. The spec key "zhuge_initial_ladder"
  /// sets watchdog.initial_level: the default kFull runs the normal
  /// watchdog; any other level holds every optimised flow at that level —
  /// kPassThrough is the fingerprint-identical-to-Zhuge-off control. The
  /// other knobs are the ablation switches (`figures ablation`).
  core::ZhugeConfig zhuge{};

  /// The fault plan, or an empty one when `faults` is null.
  [[nodiscard]] const fault::FaultPlan& fault_plan() const;

  /// Total stations after group expansion.
  [[nodiscard]] int station_count() const;
  /// The group a station index falls in (station_count() must be > index).
  [[nodiscard]] const StationGroupSpec& station_group(int station) const;

  /// Field-by-field, the nested specs, configs and fault plan included.
  /// Two specs equal apart from `name` run the same simulation (the name
  /// only labels the result), which is how the eval matrix finds the
  /// cells one run can judge.
  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Parse a spec document. Every object is strictly validated: a typo'd
/// key would silently run a default scenario while claiming to run the
/// one asked for, so unknown keys, values of the wrong type, and
/// out-of-range values fail with "line N:" errors in `*err`, as do
/// structural errors (wrong JSON, no stations, bad enums).
[[nodiscard]] std::optional<ScenarioSpec> parse_scenario_spec(
    std::string_view text, std::string* err);

/// The canonical document of `spec`: each key whose member is not at its
/// default, through the tables the parser reads, so it parses back to
/// `spec`. A spec the keys cannot express (a `zhuge` ablation field, a
/// second active window) is refused with `*err` set, never trimmed.
[[nodiscard]] std::optional<Json> write_scenario_spec(const ScenarioSpec& spec,
                                                      std::string* err);

/// Read + parse a spec file.
[[nodiscard]] std::optional<ScenarioSpec> load_scenario_spec(
    const std::string& path, std::string* err);

/// `parse` of the text of the file at `path` (a spec, an eval spec, a run
/// record); an error leads with the path.
template <typename Parse>
auto load_document(const std::string& path, std::string* err, Parse parse) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  auto doc = parse(text.str(), err);
  if (!doc.has_value() && err != nullptr) {
    *err = path + ": " + (in ? *err : "cannot open");
  }
  return doc;
}

// ---------------------------------------------------------------------------
// Schedule expansion
// ---------------------------------------------------------------------------

/// A concrete flow lifetime produced from the spec: static flows first (in
/// declaration order), then churn arrivals in time order.
struct FlowEvent {
  std::uint32_t index = 0;  ///< dense id; the engine derives ports from it
  SpecFlowKind kind = SpecFlowKind::kRtpGcc;
  int station = 0;
  bool zhuge = false;
  double start_s = 0.0;
  double stop_s = 0.0;
  double max_bitrate_mbps = 2.5;
  double fps = 30.0;
  bool onoff = false;
};

/// Expand the spec into a deterministic flow schedule for `seed`. Churn
/// draws come from Rng(seed, substreams::kSpecFlowChurn) in a fixed per-arrival order
/// (interarrival, lifetime, kind, station, zhuge) — draws are consumed even
/// for arrivals skipped by max_concurrent, so admitting or dropping one
/// arrival never shifts the randomness of the rest of the schedule.
[[nodiscard]] std::vector<FlowEvent> expand_flow_schedule(
    const ScenarioSpec& spec, std::uint64_t seed);

}  // namespace zhuge::app
