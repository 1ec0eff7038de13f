#pragma once
// Golden-trace regression records.
//
// A golden record pins the full 64-bit result fingerprint (see
// multi_result_fingerprint) of a canonical scenario at a fixed seed,
// plus a handful of headline metrics. The fingerprint catches ANY
// behavioural drift — one packet scheduled one microsecond differently
// anywhere in the stack changes the hash — while the stored headline
// metrics say what moved, and pin what the hash leaves out (the engine's
// events_executed). Records live in tests/golden/*.json and are refreshed
// with `scenario_run --update-golden` when a change is intentional.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "app/spec.hpp"
#include "app/sweep.hpp"

namespace zhuge::app {

/// One pinned scenario outcome.
struct GoldenRecord {
  std::string name;
  std::uint64_t seed = 1;
  std::uint64_t fingerprint = 0;
  /// Headline metrics captured when the record was made; each must match
  /// exactly, like the fingerprint.
  std::map<std::string, double> headline;
};

/// Names of the canonical golden scenarios:
///   rtp_zhuge_single — one RTP/GCC flow through a Zhuge AP, MCS-7 Wi-Fi
///   tcp_mix          — TCP/BBR RTC flow + 2 CUBIC bulk competitors
///   chaos_burst      — RTP/Zhuge under a 3 s Gilbert-Elliott WAN burst
[[nodiscard]] std::vector<std::string> golden_scenario_names();

/// The canonical spec behind a name; nullopt for unknown names.
[[nodiscard]] std::optional<ScenarioSpec> golden_scenario_spec(
    const std::string& name);

/// Run a canonical scenario and build its record. The fingerprint is the
/// one a sweep, an eval cell or any reader order would produce: it hashes
/// behaviour only, so neither the obs switches nor quantile reads move it.
[[nodiscard]] std::optional<GoldenRecord> compute_golden(
    const std::string& name);

/// Compare two records. Empty result = match; otherwise one
/// human-readable line per mismatch (fingerprint first, then every
/// headline metric that moved, is missing or is new), whether or not the
/// fingerprint matched.
[[nodiscard]] std::vector<std::string> compare_golden(
    const GoldenRecord& expected, const GoldenRecord& actual);

/// (De)serialisation. Fingerprints are stored as 16-digit hex strings —
/// a JSON number (double) cannot hold 64 bits exactly.
[[nodiscard]] Json golden_to_json(const GoldenRecord& rec);
[[nodiscard]] std::optional<GoldenRecord> golden_from_json(const Json& j,
                                                           std::string* err);
[[nodiscard]] std::optional<GoldenRecord> load_golden_file(
    const std::string& path, std::string* err);
/// Write a pretty-printed record; returns false on I/O failure.
[[nodiscard]] bool write_golden_file(const std::string& path,
                                     const GoldenRecord& rec);

// ---------------------------------------------------------------------------
// Latency-attribution goldens
// ---------------------------------------------------------------------------

/// Pinned per-stage latency profile of a canonical scenario: the aggregate
/// p95 of every stage that saw traffic, in microseconds. Unlike the full
/// fingerprint, a drift report here names the *stage* that moved — "air
/// p95 grew 40%" localises a regression the 64-bit hash can only detect.
struct AttribGolden {
  std::string name;
  std::uint64_t seed = 1;
  std::map<std::string, double> stage_p95_us;  ///< stage name -> p95 (us)
};

/// Build the record from a run's attribution aggregate.
[[nodiscard]] AttribGolden make_attrib_golden(const std::string& name,
                                              std::uint64_t seed,
                                              const obs::Attribution& attrib);

/// Compare with relative tolerance (default 1e-6 — the records are
/// deterministic; the slack only absorbs JSON round-trip rounding). One
/// human-readable line per drifting stage.
[[nodiscard]] std::vector<std::string> compare_attrib_golden(
    const AttribGolden& expected, const AttribGolden& actual,
    double rel_tol = 1e-6);

[[nodiscard]] Json attrib_golden_to_json(const AttribGolden& rec);
[[nodiscard]] std::optional<AttribGolden> attrib_golden_from_json(
    const Json& j, std::string* err);
[[nodiscard]] std::optional<AttribGolden> load_attrib_golden_file(
    const std::string& path, std::string* err);
[[nodiscard]] bool write_attrib_golden_file(const std::string& path,
                                            const AttribGolden& rec);

}  // namespace zhuge::app
