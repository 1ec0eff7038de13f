#pragma once
// Golden anchors: pinned run records.
//
// A golden file (tests/golden/<name>.json) is the run record of a
// canonical run (app/record.hpp) trimmed to {schema, name, seed,
// fingerprint, headline}. The fingerprint catches ANY behavioural drift —
// one packet scheduled one microsecond differently anywhere in the stack
// changes the hash — while the headline says what moved and pins what the
// hash leaves out (the engine's events_executed, the attribution stage
// p95s). Every key is compared exactly. Records are refreshed with
// `scenario_run --update-golden` when a change is intentional.
//
// The registry holds six anchors:
//   rtp_zhuge_single — one RTP/GCC flow through a Zhuge AP, MCS-7 Wi-Fi
//   tcp_mix          — TCP/BBR RTC flow + 2 CUBIC bulk competitors
//   chaos_burst      — RTP/Zhuge under a 3 s Gilbert-Elliott WAN burst
//   eval_w1_gcc      — the paper's headline claim (Zhuge p95 frame delay <
//   eval_c1_gcc        vanilla p95) on the W1 / C1 trace classes, GCC at
//                      4 stations; only blessed while the claim holds
//   attrib_dense64   — examples/specs/dense_64sta_churn.json with latency
//                      attribution on, pinning each stage's p95

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "app/spec.hpp"

namespace zhuge::app {

/// The six anchor names, in check order.
[[nodiscard]] std::vector<std::string> golden_names();

/// The spec behind a single-run scenario anchor (rtp_zhuge_single,
/// tcp_mix, chaos_burst); nullopt for other names.
[[nodiscard]] std::optional<ScenarioSpec> golden_scenario_spec(
    const std::string& name);

/// Run an anchor and build its full run record. `spec_dir` holds the
/// shipped example specs (attrib_dense64 reads one). nullopt with `*err`
/// for an unknown name or an unreadable spec.
[[nodiscard]] std::optional<Json> golden_run_record(const std::string& name,
                                                    const std::string& spec_dir,
                                                    std::string* err);

/// The golden subset of a record: {schema, name, seed, fingerprint,
/// headline}.
[[nodiscard]] Json trim_to_golden(const Json& record);

/// Compare two golden records exactly. Empty result = match; otherwise
/// one human-readable line per mismatch (header fields first, then every
/// headline key that moved, is missing or is new). Null headline values
/// count as absent.
[[nodiscard]] std::vector<std::string> compare_golden(const Json& expected,
                                                      const Json& actual);

/// The one check/update loop over the registry: re-run every anchor and
/// compare it with `dir/<name>.json` (or, with `update`, write it). Eval
/// anchors also fail — and are not written — unless Zhuge still wins.
/// Prints one line per anchor to `out`; returns 0 when all pass, 1 on any
/// drift, failed claim or unreadable golden, 2 when a write fails.
[[nodiscard]] int check_goldens(const std::string& dir,
                                const std::string& spec_dir, bool update,
                                std::ostream& out);

}  // namespace zhuge::app
