#pragma once
// The run record: the one machine-readable form of every run.
//
// Every tool that reports numbers for a program to read (scenario_run in
// each of its run modes and trace_summarize, each with `--record PATH`) and
// every golden file under tests/golden/ is one versioned JSON document:
//
//   {"schema": "zhuge.run/1",
//    "tool": "scenario_run", "build": "Release", "name": ..., "seed": N,
//    "fingerprint": "<16 hex digits>",   // the one the tool prints
//    "headline": {"<key>": number, ...},
//    ...one section per result kind...}
//
// The sections are "runs" (a spec sweep), "cells" + "comparisons" (the
// eval matrix), "verdicts" + "slo" (a chaos suite run) and
// "attrib" (latency attribution with the aggregate stage CDFs). Keys are
// written in sorted order and numbers at %.17g, so every value
// round-trips bit-exactly; a non-finite number is written as null, which
// readers treat as absent. The record holds no wall time and no thread
// count, so a run writes the same bytes for any --threads value (wall
// time stays in the text output). A golden is a record trimmed to
// {schema, name, seed, fingerprint, headline} (app/golden.hpp).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "app/chaos.hpp"
#include "app/eval.hpp"
#include "app/spec.hpp"
#include "app/sweep.hpp"
#include "obs/attrib.hpp"

namespace zhuge::app {

inline constexpr std::string_view kRunRecordSchema = "zhuge.run/1";

/// The header every record starts with, plus an empty headline. A
/// replayed trace carries no run to fingerprint: nullopt writes null.
[[nodiscard]] Json make_record(std::string_view tool, const std::string& name,
                               std::uint64_t seed,
                               std::optional<std::uint64_t> fingerprint);

/// The fingerprint of a spec sweep: a single run's own fingerprint, or the
/// FNV chain of the run fingerprints in grid order.
[[nodiscard]] std::uint64_t spec_sweep_fingerprint(
    const std::vector<SpecRun>& runs);

/// A spec sweep (tool "scenario_run", seed of the first run): one "runs"
/// entry per grid point, and an "attrib" section when any run recorded
/// latency attribution. The headline of a single run is its flow-0
/// latency, goodput and frames plus the engine counters (events_executed,
/// qdisc_drops, stranded_acks); a sweep's headline sums the counters.
/// Attribution adds `stage.<name>.p95_us` per populated stage of the
/// merged attribution.
[[nodiscard]] Json spec_record(const std::string& name,
                               const std::vector<SpecRun>& runs);

/// The eval matrix (tool "scenario_run"): every cell, every headline
/// comparison, and a headline of cell and comparison counts and the number
/// of Zhuge wins. A matrix of one axis point (a golden anchor) also
/// carries each mechanism's `<mechanism>_{frame_p95_ms,delayed_ratio,
/// goodput_bps}`.
[[nodiscard]] Json eval_record(const std::string& name, std::uint64_t seed,
                               const EvalMatrixResult& res);

/// A chaos suite run (tool "scenario_run"): every verdict with its recovery
/// SLO, the "slo" aggregate with the CDFs of time-to-detect,
/// time-to-recover, frames lost and the post/healthy p95 ratio, and an
/// "attrib" section when any case recorded latency attribution.
[[nodiscard]] Json chaos_record(const std::string& name, std::uint64_t seed,
                                const ChaosSuiteResult& res);

/// Add the "attrib" section and the `stage.<name>.p95_us` headline keys.
void add_attrib(Json& record, const obs::Attribution& attrib);

/// Pretty-print `record` to `path`; false on I/O failure.
[[nodiscard]] bool write_record(const std::string& path, const Json& record);

/// Read and parse a record file (a golden file is one). Checks the schema
/// and, with the strict SpecReader, the header: a string name, an integer
/// seed, a hex (or null) fingerprint and a headline of numbers or nulls.
[[nodiscard]] std::optional<Json> parse_record(std::string_view text,
                                               std::string* err);
[[nodiscard]] std::optional<Json> load_record(const std::string& path,
                                              std::string* err);

}  // namespace zhuge::app
