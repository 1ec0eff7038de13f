#!/usr/bin/env python3
"""Self-check of the benchmark at a tiny run length.

Run from the repository root:

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

For every workload it runs perfbench/run.py untraced and traced and checks
that the result line has exactly the keys correct/attempted/failed/metrics,
that every end-to-end and per-layer metric named in BENCHMARK.json is
emitted with its unit, that no repetition failed, that every end-to-end
metric is non-zero, that every per-layer metric whose layer runs on that
workload is non-zero, and that the traced run wrote a spans file holding
the expected public calls. It then induces a fingerprint mismatch and
checks that it is counted as a failed repetition with a non-zero exit.
Prints one line per expectation that failed and exits 1 if any did.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that must be non-zero on every workload: the layers
# every multi-station run exercises. stage.decode_wait is left out: frames
# that arrive in order wait 0 us, so its p95 can be 0 while the stage runs.
COMMON = [
    "host.reference_ms",
    "sim.events", "sim.events_per_sim_s", "sim.events_per_wall_s",
    "app.spec_parse_ms", "app.expand_ms", "app.run_ms", "app.traced_run_ms",
    "app.trace_overhead", "app.fingerprint_ms", "app.flow_arrivals",
    "ap.downlink_packets", "ap.uplink_forwarded",
    "wireless.wifi.frames", "wireless.wifi.ampdu_packets.mean",
    "wireless.wifi.retries", "wireless.wifi.delivered_packets",
    "wireless.airtime_s",
    "queue.fifo.enqueued_packets", "queue.fifo.sojourn_us.p95",
    "fortune.predictions", "feedback.inband.rtp_recorded",
    "feedback.inband.twcc_sent", "core.prediction_error_p95_ms",
] + [f"stage.{s}.p95_us" for s in ("pacing", "wan", "ap_queue", "air", "e2e",
                                    "reassembly", "frame_e2e")] + [
    f"stage.{s}.p95_us.{g}" for s in ("ap_queue", "frame_e2e")
    for g in ("zhuge", "baseline")]

# Layers that run on one workload only.
ONLY = {
    "dense_churn": [
        "app.flow_departures",
        "queue.fq_codel.enqueued_packets", "queue.fq_codel.sojourn_us.p95",
    ],
    "rtp_trace": ["trace.make_trace_ms"],
    "eval_matrix": [
        "trace.make_trace_ms",
        "app.pool.matrix_wall_ms", "app.pool.cell_wall_p50_ms",
        "app.pool.cell_wall_p90_ms", "app.pool.utilisation",
        "app.cell_wall_p50_ms.vanilla", "app.cell_wall_p50_ms.zhuge",
        "app.cell_wall_p50_ms.fastack", "app.cell_wall_p50_ms.abc",
        "ap.uplink_delayed", "feedback.oob.acks",
        "feedback.oob.ack_hold_ms.p95", "core.p95_reduction",
    ],
}

# Public calls the traced run must have recorded spans for.
SPANS = {
    "dense_churn": {"setup", "spec_parse", "expand", "run_multi_station",
                    "fingerprint"},
    "rtp_trace": {"setup", "spec_parse", "expand", "make_trace",
                  "run_multi_station", "fingerprint"},
    "eval_matrix": {"setup", "spec_parse", "expand", "run_eval_matrix", "cell",
                    "make_trace", "run_multi_station", "fingerprint"},
}


def run(workload, seed, seconds, trace, induce=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if induce:
        cmd.append("--induce-failure")
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result, p.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
            print("FAIL " + what)

    for w in (x["name"] for x in bench["workloads"]):
        for trace, names in ((0, e2e), (1, layer)):
            tag = f"{w} --trace {trace}"
            before = len(problems)
            rc, res, err = run(w, args.seed, args.seconds, trace)
            expect(rc == 0, f"{tag}: exit code {rc}\n{err}")
            if res is None:
                expect(False, f"{tag}: no result line")
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys {sorted(res)}")
            expect(res.get("correct") is True and res.get("failed") == 0
                   and res.get("attempted", 0) >= 1,
                   f"{tag}: correct={res.get('correct')} "
                   f"attempted={res.get('attempted')} failed={res.get('failed')}")
            metrics = res.get("metrics", {})
            expect(sorted(metrics) == sorted(names),
                   f"{tag}: metric names differ from BENCHMARK.json: "
                   f"{sorted(set(metrics) ^ set(names))}")
            for name, m in metrics.items():
                expect(m.get("unit") == units.get(name),
                       f"{tag}: {name} unit {m.get('unit')} != {units.get(name)}")
            nonzero = e2e if trace == 0 else COMMON + ONLY[w]
            for name in nonzero:
                value = metrics.get(name, {}).get("value", 0)
                expect(value != 0, f"{tag}: {name} is 0 although its layer runs")
            if trace:
                path = os.path.join(ROOT, ".bench_build", "spans",
                                    f"{w}-seed{args.seed}.json")
                try:
                    with open(path) as f:
                        spans = json.load(f)["spans"]
                except (OSError, ValueError, KeyError) as e:
                    expect(False, f"{tag}: spans file {path}: {e}")
                    continue
                keys = {"name", "start_ms", "end_ms", "parent", "run", "self_ms"}
                expect(all(keys <= set(s) for s in spans),
                       f"{tag}: a span lacks one of {sorted(keys)}")
                missing = SPANS[w] - {s["name"] for s in spans}
                expect(not missing, f"{tag}: no spans for {sorted(missing)}")
            if len(problems) == before:
                print(f"ok   {tag}")

    rc, res, _ = run("rtp_trace", args.seed, args.seconds, 0, induce=True)
    counted = (rc != 0 and res is not None and res.get("correct") is False
               and res.get("failed", 0) >= 1)
    expect(counted, f"induced fingerprint mismatch not counted: exit {rc}, "
                    f"result {res}")
    if counted:
        print("ok   induced fingerprint mismatch counted as a failed repetition")

    print(f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
