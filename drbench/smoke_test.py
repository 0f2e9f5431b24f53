#!/usr/bin/env python3
"""Smoke test for the repository benchmark.

Run from the repository root:

    python3 drbench/smoke_test.py

Builds drbench (through drbench/run.py), then runs every workload of
BENCHMARK.json at a tiny size in both modes and checks that: the run exits 0;
the last stdout line is the result object with correct=true and failed=0;
every declared metric is printed, with the declared unit; the BENCH lines
carry the declared bound and direction and a failed_frac of 0; the Chrome
trace file parses. One full-size run at the pinned seed checks the pinned
dataset and provenance hashes, and the comparator is run over two results.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COMPARE = os.path.join(ROOT, ".bench_build", "drbench", "drbench_compare")


def fail(msg):
    print(f"smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(workload, trace, extra=(), seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        fail(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    bench = [json.loads(l[len("BENCH "):]) for l in lines if l.startswith("BENCH {")]
    return result, bench, out.stdout


def check_result(spec, workload, trace, result, bench):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload}: result {result}")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    by_name = {b["metric"]: b for b in bench if b["workload"] == workload}
    for m in declared:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"{workload}: {m['name']} unit {metrics[m['name']]['unit']} != {m['unit']}")
        if m["name"] not in by_name:
            fail(f"{workload}: no BENCH line for {m['name']}")
        if not trace:
            line = by_name[m["name"]]
            if line.get("bound") != m["bound"] or line.get("better") != m["better"]:
                fail(f"{workload}: BENCH line for {m['name']} disagrees with BENCHMARK.json")
            if not metrics[m["name"]]["value"] > 0:
                fail(f"{workload}: end-to-end metric {m['name']} is not positive")
    if not trace and by_name.get("failed_frac", {}).get("value") != 0:
        fail(f"{workload}: failed_frac is not 0")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    outputs = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            trace_file = os.path.join(ROOT, ".bench_build", f"smoke-trace-{w}.json")
            extra = ["--size", "tiny"]
            if trace:
                extra += ["--trace-out", trace_file]
            result, bench, stdout = run(w, trace, extra)
            check_result(spec, w, trace, result, bench)
            if trace:
                with open(trace_file) as f:
                    events = json.load(f)["traceEvents"]
                if not events or any(e["ph"] != "X" for e in events):
                    fail(f"{w}: trace file has no complete events")
            else:
                outputs.append(stdout)
            print(f"smoke: ok {w} trace={trace}", file=sys.stderr)
    # Pinned hashes: a full-size run at the pinned seed fails on a mismatch.
    result, bench, _ = run("climate-serial", 0, seed=1234)
    check_result(spec, "climate-serial", 0, result, bench)
    print("smoke: ok pinned hashes", file=sys.stderr)
    # The comparator reads result files and prints one row per metric.
    paths = []
    for i in (0, 1):
        path = os.path.join(ROOT, ".bench_build", f"smoke-result-{i}.txt")
        with open(path, "w") as f:
            f.write("".join(outputs))
        paths.append(path)
    out = subprocess.run([COMPARE, *paths], capture_output=True, text=True)
    rows = [l for l in out.stdout.splitlines() if "unchanged" in l]
    # The same runs on both sides: every (workload, metric) row is unchanged.
    if out.returncode != 0 or len(rows) != len(outputs) * len(spec["end_to_end"]):
        fail(f"comparator: exit {out.returncode}\n{out.stdout}")
    print("smoke: ok comparator", file=sys.stderr)
    print("smoke: all checks passed", file=sys.stderr)


if __name__ == "__main__":
    main()
