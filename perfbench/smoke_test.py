#!/usr/bin/env python3
"""Smoke test of the perfbench package at toy size (12 users).

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it checks that
  * an untraced and a traced run pass every correctness gate and emit
    exactly the end-to-end (--trace 0) or per-layer (--trace 1) metrics that
    BENCHMARK.json names, each with its unit, every end-to-end value above 0;
  * each correctness gate fails, with a non-zero exit and "correct": false,
    when its expected value is perturbed (--perturb GATE).
It also checks that every per-layer metric of BENCHMARK.json is measured by
at least one workload, not only filled with 0 by run.py. Exits non-zero on
any failure. Takes about a minute after the build.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
SEED = 1


def run(workload, seconds, trace, extra=()):
    """One toy run; returns (exit code, parsed last stdout line or None)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", str(trace),
               "--toy"] + list(extra)
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=175)
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return completed.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    measured_layers = set()
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, result = run(workload, seconds, trace)
            label = "%s --trace %d" % (workload, trace)
            if code != 0 or not result or result.get("correct") is not True:
                failures.append("%s: exit %d, result %s" % (label, code, result))
                continue
            emitted = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            if emitted != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(wanted[trace]))
                wrong = sorted(n for n in emitted if n in wanted[trace]
                               and emitted[n] != wanted[trace][n])
                failures.append("%s: missing %s, unexpected %s, wrong unit %s"
                                % (label, missing, extra, wrong))
            if trace == 0:
                zero = sorted(name for name, metric in result["metrics"].items()
                              if not metric["value"] > 0)
                if zero:
                    failures.append("%s: end-to-end metrics not above 0: %s"
                                    % (label, zero))
            print("ok   %s: %d metrics, attempted %d" %
                  (label, len(emitted), result["attempted"]))
        report_path = os.path.join(OUT_DIR, "%s-seed%d-trace1.json"
                                   % (workload, SEED))
        with open(report_path) as handle:
            report = json.load(handle)
        measured_layers.update(report["layers"])
        for gate in (gate["name"] for gate in report["gates"]):
            code, result = run(workload, seconds, 1, ["--perturb", gate])
            if code == 0 or not result or result.get("correct") is not False:
                failures.append("%s: gate %s passed with a perturbed "
                                "expected value" % (workload, gate))
            else:
                print("ok   %s: gate %s fails when perturbed" % (workload, gate))
    unmeasured = sorted(set(wanted[1]) - measured_layers)
    if unmeasured:
        failures.append("per-layer metrics no workload measures: %s" % unmeasured)
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
