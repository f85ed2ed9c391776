#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
perfbench package (Release) under .bench_build/; later runs only re-check
the build. The binary prints every metric by name with its unit and writes
a full report; this script then prints, as the last line of standard
output, the benchmark's JSON result with the metrics BENCHMARK.json names:
its end-to-end metrics with --trace 0, its per-layer metrics with --trace 1
(a layer the workload does not exercise reads 0). The exit code is non-zero
when the build fails or a correctness gate fails. Extra flags (--toy,
--perturb GATE) pass through to the binary.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
# Compiler and library temporaries stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("detect_sweep", "exposure_ladder", "serve_audit")
# A run must finish well inside the 180-s budget even on a slow host.
RUN_TIMEOUT_S = 170


def build(env):
    """Configures (once) and builds the perfbench binary; build output goes
    to stderr so standard output stays the benchmark's."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no locpriv sources next to %s; run from a checkout"
                 % HERE)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, env=env, check=True)


def result_line(report, trace):
    """The result object: BENCHMARK.json's metrics for this kind of run,
    valued from the binary's report."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    if trace == "0":
        wanted, measured, fill = bench["end_to_end"], report["e2e"], False
    else:
        wanted, measured, fill = bench["per_layer"], report["layers"], True
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = measured.get(name)
        if got is None and not fill:
            sys.exit("perfbench: the run reported no %s" % name)
        if got is not None and got["unit"] != unit:
            sys.exit("perfbench: %s is in %s, BENCHMARK.json says %s"
                     % (name, got["unit"], unit))
        metrics[name] = {"value": got["value"] if got else 0.0, "unit": unit}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args, extra = parser.parse_known_args()
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    try:
        build(env)
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit("perfbench: build failed: %s" % error)
    report_path = os.path.join(OUT_DIR, "%s-seed%d-trace%s.json"
                               % (args.workload, args.seed, args.trace))
    if os.path.exists(report_path):
        os.remove(report_path)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", OUT_DIR, "--report", report_path,
               "--expected", os.path.join(HERE, "expected.txt")] + extra
    sys.stdout.flush()
    process = subprocess.Popen(command, env=env)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The service's shards exit on their own once their command pipe
        # closes with the killed parent.
        process.kill()
        process.wait()
        sys.exit("perfbench: %s did not finish within %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    if not os.path.exists(report_path):
        sys.exit("perfbench: %s exited %d without a report" % (args.workload, code))
    with open(report_path) as handle:
        line = result_line(json.load(handle), args.trace)
    print(json.dumps(line))
    return 0 if code == 0 and line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
