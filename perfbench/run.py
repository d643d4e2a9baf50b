#!/usr/bin/env python3
"""Build and run the Unicert benchmark.

    python3 perfbench/run.py --workload analyze|ingest|fuzz \
        --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune from the sources in this checkout,
runs one workload, completes its result line from the metric catalog
in BENCHMARK.json (end-to-end metrics untraced, per-layer metrics
traced), and prints it as the last line of stdout.  Exits nonzero
when an output check fails, and without a result line when the sources
are missing, the build fails or the result does not match the catalog.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(2, "missing %s: run from a checkout of the repository" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail(2, "dune not found on PATH")
    env = dict(os.environ)
    # Keep every build product inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(WORK, "cache")
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
        timeout=BUILD_TIMEOUT)
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail(3, "build failed")


def check_result(line, trace):
    """Complete the workload's result line from the BENCHMARK.json catalog.

    Every end-to-end metric must be measured.  A per-layer metric of a
    layer the workload never calls reads 0.  Units must match the
    catalog, and a measured metric must be in it.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    catalog = spec["per_layer" if trace else "end_to_end"]
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(4, "result keys are not correct, attempted, failed and metrics")
    measured = result["metrics"]
    extra = sorted(set(measured) - {m["name"] for m in catalog})
    if extra:
        fail(4, "metrics not in BENCHMARK.json: %s" % extra)
    metrics = {}
    for m in catalog:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                fail(4, "end-to-end metric %s missing" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            fail(4, "unit of %s is %s, BENCHMARK.json says %s" % (
                m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    result["metrics"] = metrics
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["analyze", "ingest", "fuzz"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    build()
    os.makedirs(WORK, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(5, "workload exceeded %d s" % RUN_TIMEOUT)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        fail(1, "workload failed (exit %d)" % proc.returncode)
    result = check_result(lines[-1], args.trace == 1)
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        fail(1, "output check failed (exit %d)" % proc.returncode)


if __name__ == "__main__":
    main()
