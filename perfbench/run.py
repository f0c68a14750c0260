#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md).

    python3 perfbench/run.py --workload reads_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke [--bin PATH]

The first call configures and builds perfbench/ (which builds libanyseq
from the parent directory) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set.  Each run executes one
workload in a fresh process and prints the benchmark's output; its last
line is one JSON object {"correct", "attempted", "failed", "metrics"}
holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) that BENCHMARK.json names.  The full record of the run is
written to --out (default: the build directory).

--smoke runs every workload at about 1% size in both modes and checks
that each output carries exactly the metric names BENCHMARK.json lists;
it makes no timing assertions.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
RUN_TIMEOUT_S = 160


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then bring anyseq_bench up to date; returns its path."""
    if not (ROOT / "src" / "anyseq" / "anyseq.hpp").is_file():
        fail("library sources (src/) are missing: run from an anyseq checkout")
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "anyseq_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    exe = bdir / "anyseq_bench"
    if not exe.is_file():
        fail(f"{exe} was not produced")
    return exe


def run_bench(exe, workload, seed, seconds, traced, smoke, out):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out)]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    # Linux keeps the exec-ing image's resident high-water mark in the new
    # program's ru_maxrss, so a benchmark exec'd straight from this
    # interpreter could never report less than its ~14 MB.  coreutils
    # timeout forks the benchmark from its own small image, and stops it
    # (then waits for it) if it overruns.
    if shutil.which("timeout"):
        cmd = ["timeout", "--foreground", "-k", "5", str(RUN_TIMEOUT_S)] + cmd
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S + 10)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if proc.returncode in (124, 137):
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return proc.returncode, lines, result


def check_result(spec, result, traced):
    """Problems with one result line (empty when it meets the contract)."""
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["last line is not a {correct, attempted, failed, metrics} object"]
    want = spec["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in want}
    got = result["metrics"]
    if set(got) != set(units):
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    for name, m in got.items():
        if not NAME_RE.fullmatch(name):
            problems.append(f"bad metric name {name!r}")
        v = m.get("value") if isinstance(m, dict) else None
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name}: value is not a finite number")
        if name in units and m.get("unit") != units[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {units[name]!r}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("outputs not verified correct")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    return problems


def smoke(spec, exe):
    start = time.monotonic()
    bad = 0
    for w in spec["workloads"]:
        for traced in (False, True):
            out = build_dir() / f"smoke_{w['name']}_{int(traced)}.json"
            code, _, result = run_bench(exe, w["name"], 1, 0.3, traced, True, out)
            problems = check_result(spec, result, traced)
            if code != 0:
                problems.append(f"exit code {code}")
            tag = f"{w['name']} trace={int(traced)}"
            print(f"{tag:24s} {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"  {p}")
            bad += bool(problems)
    print(f"smoke: {bad} failing run(s), {time.monotonic() - start:.1f} s")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="where to write the full run record")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bin", help="use this anyseq_bench instead of building")
    args = ap.parse_args()

    spec = load_spec()
    exe = Path(args.bin) if args.bin else build()
    if args.smoke:
        sys.exit(smoke(spec, exe))

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    out = Path(args.out) if args.out else (
        build_dir() / f"last_{args.workload}_{args.trace}.json")
    code, lines, result = run_bench(exe, args.workload, args.seed,
                                    args.seconds, args.trace == 1, False, out)
    problems = check_result(spec, result, args.trace == 1)
    if code != 0 or problems:
        sys.stderr.write("\n".join(lines) + "\n")
        fail(f"{args.workload}: exit code {code}; " + "; ".join(problems))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
